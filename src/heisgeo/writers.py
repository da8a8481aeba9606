"""Deterministic mesh files: OBJ and PLY writers.

All numeric output is formatted with 17 significant decimal digits, which
round-trips IEEE doubles exactly, and uses "\n" newlines regardless of
platform, so identical inputs always produce byte-identical files.  Every
text equals `'%.17g' % v` (and `format_float(v)`) byte for byte.

Each file body is gathered from a byte table.  `texts` is a `(k, w)` uint8
table, one NUL-padded text per row followed by `_SLOT` spare NUL bytes, and
`index` has one entry per field of the body.  `_write_rows` gathers
`texts[index]` in blocks, puts each field's separator in its spare bytes
(`' '`, or `'\n'` and the next row's prefix `v `, `f ` or `3 ` after the
last field of a row), deletes the NUL filler, which never occurs in a text,
and writes the bytes as they are.

Face tables format each vertex index once (`0..n-1`, or `1..n` for OBJ)
and use the faces as the index.  Float tables format each distinct
magnitude once: the table is viewed as int64 bit patterns, the sign bit is
masked off, the magnitudes are sorted once, and each field's index is the
rank of its magnitude.  A float text leaves its column 0 free for the
sign, which `_write_rows` writes per field, `-` or NUL, from the `negative`
mask: the sign bit set and not nan.  So `v` and `-v`, 0.0 and -0.0, and inf
and -inf share one text, and -0.0 prints `-0` as `%.17g` does; nan prints
`nan` whatever its sign bit, so a nan field never takes a `-`.  The key is
the magnitude's bit pattern, not its value: nan is not equal to itself,
whereas equal bit patterns always print the same text.  The sort's
table-sized arrays (`_distinct`) are released before the texts are
allocated, so formatting and `_write_rows` hold only `index`, `negative`,
the distinct magnitudes and the texts.

Magnitudes `1e-4 <= v < 1e17` are formatted in numpy (`_fixed17`), and
exactly.  `%.17g` prints them in fixed notation, with `X = floor(log10 v)`
in -4 .. 16, from the 17 digits of `D = round(v 10^(16-X))`, ties to even.
`10^(16-X)` is an exact double for these X, so Dekker's two-product gives
`v 10^(16-X)` exactly as `p + e`.  X starts from numpy's `log10` and moves
by one where the exact `p + e` lies outside `[1e16, 1e17)`.  Then
`p >= 1e16 > 2^53` is an even integer and `D = p + rint(e)`.  D never
reaches `10^17`: the double below `10^(X+1)` lies at least `2^-54 10^(X+1)`
below it.  The digits are laid out as `%g` does: `ddd.ddd` or `0.000ddd`,
trailing fraction zeros stripped and no `.` without a fraction digit.
Four digits at a time are one gather from `_WORDS`, the texts "0000" ..
"9999" stored as explicit little-endian 32-bit words, so a word's bytes are
its text in reading order on any host.  In magnitude order these doubles
are one run, written into the table block by block of `_BLOCK` texts, and
within a block X never decreases: each run of one X is laid out by slice
copies of the digit rows, after the `0.` and `0.000` prefixes for X < 0 or
around the point for X >= 0.  Python's formatter takes the magnitudes at
the two ends of the order (0, `v < 1e-4`, subnormals, `v >= 1e17`, inf and
nan) and every table of fewer than `_NUMPY_MIN` distinct magnitudes or
indices.

A writer checks the mesh, and builds the PLY table, before it opens the
file.  If formatting runs out of memory after the open, the cut-short file
is removed when it is a regular file, not a device or a link.
"""

from __future__ import annotations

import contextlib
import os
import stat

import numpy as np

from .meshing import TriMesh

__all__ = [
    "format_float",
    "write_obj",
    "write_ply",
]

# Below this many distinct magnitudes, or indices, a table is formatted by
# Python's '%.17g' ('%d').  The numpy route costs a fixed ~200 us per table
# of doubles and ~20 us per table of indices, and saves ~0.5 us per double
# and ~0.25 us per index: break-even near 350 doubles and 100 indices on a
# 2-core x86-64 host.
_NUMPY_MIN = 256
# Values formatted, and fields gathered, per numpy call: small enough that the
# temporaries stay in cache and are reused from the heap, not mapped afresh.
_BLOCK = 4096
# The sign column, then the longest '%.17g' text of a magnitude:
# 2.2250738585072014e-308.
_WIDTH = 24
# NUL bytes after each text: its separator and room for a row prefix of up
# to two bytes, filled in by `_write_rows`.
_SLOT = 3

# 10^k for k = 0..21; every partial product is exact, since 5^21 < 2^53.
_SCALE = np.concatenate(([1.0], np.cumprod(np.full(21, 10.0))))
# The texts "0000" .. "9999" as little-endian words: the bytes of word c
# are the text of c in reading order on any host.
_WORDS = np.ascontiguousarray(
    np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T + np.uint8(48)
).view("<u4").ravel()
_PLACE = np.arange(1, 18, dtype=np.uint8)[:, None]  # 1-based digit positions
# The prefix `0.000` by row; X < 0 takes its first 1 - X rows.
_PREFIX = np.frombuffer(b"0.000", dtype=np.uint8)[:, None]
# As int64 bit patterns the doubles printed with a `-` are -0.0 (-2^63) up
# to -inf, this one; a nan with the sign bit set lies above them.
_NEGATIVE_INF = np.float64(-np.inf).view(np.int64)


def format_float(value: float) -> str:
    """Round-trip decimal representation of a double."""
    return format(float(value), ".17g")


def _digits(d: np.ndarray, width: int) -> np.ndarray:
    """`(width, k)` ASCII digit rows of integers `0 <= d < 10^width`, zero-padded.

    Each group of four digits is one word of `_WORDS`, gathered in one
    `take`; the `(groups, k)` words are transposed to digit rows once.
    """
    groups = -(-width // 4)
    quads = np.empty((groups, len(d)), dtype=np.int64)
    for group in quads[::-1]:
        q = d // 10000
        np.subtract(d, q * 10000, out=group)
        d = q
    rows = np.take(_WORDS, quads).view(np.uint8).reshape(groups, -1, 4).transpose(0, 2, 1)
    return rows.reshape(4 * groups, -1)[4 * groups - width :]


def _two_prod(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`(p, e)` with `p = fl(a * b)` and `p + e = a * b` exactly (Dekker 1971)."""
    p = a * b
    c = 134217729.0 * a  # 2^27 + 1
    a_hi = c - (c - a)
    a_lo = a - a_hi
    c = 134217729.0 * b
    b_hi = c - (c - b)
    b_lo = b - b_hi
    return p, ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _fixed17(values: np.ndarray) -> np.ndarray:
    """`'%.17g'` texts of sorted doubles `1e-4 <= v < 1e17`, as `(_WIDTH - 1, k)` uint8.

    The table is built transposed, one row per byte position, so that each
    numpy call runs over all k values at once.  The values ascend, so the
    exponent X never decreases: each run of one X is laid out by slice
    copies of the digit rows, after the prefix `0.` and -X - 1 zeros for
    X < 0, or with the point after row X for X >= 0.
    """
    x = np.clip(np.floor(np.log10(values)), -4, 16).astype(np.int64)
    p, e = _two_prod(values, _SCALE[16 - x])
    # log10 may round across a power of ten: move X by one where the exact
    # product p + e lies outside [1e16, 1e17), and scale again.
    up = (p > 1e17) | ((p == 1e17) & (e >= 0))
    down = (p < 1e16) | ((p == 1e16) & (e < 0))
    if up.any() or down.any():
        x += up
        x -= down
        p, e = _two_prod(values, _SCALE[16 - x])
    d = p.astype(np.int64) + np.rint(e).astype(np.int64)

    # The 17 digits, NUL past the significant length: the digits up to the
    # last nonzero one, and at least the integer digits.
    digits = _digits(d, 17)
    length = np.maximum(((digits != 48) * _PLACE).max(axis=0), x + 1)
    digits *= _PLACE <= length
    dot = (length > x + 1) * np.uint8(46)

    texts = np.zeros((_WIDTH - 1, len(values)), dtype=np.uint8)
    runs = np.searchsorted(x, np.arange(-4, 18)).tolist()
    for exponent, start, stop in zip(range(-4, 17), runs, runs[1:]):
        if start == stop:
            continue
        run = slice(start, stop)
        if exponent < 0:
            texts[: 1 - exponent, run] = _PREFIX[: 1 - exponent]
            texts[1 - exponent : 18 - exponent, run] = digits[:, run]
        else:
            texts[: exponent + 1, run] = digits[: exponent + 1, run]
            texts[exponent + 1, run] = dot[run]
            texts[exponent + 2 : 18, run] = digits[exponent + 1 :, run]
    return texts


def _python_texts(values, spec: str, width: int, lead: str = "") -> np.ndarray:
    """Texts `lead + '%{spec}' % v` by Python's formatter, as
    `(k, len(lead) + width + _SLOT)` uint8.

    Each text is left-justified by the format itself; the spaces are then
    turned into NUL filler.
    """
    width += _SLOT
    data = (f"{lead}%-{width}{spec}" * len(values) % tuple(values)).encode().replace(b" ", b"\0")
    return np.frombuffer(data, dtype=np.uint8).reshape(len(values), len(lead) + width)


def _distinct(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`(distinct, index)` of int64 bit patterns: the distinct magnitudes,
    ascending, as doubles, and each field's rank among them."""
    magnitude = bits & np.int64(2**63 - 1)
    order = magnitude.argsort()
    ordered = np.take(magnitude, order)
    first = np.empty(bits.size, dtype=bool)
    first[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    # Each field's index is the rank of its magnitude, counted in the buffer
    # of `magnitude`: one table-sized array fewer to map and fault in.
    rank = np.cumsum(first, out=magnitude)
    rank -= 1
    index = np.empty(bits.size, dtype=np.intp)
    index[order] = rank
    return np.compress(first, ordered).view(np.float64), index


def _float_texts(table: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`(texts, index, negative)` of a float64 table: one text per distinct magnitude.

    `negative` marks the fields whose `'%.17g'` text starts with `-`: the
    sign bit set and not nan.
    """
    bits = table.view(np.int64).ravel()
    distinct, index = _distinct(bits)
    index = index.reshape(table.shape)
    negative = (bits <= _NEGATIVE_INF).reshape(table.shape)
    # Column 0 of each text is its sign column, NUL here.
    if len(distinct) < _NUMPY_MIN:
        return _python_texts(distinct.tolist(), ".17g", _WIDTH - 1, "\0"), index, negative
    texts = np.empty((len(distinct), _WIDTH + _SLOT), dtype=np.uint8)
    texts[:, 0] = 0
    texts[:, _WIDTH:] = 0
    # In magnitude order the doubles for Python's formatter are the two
    # ends, and the fast ones one run between them, placed block by block.
    lo, hi = np.searchsorted(distinct, (1e-4, 1e17)).tolist()
    for part in (slice(0, lo), slice(hi, None)):
        texts[part] = _python_texts(distinct[part].tolist(), ".17g", _WIDTH - 1, "\0")
    for start in range(lo, hi, _BLOCK):
        stop = min(start + _BLOCK, hi)
        texts[start:stop, 1:_WIDTH] = _fixed17(distinct[start:stop]).T
    return texts, index, negative


def _index_texts(start: int, n: int) -> np.ndarray:
    """Decimal texts of the integers `start .. start + n - 1`."""
    width = len(str(max(start + n - 1, 0)))
    if n < _NUMPY_MIN:
        return _python_texts(range(start, start + n), "d", width)
    values = np.arange(start, start + n)
    # NUL for leading zeros; the last digit is always kept, so 0 prints "0".
    least = 10 ** np.arange(width - 1, -1, -1)
    least[-1] = 0
    texts = np.zeros((n, width + _SLOT), dtype=np.uint8)
    texts[:, :width] = (_digits(values, width) * (values >= least[:, None])).T
    return texts


def _write_rows(handle, prefix: bytes, texts: np.ndarray, index: np.ndarray,
                negative: np.ndarray | None = None) -> None:
    """Write the rows `prefix f0 f1 ... fn\n` with fields `texts[index]`.

    Each text's slot takes its separator: `' '`, or `'\n'` and the next row's
    prefix after the last field of a row.  Where `negative` is given, column
    0 of each field takes its sign, `-` or NUL.  The first row's prefix is
    written before the rows and the last row's cut off after them.
    """
    if not len(index):
        return
    separator = texts.shape[1] - _SLOT
    end = np.frombuffer(b"\n" + prefix, dtype=np.uint8)
    if negative is not None:
        signs = negative * np.uint8(45)
    step = max(_BLOCK // index.shape[1], 1)
    handle.write(prefix)
    for start in range(0, len(index), step):
        fields = np.take(texts, index[start : start + step], axis=0)
        if negative is not None:
            fields[:, :, 0] = signs[start : start + step]
        fields[:, :-1, separator] = 32
        fields[:, -1, separator : separator + len(end)] = end
        body = fields.tobytes().translate(None, b"\0")
        if start + step >= len(index):
            body = body[: len(body) - len(prefix)]
        handle.write(body)


@contextlib.contextmanager
def _output(path):
    """`path` opened for writing; on `MemoryError` it is removed if it is
    the regular file this open truncated, so no cut-short file is left."""
    with open(path, "wb") as handle:
        try:
            yield handle
        except MemoryError:
            with contextlib.suppress(OSError):
                status = os.lstat(path)
                if stat.S_ISREG(status.st_mode) and os.path.samestat(
                    status, os.fstat(handle.fileno())
                ):
                    os.unlink(path)
            raise


def write_obj(mesh: TriMesh, path) -> None:
    """Wavefront OBJ: `v x y z` lines followed by 1-based `f i j k` lines."""
    mesh.validate()
    with _output(path) as handle:
        if not mesh.n_vertices:
            # An empty mesh is written as a single newline, the file of zero lines.
            handle.write(b"\n")
            return
        _write_rows(handle, b"v ", *_float_texts(mesh.vertices))
        _write_rows(handle, b"f ", _index_texts(1, mesh.n_vertices), mesh.faces)


def write_ply(mesh: TriMesh, path) -> None:
    """ASCII PLY with per-vertex scalar channels as extra properties."""
    mesh.validate()
    scalar_names = sorted(mesh.vertex_scalars)
    header = [
        "ply",
        "format ascii 1.0",
        f"element vertex {mesh.n_vertices}",
        "property double x",
        "property double y",
        "property double z",
    ]
    header += [f"property double {name}" for name in scalar_names]
    header += [
        f"element face {mesh.n_faces}",
        "property list uchar int vertex_indices",
        "end_header",
    ]
    columns = [np.asarray(mesh.vertex_scalars[name], dtype=float) for name in scalar_names]
    table = np.column_stack([mesh.vertices, *columns])
    with _output(path) as handle:
        handle.write(("\n".join(header) + "\n").encode())
        _write_rows(handle, b"", *_float_texts(table))
        _write_rows(handle, b"3 ", _index_texts(0, mesh.n_vertices), mesh.faces)
