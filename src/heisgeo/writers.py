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
and use the faces as the index.  Float tables format each distinct double
once: the table is viewed as int64 bit patterns, sorted once, and each
field's index is the rank of its pattern.  The key is the bit pattern, not
the value: 0.0 and -0.0 are equal but print `0` and `-0`, and nan is not
equal to itself, whereas equal bit patterns always print the same text.

Doubles with `1e-4 <= |v| < 1e17` are formatted in numpy (`_fixed17`), and
exactly.  `%.17g` prints them in fixed notation, with `X = floor(log10|v|)`
in -4 .. 16, from the 17 digits of `D = round(|v| 10^(16-X))`, ties to
even.  `10^(16-X)` is an exact double for these X, so Dekker's two-product
gives `|v| 10^(16-X)` exactly as `p + e`.  X starts from numpy's `log10`
and moves by one where the exact `p + e` lies outside `[1e16, 1e17)`.  Then
`p >= 1e16 > 2^53` is an even integer and `D = p + rint(e)`.  D never
reaches `10^17`: the double below `10^(X+1)` lies at least `2^-54 10^(X+1)`
below it.  The digits are laid out as `%g` does: `ddd.ddd` or `0.000ddd`,
trailing fraction zeros stripped and no `.` without a fraction digit.
Four digits at a time are one gather from `_WORDS`, the texts "0000" ..
"9999" stored as explicit little-endian 32-bit words, so a word's bytes are
its text in reading order on any host.  The `0.` and `0.000` prefixes are
arithmetic, `((X < 0) & (row <= -X)) * byte`.  In bit-pattern order the
fast doubles form at most two runs, the negatives and then the positives,
so each block of `_BLOCK` texts is written into the table by slice.
Python's formatter takes every other double (±0, `|v| < 1e-4`, subnormals,
`|v| >= 1e17`, inf and nan) and every table of fewer than `_NUMPY_MIN`
distinct doubles or indices.
"""

from __future__ import annotations

import numpy as np

from .meshing import TriMesh

__all__ = [
    "format_float",
    "write_obj",
    "write_ply",
]

# Below this many distinct doubles, or indices, a table is formatted by
# Python's '%.17g' ('%d').  The numpy route costs a fixed ~200 us per table
# of doubles and ~20 us per table of indices, and saves ~0.5 us per double
# and ~0.25 us per index: break-even near 350 doubles and 100 indices on a
# 2-core x86-64 host.
_NUMPY_MIN = 256
# Values formatted, and fields gathered, per numpy call: small enough that the
# temporaries stay in cache and are reused from the heap, not mapped afresh.
_BLOCK = 4096
# The longest '%.17g' text: -2.2250738585072014e-308.
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
_ROW = np.arange(18)[:, None]
_PLACE = np.arange(1, 18, dtype=np.uint8)[:, None]  # 1-based digit positions
# The prefix `0.000` by row; X < 0 keeps its first -X + 1 rows.
_PREFIX = np.frombuffer(b"0.000", dtype=np.uint8)[:, None]


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
    """`'%.17g'` texts of doubles with `1e-4 <= |v| < 1e17`, as `(_WIDTH, k)` uint8.

    The table is built transposed, one row per byte position, so that each
    numpy call runs over all k values at once.  Rows: the sign, the prefix
    `0.` and up to three zeros for X < 0, then 18 rows of digits and point.
    Selections are uint8 arithmetic with boolean masks, which numpy runs
    much faster than `np.where` on bytes.
    """
    a = np.abs(values)
    x = np.clip(np.floor(np.log10(a)), -4, 16).astype(np.int64)
    p, e = _two_prod(a, _SCALE[16 - x])
    # log10 may round across a power of ten: move X by one where the exact
    # product p + e lies outside [1e16, 1e17), and scale again.
    up = (p > 1e17) | ((p == 1e17) & (e >= 0))
    down = (p < 1e16) | ((p == 1e16) & (e < 0))
    if up.any() or down.any():
        x += up
        x -= down
        p, e = _two_prod(a, _SCALE[16 - x])
    d = p.astype(np.int64) + np.rint(e).astype(np.int64)

    # padded[1:18] are the 17 digits, NUL past the significant length: the
    # digits up to the last nonzero one, and at least the integer digits.
    digits = _digits(d, 17)
    length = np.maximum(((digits != 48) * _PLACE).max(axis=0), x + 1)
    padded = np.zeros((19, len(a)), dtype=np.uint8)
    np.multiply(digits, _ROW[:17] < length, out=padded[1:18])

    texts = np.empty((_WIDTH, len(a)), dtype=np.uint8)
    texts[0] = (values < 0) * np.uint8(45)
    texts[1:6] = ((x < 0) & (_ROW[:5] <= -x)) * _PREFIX
    # For X >= 0: the digits up to X, then the point if a fraction digit is
    # left, then the fraction digits.  For X < 0 (`point` = -2) the 17
    # digits follow the prefix.
    point = np.where(x >= 0, x, -2)
    body = padded[:18] + (padded[1:] - padded[:18]) * (_ROW <= point)
    dot = (length > x + 1) * np.uint8(46)
    texts[6:] = body + (dot - body) * (_ROW == point + 1)
    return texts


def _python_texts(values, spec: str, width: int) -> np.ndarray:
    """Texts `'%{spec}' % v` by Python's formatter, as `(k, width + _SLOT)` uint8.

    Each text is left-justified by the format itself; the spaces are then
    turned into NUL filler.
    """
    width += _SLOT
    data = (f"%-{width}{spec}" * len(values) % tuple(values)).encode().replace(b" ", b"\0")
    return np.frombuffer(data, dtype=np.uint8).reshape(len(values), width)


def _float_texts(table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`(texts, index)` of a float64 table: one text per distinct bit pattern."""
    bits = table.view(np.int64).ravel()
    order = bits.argsort()
    ordered = np.take(bits, order)
    first = np.empty(bits.size, dtype=bool)
    first[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    index = np.empty(bits.size, dtype=np.intp)
    index[order] = first.cumsum() - 1
    index = index.reshape(table.shape)
    distinct = np.compress(first, ordered).view(np.float64)
    if len(distinct) < _NUMPY_MIN:
        return _python_texts(distinct.tolist(), ".17g", _WIDTH), index
    a = np.abs(distinct)
    fast = (a >= 1e-4) & (a < 1e17)
    texts = np.zeros((len(distinct), _WIDTH + _SLOT), dtype=np.uint8)
    texts[~fast] = _python_texts(distinct[~fast].tolist(), ".17g", _WIDTH)
    # In bit-pattern order the fast doubles form at most two runs, the
    # negatives and the positives; each block of a run is placed by slice.
    runs = np.flatnonzero(np.diff(fast, prepend=False, append=False)).reshape(-1, 2)
    for start, stop in runs.tolist():
        for lo in range(start, stop, _BLOCK):
            hi = min(lo + _BLOCK, stop)
            texts[lo:hi, :_WIDTH] = _fixed17(distinct[lo:hi]).T
    return texts, index


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


def _write_rows(handle, prefix: bytes, texts: np.ndarray, index: np.ndarray) -> None:
    """Write the rows `prefix f0 f1 ... fn\n` with fields `texts[index]`.

    Each text's slot takes its separator: `' '`, or `'\n'` and the next row's
    prefix after the last field of a row.  The first row's prefix is written
    before the rows and the last row's cut off after them.
    """
    if not len(index):
        return
    separator = texts.shape[1] - _SLOT
    end = np.frombuffer(b"\n" + prefix, dtype=np.uint8)
    step = max(_BLOCK // index.shape[1], 1)
    handle.write(prefix)
    for start in range(0, len(index), step):
        fields = np.take(texts, index[start : start + step], axis=0)
        fields[:, :-1, separator] = 32
        fields[:, -1, separator : separator + len(end)] = end
        body = fields.tobytes().translate(None, b"\0")
        if start + step >= len(index):
            body = body[: len(body) - len(prefix)]
        handle.write(body)


def write_obj(mesh: TriMesh, path) -> None:
    """Wavefront OBJ: `v x y z` lines followed by 1-based `f i j k` lines."""
    mesh.validate()
    with open(path, "wb") as handle:
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
    with open(path, "wb") as handle:
        handle.write(("\n".join(header) + "\n").encode())
        _write_rows(handle, b"", *_float_texts(table))
        _write_rows(handle, b"3 ", _index_texts(0, mesh.n_vertices), mesh.faces)
