"""Deterministic mesh files: OBJ and PLY writers.

All numeric output is formatted with 17 significant decimal digits, which
round-trips IEEE doubles exactly, and uses "\n" newlines regardless of
platform, so identical inputs always produce byte-identical files.

Each file body is one `%` operation: a row template repeated once per row,
applied to the row values.  Face rows take int64 indices with `%d`.  Float
rows take `%s` fields, strings made by `_float_rows`, which formats each
distinct double once: it views the table as int64 bit patterns, sorts them
once, formats the distinct patterns with `'%.17g'` (one `%` operation over
them as Python floats) and gathers each field's string by the sort order.
The key is the bit pattern, not the value: 0.0 and -0.0 are equal but print
`0` and `-0`, and nan is not equal to itself, whereas equal bit patterns
always print the same text.  `'%.17g' % x` and `format(x, '.17g')`
(`format_float`) go through the same float-to-string conversion of the
interpreter, so the gathered text equals formatting value by value,
including -0.0, subnormals, inf and nan.
"""

from __future__ import annotations

import numpy as np

from .meshing import TriMesh

__all__ = [
    "format_float",
    "write_obj",
    "write_ply",
]


def format_float(value: float) -> str:
    """Round-trip decimal representation of a double."""
    return format(float(value), ".17g")


def _rows(template: str, table: np.ndarray) -> str:
    """`template` applied to each row of a 2-D table, in one `%` operation."""
    return (template * len(table)) % tuple(table.ravel().tolist())


def _float_rows(prefix: str, table: np.ndarray) -> str:
    """`prefix` and the `'%.17g'` fields of each row of a float64 table.

    Each distinct bit pattern is formatted once; the rows are filled from
    those strings by `_rows`.
    """
    bits = table.view(np.int64).ravel()
    order = bits.argsort()
    ordered = bits[order]
    first = np.empty(bits.size, dtype=bool)
    first[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    distinct = ordered[first].view(np.float64).tolist()
    # The split text starts with the empty string before the first "\n", so
    # the running count of distinct patterns indexes `texts` directly.
    texts = np.array(("\n%.17g" * len(distinct) % tuple(distinct)).split("\n"), dtype=object)
    fields = np.empty(bits.size, dtype=object)
    fields[order] = texts[first.cumsum()]
    return _rows(prefix + "%s " * (table.shape[1] - 1) + "%s\n", fields.reshape(table.shape))


def write_obj(mesh: TriMesh, path) -> None:
    """Wavefront OBJ: `v x y z` lines followed by 1-based `f i j k` lines."""
    mesh.validate()
    body = _float_rows("v ", mesh.vertices) + _rows("f %d %d %d\n", mesh.faces + 1)
    with open(path, "w", newline="\n") as handle:
        # An empty mesh is written as a single newline, the file of zero lines.
        handle.write(body or "\n")


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
    with open(path, "w", newline="\n") as handle:
        handle.write("\n".join(header) + "\n")
        handle.write(_float_rows("", table) + _rows("3 %d %d %d\n", mesh.faces))
