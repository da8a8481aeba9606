"""Deterministic mesh files: OBJ and PLY writers.

All numeric output is formatted with 17 significant decimal digits, which
round-trips IEEE doubles exactly, and uses "\n" newlines regardless of
platform, so identical inputs always produce byte-identical files.

Each file body is formatted in one `%` operation: a row template such as
`"v %.17g %.17g %.17g\n"` repeated once per row, applied to the values as
Python floats (`array.ravel().tolist()`).  `'%.17g' % x` and
`format(x, '.17g')` (`format_float`) go through the same float-to-string
conversion of the interpreter, so the batched text equals formatting value
by value, including -0.0, subnormals, inf and nan, at a fraction of the
per-call cost.  Face indices are int64 and formatted with `%d`.
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


def write_obj(mesh: TriMesh, path) -> None:
    """Wavefront OBJ: `v x y z` lines followed by 1-based `f i j k` lines."""
    mesh.validate()
    body = _rows("v %.17g %.17g %.17g\n", mesh.vertices) + _rows(
        "f %d %d %d\n", mesh.faces + 1
    )
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
    row = " ".join(["%.17g"] * table.shape[1]) + "\n"
    with open(path, "w", newline="\n") as handle:
        handle.write("\n".join(header) + "\n")
        handle.write(_rows(row, table) + _rows("3 %d %d %d\n", mesh.faces))
