"""Deterministic mesh files: OBJ and PLY writers.

All numeric output is formatted with 17 significant decimal digits, which
round-trips IEEE doubles exactly, and uses "\n" newlines regardless of
platform, so identical inputs always produce byte-identical files.
"""

from __future__ import annotations

from .meshing import TriMesh

__all__ = [
    "format_float",
    "write_obj",
    "write_ply",
]


def format_float(value: float) -> str:
    """Round-trip decimal representation of a double."""
    return format(float(value), ".17g")


def write_obj(mesh: TriMesh, path) -> None:
    """Wavefront OBJ: `v x y z` lines followed by 1-based `f i j k` lines."""
    mesh.validate()
    lines = []
    for v in mesh.vertices:
        lines.append(f"v {format_float(v[0])} {format_float(v[1])} {format_float(v[2])}")
    for f in mesh.faces:
        lines.append(f"f {f[0] + 1} {f[1] + 1} {f[2] + 1}")
    with open(path, "w", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n")


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
    lines = list(header)
    columns = [mesh.vertex_scalars[name] for name in scalar_names]
    for idx, v in enumerate(mesh.vertices):
        parts = [format_float(v[0]), format_float(v[1]), format_float(v[2])]
        parts += [format_float(col[idx]) for col in columns]
        lines.append(" ".join(parts))
    for f in mesh.faces:
        lines.append(f"3 {f[0]} {f[1]} {f[2]}")
    with open(path, "w", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n")
