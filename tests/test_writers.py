"""Mesh files and edges against the value-by-value reference forms.

The writers format each distinct magnitude of a float table once, write
each field's sign on its own, and gather the rows from a byte table of
those texts; the references below are the per-value loops, and must give
the same bytes.  The tables include 0.0 beside -0.0, several nan payloads
(one with the sign bit set), subnormals and infinities, which a dedup by
value instead of by magnitude bits, or a sign taken from the bit alone,
would print wrongly.  The numpy formatter is checked against `'%.17g'`
through the written rows on its own, and the figures against
the SHA-256 pins of the benchmark.  `TriMesh.edges()` keys each edge as one
integer; the reference is the row-wise `np.unique(axis=0)`.
"""

import hashlib
import io
import json
import math
import random
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heisgeo.meshing import (
    SphereGrid,
    TriMesh,
    ball_cutaway_mesh,
    clip_sphere_to_metric,
    plane_exp_surface,
    singular_point_closeup,
    sphere_exp_mesh,
)
from heisgeo import writers
from heisgeo.cli import main
from heisgeo.writers import format_float, write_obj, write_ply


def _loop_obj(mesh, path):
    mesh.validate()
    lines = []
    for v in mesh.vertices:
        lines.append(f"v {format_float(v[0])} {format_float(v[1])} {format_float(v[2])}")
    for f in mesh.faces:
        lines.append(f"f {f[0] + 1} {f[1] + 1} {f[2] + 1}")
    with open(path, "w", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n")


def _loop_ply(mesh, path):
    mesh.validate()
    scalar_names = sorted(mesh.vertex_scalars)
    lines = [
        "ply",
        "format ascii 1.0",
        f"element vertex {mesh.n_vertices}",
        "property double x",
        "property double y",
        "property double z",
    ]
    lines += [f"property double {name}" for name in scalar_names]
    lines += [
        f"element face {mesh.n_faces}",
        "property list uchar int vertex_indices",
        "end_header",
    ]
    columns = [mesh.vertex_scalars[name] for name in scalar_names]
    for idx, v in enumerate(mesh.vertices):
        parts = [format_float(v[0]), format_float(v[1]), format_float(v[2])]
        parts += [format_float(col[idx]) for col in columns]
        lines.append(" ".join(parts))
    for f in mesh.faces:
        lines.append(f"3 {f[0]} {f[1]} {f[2]}")
    with open(path, "w", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n")


def _synthetic():
    vertices = [
        [-0.0, 5e-324, 1e300],
        [-1e300, -5e-324, 0.1],
        [1.0 / 3.0, 2.0, -3.5e-310],
        [0.0, -0.0, 123456789.0],
    ]
    return TriMesh(
        vertices=vertices,
        faces=[[0, 1, 2], [0, 2, 3]],
        vertex_scalars={
            "count": np.array([1, -2, 3, 2**40], dtype=np.int64),
            "edge": [-0.0, 5e-324, 1e300, -1e300],
            "nan": np.array([math.nan, math.inf, -math.inf, 0.5]),
        },
    )


# Quiet nans with two payloads and the sign bit set: all print "nan".
NANS = np.array(
    [0x7FF8000000000001, 0x7FF8000000000002, 0xFFF8000000000000], dtype=np.uint64
).view(np.float64)


def _repeats():
    """Signed zeros in one column, repeated subnormals, nan payloads, +-inf."""
    return TriMesh(
        vertices=[
            [0.0, 5e-324, -0.0],
            [-0.0, 5e-324, 0.0],
            [5e-324, -5e-324, -0.0],
            [0.0, -0.0, 2.5e-310],
            [-0.0, 0.0, 2.5e-310],
        ],
        faces=[[0, 1, 2], [0, 2, 3], [0, 3, 4]],
        vertex_scalars={
            "inf": [math.inf, -math.inf, math.inf, -0.0, 0.0],
            "nan": [NANS[0], NANS[1], NANS[2], NANS[0], math.nan],
        },
    )


MESHES = {
    "sphere_3x3": lambda: sphere_exp_mesh(SphereGrid(3, 3, 2.0)),
    "sphere_48x96": lambda: sphere_exp_mesh(SphereGrid(48, 96, 5.0)),
    "apex_plane": lambda: plane_exp_surface(resolution=(32, 24)),
    "fig1_plane": lambda: plane_exp_surface(resolution=(128, 96)),
    "closeup": lambda: singular_point_closeup(
        5.0, resolution=(24, 12), detection_grid=(48, 96)
    ),
    "cutaway": lambda: ball_cutaway_mesh(5.0, (0.0, 1.0, 0.0), n_phi=24, n_gamma=16),
    "metric_clip": lambda: clip_sphere_to_metric(
        sphere_exp_mesh(SphereGrid(24, 16, 5.0)), 5.0
    ),
    "synthetic": _synthetic,
    "repeats": _repeats,
    "vertices_only": lambda: TriMesh(vertices=np.eye(3), faces=np.zeros((0, 3))),
    "empty": lambda: TriMesh(vertices=np.zeros((0, 3)), faces=np.zeros((0, 3))),
}


@pytest.fixture(scope="module", params=sorted(MESHES))
def mesh(request):
    return MESHES[request.param]()


@pytest.mark.parametrize(
    "write, reference", [(write_obj, _loop_obj), (write_ply, _loop_ply)], ids=["obj", "ply"]
)
def test_bytes_match_reference(mesh, write, reference, tmp_path):
    write(mesh, tmp_path / "batched")
    reference(mesh, tmp_path / "loop")
    assert (tmp_path / "batched").read_bytes() == (tmp_path / "loop").read_bytes()


# A small pool, so drawn tables repeat values often.
FINITE_POOL = [0.0, -0.0, 5e-324, -5e-324, 2.5e-310, 1.0 / 3.0, -1.5, 1e300]
SCALAR_POOL = FINITE_POOL + [math.inf, -math.inf, *NANS]


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 12).flatmap(
        lambda n: st.tuples(
            st.lists(st.sampled_from(FINITE_POOL), min_size=3 * n, max_size=3 * n),
            st.lists(
                st.lists(st.sampled_from(SCALAR_POOL), min_size=n, max_size=n),
                max_size=3,
            ),
        )
    )
)
def test_repeated_values_match_reference(tmp_path_factory, drawn):
    coordinates, channels = drawn
    n = len(coordinates) // 3
    mesh = TriMesh(
        vertices=coordinates,
        faces=[[0, i, i + 1] for i in range(1, n - 1)],
        vertex_scalars={f"c{k}": np.array(c, dtype=float) for k, c in enumerate(channels)},
    )
    directory = tmp_path_factory.mktemp("repeats")
    for write, reference in ((write_obj, _loop_obj), (write_ply, _loop_ply)):
        write(mesh, directory / "batched")
        reference(mesh, directory / "loop")
        assert (directory / "batched").read_bytes() == (directory / "loop").read_bytes()


def test_metric_clip_has_defect_channel():
    assert "distance_defect" in MESHES["metric_clip"]().vertex_scalars


def test_empty_obj_is_one_newline(tmp_path):
    write_obj(MESHES["empty"](), tmp_path / "e.obj")
    assert (tmp_path / "e.obj").read_bytes() == b"\n"


def test_percent_format_equals_format_float():
    rng = random.Random(6)
    values = [
        math.copysign(10.0 ** rng.uniform(-300, 300), rng.choice((-1, 1)))
        for _ in range(20_000)
    ]
    values += [0.0, -0.0, 5e-324, -5e-324, math.inf, -math.inf, math.nan]
    assert all("%.17g" % x == format_float(x) for x in values)


def _texts(values):
    """The writers' text of each value, sign column included, one value per
    written line, with the numpy formatter on for any table size."""
    handle = io.BytesIO()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(writers, "_NUMPY_MIN", 0)
        table = np.asarray(values, dtype=np.float64).reshape(-1, 1)
        writers._write_rows(handle, b"", *writers._float_texts(table))
    return handle.getvalue().decode().splitlines()


def _patterns(bits):
    return np.array(bits, dtype=np.int64).view(np.float64)


# Doubles in and around the numpy formatter's range 1e-4 <= |v| < 1e17:
# biased exponents 1009 .. 1080 are 2^-14 .. 2^57.
NEAR_RANGE = st.builds(
    lambda sign, exponent, mantissa: (exponent << 52 | mantissa) - (sign << 63),
    st.integers(0, 1),
    st.integers(1009, 1080),
    st.integers(0, 2**52 - 1),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.integers(-(2**63), 2**63 - 1), NEAR_RANGE), min_size=1, max_size=40))
def test_texts_equal_percent_17g_on_bit_patterns(bits):
    values = _patterns(bits)
    assert _texts(values) == ["%.17g" % v for v in values.tolist()]


def _powers_of_ten_neighbours():
    """The 40 doubles on either side of each +-10^k, k = -5 .. 17."""
    bits = np.array([float(f"1e{k}") for k in range(-5, 18)]).view(np.int64)
    near = (bits[:, None] + np.arange(-40, 41)).ravel()
    return np.concatenate([_patterns(near), -_patterns(near)])


def _ties():
    """Doubles whose 18th significant digit is a final 5, for X = -4 .. 15.

    `(2D + 1) 5 10^(X - 17)` with `2D + 1 = m 5^(16 - X)` is `m 2^(X - 17)`,
    a double for odd `m < 2^53`; `%.17g` must round it half to even.
    """
    values = []
    for x in range(-4, 16):
        m = 3 * 10**16 // 5 ** (16 - x) | 1
        values += [math.ldexp(m + 2 * i, x - 17) for i in range(50)]
    return np.array(values)


EDGES = {
    "powers_of_ten": _powers_of_ten_neighbours(),
    "ties": np.concatenate([_ties(), -_ties(), [10.0**15 + 0.5, 10.0**15 + 0.25]]),
    # The largest doubles below 10^(X+1) sit at least 2^-54 10^(X+1) below
    # it, so their 17 digits never round up to the next power of ten.
    "below_powers": np.nextafter(np.array([float(f"1e{k}") for k in range(-4, 18)]), 0),
    "specials": np.concatenate([
        [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-4, -1e-4, 1e17, -1e17],
        [math.inf, -math.inf],
        NANS,
        _patterns([0x7FF0000000000001, 0x7FF4000000000000, -1]),
    ]),
}


@pytest.mark.parametrize("name", sorted(EDGES))
def test_texts_equal_percent_17g_on_edges(name):
    values = EDGES[name]
    assert _texts(values) == ["%.17g" % v for v in values.tolist()]


@pytest.mark.parametrize("shift", [-0.5, 0.5])
def test_texts_survive_a_log10_one_off(shift, monkeypatch):
    # The exponent X starts from floor(log10|v|), which another libm may
    # round across a power of ten; the exact product must move it back.  A
    # log10 shifted by half a decade is one off on about half the values.
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda a: log10(a) + shift)
    values = np.concatenate([EDGES["powers_of_ten"], EDGES["ties"], EDGES["below_powers"]])
    assert _texts(values) == ["%.17g" % v for v in values.tolist()]


def test_word_table_holds_the_quads_in_reading_order():
    # Little-endian words, so the bytes are the texts on any host.
    assert writers._WORDS.dtype == np.dtype("<u4")
    assert writers._WORDS.tobytes() == "".join(f"{c:04d}" for c in range(10_000)).encode()


def test_texts_of_a_table_with_one_long_fast_run():
    # In magnitude order the fast doubles are one run, longer than two blocks
    # and cut by block edges inside it, each magnitude with both signs; the
    # magnitudes for Python's formatter lie at both ends of it.
    rng = np.random.default_rng(26)
    n = 2 * writers._BLOCK + 777
    fast = 10.0 ** rng.uniform(-4, 17, n)
    others = [0.0, 5e-324, 2.2250738585072014e-308, 1e-5, 1e17, 1.5e300, math.inf, math.nan]
    values = np.concatenate([fast, -fast, others, np.negative(others)])
    rng.shuffle(values)
    a = np.unique(np.abs(values))
    fast_run = (a >= 1e-4) & (a < 1e17)
    assert np.flatnonzero(fast_run).tolist() == list(range(4, 4 + n))
    assert not fast_run[:4].any() and not fast_run[4 + n :].any()
    assert _texts(values) == ["%.17g" % v for v in values.tolist()]


def test_sort_arrays_freed_before_formatting(monkeypatch):
    # When the first `_fixed17` block starts, `_float_texts` holds `index`,
    # `negative`, the distinct magnitudes and the texts, and 64 KiB of slack
    # for the rest; the sort's table-sized arrays (1.4 MiB here) are gone.
    table = np.random.default_rng(34).uniform(1.0, 2.0, (20_000, 3))
    held = []
    fixed17 = writers._fixed17

    def first_block(values):
        if not held:
            held.append(tracemalloc.get_traced_memory()[0] - start)
        return fixed17(values)

    monkeypatch.setattr(writers, "_fixed17", first_block)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        texts, index, negative = writers._float_texts(table)
    finally:
        tracemalloc.stop()
    assert len(texts) == table.size
    assert held[0] <= index.nbytes + negative.nbytes + 8 * len(texts) + texts.nbytes + 2**16


@pytest.mark.parametrize("numpy_min", [0, 256])
def test_signs_share_one_text(numpy_min, tmp_path, monkeypatch):
    # v and -v index one text row, and the sign column gives each field its
    # '-': 0.0 and -0.0, inf and -inf, subnormals; a nan with the sign bit
    # set prints "nan", as '%.17g' does.
    monkeypatch.setattr(writers, "_NUMPY_MIN", numpy_min)
    values = np.array([1.5, -1.5, 0.0, -0.0, math.inf, -math.inf, 5e-324, -5e-324])
    texts, index, negative = writers._float_texts(values.reshape(-1, 2))
    assert len(texts) == 4
    assert (index[:, 0] == index[:, 1]).all()
    assert negative.tolist() == [[False, True]] * 4
    channel = np.concatenate([values, NANS, _patterns([-1]), [2.5e-310, -2.5e-310]])
    mesh = TriMesh(vertices=np.zeros((len(channel), 3)), faces=np.zeros((0, 3)),
                   vertex_scalars={"s": channel})
    write_ply(mesh, tmp_path / "s.ply")
    rows = (tmp_path / "s.ply").read_text().split("end_header\n")[1].splitlines()
    assert [row.split()[3] for row in rows] == ["%.17g" % v for v in channel.tolist()]


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_prefix_of_every_exponent(sign):
    # X = -4 .. 16: "0." and -X - 1 zeros before the digits for X < 0,
    # none from X = 0 on, after the sign.
    values = [sign * m * 10.0**x for x in range(-4, 17) for m in (1.0, 1.25, 9.875)]
    assert _texts(values) == ["%.17g" % v for v in values]


@pytest.mark.parametrize("start", [0, 1])
@pytest.mark.parametrize("n", [0, 1, 9, 10, 11, 99, 100, 1001, 10_004])
def test_index_texts_equal_str(start, n, monkeypatch):
    for numpy_min in (0, 10**9):
        monkeypatch.setattr(writers, "_NUMPY_MIN", numpy_min)
        texts = writers._index_texts(start, n)
        assert [bytes(t).replace(b"\0", b"").decode() for t in texts] == [
            str(i) for i in range(start, start + n)
        ]


REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"
FIGURE_PINS = json.loads(REFERENCE.read_text())["figure_suite"]


@pytest.mark.parametrize("key", sorted(FIGURE_PINS))
def test_figure_bytes_match_benchmark_pins(key, tmp_path):
    config = dict(item.split("=") for item in key.split("/"))
    argv = ["figures", "--out-dir", str(tmp_path), "--nphi", config["nphi"],
            "--ngamma", config["ngamma"], "--format", config["format"]]
    assert main(argv) == 0
    digests = {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in sorted(tmp_path.iterdir())}
    assert digests == FIGURE_PINS[key]


def test_edges_match_rowwise_unique(mesh):
    e = np.concatenate([mesh.faces[:, [0, 1]], mesh.faces[:, [1, 2]], mesh.faces[:, [2, 0]]])
    e.sort(axis=1)
    expected = np.unique(e, axis=0)
    edges = mesh.edges()
    assert edges.dtype == expected.dtype and edges.shape == expected.shape
    assert np.array_equal(edges, expected)


def test_sphere_euler_characteristic():
    assert sphere_exp_mesh(SphereGrid(48, 96, 5.0)).euler_characteristic() == 2
