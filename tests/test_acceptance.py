"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Tolerances are pinned here and nowhere else.
"""

import json
import math
import time

import mpmath as mp
import numpy as np

from heisgeo.cli import main
from heisgeo.core import (
    ORIGIN,
    HeisPoint,
    commutator,
    frame_at,
    frame_bracket,
    group_mul,
    metric_at,
    nabla,
)
from heisgeo.distances import (
    brute_force_distance,
    cygan_distance,
    cygan_scaling_check,
    riemannian_distance,
)
from heisgeo.geodesics import (
    GeodesicSpec,
    geodesic_from_origin,
    integrate_geodesic,
    integrate_geodesic_batch,
    origin_coordinates,
)
from heisgeo.meshing import SphereGrid, sphere_proximity_events

TWO_PI = 2.0 * math.pi


def report(label: str, elapsed: float, budget: float) -> None:
    print(f"PASS {label}: {elapsed:.2f}s (budget {budget:.0f}s)")
    assert elapsed < budget, f"{label} exceeded runtime budget"


def test_criterion_1_commutator():
    start = time.perf_counter()
    assert commutator(HeisPoint(1, 0, 0), HeisPoint(0, 1, 0)) == HeisPoint(0, 0, 2)
    rng = np.random.default_rng(101)
    for _ in range(1000):
        p, q, r = (HeisPoint(*rng.uniform(-3, 3, 3)) for _ in range(3))
        triple = commutator(commutator(p, q), r).as_array()
        assert np.max(np.abs(triple)) < 1e-12
    report("criterion 1 (commutator reproduction)", time.perf_counter() - start, 1.0)


def test_criterion_2_orthonormal_frame():
    start = time.perf_counter()
    rng = np.random.default_rng(102)
    for _ in range(1000):
        p = HeisPoint(*rng.uniform(-4, 4, 3))
        stack = np.array([v.as_array() for v in frame_at(p)])
        gram = stack @ metric_at(p).entries @ stack.T
        assert np.max(np.abs(gram - np.eye(3))) < 1e-12
    report("criterion 2 (orthonormal frame/metric)", time.perf_counter() - start, 1.0)


def test_criterion_3_connection_identities():
    start = time.perf_counter()
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            torsion = nabla(i, j).as_array() - nabla(j, i).as_array()
            assert np.max(np.abs(torsion - frame_bracket(i, j).as_array())) <= 1e-14
            for k in (1, 2, 3):
                compat = nabla(i, j).as_array()[k - 1] + nabla(i, k).as_array()[j - 1]
                assert abs(compat) <= 1e-14
    assert frame_bracket(1, 2).as_array().tolist() == [0.0, 0.0, 2.0]
    report("criterion 3 (connection verification)", time.perf_counter() - start, 1.0)


def test_criterion_4_closed_form_vs_integrator():
    start = time.perf_counter()
    gammas = [-0.99] + [round(-0.9 + 0.1 * k, 10) for k in range(19)] + [0.99]
    phis = [k * math.pi / 4 for k in range(8)]
    pairs = [(g, f) for g in gammas for f in phis]
    assert len(pairs) >= 100
    g_arr = np.array([p[0] for p in pairs])
    f_arr = np.array([p[1] for p in pairs])
    s_values, states = integrate_geodesic_batch(g_arr, f_arr, 10.0, 10_000)

    r_arr = np.sqrt(1.0 - g_arr**2)
    x, y, z = origin_coordinates(
        r_arr[None, :], f_arr[None, :], g_arr[None, :], s_values[:, None]
    )
    closed = np.stack([x, y, z], axis=-1)
    coord_error = np.max(np.abs(states[:, :, :3] - closed))
    assert coord_error <= 1e-7, f"closed form vs integrator: {coord_error}"

    speed_sq = np.sum(states[:, :, 3:] ** 2, axis=-1)
    assert np.max(np.abs(speed_sq - 1.0)) <= 1e-9
    report("criterion 4 (closed form vs integrator)", time.perf_counter() - start, 30.0)


def _reference_point(gamma, phi, s):
    with mp.workdps(50):
        gamma_mp = mp.mpf(gamma)
        phi_mp = mp.mpf(phi)
        s_mp = mp.mpf(s)
        r = mp.sqrt(1 - gamma_mp**2)
        if gamma_mp == 0:
            return np.array([float(r * s_mp * mp.cos(phi_mp)), float(r * s_mp * mp.sin(phi_mp)), 0.0])
        x = r / (2 * gamma_mp) * (mp.sin(2 * gamma_mp * s_mp + phi_mp) - mp.sin(phi_mp))
        y = r / (2 * gamma_mp) * (mp.cos(phi_mp) - mp.cos(2 * gamma_mp * s_mp + phi_mp))
        z = (1 + gamma_mp**2) / (2 * gamma_mp) * s_mp - (1 - gamma_mp**2) / (
            4 * gamma_mp**2
        ) * mp.sin(2 * gamma_mp * s_mp)
        return np.array([float(x), float(y), float(z)])


def test_criterion_5_small_gamma_stability():
    start = time.perf_counter()
    eps = 1e-4
    band = [eps - 1e-6, eps, eps + 1e-6, -(eps - 1e-6), -eps, -(eps + 1e-6)]
    # Across the band the evaluator must agree with 50-digit direct
    # evaluation, so one-sided limits at any internal evaluation switch
    # agree far within 1e-9.
    for gamma in band:
        r = math.sqrt(1 - gamma * gamma)
        for phi in (0.0, 0.7, math.pi):
            for s in (0.25, 1.0, 5.0, 10.0):
                got = np.array(origin_coordinates(r, phi, gamma, s))
                assert np.max(np.abs(got - _reference_point(gamma, phi, s))) <= 1e-9
    # Adjacent evaluations around the band center differ only by the true
    # variation of the map.
    for s in (0.25, 1.0, 5.0):
        lo = np.array(origin_coordinates(math.sqrt(1 - eps * eps), 0.7, eps * (1 - 1e-9), s))
        hi = np.array(origin_coordinates(math.sqrt(1 - eps * eps), 0.7, eps * (1 + 1e-9), s))
        assert np.max(np.abs(hi - lo)) <= 1e-9
    # As gamma -> 0 the geodesic matches the straight line.
    line = GeodesicSpec.from_direction(0.0, phi=0.7)
    tiny = GeodesicSpec.from_direction(1e-12, phi=0.7)
    for s in (0.5, 2.0, 10.0):
        a = geodesic_from_origin(tiny, s).as_array()
        b = geodesic_from_origin(line, s).as_array()
        assert np.max(np.abs(a - b)) <= 1e-9
    assert geodesic_from_origin(line, 3.0).z == 0.0
    report("criterion 5 (small-gamma stability)", time.perf_counter() - start, 1.0)


def test_criterion_6_conjugate_return():
    start = time.perf_counter()
    spec = GeodesicSpec.from_direction(0.5, phi=0.0)
    p = geodesic_from_origin(spec, TWO_PI).as_array()
    want = np.array([0.0, 0.0, 5 * math.pi / 2])
    assert np.max(np.abs(p - want)) <= 1e-9
    # Independent oracle for the same point.
    end = integrate_geodesic(spec, TWO_PI, 10_000)[-1].point.as_array()
    assert np.max(np.abs(end - want)) <= 1e-7
    report("criterion 6 (conjugate return)", time.perf_counter() - start, 1.0)


def test_criterion_7_distance_solver_vs_brute_force():
    start = time.perf_counter()
    rng = np.random.default_rng(107)

    targets = [HeisPoint(*rng.uniform(-2, 2, 3)) for _ in range(50)]
    for target in targets:
        solver = riemannian_distance(ORIGIN, target)
        oracle = brute_force_distance(target, grid=(64, 512), s_max=10.0)
        assert abs(solver - oracle) <= 1e-3, (
            f"target {target}: solver {solver} vs oracle {oracle}"
        )

    for target in targets[:25]:
        forward = riemannian_distance(ORIGIN, target)
        backward = riemannian_distance(target, ORIGIN)
        assert abs(forward - backward) <= 1e-9
        g = HeisPoint(*rng.uniform(-2, 2, 3))
        translated = riemannian_distance(g, group_mul(g, target))
        assert abs(translated - forward) <= 1e-9

    triples = [
        tuple(HeisPoint(*rng.uniform(-2, 2, 3)) for _ in range(3)) for _ in range(200)
    ]
    for p, q, r in triples:
        d_pr = riemannian_distance(p, r)
        d_pq = riemannian_distance(p, q)
        d_qr = riemannian_distance(q, r)
        assert d_pr <= d_pq + d_qr + 1e-6

    report(
        "criterion 7 (distance solver vs brute force)",
        time.perf_counter() - start,
        300.0,
    )


def test_criterion_8_cygan_metric():
    start = time.perf_counter()
    assert cygan_distance(ORIGIN, HeisPoint(3, 4, 0)) == 5.0
    assert cygan_distance(ORIGIN, HeisPoint(0, 0, 9)) == 3.0
    rng = np.random.default_rng(108)
    for lam in (0.5, 2.0, 10.0):
        for _ in range(100):
            p = HeisPoint(*rng.uniform(-3, 3, 3))
            q = HeisPoint(*rng.uniform(-3, 3, 3))
            scaled, linear = cygan_scaling_check(p, q, lam)
            assert abs(scaled - linear) <= 1e-10
    report("criterion 8 (cygan metric)", time.perf_counter() - start, 1.0)


def test_criterion_9_figure_reproduction(tmp_path, capsys):
    start = time.perf_counter()
    out_dir = tmp_path / "figs"
    assert main(["figures", "--out-dir", str(out_dir)]) == 0
    capsys.readouterr()

    manifest = json.loads((out_dir / "manifest.json").read_text())
    figures = manifest["figures"]
    assert set(figures) == {"fig1", "fig2_r1", "fig2_r3", "fig3", "fig4", "fig5"}
    for entry in figures.values():
        path = out_dir / entry["file"]
        assert path.exists() and path.stat().st_size > 0

    assert sphere_proximity_events(SphereGrid(96, 192, 1.0)) == []
    assert sphere_proximity_events(SphereGrid(96, 192, 5.0))
    assert sphere_proximity_events(SphereGrid(96, 192, 20.0))
    report("criterion 9 (figure reproduction)", time.perf_counter() - start, 120.0)


def test_criterion_10_cli_determinism(tmp_path, capsys):
    start = time.perf_counter()

    def rerun_identical(args, out_name):
        a = tmp_path / f"a_{out_name}"
        b = tmp_path / f"b_{out_name}"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes(), f"{args[0]} output not deterministic"

    rerun_identical(
        ["geodesic", "--gamma", "0.5", "--phi", "0.25", "--smax", "7", "--n", "128"],
        "line.csv",
    )
    rerun_identical(
        ["sphere", "--radius", "2", "--nphi", "48", "--ngamma", "36", "--format", "ply"],
        "sphere.ply",
    )
    rerun_identical(
        ["surface", "--smax", "4", "--ntheta", "48", "--ns", "24"],
        "surface.obj",
    )
    rerun_identical(
        ["distance", "--metric", "riemannian", "0.1,0.2,0.3", "1,-0.5,0.75",
         "--all-candidates"],
        "cands.jsonl",
    )
    rerun_identical(["curvature"], "curv.txt")

    fig_a = tmp_path / "figs_a"
    fig_b = tmp_path / "figs_b"
    assert main(["figures", "--out-dir", str(fig_a)]) == 0
    assert main(["figures", "--out-dir", str(fig_b)]) == 0
    capsys.readouterr()
    for path_a in sorted(fig_a.iterdir()):
        path_b = fig_b / path_a.name
        assert path_a.read_bytes() == path_b.read_bytes(), path_a.name

    report("criterion 10 (CLI determinism)", time.perf_counter() - start, 120.0)
