"""Command-line behavior: formats, determinism, exit codes, config file."""

import argparse
import contextlib
import functools
import io
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import heisgeo
from heisgeo import cli, core, distances, geodesics, meshing, writers
from heisgeo.cli import _build_parser, main

TWO_PI = 2.0 * math.pi


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_python(args):
    """A fresh interpreter that imports this heisgeo, installed or not."""
    paths = [str(Path(heisgeo.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


def _reference_samples(spec, smax, n):
    """(s, x, y, z, alpha, beta, gamma) of each geodesic sample, one sample at
    a time: the closed-form point translated by core.group_mul, and the
    velocity of velocity_frame_at.  Independent of the columns routine behind
    geodesic_polyline and the geodesic command; a sample that is not finite
    raises HeisPoint's ValueError, the closed-form point checked first."""
    s_values = np.linspace(0.0, smax, n + 1)
    x, y, z = geodesics.origin_coordinates(spec.r, spec.phi, spec.gamma, s_values)
    rows = []
    for s, xyz in zip(s_values.tolist(), zip(x.tolist(), y.tolist(), z.tolist())):
        point = core.group_mul(spec.base, core.HeisPoint(*xyz))
        vel = geodesics.velocity_frame_at(spec, s)
        rows.append((s, point.x, point.y, point.z, vel.a, vel.b, vel.c))
    return rows


def _assert_geodesic_lines(gamma, phi, smax, n, base):
    """geodesic's CSV and JSONL lines are format_float joins and json.dumps
    records (sorted keys) of the reference samples, and geodesic_polyline's
    points are theirs, bit for bit."""
    spec = geodesics.GeodesicSpec.from_direction(gamma, phi, base=cli._parse_point(base))
    rows = _reference_samples(spec, smax, n)
    points = meshing.geodesic_polyline(spec, smax, n)
    assert repr([(p.x, p.y, p.z) for p in points]) == repr([row[1:4] for row in rows])
    header = ("s", "x", "y", "z", "alpha", "beta", "gamma")
    csv = [",".join(header)] + [",".join(writers.format_float(v) for v in row) for row in rows]
    jsonl = [json.dumps(dict(zip(header, row)), sort_keys=True) for row in rows]
    argv = ["geodesic", f"--gamma={gamma!r}", f"--phi={phi!r}", f"--smax={smax!r}",
            f"--n={n}", f"--base={base}"]
    for fmt, lines in (("csv", csv), ("jsonl", jsonl)):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            assert main(argv + ["--format", fmt]) == 0
        assert err.getvalue() == "" and out.getvalue()[-1:] == "\n"
        assert out.getvalue().splitlines() == lines


class TestGeodesicCommand:
    def test_csv_columns_and_values(self, capsys, tmp_path):
        out = tmp_path / "line.csv"
        code, _, _ = run(
            ["geodesic", "--gamma", "0", "--phi", "0", "--smax", "2", "--n", "4",
             "--out", str(out)],
            capsys,
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "s,x,y,z,alpha,beta,gamma"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 5
        # Straight line in the xy-plane: z column all zeros.
        assert all(float(row[3]) == 0.0 for row in rows)
        assert float(rows[-1][1]) == 2.0

    def test_vertical_line(self, capsys, tmp_path):
        out = tmp_path / "vert.csv"
        code, _, _ = run(
            ["geodesic", "--gamma", "1", "--smax", "3", "--n", "3", "--out", str(out)],
            capsys,
        )
        assert code == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert all(float(r[1]) == 0.0 and float(r[2]) == 0.0 for r in rows)
        assert abs(float(rows[-1][3]) - 3.0) < 1e-12

    def test_axis_return_endpoint(self, capsys, tmp_path):
        out = tmp_path / "loop.csv"
        code, _, _ = run(
            ["geodesic", "--gamma", "0.5", "--phi", "0", "--smax", "6.2832",
             "--n", "100", "--out", str(out)],
            capsys,
        )
        assert code == 0
        last = out.read_text().splitlines()[-1].split(",")
        end = np.array([float(last[1]), float(last[2]), float(last[3])])
        want = np.array([0.0, 0.0, 5 * math.pi / 2])
        assert np.max(np.abs(end - want)) < 1e-3

    def test_jsonl_format(self, capsys, tmp_path):
        out = tmp_path / "line.jsonl"
        argv = ["geodesic", "--gamma", "0", "--smax", "1", "--n", "2", "--format", "jsonl"]
        code, _, _ = run([*argv, "--out", str(out)], capsys)
        assert code == 0
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(records) == 3
        assert set(records[0]) == {"s", "x", "y", "z", "alpha", "beta", "gamma"}
        # stdout gets the same bytes as the file.
        code, stdout, _ = run(argv, capsys)
        assert code == 0 and stdout.encode() == out.read_bytes()

    @pytest.mark.parametrize("gamma", ["0", "1", "-1", "-0.0"])
    def test_lines_are_the_formatted_samples(self, gamma):
        _assert_geodesic_lines(float(gamma), 0.0, 3.0, 7, "-0.0,-0.0,-0.0")

    @settings(max_examples=60, deadline=None)
    @given(
        gamma=st.floats(-1.0, 1.0),
        phi=st.floats(-20.0, 20.0),
        smax=st.floats(-3.0, 3.0).map(lambda e: 10.0**e),
        n=st.integers(2, 12),
        base=st.tuples(*[st.floats(-5.0, 5.0)] * 3),
    )
    def test_random_lines_are_the_formatted_samples(self, gamma, phi, smax, n, base):
        _assert_geodesic_lines(gamma, phi, smax, n, ",".join(map(repr, base)))

    def test_long_line_is_the_formatted_samples(self):
        _assert_geodesic_lines(0.7, 0.3, 50.0, 100_000, "1,-2,3")

    @pytest.mark.parametrize("gamma, smax, n, base", [
        # The translation overflows: b.x * y is -inf from the third sample on.
        (0.5, 3.0, 3, (-1.7e308, 0.0, 1.7e308)),
        # s**3 overflows past s ~ 5.6e102 (ROADMAP item 1(c) would make
        # these succeed).  On the vertical line it is inf * 0 in z, and the
        # closed-form point is named: its x is -0.0, its translate's 0.0.
        (0.5, 1e103, 100, (0.0, 0.0, 0.0)),
        (0.0, 1e200, 100, (0.0, 0.0, 0.0)),
        (1.0, 1e300, 100, (0.0, 0.0, 0.0)),
    ], ids=["base", "cube", "straight_cube", "vertical_cube"])
    def test_non_finite_sample_refused(self, capsys, tmp_path, gamma, smax, n, base):
        spec = geodesics.GeodesicSpec.from_direction(gamma, base=core.HeisPoint(*base))
        with pytest.raises(ValueError, match="overflows or is not finite") as refusal:
            _reference_samples(spec, smax, n)
        out = tmp_path / "line.csv"
        argv = ["geodesic", f"--gamma={gamma!r}", f"--smax={smax!r}", f"--n={n}",
                f"--base={','.join(map(repr, base))}", "--out", str(out)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, stdout, stderr = run(argv, capsys)
        assert code == 2 and stdout == "" and not out.exists()
        assert stderr == f"heisgeo: {refusal.value}\n"
        if base[0]:
            # The third sample is named, after the translation.
            message = "heisgeo: a coordinate overflows or is not finite: "
            assert stderr.startswith(message + "(-1.7e+308, ") and stderr.endswith(", -inf)\n")

    def test_stdout_output(self, capsys):
        code, out, _ = run(["geodesic", "--gamma", "0", "--smax", "1", "--n", "2"], capsys)
        assert code == 0
        assert out.startswith("s,x,y,z")

    def test_base_translation(self, capsys, tmp_path):
        out = tmp_path / "based.csv"
        code, _, _ = run(
            ["geodesic", "--gamma", "0", "--phi", "1.5707963267948966",
             "--smax", "1", "--n", "2", "--base", "1,0,0", "--out", str(out)],
            capsys,
        )
        assert code == 0
        last = out.read_text().splitlines()[-1].split(",")
        assert abs(float(last[1]) - 1.0) < 1e-12
        assert abs(float(last[2]) - 1.0) < 1e-12
        assert abs(float(last[3]) - 1.0) < 1e-12


class TestSphereCommand:
    def test_obj_structure(self, capsys, tmp_path):
        out = tmp_path / "s.obj"
        code, _, _ = run(
            ["sphere", "--radius", "1", "--nphi", "12", "--ngamma", "8",
             "--out", str(out)],
            capsys,
        )
        assert code == 0
        lines = out.read_text().splitlines()
        v_lines = [l for l in lines if l.startswith("v ")]
        f_lines = [l for l in lines if l.startswith("f ")]
        assert len(v_lines) == 2 + 6 * 12
        indices = [int(tok) for l in f_lines for tok in l.split()[1:]]
        assert min(indices) == 1 and max(indices) == len(v_lines)

    def test_ply_structure(self, capsys, tmp_path):
        out = tmp_path / "s.ply"
        code, _, _ = run(
            ["sphere", "--radius", "1", "--nphi", "8", "--ngamma", "6",
             "--format", "ply", "--out", str(out)],
            capsys,
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "ply"
        assert "property double gamma" in lines
        n_vertex = int(next(l for l in lines if l.startswith("element vertex")).split()[-1])
        assert n_vertex == 2 + 4 * 8

    def test_half_flag(self, capsys, tmp_path):
        out = tmp_path / "half.obj"
        code, _, _ = run(
            ["sphere", "--radius", "1", "--nphi", "12", "--ngamma", "8",
             "--half", "--out", str(out)],
            capsys,
        )
        assert code == 0
        ys = [float(l.split()[2]) for l in out.read_text().splitlines() if l.startswith("v ")]
        assert max(ys) <= 1e-12

    def test_cut_normal(self, capsys, tmp_path):
        out = tmp_path / "lower.obj"
        code, _, _ = run(
            ["sphere", "--radius", "1", "--nphi", "12", "--ngamma", "8",
             "--half", "--cut-normal", "0,0,2", "--out", str(out)],
            capsys,
        )
        assert code == 0
        zs = [float(l.split()[3]) for l in out.read_text().splitlines() if l.startswith("v ")]
        assert max(zs) <= 1e-12 and min(zs) < -0.5

    def test_near_flat_small_radius(self, capsys, tmp_path):
        out = tmp_path / "tiny.obj"
        code, _, _ = run(
            ["sphere", "--radius", "0.01", "--nphi", "16", "--ngamma", "12",
             "--out", str(out)],
            capsys,
        )
        assert code == 0
        vs = np.array(
            [list(map(float, l.split()[1:]))
             for l in out.read_text().splitlines() if l.startswith("v ")]
        )
        assert np.max(np.abs(np.linalg.norm(vs, axis=1) - 0.01)) < 1e-3 * 0.01

    def test_clip_to_metric(self, capsys, tmp_path):
        plain = tmp_path / "plain.obj"
        clipped = tmp_path / "clipped.obj"
        base = ["sphere", "--radius", "4", "--nphi", "6", "--ngamma", "6"]
        assert run(base + ["--out", str(plain)], capsys)[0] == 0
        assert run(base + ["--clip-to-metric", "--out", str(clipped)], capsys)[0] == 0
        n_plain = sum(1 for l in plain.read_text().splitlines() if l.startswith("v "))
        n_clip = sum(1 for l in clipped.read_text().splitlines() if l.startswith("v "))
        assert n_clip < n_plain


class TestSurfaceCommand:
    def test_runs_and_validates(self, capsys, tmp_path):
        out = tmp_path / "surf.obj"
        code, _, _ = run(
            ["surface", "--smax", "3", "--ntheta", "16", "--ns", "8",
             "--out", str(out)],
            capsys,
        )
        assert code == 0
        assert out.read_text().startswith("v 0 0 0")

    def test_two_rows(self, capsys, tmp_path):
        # (3, 2) is plane_exp_surface's minimum resolution, and the command's.
        out = tmp_path / "surf.obj"
        code, _, _ = run(
            ["surface", "--smax", "3", "--ntheta", "16", "--ns", "2", "--out", str(out)],
            capsys,
        )
        assert code == 0
        expected = tmp_path / "expected.obj"
        writers.write_obj(
            meshing.plane_exp_surface(s_range=(0.0, 3.0), resolution=(16, 2)), expected
        )
        assert out.read_bytes() == expected.read_bytes()


class TestDistanceCommand:
    def test_cygan_values(self, capsys):
        code, out, _ = run(["distance", "--metric", "cygan", "0,0,0", "3,4,0"], capsys)
        assert code == 0 and out.strip() == "5"
        code, out, _ = run(["distance", "--metric", "cygan", "0,0,0", "0,0,9"], capsys)
        assert code == 0 and out.strip() == "3"

    def test_riemannian_value(self, capsys):
        code, out, _ = run(["distance", "--metric", "riemannian", "0,0,0", "1,0,0"], capsys)
        assert code == 0
        assert abs(float(out.strip()) - 1.0) < 1e-6

    def test_same_point(self, capsys):
        code, out, _ = run(["distance", "--metric", "riemannian", "1,2,3", "1,2,3"], capsys)
        assert code == 0 and float(out.strip()) == 0.0

    def test_all_candidates(self, capsys):
        z = 5 * math.pi / 2
        code, out, _ = run(
            ["distance", "--metric", "riemannian", "0,0,0", f"0,0,{z}",
             "--all-candidates"],
            capsys,
        )
        assert code == 0
        records = [json.loads(line) for line in out.strip().splitlines()]
        assert len(records) >= 3
        assert {"gamma", "phi", "s", "residual"} <= set(records[0])
        assert abs(records[0]["s"] - TWO_PI) < 1e-7
        assert records[0]["axis_family"] is True

    @pytest.mark.parametrize("q", ["0,0,1e4", "200,0,0", "1e-5,0,-1e4"])
    def test_candidates_start_with_the_distance(self, capsys, q):
        code, out, _ = run(["distance", "0,0,0", q, "--all-candidates"], capsys)
        assert code == 0
        first = json.loads(out.splitlines()[0])
        code, out, _ = run(["distance", "0,0,0", q], capsys)
        assert code == 0
        assert first["s"] == float(out)

    @pytest.mark.parametrize(
        "p, q, tol",
        [
            # on the axis: one line per circle of geodesics, flagged
            ("0,0,0", "0,0,7", "1e-8"),
            ("0.5,-0.2,1", "0.5,-0.2,-9999", "1e-8"),
            # next to the axis: the windows are solved
            ("0,0,0", "1e-13,0,5", "1e-8"),
            ("0,0,0", "5e-13,0,5", "1e-14"),
            # off the axis, scales 1e-3..1e2, |z| up to 1e4
            ("0,0,0", "1e-3,2e-3,-4e-6", "1e-8"),
            ("0,0,0", "0.3,-0.1,0.05", "1e-8"),
            ("1,2,3", "-1,0.5,7", "1e-8"),
            ("0,0,0", "-7,3,40", "1e-8"),
            ("0,0,0", "60,-80,1e4", "1e-8"),
            ("0,0,0", "1e2,0,-5e3", "1e-10"),
            # one geodesic below pi; one geodesic, its one window dropped by
            # the closed-form bound; 25 geodesics, all 12 windows kept
            ("0,0,0", "0.7,-0.2,0.9", "1e-8"),
            ("0,0,0", "3,1,6", "1e-8"),
            ("0,0,0", "1e-3,0,40", "1e-8"),
        ],
    )
    def test_candidate_lines_are_the_json_records(self, capsys, p, q, tol):
        # Each line is json.dumps of its geodesic's record with sorted keys,
        # in shoot_candidates' order.
        code, out, _ = run(["distance", p, q, "--all-candidates", "--tol", tol], capsys)
        assert code == 0
        target = core.left_quotient(cli._parse_point(p), cli._parse_point(q))
        lines = []
        for cand in distances.shoot_candidates(target, tol=float(tol)):
            record = {"gamma": cand.spec.gamma, "phi": cand.spec.phi, "s": cand.s,
                      "residual": cand.residual}
            if cand.axis_family:
                record["axis_family"] = True
            lines.append(json.dumps(record, sort_keys=True))
        assert out[-1:] == "\n" and out.splitlines() == lines

    def test_candidates_next_to_the_axis(self, capsys):
        # 5e-13 from the axis is far above one rounding unit of the distance:
        # the windows are solved, and every geodesic certifies at a tolerance
        # below the planar distance.
        argv = ["distance", "0,0,0", "5e-13,0,5", "--tol", "1e-14"]
        code, out, _ = run(argv + ["--all-candidates"], capsys)
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert len(records) == 3 and not any("axis_family" in r for r in records)
        code, out, _ = run(argv, capsys)
        assert code == 0 and records[0]["s"] == float(out)

    def test_height_difference_is_kept(self, capsys):
        # The x * y products of the group law are 1 here, 1e20 times the
        # height difference.
        code, out, _ = run(["distance", "1,1,0", "1,1,1e-20"], capsys)
        assert code == 0 and out == "9.9999999999999995e-21\n"
        code, out, _ = run(["distance", "1,1,0", "1,1,1e-20", "--all-candidates"], capsys)
        assert code == 0 and json.loads(out.splitlines()[0])["s"] == 1e-20

    def test_candidates_need_distinct_points(self, capsys):
        code, _, err = run(
            ["distance", "--metric", "riemannian", "1,0,0", "1,0,0",
             "--all-candidates"],
            capsys,
        )
        assert code == 2 and "distinct" in err


    def test_candidate_listing_is_bounded(self, capsys):
        # About 2 |z| / pi = 6.4e8 geodesics: refused before any is built.
        tracemalloc.start()
        try:
            start = time.perf_counter()
            code, out, err = run(["distance", "0,0,0", "1e-3,0,1e9", "--all-candidates"], capsys)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2 and out == "" and "at most 1000000" in err
        assert elapsed < 0.5 and peak < 4 * 2**20


class TestLeadingMinus:
    """Points and vectors whose first coordinate is negative are values."""

    @pytest.mark.parametrize(
        "argv, p, q",
        [
            (["distance", "0,0,0", "-1,2,3"], (0, 0, 0), (-1, 2, 3)),
            (["distance", "--", "0,0,0", "-1,2,3"], (0, 0, 0), (-1, 2, 3)),
            (["distance", "-1,0,0.5", "0,0,0", "--tol", "1e-10"], (-1, 0, 0.5), (0, 0, 0)),
            (["distance", "0,0,0", "-.5,-2,3"], (0, 0, 0), (-0.5, -2, 3)),
            (["distance", "0,0,0", "-1e-3,0,-7"], (0, 0, 0), (-1e-3, 0, -7)),
        ],
    )
    def test_distance_points(self, capsys, argv, p, q):
        code, out, _ = run(argv, capsys)
        tol = 1e-10 if "--tol" in argv else 1e-8
        expected = distances.riemannian_distance(core.HeisPoint(*p), core.HeisPoint(*q), tol)
        assert code == 0 and out == writers.format_float(expected) + "\n"

    @pytest.mark.parametrize("base", [["--base", "-1,2,3"], ["--base=-1,2,3"]])
    def test_geodesic_base(self, capsys, base):
        code, out, _ = run(["geodesic", "--gamma", "0.5", "--smax", "1", "--n", "2", *base],
                           capsys)
        assert code == 0 and out.splitlines()[1].startswith("0,-1,2,3,")

    @pytest.mark.parametrize("normal", [["--cut-normal", "-1,0,0"], ["--cut-normal=-1,0,0"]])
    def test_cut_normal(self, capsys, tmp_path, normal):
        argv = ["sphere", "--radius", "1", "--nphi", "8", "--ngamma", "6", "--half"]
        code, _, _ = run(argv + normal + ["--out", str(tmp_path / "minus.obj")], capsys)
        assert code == 0
        code, _, _ = run(argv + ["--cut-normal", "1,0,0", "--out", str(tmp_path / "plus.obj")],
                         capsys)
        assert code == 0
        assert (tmp_path / "minus.obj").read_bytes() != (tmp_path / "plus.obj").read_bytes()

    @pytest.mark.parametrize("argv", [["distance", "0,0,0", "-x,2,3"],
                                      ["geodesic", "--gamma", "0", "--base", "-x,2,3"]])
    def test_other_dash_tokens_are_options(self, capsys, argv):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2


class TestCurvatureCommand:
    def test_output(self, capsys):
        code, out, _ = run(["curvature"], capsys)
        assert code == 0
        assert "K(X,Y) = -3" in out
        assert "K(X,T) = 1" in out
        assert "nabla_X Y = T" in out
        assert "nabla_Y X = -T" in out

    def test_general_coefficients(self):
        # The connection table holds only 0 and +-1; other coefficients are
        # written with format_float.
        assert cli._frame_combination(core.FrameVector(2.0, -0.5, 0.0)) == "2*X + -0.5*Y"


class TestExitCodes:
    def test_bad_subcommand(self):
        with pytest.raises(SystemExit) as info:
            main(["not-a-command"])
        assert info.value.code == 2

    def test_missing_required_option(self, capsys):
        code, _, err = run(["geodesic", "--smax", "1"], capsys)  # no --gamma
        assert code == 2 and "--gamma" in err

    def test_invalid_point(self):
        with pytest.raises(SystemExit) as info:
            main(["distance", "0,0", "1,0,0"])
        assert info.value.code == 2

    @pytest.mark.parametrize("normal", ["1,2", "1,2,x"])
    def test_invalid_vector(self, capsys, tmp_path, normal):
        with pytest.raises(SystemExit) as info:
            main(["sphere", "--radius", "1", "--half", "--cut-normal", normal,
                  "--out", str(tmp_path / "s.obj")])
        assert info.value.code == 2
        assert "--cut-normal" in capsys.readouterr().err

    def test_invalid_values(self, capsys):
        code, _, err = run(["geodesic", "--gamma", "0", "--smax", "-1"], capsys)
        assert code == 2 and "smax" in err

    # Each row keeps its id, so a row put in later renames no other case.
    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(["geodesic", "--gamma", "0", "--smax", "1", "--n", "1"], id="argv0"),
            pytest.param(["geodesic", "--gamma", "0", "--smax", "0"], id="argv1"),
            pytest.param(["sphere", "--radius", "0", "--nphi", "8", "--ngamma", "6"], id="argv2"),
            pytest.param(
                ["sphere", "--radius", "-1", "--nphi", "8", "--ngamma", "6", "--half"], id="argv3"
            ),
            pytest.param(
                ["sphere", "--radius", "1", "--nphi", "8", "--ngamma", "6", "--clip-to-metric",
                 "--metric-tol", "nan"],
                id="argv4",
            ),
            pytest.param(
                ["sphere", "--radius", "1", "--nphi", "8", "--ngamma", "6", "--clip-to-metric",
                 "--metric-tol", "inf"],
                id="argv5",
            ),
            pytest.param(["surface", "--ntheta", "2"], id="argv6"),
            pytest.param(["surface", "--ns", "1"], id="argv7"),
            pytest.param(
                ["surface", "--theta-min", "1", "--theta-max", "1", "--ntheta", "4", "--ns", "3"],
                id="argv8",
            ),
            pytest.param(["distance", "1,2,3", "1,2,3", "--all-candidates"], id="argv9"),
            pytest.param(["geodesic", "--gamma", "1.5", "--smax", "1"], id="argv10"),
            # The Cygan path takes no tolerance, so the command checks these.
            pytest.param(["distance", "0,0,0", "1,0,0", "--tol", "0"], id="argv11"),
            pytest.param(["distance", "0,0,0", "1,0,0", "--tol", "-1"], id="argv12"),
            pytest.param(["distance", "0,0,0", "1,0,0", "--tol", "nan"], id="argv13"),
            pytest.param(
                ["distance", "0,0,0", "1,0,0", "--metric", "cygan", "--all-candidates"],
                id="argv14",
            ),
            # An infinite tol would certify any finite endpoint miss.
            pytest.param(["distance", "0,0,0", "1,2,3", "--tol", "inf"], id="argv15"),
            pytest.param(
                ["distance", "0,0,0", "1,2,3", "--tol", "inf", "--all-candidates"], id="argv16"
            ),
            pytest.param(
                ["distance", "0,0,0", "1,2,3", "--tol", "inf", "--metric", "cygan"], id="argv17"
            ),
            # GeodesicSpec refuses a non-finite direction.
            pytest.param(
                ["geodesic", "--gamma", "0.5", "--phi", "inf", "--smax", "1"], id="argv18"
            ),
            pytest.param(
                ["geodesic", "--gamma", "0.5", "--phi", "nan", "--smax", "1"], id="argv19"
            ),
        ],
    )
    def test_values_the_library_rejects(self, capsys, tmp_path, argv):
        out = tmp_path / "out"
        code, stdout, err = run(argv + ["--out", str(out)], capsys)
        assert code == 2 and stdout == "" and err.startswith("heisgeo: ")
        assert not out.exists()

    @pytest.mark.parametrize(
        "grid, code",
        [(["--nphi", "2"], 2), (["--nphi", "8", "--ngamma", "8"], 4),
         (["--nphi", "16", "--ngamma", "16"], 4)],
        ids=["nphi2", "8x8", "16x16"],
    )
    def test_rejected_figures_write_nothing(self, capsys, tmp_path, grid, code):
        # A grid too small for the sphere, or one on which the close-ups
        # find no contact, is refused before the first figure is written.
        out_dir = tmp_path / "figures"
        assert run(["figures", "--out-dir", str(out_dir), *grid], capsys)[0] == code
        assert [p for p in tmp_path.rglob("*") if p.is_file()] == []

    @pytest.mark.parametrize("argv", [
        ["geodesic", "--gamma", "0.5", "--smax", "inf", "--n", "4"],
        ["surface", "--smax", "inf"],
        ["surface", "--theta-max", "inf"],
    ])
    def test_non_finite_range_refused_before_numpy_warns(self, capsys, tmp_path, argv):
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, stdout, err = run(argv + ["--out", str(out)], capsys)
        assert code == 2 and stdout == "" and err.startswith("heisgeo: ")
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["geodesic", "--gamma=--", "--smax", "1"],
        ["distance", "--tol=--", "0,0,0", "1,0,0"],
        ["sphere", "--radius=--", "--out", "x.obj"],
        ["distance", "0,0,0", "--", "--"],
        ["sphere", "--format=--", "--radius", "1", "--out", "y.obj"],
        ["geodesic", "--format=--", "--gamma", "0.5", "--smax", "1", "--out", "g.txt"],
        ["sphere", "--format=--", "--format", "ply", "--radius", "1", "--nphi", "8",
         "--ngamma", "6", "--out", "y.ply"],
        ["sphere", "--form=--", "--format=ply", "--radius", "1", "--out", "y.ply"],
    ])
    def test_dash_dash_value_is_checked(self, capsys, tmp_path, monkeypatch, argv):
        # "--" as a value is checked like any other (Python 3.10-3.12 would
        # store an empty list past the checks), also when a later spelling
        # of the option overrides it: exit 2, no file.
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        assert "error: argument " in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flag", ["--out=--", "--ou=--"])
    def test_output_file_named_dash_dash(self, capsys, tmp_path, monkeypatch, flag):
        monkeypatch.chdir(tmp_path)
        code, stdout, _ = run(["curvature"], capsys)
        assert code == 0
        assert run(["curvature", flag], capsys) == (0, "", "")
        assert (tmp_path / "--").read_text() == stdout

    @pytest.mark.parametrize("argv", [
        ["sphere", "--radius", "1", "--nphi", "3", "--ngamma", str(2**45), "--out", "m.obj"],
        ["surface", "--ns", str(2**45), "--out", "s.obj"],
        ["figures", "--ngamma", str(2**45), "--out-dir", "figures"],
        ["geodesic", "--gamma", "0.5", "--smax", "1", "--n", str(2**45), "--out", "g.csv"],
    ])
    def test_grid_too_large_for_memory(self, capsys, tmp_path, monkeypatch, argv):
        # 2^45 rows of float64 are 256 TiB, past the 47-bit user address
        # space, so the allocation fails under any overcommit policy.  Never
        # try a size that could be allocated.
        monkeypatch.chdir(tmp_path)
        code, stdout, err = run(argv, capsys)
        assert code == 2 and stdout == ""
        assert err.startswith("heisgeo: not enough memory: ") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("fmt", ["obj", "ply"])
    def test_memory_running_out_while_formatting(self, capsys, tmp_path, monkeypatch, fmt):
        # The writers format the mesh after they open the file (a PLY file
        # has its header by then): the file cut short is removed.
        def out_of_memory(table):
            raise MemoryError("float texts")

        monkeypatch.setattr(writers, "_float_texts", out_of_memory)
        out = tmp_path / f"s.{fmt}"
        argv = ["sphere", "--radius", "1", "--nphi", "8", "--ngamma", "6", "--format", fmt,
                "--out", str(out)]
        assert run(argv, capsys) == (2, "", "heisgeo: not enough memory: float texts\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "fmt, where",
        [("obj", "validate"), ("ply", "validate"), ("ply", "column_stack")],
    )
    def test_memory_running_out_before_the_open(self, capsys, tmp_path, monkeypatch,
                                                fmt, where):
        # The writers check the mesh, and build the PLY table, before they
        # open the file: a file already at --out is left as it was.
        def out_of_memory(*args):
            raise MemoryError(where)

        owner = meshing.TriMesh if where == "validate" else np
        monkeypatch.setattr(owner, where, out_of_memory)
        out = tmp_path / f"s.{fmt}"
        out.write_bytes(b"kept\n")
        argv = ["sphere", "--radius", "1", "--nphi", "8", "--ngamma", "6", "--format", fmt,
                "--out", str(out)]
        assert run(argv, capsys) == (2, "", f"heisgeo: not enough memory: {where}\n")
        assert out.read_bytes() == b"kept\n"

    def test_memory_running_out_leaves_a_link(self, capsys, tmp_path, monkeypatch):
        # Only a regular file the writer truncated is removed, never the
        # link (or device) it was reached through.
        def out_of_memory(table):
            raise MemoryError("float texts")

        monkeypatch.setattr(writers, "_float_texts", out_of_memory)
        target = tmp_path / "target.obj"
        target.write_bytes(b"old\n")
        link = tmp_path / "s.obj"
        link.symlink_to(target)
        argv = ["sphere", "--radius", "1", "--nphi", "8", "--ngamma", "6", "--out", str(link)]
        assert run(argv, capsys) == (2, "", "heisgeo: not enough memory: float texts\n")
        assert link.is_symlink() and os.readlink(link) == str(target)

    def test_io_failure(self, capsys, tmp_path):
        code, _, err = run(
            ["sphere", "--radius", "1", "--nphi", "8", "--ngamma", "6",
             "--out", str(tmp_path / "missing" / "s.obj")],
            capsys,
        )
        assert code == 3 and "I/O" in err

    @pytest.mark.parametrize("out", ["missing-dir", "directory"])
    @pytest.mark.parametrize(
        "argv",
        [["distance", "0,0,0", "0.5,0.2,1"],
         ["geodesic", "--gamma", "0.5", "--smax", "1", "--n", "4"],
         ["curvature"]],
        ids=["distance", "geodesic", "curvature"],
    )
    def test_line_writer_io_failure(self, capsys, tmp_path, argv, out):
        # An output file that cannot be opened: exit 3, no traceback, and
        # the directory is left as it was.
        (tmp_path / "directory").mkdir()
        path = tmp_path / "missing" / "out.txt" if out == "missing-dir" else tmp_path / out
        before = sorted(tmp_path.rglob("*"))
        code, stdout, err = run(argv + ["--out", str(path)], capsys)
        assert code == 3 and stdout == ""
        assert err.startswith("heisgeo: I/O failure: ") and "Traceback" not in err
        assert sorted(tmp_path.rglob("*")) == before

    def test_solver_failure(self, capsys):
        code, _, err = run(
            ["distance", "--metric", "riemannian", "0,0,0", "1,0,0",
             "--tol", "1e-30"],
            capsys,
        )
        assert code == 4 and "solver" in err

    @pytest.mark.parametrize("q", ["1e150,0,1e300", "2e154,0,0", "1e160,0,0.5"])
    def test_uncertifiable_distance(self, capsys, q):
        code, out, err = run(["distance", "0,0,0", q], capsys)
        assert code == 4 and out == "" and "cannot certify" in err

    def test_no_numpy_warning_on_stderr(self):
        result = run_python(["-m", "heisgeo.cli", "distance", "--all-candidates",
                             "0,0,0", "1e102,0,3.1416"])
        assert result.returncode == 0 and result.stderr == ""
        assert json.loads(result.stdout)["s"] == 1e102

    @pytest.mark.parametrize("argv", [
        ["sphere", "--radius", "1e35", "--nphi", "4", "--ngamma", "4", "--out", "big.obj"],
        ["geodesic", "--gamma", "0.5", "--smax", "1e35", "--n", "3", "--out", "g.csv"],
    ])
    def test_huge_arc_length_leaves_stderr_empty(self, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        result = run_python(["-m", "heisgeo.cli", *argv])
        assert result.returncode == 0 and result.stderr == ""

    @pytest.mark.parametrize("flag", ["--half", "--clip-to-metric"])
    def test_sphere_past_the_closed_form_is_refused(self, capsys, tmp_path, flag):
        # Past radius ~5.6e102 the exp-image is not finite: refused, never
        # meshed into an empty or uncertifiable file.
        out = tmp_path / "s.obj"
        code, _, err = run(["sphere", "--radius", "1e103", "--nphi", "8", "--ngamma", "8",
                            flag, "--out", str(out)], capsys)
        assert code == 2 and "non-finite" in err
        assert not out.exists()

    def test_console_entrypoint(self):
        result = run_python(["-m", "heisgeo.cli", "distance", "--metric", "cygan",
                             "0,0,0", "3,4,0"])
        assert result.returncode == 0
        assert result.stdout.strip() == "5"


class TestReadme:
    def test_usage_block_runs(self, capsys, tmp_path, monkeypatch):
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = text.split("## Command-line usage", 1)[1].split("```")[1]
        lines = [line.split() for line in block.splitlines() if line.startswith("heisgeo ")]
        assert len(lines) >= 10
        monkeypatch.chdir(tmp_path)
        for argv in lines:
            assert main(argv[1:]) == 0, argv
            capsys.readouterr()


class TestStartup:
    def test_runtime_does_not_import_scipy(self, tmp_path):
        # scipy.spatial alone costs a fresh process ~0.4 s of start-up.
        code = (
            "import sys, heisgeo.cli\n"
            "code = heisgeo.cli.main(['figures', '--out-dir', sys.argv[1],"
            " '--nphi', '24', '--ngamma', '48'])\n"
            "print(code, 'scipy' in sys.modules)\n"
        )
        result = run_python(["-c", code, str(tmp_path)])
        assert result.stdout.split() == ["0", "False"], result.stderr


def _rebuild(entry):
    """The mesh a figures manifest entry describes, from the entry alone."""
    params = {k: v for k, v in entry.items() if k not in ("file", "kind")}
    if entry["kind"] == "sphere_exp_mesh":
        return meshing.sphere_exp_mesh(meshing.SphereGrid(**params))
    if entry["kind"] == "ball_cutaway_mesh":
        return meshing.ball_cutaway_mesh(cut_plane_normal=params.pop("cut_normal"), **params)
    return getattr(meshing, entry["kind"])(**params)


class TestFiguresManifest:
    @pytest.mark.parametrize("fmt", ["obj", "ply"])
    def test_manifest_rebuilds_every_figure(self, capsys, tmp_path, fmt):
        out_dir = tmp_path / "figures"
        argv = ["figures", "--out-dir", str(out_dir), "--nphi", "24", "--ngamma", "48",
                "--format", fmt]
        assert run(argv, capsys)[0] == 0
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["format"] == fmt
        entries = list(manifest["figures"].values())
        assert len(entries) == 6
        files = sorted(p.name for p in out_dir.iterdir())
        assert files == sorted([e["file"] for e in entries] + ["manifest.json"])
        write = {"obj": writers.write_obj, "ply": writers.write_ply}[fmt]
        for entry in entries:
            rebuilt = tmp_path / entry["file"]
            write(_rebuild(entry), rebuilt)
            assert rebuilt.read_bytes() == (out_dir / entry["file"]).read_bytes(), entry

    def test_closeups_written_before_the_other_figures_are_built(
        self, capsys, tmp_path, monkeypatch
    ):
        # Both close-ups are built, then written; then each other figure is
        # built and written before the next is built.
        steps = []
        for kind, build in list(cli._FIGURE_BUILDERS.items()):
            def recorded(params, kind=kind, build=build):
                steps.append(kind)
                return build(params)

            monkeypatch.setitem(cli._FIGURE_BUILDERS, kind, recorded)
        write_mesh = cli._write_mesh

        def write(mesh, out, fmt):
            steps.append(Path(out).name)
            write_mesh(mesh, out, fmt)

        monkeypatch.setattr(cli, "_write_mesh", write)
        argv = ["figures", "--out-dir", str(tmp_path), "--nphi", "24", "--ngamma", "48"]
        assert run(argv, capsys)[0] == 0
        assert steps == [
            "singular_point_closeup", "singular_point_closeup",
            "fig4_singular_closeup_r5.obj", "fig5_singular_closeup_r20.obj",
            "plane_exp_surface", "fig1_plane_surface.obj",
            "sphere_exp_mesh", "fig2_sphere_r1.obj",
            "sphere_exp_mesh", "fig2_sphere_r3.obj",
            "ball_cutaway_mesh", "fig3_half_ball_r5.obj",
        ]


# The package's public names before its __all__ was built from the modules'.
_PUBLIC_NAMES = {
    "__version__", "ORIGIN", "HeisPoint", "FrameVector", "CoordVector", "MetricTensor",
    "ConnectionTable", "GeodesicSpec", "GeodesicSample", "ShootingSolution", "TriMesh",
    "SphereGrid", "ProximityEvent", "group_mul", "group_inv", "commutator",
    "left_jacobian", "frame_at", "metric_at", "inner_product", "frame_to_coord",
    "coord_to_frame", "nabla", "connection_table", "frame_bracket", "curvature_frame",
    "sectional_curvature", "velocity_frame_at", "geodesic_from_origin",
    "geodesic_from_point", "exp_map", "integrate_geodesic", "integrate_geodesic_batch",
    "origin_coordinates", "cygan_distance", "cygan_scaling_check", "dilate",
    "shoot_candidates", "riemannian_distance", "riemannian_distance_many",
    "brute_force_distance", "ShootingConvergenceError", "TargetUnreachableError",
    "MeshError", "NoSingularityError", "sphere_exp_mesh", "plane_exp_surface",
    "ball_cutaway_mesh", "clip_mesh_to_halfspace", "clip_sphere_to_metric",
    "sphere_proximity_events", "singular_point_closeup", "geodesic_polyline",
    "first_singular_radius",
}


class TestPackageSurface:
    def test_all_is_the_module_lists(self):
        modules = (core, geodesics, distances, meshing)
        assert heisgeo.__all__ == ["__version__", *(n for m in modules for n in m.__all__)]
        assert len(set(heisgeo.__all__)) == len(heisgeo.__all__)
        assert len(_PUBLIC_NAMES) == 54 and _PUBLIC_NAMES <= set(heisgeo.__all__)

    def test_every_name_resolves(self):
        namespace = {}
        exec("from heisgeo import *", namespace)
        for module in (core, geodesics, distances, meshing):
            for name in module.__all__:
                assert getattr(heisgeo, name) is getattr(module, name) is namespace[name]
        assert namespace["__version__"] == heisgeo.__version__


class TestConfigFile:
    def test_config_supplies_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"radius": 2.0, "nphi": 8, "ngamma": 6}))
        out = tmp_path / "s.obj"
        code, _, _ = run(
            ["sphere", "--config", str(cfg), "--out", str(out)], capsys
        )
        assert code == 0
        n_v = sum(1 for l in out.read_text().splitlines() if l.startswith("v "))
        assert n_v == 2 + 4 * 8

    def test_flags_override_config(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"radius": 2.0, "nphi": 8, "ngamma": 6}))
        out = tmp_path / "s.obj"
        code, _, _ = run(
            ["sphere", "--config", str(cfg), "--nphi", "10", "--out", str(out)],
            capsys,
        )
        assert code == 0
        n_v = sum(1 for l in out.read_text().splitlines() if l.startswith("v "))
        assert n_v == 2 + 4 * 10

    @pytest.mark.parametrize(
        "flag", [["--radius", "2"], ["--radius=2"], ["--rad", "2"]],
        ids=["separate", "equals", "abbreviated"],
    )
    def test_every_flag_spelling_overrides_config(self, capsys, tmp_path, flag):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"radius": 3.0, "nphi": 8, "ngamma": 6}))
        out = tmp_path / "s.obj"
        expected = tmp_path / "expected.obj"
        code, _, _ = run(["sphere", "--config", str(cfg), *flag, "--out", str(out)], capsys)
        assert code == 0
        code, _, _ = run(
            ["sphere", "--radius", "2", "--nphi", "8", "--ngamma", "6", "--out", str(expected)],
            capsys,
        )
        assert code == 0
        assert out.read_bytes() == expected.read_bytes()

    def test_unknown_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"radios": 2.0}))
        code, _, err = run(
            ["sphere", "--config", str(cfg), "--radius", "1", "--out", "x.obj"],
            capsys,
        )
        assert code == 2 and "radios" in err

    def test_array_config_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps([{"radius": 2.0}]))
        out = tmp_path / "x.obj"
        code, stdout, err = run(["sphere", "--config", str(cfg), "--out", str(out)], capsys)
        assert code == 2 and stdout == "" and "JSON object" in err
        assert not out.exists()

    def test_positional_key_rejected(self, capsys, tmp_path):
        # Positional arguments come from the line only; a key naming one
        # used to be accepted and ignored.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"p": "9,9,9"}))
        code, out, err = run(
            ["distance", "--config", str(cfg), "--metric", "cygan", "0,0,0", "1,0,0"],
            capsys,
        )
        assert code == 2 and "'p'" in err and out == ""

    def test_config_does_not_outlive_its_call(self, capsys, tmp_path):
        # The parser is built once per process; a config's defaults must
        # not leak into the next call.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"radius": 3}))
        out = tmp_path / "x.obj"
        code, _, _ = run(
            ["sphere", "--config", str(cfg), "--nphi", "8", "--ngamma", "6",
             "--out", str(out)],
            capsys,
        )
        assert code == 0
        code, _, err = run(["sphere", "--out", str(out)], capsys)
        assert code == 2 and "--radius is required" in err

    def test_missing_config_is_io_error(self, capsys, tmp_path):
        code, _, _ = run(
            ["sphere", "--radius", "1", "--config", str(tmp_path / "nope.json"),
             "--out", "x.obj"],
            capsys,
        )
        assert code == 3


# (command with its line-only arguments, config, the same values as flags).
# Between them the cases give every long option of every command a value
# from the config file, each switch both true and false, and the point and
# vector options both as a JSON array and as a string.
_GEODESIC = ["geodesic", "--gamma", "0.37", "--smax", "2", "--n", "8"]
_SPHERE = ["sphere", "--radius", "2", "--nphi", "8", "--ngamma", "6"]
_DISTANCE = ["distance", "0.2,0.3,0.4", "1,0.5,-0.25"]
_PARITY = [
    (["geodesic", "--smax", "2"], {"gamma": 0.37, "phi": -1.1, "n": 12},
     ["--gamma", "0.37", "--phi", "-1.1", "--n", "12"]),
    (["geodesic", "--gamma", "0.37"], {"smax": 2.5, "format": "jsonl", "out": "result"},
     ["--smax", "2.5", "--format", "jsonl", "--out", "result"]),
    (_GEODESIC, {"base": [1, -2, 0.5]}, ["--base", "1,-2,0.5"]),
    (_GEODESIC, {"base": "1,-2,0.5"}, ["--base=1,-2,0.5"]),
    (["sphere", "--out", "result"], {"radius": 2, "nphi": 8, "ngamma": 6},
     ["--radius", "2", "--nphi", "8", "--ngamma", "6"]),
    (_SPHERE, {"out": "result", "format": "ply", "half": True, "cut_normal": [1, 0, 0]},
     ["--out", "result", "--format", "ply", "--half", "--cut-normal", "1,0,0"]),
    (_SPHERE + ["--out", "result"], {"half": True, "cut_normal": "0,0.6,0.8"},
     ["--half", "--cut-normal", "0,0.6,0.8"]),
    (_SPHERE + ["--out", "result"],
     {"half": False, "clip_to_metric": True, "metric_tol": 0.01},
     ["--clip-to-metric", "--metric-tol", "0.01"]),
    (_SPHERE + ["--out", "result", "--half"], {"clip_to_metric": False}, []),
    (["surface", "--out", "result"],
     {"theta_min": 0.5, "theta_max": 3, "smin": 0.25, "smax": 2, "ntheta": 6, "ns": 4,
      "format": "ply"},
     ["--theta-min", "0.5", "--theta-max", "3", "--smin", "0.25", "--smax", "2",
      "--ntheta", "6", "--ns", "4", "--format", "ply"]),
    (["surface", "--ntheta", "6", "--ns", "4"], {"out": "result"}, ["--out", "result"]),
    (["figures"], {"out_dir": "figs", "nphi": 24, "ngamma": 48, "format": "ply"},
     ["--out-dir", "figs", "--nphi", "24", "--ngamma", "48", "--format", "ply"]),
    (_DISTANCE, {"metric": "cygan", "out": "result"}, ["--metric", "cygan", "--out", "result"]),
    (_DISTANCE, {"all_candidates": True, "tol": 1e-10}, ["--all-candidates", "--tol", "1e-10"]),
    (_DISTANCE, {"all_candidates": False, "metric": "riemannian"}, ["--metric", "riemannian"]),
    (["curvature"], {"out": "result"}, ["--out", "result"]),
]


def _exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def _outputs(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.rglob("*")) if p.is_file()}


# Line-only arguments of each command with a required option (declared with
# default None), and a value for each of its required options.
_NEEDED = {
    "geodesic": (["--n", "8"], {"gamma": 0.37, "smax": 2}),
    "sphere": (["--nphi", "8", "--ngamma", "6"], {"radius": 2, "out": "result"}),
    "surface": (["--ntheta", "6", "--ns", "4"], {"out": "result"}),
    "figures": (["--nphi", "24", "--ngamma", "48"], {"out_dir": "figs"}),
}
_NEEDED_OPTIONS = [
    (name, action.option_strings[0], action.dest)
    for name, command in _build_parser()[1].items()
    for action in command._actions
    if action.option_strings and action.default is None
]


class TestRequiredOptions:
    def test_cases_cover_every_required_option(self):
        listed = {(name, dest) for name, (_, values) in _NEEDED.items() for dest in values}
        assert listed == {(name, dest) for name, _, dest in _NEEDED_OPTIONS}

    @pytest.mark.parametrize(
        "name, flag, dest", _NEEDED_OPTIONS, ids=[f"{n}{f}" for n, f, _ in _NEEDED_OPTIONS]
    )
    def test_line_or_config_supplies_it(self, capsys, tmp_path, monkeypatch, name, flag, dest):
        monkeypatch.chdir(tmp_path)
        line, values = _NEEDED[name]
        flags = {a.dest: a.option_strings[0] for a in _build_parser()[1][name]._actions}
        others = [t for key, v in values.items() if key != dest for t in (flags[key], str(v))]
        code, out, err = run([name, *line, *others], capsys)
        assert (code, out) == (2, "")
        assert err == f"heisgeo: {flag} is required (flag or config file)\n"
        assert list(tmp_path.iterdir()) == []
        (tmp_path / "cfg.json").write_text(json.dumps({dest: values[dest]}))
        assert run([name, *line, *others, "--config", "cfg.json"], capsys)[0] == 0


class TestConfigParity:
    def test_cases_cover_every_option(self):
        _, commands = _build_parser()
        for name, command in commands.items():
            options = {a.dest for a in command._actions if a.option_strings}
            covered = set().union(*(cfg for line, cfg, _ in _PARITY if line[0] == name))
            assert covered == options - {"help", "config"}, name

    @pytest.mark.parametrize("line, config, flags", _PARITY)
    def test_config_gives_the_flags_output(self, capsys, tmp_path, monkeypatch,
                                           line, config, flags):
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        results = []
        for side, argv in (("config", line + ["--config", "../cfg.json"]),
                           ("flags", line + flags)):
            (tmp_path / side).mkdir()
            monkeypatch.chdir(tmp_path / side)
            code = _exit_code(argv)
            results.append((code, capsys.readouterr().out, _outputs(tmp_path / side)))
        assert results[0] == results[1]
        assert results[0][0] == 0 and (results[0][1] or results[0][2])

    @pytest.mark.parametrize(
        "line, config",
        [
            (_SPHERE, {"format": "stl"}),
            (_SPHERE + ["--format", "ply"], {"format": "stl"}),
            (_SPHERE + ["--format", "ply"], {"format": "--"}),
            (["distance", "0,0,0", "1,0,0"], {"metric": "euclid"}),
            (_SPHERE, {"half": "no"}),
            (_GEODESIC, {"base": [1, 2]}),
            (["sphere", "--radius", "1", "--ngamma", "6"], {"nphi": 8.5}),
            (["distance", "0,0,0", "1,0,0"], {"tol": None}),
            (["distance", "0,0,0", "3,4,0"], {"config": "nope.json", "metric": "cygan"}),
        ],
        ids=["choice", "overridden-choice", "overridden-dash-dash", "metric", "switch",
             "point", "int", "null", "nested-config"],
    )
    def test_invalid_value_is_a_usage_error(self, capsys, tmp_path, monkeypatch,
                                            line, config):
        # Checked like the same value given as a flag: exit 2, nothing written.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        assert _exit_code(line + ["--out", "result", "--config", "cfg.json"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and next(iter(config)).replace("_", "-") in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    def test_threads_with_different_configs(self, tmp_path):
        # The parser is shared by every call; a config file changes only its
        # own call's arguments, also with four threads calling at once.
        configs = [{"radius": 2, "nphi": 8, "ngamma": 6},
                   {"radius": 3, "nphi": 10, "ngamma": 4, "half": True, "format": "ply"}]
        expected = []
        for k, config in enumerate(configs):
            (tmp_path / f"cfg{k}.json").write_text(json.dumps(config))
            assert main(["sphere", "--config", str(tmp_path / f"cfg{k}.json"),
                         "--out", str(tmp_path / f"serial{k}")]) == 0
            expected.append((tmp_path / f"serial{k}").read_bytes())

        def calls(thread):
            for i in range(50):
                out = tmp_path / f"thread{thread}_{i}"
                assert main(["sphere", "--config", str(tmp_path / f"cfg{thread % 2}.json"),
                             "--out", str(out)]) == 0

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave the threads finely
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                assert list(pool.map(calls, range(4), timeout=120)) == [None] * 4
        finally:
            sys.setswitchinterval(interval)
        for thread in range(4):
            for i in range(50):
                written = (tmp_path / f"thread{thread}_{i}").read_bytes()
                assert written == expected[thread % 2], (thread, i)


# (argv, exit code or None when it parses, the stream and a text it holds).
# A plain line that starts with a command is read from that command's action
# table (cli._plain_line); everything else goes to the top-level parser,
# whose usage line and messages the errors keep.
_TOP_USAGE = "usage: heisgeo [-h]"
_DISTANCE_USAGE = "usage: heisgeo distance"
_PARSE_CASES = [
    (["distance", "0,0,0", "1,1,1"], None, "", ""),
    (["-h"], 0, "out", _TOP_USAGE),
    (["--version"], 0, "out", f"heisgeo {heisgeo.__version__}"),
    (["--version", "distance", "0,0,0", "1,1,1"], 0, "out", f"heisgeo {heisgeo.__version__}"),
    (["distance", "--version", "0,0,0", "1,1,1"], 2, "err",
     "heisgeo: error: unrecognized arguments: --version"),
    ([], 2, "err", "heisgeo: error: the following arguments are required: command"),
    (["bogus", "0,0,0"], 2, "err", "heisgeo: error: argument command: invalid choice"),
    (["distance", "--bogus", "0,0,0", "1,1,1"], 2, "err",
     "heisgeo: error: unrecognized arguments: --bogus"),
    (["distance", "--met", "cygan", "0,0,0", "1,1,1"], None, "", ""),
    (["distance", "0,0,0"], 2, "err",
     "heisgeo distance: error: the following arguments are required: q"),
    (["distance", "0,0,0", "1,1,1", "2,2,2"], 2, "err",
     "heisgeo: error: unrecognized arguments: 2,2,2"),
    (["distance", "0,0", "1,1,1"], 2, "err",
     "heisgeo distance: error: argument p: expected x,y,z triple"),
    (["distance", "--metric", "euclid", "0,0,0", "1,1,1"], 2, "err",
     "heisgeo distance: error: argument --metric: invalid choice"),
    (["distance", "0,0,0", "-1,2,3"], None, "", ""),
    (["distance", "--", "-1,0,0", "0,0,0"], None, "", ""),
    (["distance", "0,0,0", "-x,2,3"], 2, "err", "heisgeo distance: error: "),
    # A dash-led number before the command is a value there too: a command name.
    (["-1,2,3", "distance", "0,0,0", "1,1,1"], 2, "err",
     "heisgeo: error: argument command: invalid choice: '-1,2,3'"),
    (["distance", "-h"], 0, "out", _DISTANCE_USAGE),
    # Python 3.10-3.13.0 refuse "--=" in the top-level parser, before any
    # command parser runs; later releases leave an ambiguous option to be
    # refused where it is consumed, here by the command parser.  Either whole
    # message line, as the running Python's reference parser prints it.
    (["distance", "--=x", "0,0,0", "1,1,1"], 2, "err", (
        "heisgeo: error: ambiguous option: --=x could match --help, --version",
        "heisgeo distance: error: ambiguous option: --=x could match --help, --metric, "
        "--all-candidates, --tol, --out, --config",
    )),
    (["geodesic", "--n=x"], 2, "err", "heisgeo geodesic: error: argument --n: invalid int"),
    (["curvature", "extra"], 2, "err", "heisgeo: error: unrecognized arguments: extra"),
    # A trailing "--" with no positional after it is left over.
    (["curvature", "--"], 2, "err", "heisgeo: error: unrecognized arguments: --"),
    # Each value is checked as it is read: the later --format does not save the first.
    (["sphere", "--format", "-", "--format", "ply"], 2, "err",
     "heisgeo sphere: error: argument --format: invalid choice: '-'"),
    # Python 3.10-3.12 store an empty list for "--opt=--" and for a second
    # "--", past the type and choices checks; both routes read "--" there,
    # as 3.13 does, and check it as argparse consumes it, so a later
    # spelling of the option does not save it.
    (["curvature", "--out=--"], None, "", ""),
    (["curvature", "--ou=--"], None, "", ""),
    (["geodesic", "--gamma=--", "--smax", "1"], 2, "err",
     "heisgeo geodesic: error: argument --gamma: invalid float value: '--'"),
    (["distance", "--tol=--", "0,0,0", "1,0,0"], 2, "err",
     "heisgeo distance: error: argument --tol: invalid float value: '--'"),
    (["sphere", "--radius=--", "--out", "x.obj"], 2, "err",
     "heisgeo sphere: error: argument --radius: invalid float value: '--'"),
    (["distance", "0,0,0", "--", "--"], 2, "err",
     "heisgeo distance: error: argument q: expected x,y,z triple, got '--'"),
    (["sphere", "--format=--", "--radius", "1", "--out", "y.obj"], 2, "err",
     "heisgeo sphere: error: argument --format: invalid choice: '--'"),
    (["geodesic", "--format=--", "--gamma", "0.5", "--smax", "1"], 2, "err",
     "heisgeo geodesic: error: argument --format: invalid choice: '--'"),
    (["sphere", "--format=--", "--format", "ply", "--radius", "1", "--nphi", "8",
      "--ngamma", "6", "--out", "y.ply"], 2, "err",
     "heisgeo sphere: error: argument --format: invalid choice: '--'"),
    (["sphere", "--form=--", "--format", "ply", "--radius", "1", "--nphi", "8",
      "--ngamma", "6", "--out", "y.ply"], 2, "err",
     "heisgeo sphere: error: argument --format: invalid choice: '--'"),
    (["distance", "--tol=--", "--tol", "1e-8", "0,0,0", "1,1,1"], 2, "err",
     "heisgeo distance: error: argument --tol: invalid float value: '--'"),
    (["geodesic", "--format=--", "--format", "csv", "--gamma", "0.5", "--smax", "1"], 2,
     "err", "heisgeo geodesic: error: argument --format: invalid choice: '--'"),
    (["distance", "--", "0,0,0", "--"], 2, "err",
     "heisgeo distance: error: argument q: expected x,y,z triple, got '--'"),
    # A non-finite point: the point type's reason, not "invalid _parse_point value".
    (["distance", "0,0,0", "nan,0,0"], 2, "err",
     "heisgeo distance: error: argument q: coordinates must be finite"),
    (["distance", "1e400,0,0", "0,0,0"], 2, "err",
     "heisgeo distance: error: argument p: coordinates must be finite"),
    (["geodesic", "--base", "nan,0,0"], 2, "err",
     "heisgeo geodesic: error: argument --base: coordinates must be finite"),
]


class _Reference(cli._Parser):
    """The reference's own reading of "--": argparse's `_get_values`, and
    where it gives Python 3.10-3.12's empty list for a one-value action
    ("--opt=--", or a positional after the first "--"), the text "--"
    through the action's type and choices checks, as Python 3.13 reads it.

    The value is read as argparse consumes it, so a later spelling of the
    option does not hide a refused "--".  Only cli._Parser's dash-led-number
    pattern is shared.
    """

    def _get_values(self, action, arg_strings):
        value = argparse.ArgumentParser._get_values(self, action, arg_strings)
        if action.nargs is None and isinstance(value, list) and not value:
            value = self._get_value(action, "--")
            self._check_value(action, value)
        return value


@functools.cache
def _reference_parser():
    """cli's parser tree built with `_Reference` as every parser's class."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "_Parser", _Reference)
        return cli._build_parser.__wrapped__()[0]


def _top_level(argv):
    """The reference parse: the top-level parser of the `_Reference` tree."""
    return _reference_parser().parse_args(argv)


def _parse_outcome(parse, argv, capsys):
    try:
        result = vars(parse(argv))
    except SystemExit as exc:
        result = exc.code
    captured = capsys.readouterr()
    return result, captured.out, captured.err


# Tokens of every kind the two routes must read alike: numbers, points
# (dash-led, non-finite), choices, "-", "", "a=b", dash values, "--", "-h".
_TOKENS = ["0", "2.5", "8", "-1", "-", "", "nan", "1e400", "0,0,0", "1,2,3", "-1,2,3",
           "-.5,0,0", "nan,0,0", "1e400,0,0", "csv", "obj", "ply", "cygan", "euclid", "a=b",
           "-x", "--", "-h", "--out"]


@st.composite
def _command_line(draw, name):
    options = [s for a in _build_parser()[1][name]._actions for s in a.option_strings]
    token = st.sampled_from(_TOKENS)

    def spelling(option):
        return st.one_of(
            st.tuples(option, token).map(list),
            option.map(lambda o: [o]),
            st.tuples(option, token).map(lambda t: ["=".join(t)]),
            st.tuples(option, st.integers(2, 9)).map(lambda t: [t[0][:t[1]]]),
        )

    piece = st.one_of(spelling(st.sampled_from(options)), token.map(lambda t: [t]))
    pieces = draw(st.lists(piece, max_size=6))
    if draw(st.booleans()):
        # "--opt=--" (exact or abbreviated), often with another spelling of
        # the same option later on the line.
        flag = draw(st.sampled_from([o for o in options if o[:2] == "--"]))
        at = draw(st.integers(0, len(pieces)))
        if draw(st.booleans()):
            pieces.insert(draw(st.integers(at, len(pieces))), draw(spelling(st.just(flag))))
        pieces.insert(at, [flag[:draw(st.integers(2, 20))] + "=--"])
    if name == "distance" and draw(st.booleans()):
        # Two points, at any place, sometimes after a "--".
        points = draw(st.lists(st.sampled_from(["0,0,0", "1,2,3", "-1,2,3", "nan,0,0"]),
                               min_size=2, max_size=2))
        at = draw(st.integers(0, len(pieces)))
        pieces.insert(at, ["--", *points] if draw(st.booleans()) else points)
    return [name] + [t for piece in pieces for t in piece]


def _parsed(parse, argv):
    """(namespace as sorted repr, or exit code), stdout, stderr of one parse."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = repr(sorted(vars(parse(argv)).items()))
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


class TestParseRoute:
    @pytest.mark.parametrize(
        "argv, code, stream, text", _PARSE_CASES, ids=[" ".join(c[0]) for c in _PARSE_CASES]
    )
    def test_same_as_the_top_level_parser(self, capsys, argv, code, stream, text):
        fast = _parse_outcome(cli._parse, argv, capsys)
        assert fast == _parse_outcome(_top_level, argv, capsys)
        result, out, err = fast
        if code is None:
            assert result["command"] == argv[0] and out == err == ""
        else:
            assert result == code
            if isinstance(text, tuple):
                assert (out if stream == "out" else err).splitlines()[-1] in text
            else:
                assert text in (out if stream == "out" else err)
            if stream == "err":
                usage = _TOP_USAGE if err.count("heisgeo: error:") else f"usage: heisgeo {argv[0]}"
                assert err.startswith(usage)

    @pytest.mark.parametrize("name", sorted(_build_parser()[1]))
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_random_lines_parse_alike(self, name, data):
        # Exact, "=", abbreviated and repeated options, dash values, "--"
        # anywhere: the same namespace (nan-safe, order-free), exit code,
        # stdout and stderr as the top-level parser.
        argv = data.draw(_command_line(name))
        assert _parsed(cli._parse, argv) == _parsed(_top_level, argv)

    def test_no_option_has_a_str_default_and_a_type(self):
        # _plain_line sets every default as it is; argparse would pass a str
        # default through the type.
        for command in _build_parser()[1].values():
            for action in command._actions:
                assert not (isinstance(action.default, str) and action.type), action.dest

    def test_commands_skip_the_top_level_parser(self, capsys, tmp_path, monkeypatch):
        # The benchmark's three line shapes, a plain query and a config
        # file's re-parse make no argparse call, and give the flags' output.
        (tmp_path / "cfg.json").write_text(json.dumps({"metric": "cygan"}))
        flags = run(["distance", "--metric", "cygan", "0,0,0", "3,4,0"], capsys)
        parser, commands = _build_parser()

        class ArgparseCalled(Exception):
            pass

        def refuse(*args, **kwargs):
            raise ArgparseCalled

        monkeypatch.setattr(parser, "parse_args", refuse)
        for command in commands.values():
            monkeypatch.setattr(command, "parse_known_args", refuse)
        lines = [
            ["distance", "--out", "d.out", "--all-candidates", "--", "0.1,-0.5,0.7", "-1,0,2"],
            ["sphere", "--radius", "2.0", "--nphi", "8", "--ngamma", "3", "--clip-to-metric",
             "--format", "ply", "--out", "clip.ply"],
            ["figures", "--out-dir", "figures", "--nphi", "48", "--ngamma", "96",
             "--format", "obj"],
        ]
        for line in lines:
            assert cli._parse(line).command == line[0]
        assert run(["distance", "0,0,0", "3,4,0"], capsys)[0] == 0
        config = run(["distance", "--config", str(tmp_path / "cfg.json"), "0,0,0", "3,4,0"],
                     capsys)
        assert config == flags == (0, "5\n", "")
        # An abbreviated option is the top-level parser's to read.
        with pytest.raises(ArgparseCalled):
            cli._parse(["distance", "--met", "cygan", "0,0,0", "3,4,0"])

    def test_threads_parse_their_own_lines(self, tmp_path):
        # Two threads, one with a config file, parse through the shared
        # command parser at once; each call keeps its own arguments.
        (tmp_path / "cfg.json").write_text(json.dumps({"metric": "cygan", "tol": 1e-10}))
        lines = [["distance", "0,0,0", "0.5,0.2,1"],
                 ["distance", "--config", str(tmp_path / "cfg.json"), "0,0,0", "0.5,0.2,1"]]
        expected = []
        for k, line in enumerate(lines):
            assert main(line + ["--out", str(tmp_path / f"serial{k}")]) == 0
            expected.append((tmp_path / f"serial{k}").read_bytes())
        assert expected[0] != expected[1]

        def calls(thread):
            for i in range(100):
                assert main(lines[thread] + ["--out", str(tmp_path / f"t{thread}_{i}")]) == 0

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=2) as pool:
                assert list(pool.map(calls, range(2), timeout=120)) == [None] * 2
        finally:
            sys.setswitchinterval(interval)
        for thread in range(2):
            for i in range(100):
                assert (tmp_path / f"t{thread}_{i}").read_bytes() == expected[thread]


class TestDeterminism:
    def test_geodesic_reruns_identical(self, capsys, tmp_path):
        args = ["geodesic", "--gamma", "0.37", "--phi", "1.1", "--smax", "5",
                "--n", "64"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(args + ["--out", str(a)], capsys)[0] == 0
        assert run(args + ["--out", str(b)], capsys)[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_sphere_reruns_identical(self, capsys, tmp_path):
        args = ["sphere", "--radius", "2.5", "--nphi", "24", "--ngamma", "18",
                "--format", "ply"]
        a, b = tmp_path / "a.ply", tmp_path / "b.ply"
        assert run(args + ["--out", str(a)], capsys)[0] == 0
        assert run(args + ["--out", str(b)], capsys)[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_distance_reruns_identical(self, capsys):
        args = ["distance", "--metric", "riemannian", "0.2,0.3,0.4", "1,0.5,-0.25",
                "--all-candidates"]
        _, out_a, _ = run(args, capsys)
        _, out_b, _ = run(args, capsys)
        assert out_a == out_b
