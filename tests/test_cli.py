"""Command-line behavior: formats, determinism, exit codes, config file."""

import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import heisgeo
from heisgeo import core, distances, geodesics, meshing, writers
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

    @pytest.mark.parametrize(
        "argv",
        [
            ["geodesic", "--gamma", "0", "--smax", "1", "--n", "1"],
            ["geodesic", "--gamma", "0", "--smax", "0"],
            ["sphere", "--radius", "0", "--nphi", "8", "--ngamma", "6"],
            ["sphere", "--radius", "-1", "--nphi", "8", "--ngamma", "6", "--half"],
            ["sphere", "--radius", "1", "--nphi", "8", "--ngamma", "6", "--clip-to-metric",
             "--metric-tol", "nan"],
            ["surface", "--ntheta", "2"],
            ["surface", "--ns", "1"],
            ["distance", "1,2,3", "1,2,3", "--all-candidates"],
            ["geodesic", "--gamma", "1.5", "--smax", "1"],
            # The Cygan path takes no tolerance, so the command checks these.
            ["distance", "0,0,0", "1,0,0", "--tol", "0"],
            ["distance", "0,0,0", "1,0,0", "--tol", "-1"],
            ["distance", "0,0,0", "1,0,0", "--tol", "nan"],
            ["distance", "0,0,0", "1,0,0", "--metric", "cygan", "--all-candidates"],
        ],
    )
    def test_values_the_library_rejects(self, capsys, tmp_path, argv):
        out = tmp_path / "out"
        code, stdout, err = run(argv + ["--out", str(out)], capsys)
        assert code == 2 and stdout == "" and err.startswith("heisgeo: ")
        assert not out.exists()

    def test_io_failure(self, capsys, tmp_path):
        code, _, err = run(
            ["sphere", "--radius", "1", "--nphi", "8", "--ngamma", "6",
             "--out", str(tmp_path / "missing" / "s.obj")],
            capsys,
        )
        assert code == 3 and "I/O" in err

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
            (["distance", "0,0,0", "1,0,0"], {"metric": "euclid"}),
            (_SPHERE, {"half": "no"}),
            (_GEODESIC, {"base": [1, 2]}),
            (["sphere", "--radius", "1", "--ngamma", "6"], {"nphi": 8.5}),
            (["distance", "0,0,0", "1,0,0"], {"tol": None}),
        ],
        ids=["choice", "metric", "switch", "point", "int", "null"],
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
