"""Smoke test of the benchmark itself, at tiny sizes (about a minute).

    python3 -m pytest -q perfbench/smoke.py

Checks that every metric BENCHMARK.json names is printed with its unit, that
the output checks count planted faults under the right cause, and that the
benchmark refuses to run without the package source.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".perfbench-work"
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import heisgeo.cli  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture
def scratch():
    WORK.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="smoke-", dir=WORK))
    yield path
    shutil.rmtree(path)


def _last_json(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run.main(argv) == 0
    return json.loads(out.getvalue().strip().splitlines()[-1])


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_named_metric_is_printed_with_its_unit(trace, section):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {m["name"]: m["unit"] for m in declared[section]}
    for workload in (w["name"] for w in declared["workloads"]):
        result = _last_json(["--workload", workload, "--seed", "3",
                             "--seconds", "0", "--trace", str(trace)])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["attempted"] >= 1
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == want, workload
        assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_wrong_distance_is_counted_as_a_bound_failure(monkeypatch, scratch):
    # At scale lam <= 1e2 the circle bound is at most (1 + sqrt(2 pi)) lam,
    # about 360, so a distance 1e3 too long lies above it on every query.
    original = heisgeo.cli.riemannian_distance
    monkeypatch.setattr(
        heisgeo.cli, "riemannian_distance",
        lambda p, q, tol=1e-8: original(p, q, tol=tol) + 1e3,
    )
    workload = workloads.DistanceQueries()
    report = workloads.run(workload, seed=5, seconds=1.0, workdir=scratch)
    inputs = list(zip(range(report.attempted), workload.inputs(5)))
    plain = [i for i, inp in inputs if not inp["candidates"]]
    assert plain, "no riemannian_distance query ran"
    assert [report.causes[i] for i in plain] == ["bound"] * len(plain)


def test_flipped_output_byte_is_counted_as_a_digest_failure(monkeypatch, scratch):
    def flipping(writer):
        def write(mesh, path):
            writer(mesh, path)
            data = bytearray(Path(path).read_bytes())
            data[len(data) // 2] ^= 0x01
            Path(path).write_bytes(bytes(data))
        return write

    for name in ("write_obj", "write_ply"):
        monkeypatch.setattr(heisgeo.cli, name, flipping(getattr(heisgeo.cli, name)))
    reference = workloads.load_reference(BENCH)
    workload = workloads.make(workloads.FigureSuite.name, reference)
    report = workloads.run(workload, seed=1, seconds=0, workdir=scratch)
    assert report.causes == ["digest"]
    assert not report.correct


def test_refuses_to_run_without_the_package_source(scratch):
    bare = scratch / "bare"
    bare.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "metric_clip", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "{" not in done.stdout
