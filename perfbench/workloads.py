"""The benchmark's three workloads: seeded inputs, one op each, output checks.

Every op is one call of ``heisgeo.cli.main``, looked up at call time so the
traced run sees its wrapper.  A workload prepares the op's argv (untimed),
the loop times the call, and the workload then checks the output (untimed)
and names the cause of any failure.  A failed check never stops the run.

distance_queries  one ``distance`` query per op on a seeded pair (p, q).
                  The offset p^-1 q is a point of the unit Cygan sphere
                  dilated by (lam x, lam y, lam^2 z), log10(lam) uniform on
                  [-2, 2].  Queries share nothing.
metric_clip       one ``sphere --clip-to-metric`` per op on a small grid,
                  radius 2 (below pi, nothing dropped) or 5 (polar caps drop).
                  Most vertices repeat an earlier vertex's (planar, height).
figure_suite      one ``figures`` run per op into a fresh directory, OBJ or
                  PLY; meshing, proximity detection and writers, no distances.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import resource
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import heisgeo.cli
import heisgeo.distances
import heisgeo.geodesics

# A failure of one of these causes is a known defect of the distance solver
# at large scales; it is counted as a failed op but does not make the run
# incorrect.  Any other cause does.
KNOWN_DEFECTS = frozenset({"convergence", "bound"})

# Op-independent calls made once before timing, in every workload.
WARM_UP = (
    ["distance", "--out", "{dir}/warm.txt", "--", "0,0,0", "0.5,0.25,0.125"],
    ["sphere", "--radius", "1", "--nphi", "3", "--ngamma", "3",
     "--out", "{dir}/warm.obj"],
)


def warm_up(workdir: Path) -> None:
    for argv in WARM_UP:
        code = heisgeo.cli.main([a.format(dir=workdir) for a in argv])
        if code != 0:
            raise RuntimeError(f"warm-up {argv[0]} exited with {code}")


# The host's speed swings by a quarter within seconds: one fixed distance
# query timed 180 times in a row had a wall-time CV of 0.20 per call and 0.12
# over blocks of ten.  Dividing each call by the wall time of this kernel,
# run just before and after it, cut those to 0.11 and 0.05.  Reported op and
# set-up times are therefore scaled to the speed at which the kernel takes
# CALIBRATION_REF_S.  The kernel runs no heisgeo code, so no change to the
# package can move it.
CALIBRATION_REF_S = 0.020


def calibrate() -> float:
    """Wall time of a fixed numpy and scalar-Python kernel (about 20 ms)."""
    start = perf_counter()
    x = np.linspace(0.0, 3.0, 4096)
    acc = 0.0
    for i in range(120):
        acc += float((np.sin(x * (i + 1)) * np.sqrt(x + 1.0)).sum())
    for i in range(60000):
        acc += math.sin(i * 1e-3) * math.sqrt(i)
    return perf_counter() - start


def scaled(seconds: float, before: float, after: float) -> float:
    """`seconds` at the reference host speed, from the kernel times around it."""
    return seconds * CALIBRATION_REF_S / (0.5 * (before + after))


def call_cli(argv: list[str]) -> tuple[float, object]:
    """Time one CLI call; return (seconds, exit code or exception text)."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        start = perf_counter()
        try:
            code = heisgeo.cli.main(argv)
        except Exception as exc:  # one op's crash must not stop the run
            code = f"{type(exc).__name__}: {exc}"
        seconds = perf_counter() - start
    return seconds, code


@dataclass
class Report:
    """Timed op wall times and the failure cause of each op (None = passed)."""

    workload: str
    times: list[float] = field(default_factory=list)
    causes: list[str | None] = field(default_factory=list)
    # Kernel time before each op and after the last one.
    calibration: list[float] = field(default_factory=list)
    peak_rss_mb: float = 0.0

    @property
    def scaled_times(self) -> list[float]:
        k = self.calibration
        return [scaled(t, k[i], k[i + 1]) for i, t in enumerate(self.times)]

    @property
    def attempted(self) -> int:
        return len(self.causes)

    @property
    def failed(self) -> int:
        return sum(c is not None for c in self.causes)

    def count(self, cause: str) -> int:
        return sum(c == cause for c in self.causes)

    @property
    def correct(self) -> bool:
        allowed = KNOWN_DEFECTS if self.workload == DistanceQueries.name else ()
        return all(c is None or c in allowed for c in self.causes)


def op_count(workload, seconds: float) -> int:
    """Ops in a run of `seconds`: whole blocks at the workload's reference rate.

    The count depends on `seconds` alone, never on the host's speed, so two
    runs with the same seed attempt the same ops and fail the same ones.
    """
    blocks = math.ceil(seconds * workload.RATE / workload.BLOCK)
    return max(1, blocks * workload.BLOCK)


# A run whose timed ops take this many times their time at the reference rate
# stops early, so that a very slow host still ends it in time; it then
# attempts fewer ops.
MAX_SLOWDOWN = 3.0


def run(workload, seed: int, seconds: float, workdir: Path, tracer=None) -> Report:
    """Closed loop, one client: start the next op when the last one is checked.

    Runs op_count(workload, seconds) ops, sized to take `seconds` at the
    reference host speed; at least one op runs.
    """
    report = Report(workload.name)
    inputs = []
    elapsed = 0.0
    count = op_count(workload, seconds)
    limit = MAX_SLOWDOWN * count / workload.RATE
    for index, inp in zip(range(count), workload.inputs(seed)):
        if index and elapsed >= limit:
            print(f"# {workload.name}: stopped after {index} of {count} ops, "
                  f"{elapsed:.1f} s of op time")
            break
        argv = workload.prepare(inp, workdir)
        report.calibration.append(calibrate())
        if tracer is not None:
            tracer.op = index
        op_seconds, code = call_cli(argv)
        if tracer is not None:
            tracer.op = None
        elapsed += op_seconds
        report.times.append(op_seconds)
        try:
            cause = workload.check(inp, code, workdir)
        except (OSError, ValueError, KeyError):  # missing or malformed output
            cause = "error"
        report.causes.append(cause)
        inputs.append(inp)
    report.calibration.append(calibrate())
    # Before the untimed check phase, whose oracle is not part of any op.
    report.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    workload.finish(seed, inputs, report.causes)
    return report


def _fmt_point(p) -> str:
    return ",".join(repr(float(c)) for c in p)


def _exit_cause(code) -> str | None:
    if code == 0:
        return None
    return "convergence" if code == heisgeo.cli.EXIT_SOLVER else "error"


def _stratified(rng: random.Random, lo: float, hi: float, strata: int):
    """Endless draws from [lo, hi]; each run of `strata` draws hits every stratum."""
    width = (hi - lo) / strata
    while True:
        order = list(range(strata))
        rng.shuffle(order)
        for k in order:
            yield lo + (k + rng.random()) * width


def _blocks(rng: random.Random, configs):
    """Endless configs; each run of len(configs) draws uses each one once."""
    while True:
        block = list(configs)
        rng.shuffle(block)
        yield from block


def _offset(p, q):
    """p^-1 * q with the package's group law, operation for operation."""
    ix, iy, iz = -p[0], -p[1], -p[2]
    return (ix + q[0], iy + q[1], iz + q[2] + ix * q[1] - iy * q[0])


class DistanceQueries:
    name = "distance_queries"
    RATE = 4.0  # ops per second at the reference host speed
    BLOCK = 20
    AXIS_PER_BLOCK = 4  # offsets exactly on the z-axis
    CANDIDATES_PER_BLOCK = 4  # --all-candidates (shoot_candidates) queries
    ORACLE_CHECKS = 3  # brute-force comparisons per run, untimed
    # The oracle is validated on offsets in [-2, 2]^3 and cannot refine a
    # target exactly on the z-axis (every planar direction is a solution).
    ORACLE_BOX = 2.0
    ORACLE_TOL = 1e-3
    ENDPOINT_TOL = 1e-6

    def inputs(self, seed: int):
        rng = random.Random(f"{self.name}/{seed}")
        scales = {
            kind: _stratified(random.Random(f"{self.name}/{kind}/{seed}"), -2.0, 2.0, 4)
            for kind in ("axis", "plane")
        }
        while True:
            axis_flags = [True] * self.AXIS_PER_BLOCK
            axis_flags += [False] * (self.BLOCK - self.AXIS_PER_BLOCK)
            cand_flags = [True] * self.CANDIDATES_PER_BLOCK
            cand_flags += [False] * (self.BLOCK - self.CANDIDATES_PER_BLOCK)
            rng.shuffle(axis_flags)
            rng.shuffle(cand_flags)
            for axis, candidates in zip(axis_flags, cand_flags):
                lam = 10.0 ** next(scales["axis" if axis else "plane"])
                p = tuple(rng.uniform(-1.0, 1.0) for _ in range(3))
                if axis:
                    d = (0.0, 0.0, rng.choice((-1.0, 1.0)) * lam * lam)
                else:
                    t = rng.uniform(-1.0, 1.0)
                    theta = rng.uniform(0.0, 2.0 * math.pi)
                    rad = lam * (1.0 - t * t) ** 0.25
                    d = (rad * math.cos(theta), rad * math.sin(theta), lam * lam * t)
                q = (p[0] + d[0], p[1] + d[1], p[2] + d[2] + p[0] * d[1] - p[1] * d[0])
                yield {"p": p, "q": q, "candidates": candidates}

    def prepare(self, inp, workdir: Path) -> list[str]:
        out = workdir / "distance.out"
        out.unlink(missing_ok=True)
        flags = ["--all-candidates"] if inp["candidates"] else []
        return ["distance", "--out", str(out), *flags, "--",
                _fmt_point(inp["p"]), _fmt_point(inp["q"])]

    def check(self, inp, code, workdir: Path) -> str | None:
        cause = _exit_cause(code)
        if cause:
            return cause
        x, y, z = _offset(inp["p"], inp["q"])
        text = (workdir / "distance.out").read_text()
        if inp["candidates"]:
            records = [json.loads(line) for line in text.splitlines()]
            scale = max(1.0, math.sqrt(x * x + y * y + z * z))
            for rec in records:
                g = rec["gamma"]
                ex, ey, ez = heisgeo.geodesics.origin_coordinates(
                    math.sqrt(max(0.0, 1.0 - g * g)), rec["phi"], g, rec["s"]
                )
                miss = math.sqrt((ex - x) ** 2 + (ey - y) ** 2 + (ez - z) ** 2)
                if not miss <= self.ENDPOINT_TOL * scale:
                    return "endpoint"
            d = min(rec["s"] for rec in records)
        else:
            d = float(text)
        inp["distance"] = d
        planar = math.hypot(x, y)
        upper = planar + min(abs(z), math.sqrt(2.0 * math.pi * abs(z)))
        slack = 1e-6 * max(1.0, upper)
        if not planar - slack <= d <= upper + slack:
            return "bound"
        return None

    def finish(self, seed: int, inputs, causes) -> None:
        """Compare a seeded subset of passed ops with the brute-force oracle."""
        offsets = [_offset(inp["p"], inp["q"]) for inp in inputs]
        eligible = [
            i for i, (x, y, z) in enumerate(offsets)
            if causes[i] is None
            and (x, y) != (0.0, 0.0)
            and max(abs(x), abs(y), abs(z)) <= self.ORACLE_BOX
        ]
        rng = random.Random(f"{self.name}/oracle/{seed}")
        for i in rng.sample(eligible, min(self.ORACLE_CHECKS, len(eligible))):
            target = heisgeo.HeisPoint(*offsets[i])
            try:
                oracle = heisgeo.distances.brute_force_distance(target)
            except heisgeo.distances.TargetUnreachableError:
                causes[i] = "oracle"
                continue
            if not abs(inputs[i]["distance"] - oracle) <= self.ORACLE_TOL:
                causes[i] = "oracle"


def read_ply(path: Path):
    """Vertices (with scalar columns by name) and faces of an ASCII PLY file."""
    lines = path.read_text().splitlines()
    end = lines.index("end_header")
    n_vertices = n_faces = 0
    columns = []
    for line in lines[:end]:
        words = line.split()
        if words[:2] == ["element", "vertex"]:
            n_vertices = int(words[2])
        elif words[:2] == ["element", "face"]:
            n_faces = int(words[2])
        elif words[0] == "property" and words[1] == "double":
            columns.append(words[2])
    rows = [[float(w) for w in line.split()] for line in lines[end + 1:end + 1 + n_vertices]]
    faces = [
        [int(w) for w in line.split()[1:]]
        for line in lines[end + 1 + n_vertices:end + 1 + n_vertices + n_faces]
    ]
    table = {name: [row[k] for row in rows] for k, name in enumerate(columns)}
    vertices = [row[:3] for row in rows]
    return vertices, table, faces


class MetricClip:
    name = "metric_clip"
    RATE = 0.37
    # (radius, n_phi, n_gamma): 10 vertices each; pi lies between the radii.
    CONFIGS = ((2.0, 8, 3), (2.0, 4, 4), (5.0, 8, 3), (5.0, 4, 4))
    BLOCK = len(CONFIGS)
    METRIC_TOL = 1e-3  # the CLI's default --metric-tol
    DEFECT_FLOOR = -1e-6
    VERTEX_TOL = 1e-9

    def __init__(self, reference: dict):
        self.reference = reference

    @staticmethod
    def key(config) -> str:
        return "radius={}/nphi={}/ngamma={}".format(*config)

    def inputs(self, seed: int):
        return _blocks(random.Random(f"{self.name}/{seed}"), self.CONFIGS)

    def prepare(self, config, workdir: Path) -> list[str]:
        out = workdir / "clip.ply"
        out.unlink(missing_ok=True)
        radius, n_phi, n_gamma = config
        return ["sphere", "--radius", repr(radius), "--nphi", str(n_phi),
                "--ngamma", str(n_gamma), "--clip-to-metric", "--format", "ply",
                "--out", str(out)]

    def observe(self, workdir: Path) -> dict:
        vertices, table, faces = read_ply(workdir / "clip.ply")
        return {"vertices": vertices, "faces": faces,
                "distance_defect": table["distance_defect"]}

    def check(self, config, code, workdir: Path) -> str | None:
        cause = _exit_cause(code)
        if cause:
            return cause
        got = self.observe(workdir)
        want = self.reference[self.key(config)]
        if got["faces"] != want["faces"] or len(got["vertices"]) != len(want["vertices"]):
            return "reference"
        for a, b in zip(got["vertices"], want["vertices"]):
            if any(abs(u - v) > self.VERTEX_TOL for u, v in zip(a, b)):
                return "reference"
        if not all(self.DEFECT_FLOOR <= d <= self.METRIC_TOL for d in got["distance_defect"]):
            return "defect"
        return None

    def finish(self, seed, inputs, causes) -> None:
        pass


class FigureSuite:
    name = "figure_suite"
    RATE = 1.05
    # Three well-separated op costs (about 0.6, 0.95 and 1.7 s), each a third
    # of the ops, so the median op is always a 64x128 PLY run.  With two cost
    # levels in equal shares the median would fall between them and jump
    # from one to the other with the op count.
    CONFIGS = ((48, 96, "obj"), (64, 128, "ply"), (96, 192, "obj"))
    BLOCK = len(CONFIGS)

    def __init__(self, reference: dict):
        self.reference = reference

    @staticmethod
    def key(config) -> str:
        return "nphi={}/ngamma={}/format={}".format(*config)

    def inputs(self, seed: int):
        return _blocks(random.Random(f"{self.name}/{seed}"), self.CONFIGS)

    def prepare(self, config, workdir: Path) -> list[str]:
        self._out = Path(tempfile.mkdtemp(prefix="figures-", dir=workdir))
        n_phi, n_gamma, fmt = config
        return ["figures", "--out-dir", str(self._out), "--nphi", str(n_phi),
                "--ngamma", str(n_gamma), "--format", fmt]

    def observe(self, workdir: Path) -> dict:
        """SHA-256 of every file of the last op's directory, which is removed."""
        try:
            return {
                f.name: hashlib.sha256(f.read_bytes()).hexdigest()
                for f in sorted(self._out.iterdir())
            }
        finally:
            shutil.rmtree(self._out)

    def check(self, config, code, workdir: Path) -> str | None:
        digests = self.observe(workdir)
        cause = _exit_cause(code)
        if cause:
            return cause
        return None if digests == self.reference[self.key(config)] else "digest"

    def finish(self, seed, inputs, causes) -> None:
        pass


def load_reference(bench_dir: Path) -> dict:
    with open(bench_dir / "reference.json") as handle:
        return json.load(handle)


def make(name: str, reference: dict):
    if name == DistanceQueries.name:
        return DistanceQueries()
    if name == MetricClip.name:
        return MetricClip(reference[MetricClip.name])
    if name == FigureSuite.name:
        return FigureSuite(reference[FigureSuite.name])
    raise ValueError(f"unknown workload {name!r}")

