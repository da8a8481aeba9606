"""heisgeo benchmark: run one workload, or all three, and print its metrics.

    python3 perfbench/run.py --workload distance_queries --seed 1 --seconds 30 --trace 0

Run from anywhere inside a checkout; the package is imported from the
checkout's own ``src/``.  Workloads: distance_queries, metric_clip,
figure_suite, or ``all`` to run the three in one process.  With --trace 0
the end-to-end metrics are printed; with --trace 1 the public functions of
cli, core, geodesics, distances, meshing and writers are wrapped and the
per-layer metrics derived from their spans are printed instead.  Each
metric appears as a `name value unit` line; the last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.  Scratch files go to a per-run directory under ``.perfbench-work/``,
which is removed at the end; the span log of a traced run stays there.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

# One client per workload; numpy's native thread pools are held to one thread
# so a run's timing does not depend on how many cores happen to be idle.
THREAD_CAPS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
SETUP_SAMPLES = 5
WORKLOADS = ("distance_queries", "metric_clip", "figure_suite")

# Set-up is timed in fresh interpreters: import the package, then the warm-up.
SETUP_PROBE = """
import json, sys, time
start = time.perf_counter()
sys.path.insert(0, {src!r})
import heisgeo.cli
for argv in json.loads({warm!r}):
    if heisgeo.cli.main([a.format(dir={work!r}) for a in argv]) != 0:
        sys.exit(1)
print(time.perf_counter() - start)
"""


def measure_setup(workdir: Path) -> tuple[list[float], list[float]]:
    """Set-up wall times of fresh interpreters, raw and at reference speed."""
    import workloads

    code = SETUP_PROBE.format(
        src=str(SRC), warm=json.dumps(workloads.WARM_UP), work=str(workdir)
    )
    raw, scaled = [], []
    for _ in range(SETUP_SAMPLES):
        before = workloads.calibrate()
        done = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True,
            timeout=120, check=True,
        )
        seconds = float(done.stdout.split()[-1])
        raw.append(seconds)
        scaled.append(workloads.scaled(seconds, before, workloads.calibrate()))
    return raw, scaled


def timing(times, passed: int, setup) -> dict:
    return {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (passed / sum(times), "1/s"),
        "op_p50_ms": (1000.0 * statistics.median(times), "ms"),
    }


def tail_line(times) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(times)
    if n < 11:
        return f"op_tail_ms not defined: {n} ops leave no percentile with 10 samples beyond it"
    value = sorted(times)[n - 11]
    return f"op_tail_ms {1000.0 * value} ms (p{100.0 * (n - 10) / n:.1f}: 10 of {n} ops beyond it)"


def per_layer(spans, report) -> tuple[dict, list[str]]:
    """Per-layer metrics from the spans of one traced run, and what is unmeasured."""
    ops = report.attempted
    selfs = tracing.self_times(spans)
    timed = defaultdict(list)  # name -> [(span, self time)] inside timed ops
    for span, own in zip(spans, selfs):
        if span.op is not None:
            timed[span.name].append((span, own))

    def calls(name):
        return len(timed[name]) / ops

    def ms(name):
        return 1000.0 * sum(s.end - s.start for s, _ in timed[name]) / ops

    def self_ms(name):
        return 1000.0 * sum(own for _, own in timed[name]) / ops

    def total(name, key):
        return sum((s.info or {}).get(key, 0) for s, _ in timed[name])

    def ratio(a, b):
        return a / b if b else 0.0

    def rate(name, key, scale):
        busy = sum(s.end - s.start for s, _ in timed[name])
        return ratio(total(name, key) / scale, busy)

    rd, sc = "distances.riemannian_distance", "distances.shoot_candidates"
    rd_times = [s.end - s.start for s, _ in timed[rd]]
    targets = [s for s, _ in timed[sc] if s.info and "error" not in s.info]
    repeats, seen = 0, set()
    for span in sorted(targets, key=lambda s: s.start):
        key = (span.op, f"{span.info['planar']:.9g}", f"{span.info['height']:.9g}")
        repeats += key in seen
        seen.add(key)
    oracle = [s for s in spans if s.name == "distances.brute_force_distance"]
    clip = "meshing.clip_sphere_to_metric"

    timed_spans = [s for s in spans if s.op is not None]
    overhead = sum(s.overhead for s in timed_spans)
    metrics = {
        f"{rd}.calls": (calls(rd), "calls/op"),
        f"{rd}.ms": (ms(rd), "ms/op"),
        f"{rd}.p50_ms": (1000.0 * statistics.median(rd_times) if rd_times else 0.0, "ms"),
        f"{sc}.calls": (calls(sc), "calls/op"),
        f"{sc}.ms": (ms(sc), "ms/op"),
        f"{sc}.candidates_per_call": (ratio(total(sc, "candidates"), len(targets)), "1/call"),
        "distances.brute_force_distance.calls": (len(oracle), "count"),
        "distances.brute_force_distance.ms": (
            ratio(1000.0 * sum(s.end - s.start for s in oracle), len(oracle)), "ms/call"),
        "distances.failed.convergence": (report.count("convergence"), "count"),
        "distances.failed.bound": (report.count("bound"), "count"),
        "distances.failed.oracle": (report.count("oracle"), "count"),
        "distances.failed.endpoint": (report.count("endpoint"), "count"),
        "distances.repeat_target_frac": (ratio(repeats, len(targets)), "fraction"),
        "distances.axis_frac": (
            ratio(sum(s.info["planar"] < 1e-12 for s in targets), len(targets)), "fraction"),
        "distances.multi_candidate_frac": (
            ratio(sum(s.info["candidates"] > 1 for s in targets), len(targets)), "fraction"),
        f"{clip}.self_ms": (self_ms(clip), "ms/op"),
        f"{clip}.vertices": (total(clip, "vertices") / ops, "1/op"),
        f"{clip}.kept_frac": (ratio(total(clip, "kept"), total(clip, "vertices")), "fraction"),
        "meshing.sphere_proximity_events.ms": (ms("meshing.sphere_proximity_events"), "ms/op"),
        "meshing.sphere_proximity_events.events": (
            total("meshing.sphere_proximity_events", "events") / ops, "1/op"),
        "meshing.singular_point_closeup.self_ms": (
            self_ms("meshing.singular_point_closeup"), "ms/op"),
        "meshing.sphere_exp_mesh.ms": (ms("meshing.sphere_exp_mesh"), "ms/op"),
        "meshing.plane_exp_surface.ms": (ms("meshing.plane_exp_surface"), "ms/op"),
        "meshing.ball_cutaway_mesh.ms": (ms("meshing.ball_cutaway_mesh"), "ms/op"),
        "writers.write_obj.ms": (ms("writers.write_obj"), "ms/op"),
        "writers.write_obj.MB_per_s": (rate("writers.write_obj", "bytes", 1e6), "MB/s"),
        "writers.write_ply.ms": (ms("writers.write_ply"), "ms/op"),
        "writers.write_ply.MB_per_s": (rate("writers.write_ply", "bytes", 1e6), "MB/s"),
        "geodesics.origin_coordinates.calls": (calls("geodesics.origin_coordinates"), "calls/op"),
        "geodesics.origin_coordinates.points": (
            total("geodesics.origin_coordinates", "points") / ops, "1/op"),
        "geodesics.origin_coordinates.points_per_s": (
            rate("geodesics.origin_coordinates", "points", 1.0), "1/s"),
        "core.group_mul.calls": (calls("core.group_mul"), "calls/op"),
        "cli.main.self_ms": (self_ms("cli.main"), "ms/op"),
        "trace.overhead_frac": (ratio(overhead, sum(report.times) - overhead), "fraction"),
    }
    idle = [
        tracing.span_name(module, func) for module, func, _ in tracing.TRACED
        if not timed[tracing.span_name(module, func)]
        and not (func == "brute_force_distance" and oracle)
    ]
    return metrics, idle


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="nominal timed op time per workload; sets the op count")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "heisgeo" / "__init__.py").is_file():
        print(f"perfbench: no heisgeo package under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(THREAD_CAPS)
    sys.path[:0] = [str(SRC), str(BENCH)]
    WORK.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        return _run(args, scratch)
    finally:
        shutil.rmtree(scratch)


def _run(args, scratch: Path) -> int:
    import numpy
    import scipy

    import heisgeo
    import workloads

    if Path(heisgeo.__file__).resolve().parent != SRC / "heisgeo":
        print(f"perfbench: imported heisgeo from {heisgeo.__file__}, not {SRC}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    print(
        f"# heisgeo benchmark: workload={args.workload} seed={args.seed} "
        f"seconds={args.seconds} trace={args.trace} nproc={os.cpu_count()} "
        f"python={platform.python_version()} numpy={numpy.__version__} "
        f"scipy={scipy.__version__} threads={THREAD_CAPS}"
    )
    reference = workloads.load_reference(BENCH)
    setup_raw, setup_scaled = ([], []) if args.trace else measure_setup(scratch)
    workloads.warm_up(scratch)

    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        workload = workloads.make(name, reference)
        tracer = tracing.Tracer() if args.trace else None
        if tracer is not None:
            tracer.install()
        try:
            report = workloads.run(workload, args.seed, args.seconds, scratch, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        if tracer is not None:
            tracer.write(WORK / f"spans-{name}-seed{args.seed}.jsonl")
            metrics, idle = per_layer(tracer.spans, report)
        else:
            # Gated times are at the reference host speed (see workloads.calibrate).
            passed = report.attempted - report.failed
            metrics = timing(report.scaled_times, passed, setup_scaled)
            metrics["peak_rss_mb"] = (report.peak_rss_mb, "MiB")
            idle = []
        causes = {c: report.count(c) for c in sorted(set(report.causes) - {None})}
        print(f"## {name}: {report.attempted} ops attempted, {report.failed} failed "
              f"{causes}, correct={report.correct}")
        if not args.trace:
            print(f"failed_frac {report.failed / report.attempted} fraction")
            print(tail_line(report.scaled_times))
        for metric, (value, unit) in metrics.items():
            print(f"{metric} {value} {unit}")
        if not args.trace:
            speed = workloads.CALIBRATION_REF_S / statistics.median(report.calibration)
            print(f"host_speed {speed} x (reference = 1; the times above are scaled to it)")
            for metric, (value, unit) in timing(report.times, passed, setup_raw).items():
                print(f"wall_{metric} {value} {unit}")
        if idle:
            print(f"# not measured on {name} (no calls in timed ops; reported as 0): "
                  + ", ".join(idle))
        prefix = f"{name}." if len(names) > 1 else ""
        for metric, (value, unit) in metrics.items():
            result["metrics"][prefix + metric] = {"value": value, "unit": unit}
        result["correct"] = result["correct"] and report.correct
        result["attempted"] += report.attempted
        result["failed"] += report.failed
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
