"""Write perfbench/reference.json: the outputs the benchmark checks against.

    python3 perfbench/pin_reference.py

Runs every metric_clip and figure_suite configuration once and records the
kept vertices, faces and defects (metric_clip) and the SHA-256 of every
output file (figure_suite).  The committed file was written at the commit
that introduced the benchmark; rewrite it only when a change is meant to
alter those outputs, and say so in that change.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    from run import THREAD_CAPS

    os.environ.update(THREAD_CAPS)
    import workloads

    (ROOT / ".perfbench-work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="pin-", dir=ROOT / ".perfbench-work"))
    reference = {}
    try:
        for workload in (workloads.MetricClip({}), workloads.FigureSuite({})):
            entries = {}
            for config in workload.CONFIGS:
                _, code = workloads.call_cli(workload.prepare(config, work))
                observed = workload.observe(work)
                if code != 0:
                    raise SystemExit(f"{workload.name} {config} exited with {code}")
                entries[workload.key(config)] = observed
            reference[workload.name] = entries
    finally:
        shutil.rmtree(work)
    with open(BENCH / "reference.json", "w", newline="\n") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
