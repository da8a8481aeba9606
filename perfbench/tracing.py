"""Span tracer for the traced benchmark run.

The tracer replaces a heisgeo function at every module attribute that holds
it, so each caller's own lookup (``heisgeo.meshing.riemannian_distance``,
``heisgeo.cli.write_obj``, ...) goes through the wrapper.  No package source
changes.  Spans stay in memory and are written out when the run ends; the
per-layer metrics are derived from them afterwards.
"""

from __future__ import annotations

import json
import math
import os
import sys
from dataclasses import asdict, dataclass
from time import perf_counter


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at the top
    op: int | None  # None outside timed ops (set-up, check phase)
    overhead: float  # wrapper bookkeeping time spent around this call
    info: dict | None


def _target_info(args, kwargs, result):
    target = args[0]
    return {
        "planar": math.hypot(target.x, target.y),
        "height": target.z,
        "candidates": len(result),
    }


def _clip_info(args, kwargs, result):
    return {"vertices": args[0].n_vertices, "kept": result.n_vertices}


def _events_info(args, kwargs, result):
    return {"events": len(result)}


def _file_info(args, kwargs, result):
    return {"bytes": os.path.getsize(args[1])}


def _points_info(args, kwargs, result):
    return {"points": int(result[0].size)}


# (defining module, function, extractor of per-call facts or None)
TRACED = (
    ("heisgeo.cli", "main", None),
    ("heisgeo.core", "group_mul", None),
    ("heisgeo.geodesics", "origin_coordinates", _points_info),
    ("heisgeo.distances", "riemannian_distance", None),
    ("heisgeo.distances", "shoot_candidates", _target_info),
    ("heisgeo.distances", "brute_force_distance", None),
    ("heisgeo.meshing", "clip_sphere_to_metric", _clip_info),
    ("heisgeo.meshing", "sphere_proximity_events", _events_info),
    ("heisgeo.meshing", "singular_point_closeup", None),
    ("heisgeo.meshing", "sphere_exp_mesh", None),
    ("heisgeo.meshing", "plane_exp_surface", None),
    ("heisgeo.meshing", "ball_cutaway_mesh", None),
    ("heisgeo.writers", "write_obj", _file_info),
    ("heisgeo.writers", "write_ply", _file_info),
)


def span_name(module: str, func: str) -> str:
    return f"{module.split('.', 1)[1]}.{func}"


class Tracer:
    """Records one span per call of every function in TRACED."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self.op: int | None = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == "heisgeo" or name.startswith("heisgeo."))
        ]
        for module_name, func_name, info in TRACED:
            original = getattr(sys.modules[module_name], func_name)
            wrapper = self._wrap(span_name(module_name, func_name), original, info)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, name, func, info):
        def traced(*args, **kwargs):
            entered = perf_counter()
            parent = self._stack[-1] if self._stack else -1
            index = len(self.spans)
            self.spans.append(None)
            self._stack.append(index)
            start = perf_counter()
            try:
                result = func(*args, **kwargs)
            except BaseException as exc:
                end = perf_counter()
                self._close(index, name, start, end, parent, entered,
                            {"error": type(exc).__name__})
                raise
            end = perf_counter()
            extra = info(args, kwargs, result) if info else None
            self._close(index, name, start, end, parent, entered, extra)
            return result

        traced.__wrapped__ = func
        return traced

    def _close(self, index, name, start, end, parent, entered, info):
        self._stack.pop()
        overhead = (start - entered) + (perf_counter() - end)
        self.spans[index] = Span(name, start, end, parent, self.op, overhead, info)

    def write(self, path) -> None:
        with open(path, "w", newline="\n") as handle:
            for span in self.spans:
                handle.write(json.dumps(asdict(span), sort_keys=True) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    A child covers its own call and the tracer's bookkeeping around it, so
    that bookkeeping is not charged to the parent's self time.
    """
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            covered[span.parent] += span.end - span.start + span.overhead
    return [s.end - s.start - c for s, c in zip(spans, covered)]
