"""Spans around the public functions of each wignerlab layer, recorded from outside.

``Tracer.install`` wraps every function a layer module lists in ``__all__``
and rebinds the wrapper at every import site in the package, because the
modules import each other's functions by name.  Spans are kept in memory and
written out at the end of a run.  A span's self time is its duration minus
the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
from dataclasses import dataclass

LAYERS = ("cli", "grid", "wigner", "modspace", "moments", "ensemble", "io")


@dataclass(frozen=True)
class Span:
    span_id: int
    parent: int | None
    layer: str
    func: str
    start: float
    end: float
    self_s: float
    job: int | None
    rows: int = 0  # x-rows transformed, for cross_wigner
    bytes_written: int = 0  # artifact size, for outermost io.write_* calls


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.job: int | None = None
        self._stack: list[list] = []  # [span id, child seconds, layer, func]
        self._next_id = 0

    def install(self, package: str) -> None:
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"{package}.{layer}")
            for name in mod.__all__:
                fn = getattr(mod, name)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrappers[id(fn)] = (fn, self._wrap(layer, fn))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != package and not mod_name.startswith(package + "."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])

    def clear(self) -> None:
        self.spans.clear()

    def _wrap(self, layer: str, fn):
        name = fn.__name__
        counts_rows = layer == "wigner" and name == "cross_wigner"
        counts_bytes = layer == "io" and name.startswith("write_")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack
            parent = stack[-1] if stack else None
            frame = [self._next_id, 0.0, layer, name]
            self._next_id += 1
            stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[1] += duration
                rows = written = 0
                if counts_rows:
                    grid = args[2] if len(args) > 2 else kwargs["grid"]
                    rows = grid.n_points
                if counts_bytes and not any(f[2] == "io" and f[3].startswith("write_") for f in stack):
                    written = os.path.getsize(args[0]) if os.path.exists(args[0]) else 0
                self.spans.append(
                    Span(frame[0], parent[0] if parent else None, layer, name,
                         start, end, duration - frame[1], self.job, rows, written)
                )

        return wrapper

    def write(self, path: str, origin: float) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.span_id, "parent": s.parent, "layer": s.layer, "func": s.func,
                    "start": s.start - origin, "end": s.end - origin, "self_s": s.self_s,
                    "job": s.job, "rows": s.rows, "bytes": s.bytes_written,
                }) + "\n")


def layer_metrics(spans: list[Span], jobs: int) -> dict:
    """The per-layer metrics of a traced run, each per job unless named otherwise."""
    self_s = dict.fromkeys(LAYERS, 0.0)
    transforms = kernel_s = rows = projections = projection_s = 0.0
    passes = states = charfn_s = written = 0.0
    for s in spans:
        self_s[s.layer] += s.self_s
        if s.func == "cross_wigner":
            transforms += 1
            kernel_s += s.self_s
            rows += s.rows
        elif s.func == "weighted_l1_norm":
            passes += 1
        elif s.func == "characteristic_function":
            charfn_s += s.end - s.start
        elif s.func == "project_to_basis":
            projections += 1
            projection_s += s.end - s.start
        elif s.func == "catalog_state":
            states += 1
        written += s.bytes_written
    mb = written / 1e6
    values = {
        "wigner.self_s_per_job": (self_s["wigner"] / jobs, "s"),
        "wigner.rows_per_s": (rows / kernel_s if kernel_s else 0.0, "1/s"),
        "wigner.transforms_per_job": (transforms / jobs, "count"),
        "modspace.self_s_per_job": (self_s["modspace"] / jobs, "s"),
        "modspace.norm_passes_per_job": (passes / jobs, "count"),
        "moments.self_s_per_job": (self_s["moments"] / jobs, "s"),
        "moments.charfn_s_per_job": (charfn_s / jobs, "s"),
        "ensemble.self_s_per_job": (self_s["ensemble"] / jobs, "s"),
        "ensemble.projections_per_job": (projections / jobs, "count"),
        "ensemble.ms_per_projection": (1e3 * projection_s / projections if projections else 0.0, "ms"),
        "io.self_s_per_job": (self_s["io"] / jobs, "s"),
        "io.write_mb_per_job": (mb / jobs, "MB"),
        "io.write_mb_per_s": (mb / self_s["io"] if self_s["io"] else 0.0, "MB/s"),
        "grid.self_s_per_job": (self_s["grid"] / jobs, "s"),
        "grid.states_built_per_job": (states / jobs, "count"),
        "cli.self_s_per_job": (self_s["cli"] / jobs, "s"),
    }
    return {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}
