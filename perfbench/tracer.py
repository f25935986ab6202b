"""Spans and counters around gibbsline's public functions, installed from outside.

`Tracer.install()` replaces every binding of each traced function in every
loaded ``gibbsline`` module (``from``-imports included) with a wrapper that
records a span: name, start, end, parent span and invocation id. Spans stay
in memory; `layer_metrics` turns them into per-layer numbers, where a
layer's self time is its spans' durations minus the time of their child
spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

# (defining module, attribute, span name); "Class.method" wraps a method.
TRACED = (
    ("gibbsline.cli", "run_command", "cli.run_command"),
    ("gibbsline.config", "parse_model_config", "config.parse_model_config"),
    ("gibbsline.runstore", "RunStore.put", "runstore.put"),
    ("gibbsline.limits", "pressure_sweep", "limits.pressure_sweep"),
    ("gibbsline.limits", "equilibrium_limit_in_k", "limits.equilibrium_limit_in_k"),
    ("gibbsline.limits", "integral_limit_check", "limits.integral_limit_check"),
    ("gibbsline.limits", "tightness_bound_check", "limits.tightness_bound_check"),
    ("gibbsline.limits", "zero_temp_sweep", "limits.zero_temp_sweep"),
    ("gibbsline.limits", "entropy_limit", "limits.entropy_limit"),
    ("gibbsline.limits", "entropy_upper_semicontinuity_check", "limits.entropy_upper_semicontinuity_check"),
    ("gibbsline.rpf_finite", "perron", "rpf_finite.perron"),
    ("gibbsline.rpf_finite", "transfer_matrix", "rpf_finite.transfer_matrix"),
    ("gibbsline.rpf_finite", "equilibrium", "rpf_finite.equilibrium"),
    ("gibbsline.rpf_finite", "equilibrium_measure", "rpf_finite.equilibrium_measure"),
    ("gibbsline.rpf_finite", "entropy", "rpf_finite.entropy"),
    ("gibbsline.rpf_finite", "integral", "rpf_finite.integral"),
    ("gibbsline.rpf_finite", "cylinder_mass", "rpf_finite.cylinder_mass"),
    ("gibbsline.rpf_finite", "partition_entropy", "rpf_finite.partition_entropy"),
    ("gibbsline.rpf_finite", "gurevich_estimate", "rpf_finite.gurevich_estimate"),
    ("gibbsline.ergodic_opt", "max_mean_cycle", "ergodic_opt.max_mean_cycle"),
    ("gibbsline.ergodic_opt", "subaction", "ergodic_opt.subaction"),
    ("gibbsline.ergodic_opt", "critical_graph", "ergodic_opt.critical_graph"),
    ("gibbsline.ergodic_opt", "critical_decomposition", "ergodic_opt.critical_decomposition"),
    ("gibbsline.ergodic_opt", "detect_k0", "ergodic_opt.detect_k0"),
    ("gibbsline.shift_model", "build_truncation", "shift_model.build_truncation"),
    ("gibbsline.potential", "check_summability", "potential.check_summability"),
    ("gibbsline.potential", "MarkovPotential.value_grid", "potential.value_grid"),
)

# Span name -> the metric prefix its self time is reported under.
_SELF_TIME = {
    "cli.run_command": "cli.run_command",
    "config.parse_model_config": "config.parse_model_config",
    "runstore.put": "runstore.put",
    "rpf_finite.perron": "rpf_finite.perron",
    "rpf_finite.transfer_matrix": "rpf_finite.transfer_matrix",
    "rpf_finite.equilibrium": "rpf_finite.equilibrium",
    "rpf_finite.equilibrium_measure": "rpf_finite.equilibrium",
    "rpf_finite.entropy": "rpf_finite.statistics",
    "rpf_finite.integral": "rpf_finite.statistics",
    "rpf_finite.cylinder_mass": "rpf_finite.statistics",
    "rpf_finite.partition_entropy": "rpf_finite.statistics",
    "rpf_finite.gurevich_estimate": "rpf_finite.statistics",
    "ergodic_opt.max_mean_cycle": "ergodic_opt.max_mean_cycle",
    "ergodic_opt.subaction": "ergodic_opt.subaction",
    "ergodic_opt.critical_graph": "ergodic_opt.critical_graph",
    "ergodic_opt.critical_decomposition": "ergodic_opt.critical_graph",
    "ergodic_opt.detect_k0": "ergodic_opt.detect_k0",
    "shift_model.build_truncation": "shift_model.build_truncation",
    "potential.check_summability": "potential.check_summability",
    "potential.value_grid": "potential.value_grid",
}

# name -> (unit, better) of every per-layer metric, in report order.
LAYER_METRICS = {
    "cli.run_command.calls": ("count", "lower"),
    "cli.run_command.s": ("s", "lower"),
    "config.parse_model_config.s": ("s", "lower"),
    "runstore.put.calls": ("count", "lower"),
    "runstore.put.s": ("s", "lower"),
    "runstore.put.bytes": ("bytes", "lower"),
    "limits.s": ("s", "lower"),
    "limits.solve_requests": ("count", "lower"),
    "limits.distinct_kt": ("count", "lower"),
    "limits.solve_reuse": ("fraction", "higher"),
    "rpf_finite.perron.calls": ("count", "lower"),
    "rpf_finite.perron.s": ("s", "lower"),
    "rpf_finite.perron.iterations": ("count", "lower"),
    "rpf_finite.perron.max_residual": ("1", "lower"),
    "rpf_finite.perron.failures": ("count", "lower"),
    "rpf_finite.perron.matvec_cells": ("count", "lower"),
    "rpf_finite.perron.support_fraction": ("fraction", "higher"),
    "rpf_finite.transfer_matrix.s": ("s", "lower"),
    "rpf_finite.equilibrium.s": ("s", "lower"),
    "rpf_finite.statistics.s": ("s", "lower"),
    "ergodic_opt.max_mean_cycle.calls": ("count", "lower"),
    "ergodic_opt.max_mean_cycle.s": ("s", "lower"),
    "ergodic_opt.max_mean_cycle.cells": ("count", "lower"),
    "ergodic_opt.subaction.s": ("s", "lower"),
    "ergodic_opt.critical_graph.s": ("s", "lower"),
    "ergodic_opt.detect_k0.s": ("s", "lower"),
    "shift_model.build_truncation.calls": ("count", "lower"),
    "shift_model.build_truncation.s": ("s", "lower"),
    "shift_model.build_truncation.reuse": ("fraction", "higher"),
    "potential.check_summability.calls": ("count", "lower"),
    "potential.check_summability.s": ("s", "lower"),
    "potential.value_grid.s": ("s", "lower"),
}

# Reported by the traced run next to the layer metrics.
TRACE_EXTRA = {
    "trace.overhead_s": ("s", "lower"),  # traced minus untraced wall time of one pass
    "failed_ratio": ("fraction", "lower"),
    "check.digest_matches": ("count", "higher"),  # result files byte-identical to the recorded ones
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    invocation: object
    error: str | None = None
    attrs: dict = field(default_factory=dict)


def _perron_attrs(args, kwargs, result) -> dict:
    logB = args[0] if args else kwargs["logB"]
    attrs = {"n": int(logB.shape[0]), "nnz": int(np.count_nonzero(np.isfinite(logB)))}
    if result is not None:
        attrs.update(iterations=int(result.iterations), residual=float(result.residual))
    return attrs


def _build_truncation_attrs(args, kwargs, result) -> dict:
    model = args[0] if args else kwargs["model"]
    k = args[1] if len(args) > 1 else kwargs["k"]
    return {"model": id(model), "k": int(k)}


def _equilibrium_measure_attrs(args, kwargs, result) -> dict:
    trunc = args[0] if args else kwargs["trunc"]
    t = args[2] if len(args) > 2 else kwargs["t"]
    return {"k": int(trunc.k), "t": float(t)}


def _max_mean_cycle_attrs(args, kwargs, result) -> dict:
    trunc = args[0] if args else kwargs["trunc"]
    return {"n": int(trunc.n_symbols)}


def _run_command_attrs(args, kwargs, result) -> dict:
    argv = list(args[0] if args else kwargs["argv"])
    if "--out" in argv:
        del argv[argv.index("--out") : argv.index("--out") + 2]
    return {"argv": " ".join(argv)}


def _put_attrs(args, kwargs, result) -> dict:
    data = args[3] if len(args) > 3 else kwargs["data"]
    return {"bytes": len(data.encode("utf-8") if isinstance(data, str) else data)}


_ATTRS = {
    "rpf_finite.perron": _perron_attrs,
    "shift_model.build_truncation": _build_truncation_attrs,
    "rpf_finite.equilibrium_measure": _equilibrium_measure_attrs,
    "ergodic_opt.max_mean_cycle": _max_mean_cycle_attrs,
    "runstore.put": _put_attrs,
    "cli.run_command": _run_command_attrs,
}


class Tracer:
    """In-memory span recorder; `invocation` tags the spans recorded next."""

    def __init__(self):
        self.spans: list[Span] = []
        self.invocation: object = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        attrs_of = _ATTRS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, perf_counter(), 0.0, stack[-1] if stack else None, self.invocation)
            stack.append(len(spans))
            spans.append(span)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = perf_counter()
                stack.pop()
                if attrs_of is not None:
                    span.attrs = attrs_of(args, kwargs, result)

        return traced

    @contextmanager
    def installed(self):
        """Wrap every binding of the traced functions; restore them on exit."""
        for module_name, _attr, _span_name in TRACED:
            importlib.import_module(module_name)
        modules = [m for name, m in list(sys.modules.items()) if name == "gibbsline" or name.startswith("gibbsline.")]
        try:
            for module_name, attr, span_name in TRACED:
                owner = sys.modules[module_name]
                if "." in attr:
                    cls_name, attr = attr.split(".")
                    owner = getattr(owner, cls_name)
                    original = owner.__dict__[attr]
                    self._patches.append((owner, attr, original))
                    setattr(owner, attr, self._wrap(span_name, original))
                    continue
                original = getattr(owner, attr)
                wrapper = self._wrap(span_name, original)
                for module in modules:
                    for binding, value in list(vars(module).items()):
                        if value is original:
                            self._patches.append((module, binding, original))
                            setattr(module, binding, wrapper)
            yield self
        finally:
            for owner, binding, original in reversed(self._patches):
                setattr(owner, binding, original)
            self._patches.clear()

    def write(self, path) -> None:
        """Write the spans as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": s.name,
                            "start": s.start,
                            "end": s.end,
                            "parent": s.parent,
                            "invocation": s.invocation,
                            "error": s.error,
                            "attrs": s.attrs,
                        }
                    )
                    + "\n"
                )


def self_times(spans: list[Span], first: int = 0) -> list[float]:
    """Duration of each span from `first` on minus the durations of its direct children."""
    out = [s.end - s.start for s in spans[first:]]
    for s in spans[first:]:
        if s.parent is not None and s.parent >= first:
            out[s.parent - first] -= s.end - s.start
    return out


def layer_metrics(all_spans: list[Span], first: int = 0) -> dict[str, float]:
    """Per-layer metrics of the spans from `first` on (one pass over a workload)."""
    m = dict.fromkeys(LAYER_METRICS, 0.0)
    own = self_times(all_spans, first)
    spans = all_spans[first:]
    limits_self = 0.0
    solves: set = set()
    truncations: set = set()
    perron_cells = perron_support = 0.0
    for s, self_s in zip(spans, own):
        if s.name.startswith("limits."):
            limits_self += self_s
        prefix = _SELF_TIME.get(s.name)
        if prefix is not None:
            m[prefix + ".s"] += self_s
        if s.name == "cli.run_command":
            m["cli.run_command.calls"] += 1
        elif s.name == "runstore.put":
            m["runstore.put.calls"] += 1
            m["runstore.put.bytes"] += s.attrs["bytes"]
        elif s.name == "rpf_finite.perron":
            m["rpf_finite.perron.calls"] += 1
            if s.error is not None:
                m["rpf_finite.perron.failures"] += 1
                continue
            n, it = s.attrs["n"], s.attrs["iterations"]
            m["rpf_finite.perron.iterations"] += it
            m["rpf_finite.perron.max_residual"] = max(m["rpf_finite.perron.max_residual"], s.attrs["residual"])
            perron_cells += it * n * n
            perron_support += it * s.attrs["nnz"]
        elif s.name == "rpf_finite.equilibrium_measure":
            m["limits.solve_requests"] += 1
            solves.add((s.invocation, s.attrs["k"], s.attrs["t"]))
        elif s.name == "ergodic_opt.max_mean_cycle":
            n = s.attrs["n"]
            m["ergodic_opt.max_mean_cycle.calls"] += 1
            m["ergodic_opt.max_mean_cycle.cells"] += n * n * (n + 1)
        elif s.name == "shift_model.build_truncation":
            m["shift_model.build_truncation.calls"] += 1
            truncations.add((s.invocation, s.attrs["model"], s.attrs["k"]))
        elif s.name == "potential.check_summability":
            m["potential.check_summability.calls"] += 1
    m["limits.s"] = limits_self
    m["limits.distinct_kt"] = float(len(solves))
    m["limits.solve_reuse"] = len(solves) / m["limits.solve_requests"] if m["limits.solve_requests"] else 0.0
    m["rpf_finite.perron.matvec_cells"] = perron_cells
    m["rpf_finite.perron.support_fraction"] = perron_support / perron_cells if perron_cells else 0.0
    calls = m["shift_model.build_truncation.calls"]
    m["shift_model.build_truncation.reuse"] = len(truncations) / calls if calls else 0.0
    return m


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    return {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
