"""Baseline rows from the traced runs of both workloads.

Regenerates the measured rows that go through public functions: perron per
alphabet size, max_mean_cycle per alphabet size, and the diagnose call
counts, each from the spans the traced passes recorded.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path


def _load(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def _per_call(spans: list[dict], name: str, invocations: set) -> dict[int, list[dict]]:
    by_n = defaultdict(list)
    for s in spans:
        if s["name"] == name and s["error"] is None and s["invocation"] in invocations:
            by_n[s["attrs"]["n"]].append(s)
    return by_n


def _invocations_on(spans: list[dict], config: str) -> set:
    """Ids of the traced invocations whose command line names config."""
    return {
        s["invocation"]
        for s in spans
        if s["name"] == "cli.run_command" and f"--config configs/{config}.cfg" in s["attrs"]["argv"]
    }


def rows(trace_files: dict[str, Path]) -> list[str]:
    out = ["# baseline rows (median per call over the traced passes)"]
    spans = _load(trace_files["large"])
    for model, sizes in (("renewal_weighted", (128, 256)), ("tie_two_loops", (511,))):
        invocations = _invocations_on(spans, model)
        perron = _per_call(spans, "rpf_finite.perron", invocations)
        karp = _per_call(spans, "ergodic_opt.max_mean_cycle", invocations)
        for n in sizes:
            calls = perron.get(n, [])
            if calls:
                secs = statistics.median(s["end"] - s["start"] for s in calls)
                its = statistics.median(s["attrs"]["iterations"] for s in calls)
                out.append(f"#   perron {model} n={n}: {secs:.4f} s per call, {its:g} iterations (both sides), {len(calls)} calls")
            calls = karp.get(n, [])
            if calls:
                secs = statistics.median(s["end"] - s["start"] for s in calls)
                out.append(f"#   max_mean_cycle {model} n={n}: {secs:.4f} s per call, {len(calls)} calls")
    spans = _load(trace_files["configs_small"])
    per_config = defaultdict(list)  # config -> [(seconds, perron calls, solves, distinct (k, t))]
    for root in spans:
        if root["name"] != "cli.run_command" or not root["attrs"]["argv"].startswith("diagnose"):
            continue
        inside = [s for s in spans if s["invocation"] == root["invocation"]]
        solves = [s for s in inside if s["name"] == "rpf_finite.equilibrium_measure"]
        per_config[root["attrs"]["argv"].split("--config ", 1)[1]].append(
            (
                root["end"] - root["start"],
                sum(s["name"] == "rpf_finite.perron" for s in inside),
                len(solves),
                len({(s["attrs"]["k"], s["attrs"]["t"]) for s in solves}),
            )
        )
    for config, runs in sorted(per_config.items()):
        secs = statistics.median(r[0] for r in runs)
        _, perron, solves, distinct = runs[0]
        out.append(
            f"#   diagnose {config}: {secs:.3f} s, {perron} perron calls, {solves} equilibrium solves, "
            f"{distinct} distinct (k, t), {len(runs)} passes"
        )
    return out
