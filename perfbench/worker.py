"""One workload in one fresh interpreter; started by run.py.

Prints READY and the process's normalized CPU time so far (see speed) once
set-up is done (imports, generating and parsing the workload's configs).
Then times every invocation of every pass the same way, checks every
result and prints one JSON line of measurements last. Each invocation's exit
code, wall, CPU and normalized time go to stderr as it ends. CLI run
directories go under --tmp, which run.py removes.
"""

from __future__ import annotations

import argparse
import atexit
import contextlib
import io
import json
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter, process_time

import speed

SAMPLER = speed.Sampler()
SAMPLER.start()  # before the program's imports, so that set-up is sampled too
atexit.register(SAMPLER.stop)  # an exiting interpreter must not get SIGPROF

from gibbsline import cli  # noqa: E402  numpy and scipy load here, inside set-up

import checker  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, layer_metrics, median_metrics  # noqa: E402

WARM_UP_CONFIG = "configs/tie_two_loops.cfg"
# Part of --budget kept for start-up, writing the trace and the result line.
BUDGET_MARGIN_S = 5.0


def _run_cli(argv: list[str]) -> tuple[int | None, float, float, float]:
    """(exit code, wall seconds, CPU seconds, speed factor) of one CLI invocation."""
    sink = io.StringIO()
    t0, c0 = perf_counter(), process_time()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.run_command(argv)
    except Exception:  # a crash is a failed invocation; keep measuring the rest
        traceback.print_exc(file=sys.stderr)
        code = None
    t1, c1 = perf_counter(), process_time()
    return code, t1 - t0, c1 - c0, SAMPLER.factor(t0, t1)


def warm_up(tmp: Path) -> None:
    """Run every command once so that lazy imports finish before timing."""
    for command in workloads.COMMANDS:
        out = tmp / "warm-up"
        _run_cli([command, "--config", WARM_UP_CONFIG, "--out", str(out)])
        shutil.rmtree(out, ignore_errors=True)


def run_pass(wl, tmp: Path, references: dict, totals: checker.CheckResult, label: str, tracer: Tracer | None = None):
    """One pass over the workload; returns each invocation's normalized CPU time (see speed)."""
    times = []
    for i, inv in enumerate(wl.invocations):
        out = tmp / "runs" / f"{label}-{i}"
        if tracer is not None:
            tracer.invocation = f"{label}:{i}"
        code, wall, cpu, factor = _run_cli(list(inv.argv) + ["--out", str(out)])
        times.append(cpu * factor)
        print(
            f"# {label} {inv.key}: exit {code}, {wall:.3f} s wall, {cpu:.3f} s CPU, {times[-1]:.3f} s normalized",
            file=sys.stderr,
            flush=True,
        )
        files, digests = checker.read_run(out)
        totals.add(checker.check(inv, code, files, digests, references.get(inv.key)))
        shutil.rmtree(out, ignore_errors=True)
    return times


def typical_times(passes: list[list[float]]) -> list[float]:
    """Each invocation's median time over the passes, so that a burst that hits one pass does not count."""
    return [statistics.median(ts) for ts in zip(*passes)]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tmp", required=True, help="scratch directory for configs and run directories")
    parser.add_argument("--setup-only", action="store_true", help="exit right after READY")
    parser.add_argument("--trace-out", default=None, help="write the traced spans here as JSON lines")
    parser.add_argument("--budget", type=float, default=float("inf"), help="seconds this process may take")
    args = parser.parse_args(argv)
    end = perf_counter() + args.budget - BUDGET_MARGIN_S

    tmp = Path(args.tmp)
    config_dir = tmp / "configs"
    config_dir.mkdir(parents=True, exist_ok=True)
    references = json.loads((Path(__file__).parent / "references.json").read_text(encoding="utf-8"))
    wl = workloads.build(args.workload, args.seed, Path.cwd(), config_dir, references)
    print(f"READY {process_time() * SAMPLER.factor()!r}", flush=True)  # set-up's normalized CPU time
    if args.setup_only:
        return 0

    for inv in wl.invocations:
        if inv.oracle is not None:
            inv.oracle.prepare()
    warm_up(tmp)
    totals = checker.CheckResult(0, 0, 0, 0, 0)
    result: dict = {}
    start = perf_counter()
    durations: list[float] = []  # wall time of each pass, checks included

    def another_pass(walls: list[float]) -> bool:
        """Whether another pass starts: --seconds are not over and the slowest of walls fits the budget."""
        now = perf_counter()
        return now - start < args.seconds and now + max(walls) < end

    def timed_pass(*pass_args, **pass_kwargs) -> list[float]:
        t0 = perf_counter()
        times = run_pass(*pass_args, **pass_kwargs)
        durations.append(perf_counter() - t0)
        return times

    if args.trace:
        # untraced and traced passes alternate, so that drifting machine
        # speed does not show up as tracing overhead
        untraced, passes, per_pass = [], [], []
        tracer = Tracer()
        while not passes or another_pass([a + b for a, b in zip(durations[::2], durations[1::2])]):
            untraced.append(timed_pass(wl, tmp, references, totals, f"u{len(passes)}"))
            first = len(tracer.spans)
            with tracer.installed():
                passes.append(timed_pass(wl, tmp, references, totals, f"p{len(passes)}", tracer=tracer))
            per_pass.append(layer_metrics(tracer.spans, first))
        metrics = median_metrics(per_pass)
        metrics["trace.overhead_s"] = sum(typical_times(passes)) - sum(typical_times(untraced))
        metrics["failed_ratio"] = totals.failed / totals.attempted
        metrics["check.digest_matches"] = totals.digest_matches / (2 * len(passes))  # per pass
        result["metrics"] = metrics
        if args.trace_out:
            tracer.write(args.trace_out)
    else:
        passes = []
        while not passes or another_pass(durations):
            passes.append(timed_pass(wl, tmp, references, totals, f"p{len(passes)}"))
        typical = typical_times(passes)
        result["metrics"] = {
            "pass_cpu_s": sum(typical),
            "cmd_max_cpu_s": max(typical),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "failed_ratio": totals.failed / totals.attempted,
        }
    result.update(
        passes=len(passes),
        pass_walls=durations,
        attempted=totals.attempted,
        failed=totals.failed,
        wrong=totals.wrong,
        digest_matches=totals.digest_matches,
        digest_total=totals.digest_total,
    )
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
