"""gibbsline benchmark: seeded CLI workloads, checked results, timed passes.

Run from the root of a checkout:

    python3 perfbench/run.py --workload large --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --seed 1 --seconds 20          # every workload, untraced and traced

Each workload runs in one fresh interpreter (perfbench/worker.py) that calls
the public entry gibbsline.cli.run_command in-process, with BLAS pinned to
one thread and every run directory in a scratch directory under the checkout
that is removed afterwards. Times are CPU times of that process, so that
other processes on a shared machine do not count, normalized by the speed
of the machine sampled while they were taken (perfbench/speed.py). With
--trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 it carries the per-layer metrics of a traced pass and the
tracing overhead. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from time import perf_counter

import baseline
from tracer import LAYER_METRICS, TRACE_EXTRA

HERE = Path(__file__).resolve().parent

# Fresh interpreters per untraced run that stop at READY; setup_s is the
# median of the normalized CPU time each took to get there.
SETUP_SAMPLES = 7
# A run must end within 180 s. Workers get what is left of this limit and
# start no optional pass that would not fit; a worker still running at the
# limit is stopped, and the invocation times it printed to stderr are what
# was measured.
RUN_LIMIT_S = 170.0
# Time kept back from the measured worker for each set-up sample taken after it.
SETUP_RESERVE_S = 3.0
TRACE_DIR = ".perfbench-traces"
END_TO_END_UNITS = {"setup_s": "s", "pass_cpu_s": "s", "cmd_max_cpu_s": "s", "peak_rss_mb": "MB"}
WORKLOADS = ("configs_small", "large")


class WorkerError(RuntimeError):
    pass


def _worker_env(root: Path) -> dict:
    env = dict(os.environ)
    env.pop("GIBBSLINE_OUT", None)
    env.update(
        PYTHONPATH=str(root / "src"),
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONDONTWRITEBYTECODE="1",
        PYTHONHASHSEED="0",
    )
    return env


def _spawn(root: Path, worker_args: list[str], deadline: float) -> tuple[float, dict | None]:
    """Run one worker; returns (the normalized CPU seconds it took to READY, its JSON result)."""
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *worker_args],
        cwd=root,
        env=_worker_env(root),
        stdout=subprocess.PIPE,
        text=True,
    )
    killed = threading.Event()

    def stop() -> None:
        killed.set()
        proc.kill()

    watchdog = threading.Timer(max(deadline - perf_counter(), 0.0), stop)
    watchdog.start()
    ready = None
    last = ""
    try:
        for line in proc.stdout:
            if ready is None and line.startswith("READY "):
                ready = float(line.split()[1])
            elif line.strip():
                last = line
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if killed.is_set():
        raise WorkerError(f"worker {' '.join(worker_args[:4])} was stopped at the {RUN_LIMIT_S:.0f} s limit of a run")
    if code != 0 or ready is None:
        raise WorkerError(f"worker {' '.join(worker_args[:4])} exited with code {code}")
    return ready, (json.loads(last) if last else None)


def run_workload(root: Path, workload: str, seed: int, seconds: float, trace: bool, trace_out: Path | None) -> dict:
    """Set-up samples plus one measured worker; returns the worker's result with setup samples."""
    deadline = perf_counter() + RUN_LIMIT_S
    scratch = Path(tempfile.mkdtemp(prefix=".perfbench-tmp-", dir=root))
    try:
        common = ["--workload", workload, "--seed", str(seed)]
        setups = []

        def sample_setups(first: int, count: int) -> None:
            for i in range(first, first + count):
                args = common + ["--seconds", "0", "--tmp", str(scratch / f"setup{i}"), "--setup-only"]
                setups.append(_spawn(root, args, deadline)[0])

        # The machine's speed shifts every few seconds, so the set-up samples
        # are split between the start and the end of the run.
        samples = SETUP_SAMPLES if not trace else 0
        sample_setups(0, samples // 2)
        args = common + ["--seconds", str(seconds), "--trace", str(int(trace)), "--tmp", str(scratch / "run")]
        budget = deadline - perf_counter() - SETUP_RESERVE_S * (samples - samples // 2)
        args += ["--budget", f"{budget:.3f}"]
        if trace_out is not None:
            args += ["--trace-out", str(trace_out)]
        _ready, result = _spawn(root, args, deadline)
        if result is None:
            raise WorkerError(f"worker for {workload} printed no result")
        sample_setups(samples // 2, samples - samples // 2)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    result["setup_samples"] = setups
    return result


def _summary(workload: str, seed: int, r: dict) -> list[str]:
    lines = [
        f"# {workload} seed={seed}: {r['passes']} pass(es), pass walls "
        + ", ".join(f"{w:.3f}" for w in r["pass_walls"])
        + " s wall",
        f"#   checker: {r['failed']} of {r['attempted']} operations failed ({r['wrong']} wrong values); "
        f"failed_ratio {r['failed'] / r['attempted']:.6f}; result digests matching recorded: "
        f"{r['digest_matches']}/{r['digest_total']}",
    ]
    for name, value in r["metrics"].items():
        lines.append(f"#   {name} = {value:.6g}")
    return lines


def _line(correct: bool, attempted: int, failed: int, metrics: dict[str, tuple[float, str]]) -> str:
    return json.dumps(
        {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        }
    )


def measure(root: Path, workload: str, seed: int, seconds: float, trace: bool, trace_out: Path | None = None) -> tuple[dict, dict]:
    """(worker result, metrics with units) of one run."""
    r = run_workload(root, workload, seed, seconds, trace, trace_out)
    if trace:
        units = {name: unit for name, (unit, _better) in {**LAYER_METRICS, **TRACE_EXTRA}.items()}
        metrics = {name: (float(r["metrics"][name]), unit) for name, unit in units.items()}
    else:
        r["metrics"]["setup_s"] = statistics.median(r["setup_samples"])
        metrics = {name: (float(r["metrics"][name]), unit) for name, unit in END_TO_END_UNITS.items()}
    return r, metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, default=None, help="one workload (default: all of them)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "gibbsline" / "cli.py").is_file() or not (root / "configs").is_dir():
        print(f"{root} is not a gibbsline checkout: src/gibbsline and configs/ are missing", file=sys.stderr)
        return 2

    try:
        if args.workload is not None:
            trace_out = None
            if args.trace:
                (root / TRACE_DIR).mkdir(exist_ok=True)
                trace_out = root / TRACE_DIR / f"{args.workload}-seed{args.seed}.jsonl"
            r, metrics = measure(root, args.workload, args.seed, args.seconds, bool(args.trace), trace_out)
            print("\n".join(_summary(args.workload, args.seed, r)))
            print(_line(r["wrong"] == 0, r["attempted"], r["failed"], metrics))
            return 0
        return run_all(root, args.seed, args.seconds)
    except WorkerError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1


def run_all(root: Path, seed: int, seconds: float) -> int:
    """Every workload untraced, then traced; prints both, the overhead and the baseline rows."""
    combined: dict[str, tuple[float, str]] = {}
    correct, attempted, failed = True, 0, 0
    trace_files = {}
    scratch = Path(tempfile.mkdtemp(prefix=".perfbench-tmp-", dir=root))
    try:
        for workload in WORKLOADS:
            for trace in (False, True):
                trace_out = scratch / f"{workload}.jsonl" if trace else None
                r, metrics = measure(root, workload, seed, seconds, trace, trace_out)
                print("\n".join(_summary(workload + (" (traced)" if trace else ""), seed, r)), flush=True)
                correct &= r["wrong"] == 0
                attempted += r["attempted"]
                failed += r["failed"]
                combined.update({f"{workload}.{name}": value for name, value in metrics.items()})
            trace_files[workload] = scratch / f"{workload}.jsonl"
        print("\n".join(baseline.rows(trace_files)))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(_line(correct, attempted, failed, combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
