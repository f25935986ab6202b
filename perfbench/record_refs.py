"""Record perfbench/references.json from the current program.

Stores the exit code and every result file of each shipped-config
invocation that any seed of the workloads can make. Run from the root of a
checkout, only on a commit whose results are trusted:

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 perfbench/record_refs.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from gibbsline import cli

import checker
import workloads as w


def shipped_invocations():
    """(config name, argv) of every invocation on a shipped config the workloads can make."""
    for cfg in w.SHIPPED_CONFIGS:
        for cmd in w.COMMANDS:
            yield cfg, (cmd,)
    yield "renewal_weighted", ("pressure", "--k", str(w.RENEWAL_K), "--t", w.fmt_t(w.LARGE_T))
    yield "renewal_weighted", ("zerotemp", "--k", str(w.RENEWAL_SWEEP_K))
    yield "tie_two_loops", ("zerotemp", "--k", str(w.DENSE_K))


def main() -> int:
    references = {}
    with tempfile.TemporaryDirectory() as tmp:
        for i, (cfg, argv) in enumerate(shipped_invocations()):
            key = " ".join((cfg,) + argv)
            out = Path(tmp) / str(i)
            full = [argv[0], "--config", f"configs/{cfg}.cfg", *argv[1:], "--out", str(out)]
            t0 = perf_counter()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                code = cli.run_command(full)
            files, _digests = checker.read_run(out)
            references[key] = {"code": code, "files": files}
            print(f"{key}: exit {code}, {len(files)} files, {perf_counter() - t0:.2f} s", file=sys.stderr)
    path = Path(__file__).parent / "references.json"
    path.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
