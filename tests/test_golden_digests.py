"""Result files of the shipped configs against recorded digests.

`golden_digests.json` holds, for each invocation in INVOCATIONS, the exit
code, stdout and stderr with the run directory masked, and the sha256 of
every result file but `manifest.json` (which carries time stamps). A change
that moves digits on purpose rewrites the file with

    pytest tests/test_golden_digests.py --update-golden-digests

and names the changed files in CHANGES.md. The last digits of a result can
depend on numpy's version and on the SIMD kernels it dispatches to, so the
file records both, and the comparison skips where either differs.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import numpy as np
import pytest

from gibbsline.cli import run_command

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).with_name("golden_digests.json")

CONFIGS = ("log_quadratic", "non_summable", "renewal_weighted", "tie_two_loops")
COMMANDS = ("pressure", "equilibrium", "zerotemp", "entropy-limit", "diagnose", "certify-summability")
# every command on every shipped config, and the two largest sweeps the
# benchmark runs: the dense full shift at n = 511 and the renewal shift at n = 128
INVOCATIONS = [(cfg, (cmd,)) for cfg in CONFIGS for cmd in COMMANDS] + [
    ("tie_two_loops", ("zerotemp", "--k", "510")),
    ("renewal_weighted", ("zerotemp", "--k", "127")),
]


def numpy_platform() -> dict:
    """numpy's version and the SIMD extensions it dispatches to, as np.show_runtime() reports them."""
    try:
        from numpy._core._multiarray_umath import __cpu_baseline__, __cpu_dispatch__, __cpu_features__
    except ImportError:  # numpy < 2.0
        from numpy.core._multiarray_umath import __cpu_baseline__, __cpu_dispatch__, __cpu_features__

    return {
        "numpy": np.__version__,
        "simd_baseline": list(__cpu_baseline__),
        "simd_found": [name for name in __cpu_dispatch__ if __cpu_features__[name]],
    }


def run_digest(argv: list[str], out: Path) -> dict:
    """Exit code, masked stdout and stderr, and result-file digests of one in-process CLI run."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = run_command([*argv, "--out", str(out)])
    run = next(out.iterdir(), None) if out.is_dir() else None

    def masked(text: str) -> str:
        return text if run is None else text.replace(str(run), "<run>")

    files = {} if run is None else {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(run.iterdir()) if p.name != "manifest.json"
    }
    return {"code": code, "stdout": masked(stdout.getvalue()), "stderr": masked(stderr.getvalue()), "files": files}


def invocation_digests(out: Path) -> dict:
    digests = {}
    for i, (cfg, args) in enumerate(INVOCATIONS):
        argv = [args[0], "--config", str(ROOT / "configs" / f"{cfg}.cfg"), *args[1:]]
        digests[" ".join((cfg, *args))] = run_digest(argv, out / str(i))
    return digests


def test_result_files_match_the_golden_digests(tmp_path, request):
    if request.config.getoption("--update-golden-digests"):
        record = {"platform": numpy_platform(), "invocations": invocation_digests(tmp_path)}
        GOLDEN.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        return
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    if golden["platform"] != numpy_platform():
        pytest.skip(f"digests recorded on {golden['platform']}, this machine has {numpy_platform()}")
    got = invocation_digests(tmp_path)
    assert sorted(got) == sorted(golden["invocations"])
    for key, want in golden["invocations"].items():
        assert got[key] == want, key
