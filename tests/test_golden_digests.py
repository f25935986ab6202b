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
# every command on every shipped config, the two largest sweeps the
# benchmark runs (the dense full shift at n = 511 and the renewal shift at
# n = 128), the entropy sweep of the same full shift, the cyclic sweep of
# the planted 12-symbol model, and the pressure and the sweep of the
# benchmark's sparse custom model at n = 256, whose configs live beside
# this file; then the full shift's pressure at n = 127 and t = 1024, whose
# entries spread too far for a scaled kernel, so the solve builds the gauge
# of log B and runs on its reduced kernels, and its sweep at n = 1023; the sweep of the same
# generator's model at n = 512, whose edges fill 1/128.4 of the cells, so
# that every t steps on edge lists; and the sweep of its planted model at
# n = 12, whose gauge has cyclicity 3, so that every t runs on the shifted
# path; and the `log_quadratic` certificates at tol 1e-12, whose weighted
# series runs past its first round (65,537 terms; 513 at the default tol)
INVOCATIONS = [(cfg, (cmd,)) for cfg in CONFIGS for cmd in COMMANDS] + [
    ("tie_two_loops", ("zerotemp", "--k", "510")),
    ("tie_two_loops", ("entropy-limit", "--k", "510")),
    ("renewal_weighted", ("zerotemp", "--k", "127")),
    ("planted_cyclic", ("zerotemp", "--k", "11")),
    ("custom_n256", ("pressure", "--k", "255", "--t", "2")),
    ("custom_n256", ("zerotemp", "--k", "255")),
    ("tie_two_loops", ("pressure", "--k", "126", "--t", "1024")),
    ("tie_two_loops", ("zerotemp", "--k", "1022")),
    ("custom_n512", ("zerotemp", "--k", "511")),
    ("custom_n12", ("zerotemp", "--k", "11")),
    ("log_quadratic", ("certify-summability", "--tol", "1e-12")),
]


def config_path(cfg: str) -> Path:
    return ROOT / "configs" / f"{cfg}.cfg" if cfg in CONFIGS else Path(__file__).with_name(f"{cfg}.cfg")


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
        argv = [args[0], "--config", str(config_path(cfg)), *args[1:]]
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
    differences = digest_differences(invocation_digests(tmp_path), golden["invocations"])
    assert not differences, "\n".join(differences)


def digest_differences(got: dict, want: dict) -> list[str]:
    """Every invocation, output and result file on which got and want differ, one line each."""
    lines = [f"{key}: {'not recorded' if key in got else 'not run'}" for key in sorted(set(got) ^ set(want))]
    for key in sorted(set(got) & set(want)):
        a, b = got[key], want[key]
        lines += [f"{key}: {part}" for part in ("code", "stdout", "stderr") if a[part] != b[part]]
        names = sorted(set(a["files"]) | set(b["files"]))
        lines += [f"{key}: {name}" for name in names if a["files"].get(name) != b["files"].get(name)]
    return lines
