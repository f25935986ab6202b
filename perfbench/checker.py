"""Result checker: exit codes, recorded references and oracle values.

An operation is one requested result point (one (k, t) of a sweep or a
trajectory, one single-point pressure) or, for certificates and expected
failures, the whole invocation. A point fails when its invocation exits with
an unexpected code, when the point is missing from the result files or is
flagged with a solver error, or when one of its values disagrees with the
reference recorded at the benchmark's commit or with an independent oracle.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

# Values agree to 1e-9 relative plus 1e-12 absolute. The absolute part is the
# drift the planned solver changes may cause in pressures and cycle means; it
# also bounds how far round-off-level residuals and gaps may move, and covers
# the round-off of the dense-eigensolver oracles. A value of 1e-3 that is off
# by 1e-6 relative fails; so does a residual that grows past 1e-12.
REL_TOL = 1e-9
ABS_TOL = 1e-12

# Result files that carry no results: the config echo and the manifest.
_NOT_RESULTS = ("config.cfg", "manifest.json")
_POINT_CSVS = ("pressure.csv", "equilibrium.csv", "trajectories.csv", "entropy_limit.csv")
_OK_FLAGS = ("", "per-truncation-only", "non-mixing")


@dataclass
class CheckResult:
    attempted: int
    failed: int  # operations lost or wrong
    wrong: int  # operations with a value that disagrees with a reference or oracle
    digest_matches: int
    digest_total: int

    def add(self, other: "CheckResult") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.wrong += other.wrong
        self.digest_matches += other.digest_matches
        self.digest_total += other.digest_total


def close(a, b) -> bool:
    """Numeric agreement within REL_TOL and ABS_TOL; text that is not a number must be equal."""
    try:
        x, y = float(a), float(b)
    except (TypeError, ValueError):
        return a == b
    if math.isnan(x) or math.isnan(y):
        return math.isnan(x) and math.isnan(y)
    if math.isinf(x) or math.isinf(y):
        return x == y
    return abs(x - y) <= REL_TOL * max(abs(x), abs(y)) + ABS_TOL


def csv_rows(text: str) -> dict[tuple[str, str, str], tuple[str, str, str]]:
    """(k, t, quantity) -> (value, gap, flag) of a result CSV."""
    rows = {}
    for line in text.splitlines()[1:]:
        k, t, quantity, value, gap, flag = line.split(",", 5)
        rows[(k, t, quantity)] = (value, gap, flag)
    return rows


def json_mismatches(actual, expected, path: tuple = ()) -> list[tuple]:
    """Paths at which two parsed JSON documents disagree."""
    if isinstance(expected, dict):
        if not isinstance(actual, dict) or actual.keys() != expected.keys():
            return [path]
        return [m for key in expected for m in json_mismatches(actual[key], expected[key], path + (key,))]
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            return [path]
        return [m for i, (a, e) in enumerate(zip(actual, expected)) for m in json_mismatches(a, e, path + (i,))]
    if isinstance(expected, bool) or isinstance(actual, bool) or expected is None or actual is None:
        return [] if actual is expected else [path]
    if isinstance(expected, (int, float)) and isinstance(actual, (int, float)):
        return [] if close(actual, expected) else [path]
    return [] if actual == expected else [path]


def read_run(out_root: Path) -> tuple[dict[str, str], dict[str, str]]:
    """(result texts, manifest digests) of the single run under out_root."""
    runs = [d for d in out_root.iterdir() if d.is_dir()] if out_root.is_dir() else []
    if len(runs) != 1:
        return {}, {}
    manifest = json.loads((runs[0] / "manifest.json").read_text(encoding="utf-8"))
    digests = {name: d for name, d in manifest["files"].items() if name not in _NOT_RESULTS}
    files = {name: (runs[0] / name).read_text(encoding="utf-8") for name in digests}
    return files, digests


def _point_of_entry(entry: dict) -> tuple[str, str]:
    return (str(entry["k"]), format(float(entry["t"]), ".15g"))


def _reference_failures(files: dict[str, str], reference: dict, points: set) -> set | None:
    """Points whose values disagree with the recorded reference.

    Points missing on either side are not compared: a point the program lost
    is counted as lost, and one the reference lacks has nothing to compare
    against. Result files that the reference does not have are ignored.
    """
    wrong = set()
    for name, want_text in reference["files"].items():
        if name not in files:
            return None
        if name.endswith(".csv"):
            got, want = csv_rows(files[name]), csv_rows(want_text)
            got_points, want_points = {key[:2] for key in got}, {key[:2] for key in want}
            for key in got.keys() | want.keys():
                point = key[:2]
                if point not in got_points or point not in want_points:
                    continue
                if key not in got or key not in want or not all(map(close, got[key], want[key])):
                    if point not in points:
                        return None
                    wrong.add(point)
            continue
        want_doc = json.loads(want_text)
        for path in json_mismatches(json.loads(files[name]), want_doc):
            if len(path) >= 2 and path[0] == "grid":
                wrong.add(_point_of_entry(want_doc["grid"][path[1]]))
            else:
                return None
    return wrong


def check(inv, code: int | None, files: dict[str, str], digests: dict[str, str], reference: dict | None) -> CheckResult:
    """Check one invocation's exit code and result files."""
    matches = total = 0
    if reference is not None:
        for name, digest in digests.items():
            if name in reference["files"]:
                total += 1
                matches += digest == hashlib.sha256(reference["files"][name].encode("utf-8")).hexdigest()
    n = inv.attempted
    if code != inv.expected_code:
        return CheckResult(n, n, 0, matches, total)
    points = set(inv.points)
    lost: set = set()
    if points:
        for name in _POINT_CSVS:
            if name in files:
                rows = csv_rows(files[name])
                lost |= points - {key[:2] for key in rows}
                lost |= {key[:2] for key, (value, _gap, flag) in rows.items() if flag not in _OK_FLAGS or value == "nan"}
        if "diagnostics.json" in files:
            lost |= {_point_of_entry(e) for e in json.loads(files["diagnostics.json"])["solver_errors"]}
    wrong: set = set()
    checks = []
    if reference is not None:
        checks.append(lambda: _reference_failures(files, reference, points))
    if inv.oracle is not None:
        checks.append(lambda: inv.oracle.failed_points(files, inv.points))
    for run_check in checks:
        more = run_check()
        if more is None or not more <= points:
            return CheckResult(n, n, n, matches, total)  # the output is wrong as a whole
        wrong |= more
    if not points:
        return CheckResult(n, int(bool(wrong)), int(bool(wrong)), matches, total)
    return CheckResult(n, len(lost | wrong), len(wrong), matches, total)
