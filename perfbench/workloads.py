"""The benchmark's workloads: seeded lists of CLI invocations with their checks.

Each workload is built from its seed alone. The program only ever receives
the generated invocations and config files; expected exit codes, requested
result points and oracle values are computed here, before any timing.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

from gibbsline.config import parse_model_config, str_to_word

import checker
import oracles
from gen_custom import generate, relabel

SHIPPED_CONFIGS = ("log_quadratic", "non_summable", "renewal_weighted", "tie_two_loops")
COMMANDS = ("pressure", "equilibrium", "zerotemp", "entropy-limit", "diagnose", "certify-summability")

# Single-point pressures of the large workload: renewal at n = 256 and the
# custom model at n = 256, both at this t.
LARGE_T = 2.0
RENEWAL_K = 255
RENEWAL_SWEEP_K = 127
DENSE_K = 510
CUSTOM_LARGE_N = 256
CUSTOM_SMALL_N = 12
# Generator seeds of the two custom models. Each run's seed renames their
# symbols (see gen_custom.relabel): a new input to the program, but the same
# spectral problem, so the cost of a run does not depend on its seed.
CUSTOM_LARGE_BASE_SEED = 0
CUSTOM_SMALL_BASE_SEED = 0
# The t certify-summability uses when it is given none.
CERTIFY_DEFAULT_T = 2.0


def fmt_t(t: float) -> str:
    """t as the CLI prints it in result files."""
    return format(float(t), ".15g")


@dataclass
class Invocation:
    key: str  # stable name; references.json is keyed by it
    argv: tuple[str, ...]  # CLI arguments without --out
    expected_code: int
    # requested result points as (k, t) strings; empty means the whole
    # invocation is one operation (a certificate or an expected failure)
    points: tuple[tuple[str, str], ...]
    # independent check with prepare(), run after set-up and outside the
    # timing, and failed_points(files, points) -> set, or None for all points
    oracle: object | None = None

    @property
    def attempted(self) -> int:
        return len(self.points) or 1


@dataclass
class Workload:
    name: str
    invocations: list[Invocation]


def _points(ks, ts) -> tuple[tuple[str, str], ...]:
    return tuple((str(k), fmt_t(t)) for k in ks for t in ts)


def _reference_ks(reference: dict, name: str) -> list[int]:
    if name not in reference["files"]:
        return []
    rows = reference["files"][name].splitlines()[1:]
    return sorted({int(r.split(",", 1)[0]) for r in rows})


def _shipped_invocation(root: Path, cfg_name: str, argv: tuple[str, ...], references: dict) -> Invocation:
    command = argv[0]
    path = f"configs/{cfg_name}.cfg"
    key = " ".join((cfg_name,) + argv)
    cfg = parse_model_config((root / path).read_text(encoding="utf-8"))
    code = references[key]["code"]  # the exit code recorded at the benchmark's commit
    opts = dict(zip(argv[1::2], argv[2::2]))
    k = int(opts["--k"]) if "--k" in opts else None
    t = float(opts["--t"]) if "--t" in opts else None
    sw = cfg.sweep
    points: tuple = ()
    if code == 0:
        if command == "pressure":
            points = _points((k,) if k is not None else sw.ks, (t,) if t is not None else sw.ts)
        elif command == "equilibrium":
            points = _points(sw.ks, (sw.ts[0],))
        elif command == "diagnose":
            points = _points(sw.ks, sw.ts)
        elif command in ("zerotemp", "entropy-limit"):
            csv = "trajectories.csv" if command == "zerotemp" else "entropy_limit.csv"
            ks = (k,) if k is not None else _reference_ks(references[key], csv)
            points = _points(ks, sw.zt_ts)
    oracle = None
    if cfg_name == "renewal_weighted" and command == "pressure":
        oracle = RenewalPressureOracle()
    return Invocation(key, (command, "--config", path) + argv[1:], code, points, oracle)


def build(name: str, seed: int, root: Path, config_dir: Path, references: dict) -> Workload:
    """Invocations of workload `name` for `seed`; generated configs are written to config_dir."""
    rng = random.Random(seed)
    if name == "configs_small":
        invs = [
            _shipped_invocation(root, cfg, (cmd,), references) for cfg in SHIPPED_CONFIGS for cmd in COMMANDS
        ]
    elif name == "large":
        shipped = (
            ("renewal_weighted", ("pressure", "--k", str(RENEWAL_K), "--t", fmt_t(LARGE_T))),
            ("renewal_weighted", ("zerotemp", "--k", str(RENEWAL_SWEEP_K))),
            ("tie_two_loops", ("zerotemp", "--k", str(DENSE_K))),
        )
        invs = [_shipped_invocation(root, cfg, argv, references) for cfg, argv in shipped]
        invs += _custom_invocations(seed, config_dir)
    else:
        raise ValueError(f"unknown workload {name!r}")
    rng.shuffle(invs)
    return Workload(name, invs)


def _custom_invocations(seed: int, config_dir: Path) -> list[Invocation]:
    large = relabel(generate(CUSTOM_LARGE_BASE_SEED, CUSTOM_LARGE_N, planted=False), seed)
    small = relabel(generate(CUSTOM_SMALL_BASE_SEED, CUSTOM_SMALL_N, planted=True), seed)
    paths = {}
    for model in (large, small):
        path = config_dir / f"custom_n{model.n}.cfg"
        path.write_text(model.config_text(), encoding="utf-8")
        paths[model.n] = str(path)
    k_large = CUSTOM_LARGE_N - 1
    k_small = CUSTOM_SMALL_N - 1
    small_cfg = parse_model_config(small.config_text())
    parse_model_config(large.config_text())
    t = fmt_t(LARGE_T)
    return [
        Invocation(
            f"custom n={CUSTOM_LARGE_N} pressure --k {k_large} --t {t}",
            ("pressure", "--config", paths[CUSTOM_LARGE_N], "--k", str(k_large), "--t", t),
            0,
            _points((k_large,), (LARGE_T,)),
            DensePressureOracle(large, LARGE_T),
        ),
        Invocation(
            f"custom n={CUSTOM_LARGE_N} certify-summability",
            ("certify-summability", "--config", paths[CUSTOM_LARGE_N]),
            0,
            (),
            SummabilityOracle(large, CERTIFY_DEFAULT_T),
        ),
        Invocation(
            f"custom n={CUSTOM_SMALL_N} zerotemp --k {k_small}",
            ("zerotemp", "--config", paths[CUSTOM_SMALL_N], "--k", str(k_small)),
            0,
            _points((k_small,), small_cfg.sweep.zt_ts),
            ZeroTempOracle(small, small_cfg.sweep.zt_ts),
        ),
    ]


# ---------------------------------------------------------------------------
# oracle checks; failed_points returns the wrong points, or None when the
# output is wrong as a whole


class RenewalPressureOracle:
    def prepare(self) -> None:
        pass

    def failed_points(self, files: dict[str, str], points) -> set | None:
        failed = set()
        for (k, t, q), (value, _gap, _flag) in checker.csv_rows(files.get("pressure.csv", "")).items():
            if q == "pressure" and not checker.close(value, oracles.renewal_pressure(int(k) + 1, float(t))):
                failed.add((k, t))
        return failed


class DensePressureOracle:
    def __init__(self, model, t: float):
        self.model = model
        self.t = t
        self.value = None

    def prepare(self) -> None:
        self.value = oracles.dense_pressure(self.model.weight_matrix(), self.t)

    def failed_points(self, files: dict[str, str], points) -> set | None:
        rows = checker.csv_rows(files.get("pressure.csv", ""))
        key = points[0] + ("pressure",)
        if key not in rows or not checker.close(rows[key][0], self.value):
            return None
        return set()


class SummabilityOracle:
    def __init__(self, model, t: float):
        self.model = model
        self.t = t
        self.expected = None

    def prepare(self) -> None:
        self.expected = oracles.finite_summability(self.model.weight_matrix(), self.t)

    def failed_points(self, files: dict[str, str], points) -> set | None:
        if "summability.json" not in files:
            return None
        return set() if not checker.json_mismatches(json.loads(files["summability.json"]), self.expected) else None


class ZeroTempOracle:
    """Masses and ground-state weights of the n = 12 custom zerotemp run."""

    def __init__(self, model, ts):
        self.model = model
        self.ts = ts
        self.states = None

    def prepare(self) -> None:
        eq = oracles.EquilibriumOracle(self.model.weight_matrix())
        self.states = {fmt_t(t): eq.state(t) for t in self.ts}

    def _expected(self, t: str, quantity: str) -> float | None:
        state = self.states[t]
        label = quantity.partition("[")[2].rstrip("]")
        if quantity.startswith("mass["):
            return state.mass(str_to_word(label))
        if quantity.startswith("gamma["):
            return float(sum(state.pi[int(s)] for s in label.split("-")))
        return None

    def failed_points(self, files: dict[str, str], points) -> set | None:
        failed = set()
        rows = checker.csv_rows(files.get("trajectories.csv", ""))
        for (k, t, q), (value, _gap, _flag) in rows.items():
            expected = self._expected(t, q) if t in self.states else None
            if expected is None or not checker.close(value, expected):
                failed.add((k, t))
        if "mu_infty.json" not in files or not rows:
            return None
        mu = json.loads(files["mu_infty.json"])
        last_t = max((t for _k, t, _q in rows), key=float)
        for w, comp in zip(mu["weights"], mu["components"]):
            label = "-".join(str(s) for s in comp["symbols"])
            if not checker.close(str(w), self._expected(last_t, f"gamma[{label}]")):
                return None
        return failed
