"""Command-line interface and deterministic CSV/JSON emission.

Subcommands: pressure, equilibrium, zerotemp, entropy-limit, diagnose,
certify-summability. Exit codes: 0 success, 2 validation failure, 3 solver
non-convergence. All numeric text output uses 15 significant digits with a
'.' decimal point and LF newlines; identical config and tool version give
byte-identical result files, which carry no timing (the run manifest holds
only the start and finish stamps).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from pathlib import Path

from . import __version__
from .config import ModelConfig, parse_model_config, str_to_word, word_to_str
from .ergodic_opt import K0Report, detect_k0
from .errors import NoTailDescriptor, SolverError, ValidationError
from .limits import (
    EntropyLimitReport,
    KLimitTable,
    MuInftyEstimate,
    SweepResult,
    ZeroTempResult,
    entropy_limit,
    entropy_upper_semicontinuity_check,
    equilibrium_limit_in_k,
    pressure_sweep,
    tightness_bound_check,
    zero_temp_sweep,
)
from .potential import SummabilityCertificate, check_summability, check_summability_t
from .rpf_finite import gurevich_estimate, pressure
from .runstore import RunStore
from .shift_model import ShiftModel, build_truncation, last_truncation

CSV_HEADER = "k,t,quantity,value,gap,flag"


def _fmt(x: float | None) -> str:
    """15-significant-digit decimal rendering; empty for missing values."""
    if x is None:
        return ""
    x = float(x)
    if math.isnan(x):
        return "nan"
    return format(x, ".15g")


def _csv(rows: list[tuple]) -> str:
    lines = [CSV_HEADER]
    for k, t, quantity, value, gap, flag in rows:
        lines.append(
            ",".join(
                [
                    "" if k is None else str(k),
                    "" if t is None else _fmt(t),
                    quantity,
                    _fmt(value),
                    "" if gap is None else _fmt(gap),
                    flag,
                ]
            )
        )
    return "\n".join(lines) + "\n"


def _json_dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# renderers


def _cert_jsonable(cert: SummabilityCertificate | None) -> dict | None:
    if cert is None:
        return None
    return {
        "converges": cert.converges,
        "partial_sum": cert.partial_sum,
        "tail_bound": cert.tail_bound,
        "total_upper_bound": cert.total_upper_bound,
        "terms_used": cert.terms_used,
        "tol_met": cert.tol_met,
    }


def sweep_csv(result: SweepResult) -> str:
    flag_default = "" if result.diagnostics.get("certified_summable") else "per-truncation-only"
    rows: list[tuple] = []
    prev: dict[tuple, float] = {}
    for point in sorted(result.grid, key=lambda g: (g.k, g.t)):
        quantities: list[tuple[str, float]] = [
            (name, value)
            for name, value in (
                ("pressure", point.pressure),
                ("entropy", point.entropy),
                ("integral", point.integral),
            )
            if not math.isnan(value)
        ]
        for w in sorted(point.masses, key=word_to_str):
            quantities.append((f"mass[{word_to_str(w)}]", point.masses[w]))
        if not quantities:
            rows.append((point.k, point.t, "pressure", math.nan, None, point.error or flag_default))
            continue
        for name, value in quantities:
            key = (point.t, name)
            gap = abs(value - prev[key]) if key in prev else None
            prev[key] = value
            rows.append((point.k, point.t, name, value, gap, point.error or flag_default))
    return _csv(rows)


def sweep_jsonable(result: SweepResult) -> dict:
    return {
        "grid": [
            {
                "k": g.k,
                "t": g.t,
                "n_symbols": g.n_symbols,
                "pressure": g.pressure,
                "entropy": g.entropy,
                "integral": g.integral,
                "masses": {word_to_str(w): v for w, v in g.masses.items()},
                "error": g.error,
            }
            for g in result.grid
        ],
        "reference": {
            "s_ref": result.reference["s_ref"],
            "witness_cycle": list(result.reference["witness_cycle"]),
            "certificate": _cert_jsonable(result.reference.get("certificate")),
        },
        "diagnostics": {
            "monotone_in_k": {_fmt(t): v for t, v in result.diagnostics["monotone_in_k"].items()},
            "p_estimate": {_fmt(t): v for t, v in result.diagnostics["p_estimate"].items()},
            "certified_summable": result.diagnostics["certified_summable"],
            "bound_violations": result.diagnostics.get("bound_violations", []),
        },
    }


def mu_infty_jsonable(est: MuInftyEstimate) -> dict:
    return {
        "weights": list(est.weights),
        "residual": est.residual,
        "components": [
            {
                "symbols": list(syms),
                "stationary": [float(x) for x in m.stationary],
                "stochastic": [[float(x) for x in row] for row in m.stochastic],
            }
            for syms, m in zip(est.component_symbols, est.components)
        ],
    }


def zero_temp_csv(result: ZeroTempResult) -> str:
    rows: list[tuple] = []
    prev: dict[str, float] = {}
    for i, t in enumerate(result.ts):
        quantities: list[tuple[str, float]] = []
        for w in sorted(result.trajectories, key=word_to_str):
            quantities.append((f"mass[{word_to_str(w)}]", result.trajectories[w][i]))
        for j, traj in enumerate(result.gamma_trajectories):
            label = "-".join(str(s) for s in result.estimate.component_symbols[j])
            quantities.append((f"gamma[{label}]", traj[i]))
        for name, value in quantities:
            gap = abs(value - prev[name]) if name in prev else None
            prev[name] = value
            rows.append((result.k, t, name, value, gap, ""))
    return _csv(rows)


def klimit_csv(table: KLimitTable) -> str:
    rows: list[tuple] = []
    for w in sorted(table.trajectories, key=word_to_str):
        traj = table.trajectories[w]
        gaps = table.gaps[w]
        for i, k in enumerate(table.ks):
            gap = gaps[i - 1] if i >= 1 else None
            flag = "exact" if table.exact and k == table.ks[-1] else ""
            rows.append((k, table.t, f"mass[{word_to_str(w)}]", traj[i], gap, flag))
    return _csv(rows)


def entropy_limit_csv(report: EntropyLimitReport) -> str:
    rows: list[tuple] = []
    prev = None
    for t, h in zip(report.ts, report.entropies):
        gap = abs(h - prev) if prev is not None else None
        prev = h
        flag = "" if report.validated else "non-mixing"
        rows.append((report.k, t, "entropy", h, gap, flag))
    return _csv(rows)


# ---------------------------------------------------------------------------
# commands


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process; parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(prog="gibbsline", description=__doc__)
    parser.add_argument("--version", action="version", version=f"gibbsline {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
        ("pressure", "pressure grid over truncations and temperatures"),
        ("equilibrium", "cylinder-mass limits along the truncation schedule"),
        ("zerotemp", "equilibrium trajectories to the zero-temperature limit"),
        ("entropy-limit", "entropy trajectory and its limit"),
        ("diagnose", "run the full diagnostic battery"),
        ("certify-summability", "check the summability certificates"),
    ):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", required=True, help="path to the model config file")
        p.add_argument("--out", default=None, help="output directory (default: GIBBSLINE_OUT or config)")
        p.add_argument("--k", type=int, default=None, help="single truncation index override")
        p.add_argument("--t", type=float, default=None, help="single inverse temperature override")
        p.add_argument("--words", default=None, help="comma-separated cylinder words override")
        p.add_argument("--format", choices=("csv", "json"), default=None, help="restrict output format")
        p.add_argument("--tol", type=float, default=None, help="tolerance override")
    return parser


def _load_config(path: str) -> ModelConfig:
    text = Path(path).read_text(encoding="utf-8")
    return parse_model_config(text)


class _Emitter:
    """Collects result files for one run and writes them through the store."""

    def __init__(self, cfg: ModelConfig, args, command: str):
        out_root = args.out or os.environ.get("GIBBSLINE_OUT") or cfg.output.directory
        self.formats = (args.format,) if args.format else cfg.output.formats
        self.store = RunStore(out_root)
        self.run_id = self.store.new_run(cfg.config_hash(), command, __version__)
        self.store.put(self.run_id, "config.cfg", cfg.canonical_text())

    def put(self, name: str, text: str) -> None:
        self.store.put(self.run_id, name, text)

    def finish(self, status: str) -> None:
        self.store.finish_command(self.run_id, status)

    @property
    def directory(self) -> Path:
        return self.store.run_dir(self.run_id)


def _words(cfg: ModelConfig, args) -> tuple[tuple[int, ...], ...]:
    if args.words:
        try:
            return tuple(str_to_word(tok) for tok in args.words.split(",") if tok.strip())
        except ValueError as exc:
            raise ValidationError(f"--words: bad word list: {exc}") from None
    return cfg.sweep.words


def _cmd_pressure(cfg: ModelConfig, args, em: _Emitter) -> int:
    words = _words(cfg, args)
    if args.k is not None and args.t is not None:
        # single grid point, computed directly (t = 1 is allowed here)
        trunc = build_truncation(cfg.model, args.k)
        value = pressure(trunc, cfg.potential, args.t)
        rows = [(args.k, args.t, "pressure", value, None, "")]
        if "csv" in em.formats:
            em.put("pressure.csv", _csv(rows))
        if "json" in em.formats:
            em.put("pressure.json", _json_dumps({"k": args.k, "t": args.t, "pressure": value}))
        print(f"pressure k={args.k} t={_fmt(args.t)} value={_fmt(value)}")
        return 0
    ks = (args.k,) if args.k is not None else _capped(cfg.model, cfg.sweep.ks)
    ts = (args.t,) if args.t is not None else cfg.sweep.ts
    result = pressure_sweep(cfg.model, cfg.potential, ks, ts, words)
    if "csv" in em.formats:
        em.put("pressure.csv", sweep_csv(result))
    if "json" in em.formats:
        em.put("pressure.json", _json_dumps(sweep_jsonable(result)))
    for t, info in sorted(result.diagnostics["p_estimate"].items()):
        print(f"P(t)-estimate t={_fmt(t)} value={_fmt(info['value'])} gap={_fmt(info['cauchy_gap'])}")
    if result.diagnostics["exact"]:
        print(f"exact: k={max(ks)} is the whole shift of the finite model")
    elif not result.diagnostics["certified_summable"]:
        print("per-truncation only: no summable certificate, no infinite-alphabet estimate")
    return 0


def _cmd_equilibrium(cfg: ModelConfig, args, em: _Emitter) -> int:
    words = _words(cfg, args)
    t = args.t if args.t is not None else cfg.sweep.ts[0]
    tol = args.tol if args.tol is not None else cfg.sweep.tol
    ks = _capped(cfg.model, cfg.sweep.ks) if args.k is None else tuple(range(0, args.k + 1))
    table = equilibrium_limit_in_k(cfg.model, cfg.potential, t, ks, words, tol=tol)
    if "csv" in em.formats:
        em.put("equilibrium.csv", klimit_csv(table))
    if "json" in em.formats:
        em.put(
            "equilibrium.json",
            _json_dumps(
                {
                    "t": table.t,
                    "ks": list(table.ks),
                    "limits": {word_to_str(w): v for w, v in table.limits.items()},
                    "final_gap": table.final_gap,
                    "converged": table.converged,
                }
            ),
        )
    for w in sorted(table.limits, key=word_to_str):
        gap = max(table.gaps[w][-2:], default=0.0)
        print(f"mass[{word_to_str(w)}] t={_fmt(t)} limit={_fmt(table.limits[w])} gap={_fmt(gap)}")
    if table.exact:
        print(f"exact: k={table.ks[-1]} is the whole shift of the finite model")
    return 0


def _capped(model: ShiftModel, ks: tuple[int, ...]) -> tuple[int, ...]:
    """ks capped at the last truncation of a finite model, repeats dropped.

    There is no truncation past the last one; the capped schedule ends on
    it. Only default ks are capped: an explicit --k is taken as given.
    """
    last = last_truncation(model, max(ks))
    return ks if last is None else tuple(dict.fromkeys(min(k, last) for k in ks))


def _sweep_k(cfg: ModelConfig, args, k0: K0Report) -> int:
    """--k, or else k0 + 1 capped like the default ks."""
    return args.k if args.k is not None else _capped(cfg.model, (k0.k0 + 1,))[0]


def _cmd_zerotemp(cfg: ModelConfig, args, em: _Emitter) -> int:
    words = _words(cfg, args)
    k0 = detect_k0(cfg.model, cfg.potential, stability_window=cfg.sweep.k0_window, tie_tol=cfg.sweep.tie_tol)
    k = _sweep_k(cfg, args, k0)
    result = zero_temp_sweep(
        cfg.model, cfg.potential, k, ts=cfg.sweep.zt_ts, words=words, tie_tol=cfg.sweep.tie_tol, k0_report=k0
    )
    if "csv" in em.formats:
        em.put("trajectories.csv", zero_temp_csv(result))
    if "json" in em.formats:
        payload = mu_infty_jsonable(result.estimate)
        payload["k0"] = k0.k0
        payload["k"] = result.k
        payload["heuristic"] = k0.heuristic
        payload["tie_tol_used"] = result.decomposition.tie_tol_used
        em.put("mu_infty.json", _json_dumps(payload))
    for t, message in result.errors:
        print(f"solver failure at t={_fmt(t)}: {message}", file=sys.stderr)
    for j, w in enumerate(result.estimate.weights):
        label = "-".join(str(s) for s in result.estimate.component_symbols[j])
        print(f"gamma[{label}]={_fmt(w)}")
    print(f"residual={_fmt(result.estimate.residual)} k0={k0.k0} (heuristic)")
    return 0


def _cmd_entropy_limit(cfg: ModelConfig, args, em: _Emitter) -> int:
    k0 = detect_k0(cfg.model, cfg.potential, stability_window=cfg.sweep.k0_window, tie_tol=cfg.sweep.tie_tol)
    k = _sweep_k(cfg, args, k0)
    report = entropy_limit(cfg.model, cfg.potential, k, ts=cfg.sweep.zt_ts, tie_tol=cfg.sweep.tie_tol, k0_report=k0)
    if "csv" in em.formats:
        em.put("entropy_limit.csv", entropy_limit_csv(report))
    if "json" in em.formats:
        em.put(
            "entropy_limit.json",
            _json_dumps(
                {
                    "k": report.k,
                    "h_infinity": report.h_infinity,
                    "residual": report.residual,
                    "sup_over_maximizing": report.sup_over_maximizing,
                    "mixing": report.mixing,
                    "validated": report.validated,
                }
            ),
        )
    print(
        f"h_infinity={_fmt(report.h_infinity)} sup_over_maximizing={_fmt(report.sup_over_maximizing)} "
        f"residual={_fmt(report.residual)}"
    )
    return 0


def _cmd_certify(cfg: ModelConfig, args, em: _Emitter) -> int:
    t = args.t if args.t is not None else 2.0
    tol = args.tol if args.tol is not None else cfg.sweep.tol
    payload: dict = {"per_truncation_only": cfg.per_truncation_only}
    status = 0
    try:
        cert = check_summability(cfg.potential, tol=tol)
        payload["summability"] = _cert_jsonable(cert)
        cert_t = check_summability_t(cfg.potential, t, tol=tol) if t > 1 else None
        payload["summability_t"] = _cert_jsonable(cert_t)
        payload["t"] = t
        if not cert.converges:
            status = 2
    except NoTailDescriptor as exc:
        payload["summability"] = None
        payload["error"] = str(exc)
        status = 2
    em.put("summability.json", _json_dumps(payload))
    if status == 2:
        print("series diverges: potential is not certified summable", file=sys.stderr)
    else:
        print(f"summable: total_upper_bound={_fmt(payload['summability']['total_upper_bound'])}")
    return status


def _cmd_diagnose(cfg: ModelConfig, args, em: _Emitter) -> int:
    words = _words(cfg, args)
    report: dict = {"solver_errors": []}
    ks = _capped(cfg.model, cfg.sweep.ks)
    sweep = pressure_sweep(cfg.model, cfg.potential, ks, cfg.sweep.ts, words)
    report["summability"] = _cert_jsonable(sweep.reference["certificate"])
    report["monotone_in_k"] = {_fmt(t): ok for t, ok in sweep.diagnostics["monotone_in_k"].items()}
    report["certified_summable"] = sweep.diagnostics["certified_summable"]
    vp = 0.0
    for g in sweep.grid:
        if g.error is None:
            vp = max(vp, abs(g.entropy + g.t * g.integral - g.pressure))
        else:
            report["solver_errors"].append({"k": g.k, "t": g.t, "error": g.error})
    report["max_variational_residual"] = vp

    k_probe = ks[min(2, len(ks) - 1)]
    trunc = build_truncation(cfg.model, k_probe)
    p2 = pressure(trunc, cfg.potential, 2.0)
    a0 = int(trunc.alphabet[0])
    errs = []
    for n in (8, 16, 32, 64):
        est = gurevich_estimate(trunc, cfg.potential, 2.0, a0, n)
        errs.append(abs(est - p2))
    report["gurevich_errors_t2"] = errs
    report["gurevich_decreasing"] = all(b <= a for a, b in zip(errs, errs[1:]))

    tight = {}
    for t in (2.0, 8.0, 32.0):
        tr = tightness_bound_check(cfg.model, cfg.potential, t, ks)
        tight[_fmt(t)] = {"violations": len(tr.violations), "thresholds": {str(k): v for k, v in tr.thresholds.items()}}
    report["tightness"] = tight

    try:
        k0 = detect_k0(cfg.model, cfg.potential, stability_window=cfg.sweep.k0_window, tie_tol=cfg.sweep.tie_tol)
        report["k0"] = {"value": k0.k0, "heuristic": k0.heuristic, "window": k0.window}
    except (SolverError, ValidationError) as exc:
        report["k0"] = {"error": str(exc)}

    usc = entropy_upper_semicontinuity_check(
        cfg.model, cfg.potential, cfg.sweep.ts[0], ks, budget=cfg.sweep.budget
    )
    report["usc_within_band"] = all(usc.within_band)
    report["partition_final_gaps"] = {str(n): g for n, g in usc.partition_final_gaps.items()}

    em.put("diagnostics.json", _json_dumps(report))
    print(f"max variational residual {_fmt(vp)}")
    print(f"monotone in k: {all(sweep.diagnostics['monotone_in_k'].values())}")
    return 3 if report["solver_errors"] else 0


_COMMANDS = {
    "pressure": _cmd_pressure,
    "equilibrium": _cmd_equilibrium,
    "zerotemp": _cmd_zerotemp,
    "entropy-limit": _cmd_entropy_limit,
    "certify-summability": _cmd_certify,
    "diagnose": _cmd_diagnose,
}


def run_command(argv: list[str]) -> int:
    """Dispatch a CLI invocation; returns the process exit code."""
    args = _parser().parse_args(argv)
    for name in ("t", "tol"):
        value = getattr(args, name)
        if value is not None and not math.isfinite(value):
            print(f"validation error: --{name} must be a finite number, got {value}", file=sys.stderr)
            return 2
    if args.tol is not None and args.tol <= 0.0:
        print(f"validation error: --tol must be positive, got {args.tol}", file=sys.stderr)
        return 2
    try:
        cfg = _load_config(args.config)
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return 2
    except ValidationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    em = _Emitter(cfg, args, args.command)
    try:
        code = _COMMANDS[args.command](cfg, args, em)
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        em.finish("validation-error")
        return 2
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        em.finish("solver-error")
        return 3
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        em.finish("io-error")
        return 1
    em.finish("ok" if code == 0 else f"exit-{code}")
    print(f"run directory: {em.directory}")
    return code


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
