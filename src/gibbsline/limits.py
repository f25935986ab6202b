"""Double-limit engine: truncation index k to infinity, temperature 1/t to zero.

Sweeps produce per-(k, t) pressure, entropy, integral and cylinder masses,
with Cauchy gaps reported alongside every claimed limit; nothing at finite k
is labeled as the countable-alphabet truth without its gap.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import NoTailDescriptor, NonMixingModel, NotConverged, SolverError, ValidationError
from .ergodic_opt import (
    CriticalDecomposition,
    K0Report,
    _sweep_setup,
    detect_k0,
    max_entropy_over_maximizing,
    max_mean_cycle,
)
from .potential import MarkovPotential, SummabilityCertificate, check_summability, is_summable, variation
from .rpf_finite import (
    GaugedSweep,
    MarkovMeasure,
    cylinder_mass,
    entropy,
    equilibrium_measure,
    integral,
    partition_entropy,
)
from .shift_model import ShiftModel, Truncation, build_truncation, is_whole_shift

ZT_TS_DEFAULT = (2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0)


@dataclass(frozen=True)
class GridPoint:
    k: int
    t: float
    n_symbols: int
    pressure: float
    entropy: float
    integral: float
    masses: dict[tuple[int, ...], float]
    wall_time: float
    error: str | None = None


@dataclass(frozen=True)
class SweepResult:
    grid: tuple[GridPoint, ...]
    reference: dict
    diagnostics: dict


@dataclass(frozen=True)
class KLimitTable:
    """Cylinder-mass trajectories in k at fixed t, with declared limits."""

    t: float
    ks: tuple[int, ...]
    trajectories: dict[tuple[int, ...], tuple[float, ...]]
    limits: dict[tuple[int, ...], float]
    gaps: dict[tuple[int, ...], tuple[float, ...]]
    converged: bool
    final_gap: float
    exact: bool = False  # the last truncation is the whole shift of a finite model


@dataclass(frozen=True)
class IntegralLimitReport:
    """Cauchy check of the energies mu_k(t f) and the cross-identity with P - h."""

    t: float
    ks: tuple[int, ...]
    energies: tuple[float, ...]
    gaps: tuple[float, ...]
    limit: float
    vp_residual: float


@dataclass(frozen=True)
class TightnessReport:
    """Per-truncation mass bounds from the reference-orbit argument."""

    t: float
    s_ref: float
    witness: tuple[int, ...]
    thresholds: dict[int, int | None]
    violations: tuple[tuple[int, int, float, float], ...]  # (k, symbol, mass, bound)


@dataclass(frozen=True)
class MuInftyEstimate:
    """Ground state as a convex mix of critical-component equilibria."""

    weights: tuple[float, ...]
    components: tuple[MarkovMeasure, ...]
    component_symbols: tuple[tuple[int, ...], ...]
    residual: float

    def mass(self, word: tuple[int, ...]) -> float:
        return float(sum(w * cylinder_mass(m, word) for w, m in zip(self.weights, self.components)))


@dataclass(frozen=True)
class ZeroTempResult:
    k: int
    ts: tuple[float, ...]
    trajectories: dict[tuple[int, ...], tuple[float, ...]]
    gamma_trajectories: tuple[tuple[float, ...], ...]
    estimate: MuInftyEstimate
    decomposition: CriticalDecomposition
    k0: K0Report
    errors: tuple[tuple[float, str], ...]


@dataclass(frozen=True)
class EntropyLimitReport:
    k: int
    ts: tuple[float, ...]
    entropies: tuple[float, ...]
    h_infinity: float
    residual: float
    sup_over_maximizing: float
    mixing: bool
    validated: bool


@dataclass(frozen=True)
class SemicontinuityReport:
    t: float
    ks: tuple[int, ...]
    entropies: tuple[float, ...]
    h_final: float
    within_band: tuple[bool, ...]
    partition_rates: dict[int, tuple[float, ...]]
    partition_final_gaps: dict[int, float]


class _PointSolver:
    """Caches truncations and equilibrium solves across one sweep."""

    def __init__(self, model: ShiftModel, f: MarkovPotential):
        self.model = model
        self.f = f
        self._truncs: dict[int, Truncation] = {}
        self._points: dict[tuple[int, float], tuple[float, MarkovMeasure]] = {}

    def truncation(self, k: int) -> Truncation:
        if k not in self._truncs:
            self._truncs[k] = build_truncation(self.model, k)
        return self._truncs[k]

    def solve(self, k: int, t: float) -> tuple[float, MarkovMeasure]:
        key = (k, float(t))
        if key not in self._points:
            self._points[key] = equilibrium_measure(self.truncation(k), self.f, t)
        return self._points[key]


def _certificate_or_none(f: MarkovPotential) -> SummabilityCertificate | None:
    try:
        return check_summability(f)
    except NoTailDescriptor:
        return None


def _reference_orbit(model: ShiftModel, f: MarkovPotential) -> tuple[float, tuple[int, ...]]:
    """Mean of f over the max-mean cycle of the smallest truncation.

    Serves as the k-independent reference energy in the tightness bound; any
    periodic orbit would do, this one is canonical and reproducible.
    """
    trunc0 = build_truncation(model, 0)
    beta0, witness = max_mean_cycle(trunc0, f)
    return beta0, witness


def pressure_sweep(
    model: ShiftModel,
    f: MarkovPotential,
    ks: tuple[int, ...],
    ts: tuple[float, ...],
    words: tuple[tuple[int, ...], ...] = (),
) -> SweepResult:
    """Grid of P_k(t) with equilibrium statistics per point.

    Pressure must be non-decreasing in k at every t; the P(t) estimate is
    the largest-k value together with its last Cauchy gap, reported only
    when the potential is certified summable. The diagnostic
    `exact` says the largest k is the whole shift of a finite model, whose
    values are then the limits themselves.
    """
    if any(t <= 1.0 for t in ts):
        raise ValidationError("sweep temperatures must satisfy t > 1")
    cert = _certificate_or_none(f)
    certified = cert is not None and cert.converges
    solver = _PointSolver(model, f)
    s_ref, witness = _reference_orbit(model, f)

    grid: list[GridPoint] = []
    for k in sorted(ks):
        for t in ts:
            t0 = time.perf_counter()
            try:
                p, meas = solver.solve(k, t)
                point = GridPoint(
                    k=k,
                    t=float(t),
                    n_symbols=solver.truncation(k).n_symbols,
                    pressure=p,
                    entropy=entropy(meas),
                    integral=integral(meas, f),
                    masses={w: cylinder_mass(meas, w) for w in words},
                    wall_time=time.perf_counter() - t0,
                )
            except SolverError as exc:
                point = GridPoint(
                    k=k,
                    t=float(t),
                    n_symbols=solver.truncation(k).n_symbols,
                    pressure=math.nan,
                    entropy=math.nan,
                    integral=math.nan,
                    masses={},
                    wall_time=time.perf_counter() - t0,
                    error=str(exc),
                )
            grid.append(point)

    monotone: dict[float, bool] = {}
    p_estimate: dict[float, dict] = {}
    sorted_ks = sorted(ks)
    for t in ts:
        series = [g.pressure for g in grid if g.t == float(t) and g.error is None]
        monotone[float(t)] = all(b >= a - 1e-12 for a, b in zip(series, series[1:]))
        if certified and len(series) >= 2:
            p_estimate[float(t)] = {
                "value": series[-1],
                "cauchy_gap": abs(series[-1] - series[-2]),
                "k": sorted_ks[-1],
            }
    violations: list[dict] = []
    for g in grid:
        if g.error is not None:
            continue
        if g.entropy < -1e-12:
            violations.append({"k": g.k, "t": g.t, "what": "entropy", "value": g.entropy})
        for w, mass in g.masses.items():
            if not -1e-12 <= mass <= 1.0 + 1e-12:
                violations.append({"k": g.k, "t": g.t, "what": f"mass[{w}]", "value": mass})
    return SweepResult(
        grid=tuple(grid),
        reference={"s_ref": s_ref, "witness_cycle": witness, "certificate": cert},
        diagnostics={
            "monotone_in_k": monotone,
            "p_estimate": p_estimate,
            "certified_summable": certified,
            "bound_violations": violations,
            "exact": is_whole_shift(model, solver.truncation(sorted_ks[-1])),
        },
    )


def equilibrium_limit_in_k(
    model: ShiftModel,
    f: MarkovPotential,
    t: float,
    ks: tuple[int, ...],
    words: tuple[tuple[int, ...], ...],
    tol: float = 1e-6,
) -> KLimitTable:
    """Cylinder masses along the truncation schedule at fixed t > 1.

    Converged when, for every word, the last two k-gaps are below tol;
    otherwise NotConverged is raised. The declared limit is the largest-k
    mass (the finite-k stand-in for the countable-shift equilibrium).
    Repeated ks count once. When the largest k is the whole shift of a
    finite model, its masses are the limits themselves: the table is exact
    and converged, however few ks it has.
    """
    if t <= 1.0:
        raise ValidationError("equilibrium limits need t > 1")
    solver = _PointSolver(model, f)
    ks = tuple(sorted(set(ks)))
    # past the dense limit, fail before solving the smaller truncations
    solver.truncation(ks[-1]).require_incidence()
    exact = is_whole_shift(model, solver.truncation(ks[-1]))
    if len(ks) < 3 and not exact:
        raise ValidationError("need at least three truncations to declare a limit")
    trajectories: dict[tuple[int, ...], tuple[float, ...]] = {}
    gaps: dict[tuple[int, ...], tuple[float, ...]] = {}
    limits: dict[tuple[int, ...], float] = {}
    final_gap = 0.0
    for w in words:
        traj = []
        for k in ks:
            _, meas = solver.solve(k, t)
            traj.append(cylinder_mass(meas, w))
        g = tuple(abs(b - a) for a, b in zip(traj, traj[1:]))
        trajectories[w] = tuple(traj)
        gaps[w] = g
        limits[w] = traj[-1]
        final_gap = max(final_gap, max(g[-2:], default=0.0))
    converged = exact or final_gap < tol
    if not converged:
        raise NotConverged(final_gap, what=f"cylinder masses at t={t}")
    return KLimitTable(float(t), ks, trajectories, limits, gaps, converged, final_gap, exact)


def integral_limit_check(
    model: ShiftModel,
    f: MarkovPotential,
    t: float,
    ks: tuple[int, ...],
    tol: float = 1e-6,
) -> IntegralLimitReport:
    """Cauchy check for the energies mu_k(t f) along the schedule.

    The limit must match the P(t) estimate minus the entropy limit: the
    variational identity transported across k.
    """
    if t <= 1.0:
        raise ValidationError("the integral limit needs t > 1")
    if not is_summable(f):
        raise ValidationError("integral limit diagnostics need a summable potential")
    solver = _PointSolver(model, f)
    ks = tuple(sorted(ks))
    energies = []
    p_last = h_last = math.nan
    for k in ks:
        p, meas = solver.solve(k, t)
        energies.append(t * integral(meas, f))
        p_last, h_last = p, entropy(meas)
    gaps = tuple(abs(b - a) for a, b in zip(energies, energies[1:]))
    converged = len(gaps) >= 2 and max(gaps[-2:]) < tol
    vp_residual = abs(energies[-1] - (p_last - h_last))
    if not converged:
        raise NotConverged(gaps[-1] if gaps else math.inf, what=f"energies at t={t}")
    return IntegralLimitReport(float(t), ks, tuple(energies), gaps, energies[-1], vp_residual)


def tightness_bound_check(
    model: ShiftModel,
    f: MarkovPotential,
    t: float,
    ks: tuple[int, ...],
) -> TightnessReport:
    """Mass bound mu_k[i] <= exp(4 V1(f|k) + sup f|_[i] - S) beyond a threshold.

    S is the f-mean of the reference orbit (k-independent); the bound only
    applies once the exponent is nonpositive, and the first such symbol per
    truncation is reported as the threshold. Violations are collected, not
    raised.
    """
    s_ref, witness = _reference_orbit(model, f)
    solver = _PointSolver(model, f)
    thresholds: dict[int, int | None] = {}
    violations: list[tuple[int, int, float, float]] = []
    for k in sorted(ks):
        trunc = solver.truncation(k)
        _, meas = solver.solve(k, t)
        v1 = variation(f, trunc)
        sups = f._ambient_sups(trunc.alphabet)
        exponents = 4.0 * v1 + sups - s_ref
        idx_ok = np.flatnonzero(exponents <= 0.0)
        thresholds[k] = int(trunc.alphabet[idx_ok[0]]) if idx_ok.size else None
        for a in idx_ok:
            mass = float(meas.stationary[a])
            bound = float(math.exp(exponents[a]))
            if mass > bound + 1e-12:
                violations.append((k, int(trunc.alphabet[a]), mass, bound))
    return TightnessReport(float(t), s_ref, witness, thresholds, tuple(violations))


def _fixed_truncation_sweep(
    model: ShiftModel, f: MarkovPotential, k: int, ts: tuple[float, ...], tie_tol: float,
    k0_report: K0Report | None, what: str, mixing_only: bool = False,
) -> tuple[K0Report, Truncation, CriticalDecomposition, GaugedSweep, tuple[float, ...]]:
    """The set-up `zero_temp_sweep` and `entropy_limit` share: the k0 report
    (detected unless given), which k must reach (ValidationError naming
    `what` otherwise), the truncation at k, its `_sweep_setup` and the ts in
    increasing order. mixing_only warns NonMixingModel, before the set-up,
    where the truncation is not topologically mixing."""
    if k0_report is None:
        k0_report = detect_k0(model, f, tie_tol=tie_tol)
    if k < k0_report.k0:
        raise ValidationError(f"{what} needs k >= k0 = {k0_report.k0}")
    trunc = build_truncation(model, k)
    if mixing_only and trunc.period != 1:
        warnings.warn(
            "entropy-limit comparison assumes a topologically mixing model; output is unvalidated",
            NonMixingModel,
        )
    dec, sweep = _sweep_setup(trunc, f, tie_tol)
    return k0_report, trunc, dec, sweep, tuple(sorted(float(t) for t in ts))


def zero_temp_sweep(
    model: ShiftModel,
    f: MarkovPotential,
    k: int,
    ts: tuple[float, ...] = ZT_TS_DEFAULT,
    words: tuple[tuple[int, ...], ...] = (),
    tie_tol: float = 1e-9,
    k0_report: K0Report | None = None,
) -> ZeroTempResult:
    """Equilibrium trajectories on a fixed truncation as t grows.

    The ground-state weights are the total 1-cylinder masses of each maximal
    critical component at the largest solved t, with the gap to the previous
    grid point as the consistency residual. The set-up is
    `_fixed_truncation_sweep`'s; a t whose solve fails is recorded in
    `errors` and left out.
    """
    k0_report, trunc, dec, sweep, ts = _fixed_truncation_sweep(
        model, f, k, ts, tie_tol, k0_report, "zero-temperature sweep"
    )

    maximal = [dec.components[j] for j in dec.maximal_components]
    traj: dict[tuple[int, ...], list[float]] = {w: [] for w in words}
    gamma_traj: list[list[float]] = [[] for _ in maximal]
    solved_ts: list[float] = []
    errors: list[tuple[float, str]] = []
    for t in ts:
        try:
            _, meas = equilibrium_measure(trunc, f, t, sweep=sweep)
        except SolverError as exc:
            errors.append((t, str(exc)))
            continue
        solved_ts.append(t)
        for w in words:
            traj[w].append(cylinder_mass(meas, w))
        for j, comp in enumerate(maximal):
            gamma_traj[j].append(sum(cylinder_mass(meas, (s,)) for s in comp.symbols))
    if len(solved_ts) < 2:
        raise NotConverged(math.inf, what="zero-temperature sweep")
    weights = tuple(g[-1] for g in gamma_traj)
    residual = max(abs(g[-1] - g[-2]) for g in gamma_traj)
    estimate = MuInftyEstimate(
        weights=weights,
        components=tuple(c.measure for c in maximal),
        component_symbols=tuple(c.symbols for c in maximal),
        residual=float(residual),
    )
    return ZeroTempResult(
        k=k,
        ts=tuple(solved_ts),
        trajectories={w: tuple(v) for w, v in traj.items()},
        gamma_trajectories=tuple(tuple(g) for g in gamma_traj),
        estimate=estimate,
        decomposition=dec,
        k0=k0_report,
        errors=tuple(errors),
    )


def entropy_limit(
    model: ShiftModel,
    f: MarkovPotential,
    k: int,
    ts: tuple[float, ...] = ZT_TS_DEFAULT,
    tie_tol: float = 1e-9,
    k0_report: K0Report | None = None,
) -> EntropyLimitReport:
    """Entropy trajectory h(mu_{t f}) on a fixed truncation as t grows.

    The extrapolated limit (last grid value, residual = gap to the previous
    one) is compared against the entropy supremum over maximizing measures.
    Only mixing models validate the comparison; others get a warning. The
    set-up is `_fixed_truncation_sweep`'s, as in `zero_temp_sweep`; a solve
    that fails raises.
    """
    _, trunc, dec, sweep, ts = _fixed_truncation_sweep(
        model, f, k, ts, tie_tol, k0_report, "entropy limit", mixing_only=True
    )
    mixing = trunc.period == 1
    sup_max = max_entropy_over_maximizing(dec)
    hs = []
    for t in ts:
        _, meas = equilibrium_measure(trunc, f, t, sweep=sweep)
        hs.append(entropy(meas))
    return EntropyLimitReport(
        k=k,
        ts=ts,
        entropies=tuple(hs),
        h_infinity=hs[-1],
        residual=abs(hs[-1] - hs[-2]) if len(hs) >= 2 else math.inf,
        sup_over_maximizing=float(sup_max),
        mixing=mixing,
        validated=mixing,
    )


def entropy_upper_semicontinuity_check(
    model: ShiftModel,
    f: MarkovPotential,
    t: float,
    ks: tuple[int, ...],
    n_max: int = 3,
    budget: int = 1_000_000,
) -> SemicontinuityReport:
    """Finite-k upper-semicontinuity diagnostic for the entropies.

    Checks that h(mu_k) stays within [h_final - 0.1, h_final + 1e-3] and
    that the partition-entropy rates H_n/n converge along the schedule for
    small n: the literal finite-partition content of the limsup argument.
    """
    solver = _PointSolver(model, f)
    ks = tuple(sorted(ks))
    hs = []
    rates: dict[int, list[float]] = {n: [] for n in range(1, n_max + 1)}
    for k in ks:
        _, meas = solver.solve(k, t)
        hs.append(entropy(meas))
        trunc = solver.truncation(k)
        for n in range(1, n_max + 1):
            rates[n].append(partition_entropy(meas, trunc, n, budget=budget) / n)
    h_final = hs[-1]
    within = tuple(h_final - 0.1 <= h <= h_final + 1e-3 for h in hs)
    final_gaps = {n: abs(v[-1] - v[-2]) if len(v) >= 2 else math.inf for n, v in rates.items()}
    return SemicontinuityReport(
        t=float(t),
        ks=ks,
        entropies=tuple(hs),
        h_final=h_final,
        within_band=within,
        partition_rates={n: tuple(v) for n, v in rates.items()},
        partition_final_gaps=final_gaps,
    )
