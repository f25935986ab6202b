"""Finite-alphabet thermodynamics via the log-domain transfer matrix.

Everything spectral stays in log space with log-sum-exp reductions: inverse
temperatures up to ~10^3 make the matrix entries exp(t f) underflow long
before the quantities of interest do.

`perron` runs power iteration on both sides, along one of these paths:

- No gauge (pressure grids, single points, critical components): plain
  iteration from the uniform vector, averaged over d consecutive steps on
  period-d supports. Only if that stalls is the max-plus gauge of log B built
  (Karp, then the critical graph) and the shifted iteration below run.
- With a gauge (zero-temperature sweeps): the iteration starts from the
  max-plus eigenvectors, t v on the right and t u on the left, which already
  carry the e^{-t delta} decay of the off-critical entries. When the
  critical graph is cyclic (cyclicity c > 1) the peripheral spectrum of
  exp(t f) tends to lambda times the c-th roots of unity, so the solve goes
  straight to the iteration shifted by sigma = e^{t beta} <= lambda; when
  c = 1 it runs plain first and shifts only on a stall.

The gauge is linear in t: beta, v and u of t f are t times those of f, so a
sweep computes them once from f's critical decomposition and rescales.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from .errors import (
    AlphabetTooLarge,
    BudgetExceeded,
    NoConvergence,
    ValidationError,
)
from .maxplus import MaxPlusGauge, gauge_of
from .potential import MarkovPotential, row_oscillation
from .shift_model import ModelKind, Truncation, graph_period

_NEG_INF = -np.inf
_EPS = float(np.finfo(np.float64).eps)

# Solver paths in increasing order of cost; a solve reports its costlier side.
PATHS = ("plain", "period-averaged", "shifted", "best-iterate")


@dataclass(frozen=True)
class PerronData:
    """Log-domain Perron triple of a transfer matrix.

    log_lambda is the pressure of the truncated system; log_h and log_nu are
    the right/left eigenvectors, gauged so that sum(h) = 1 and sum(nu*h) = 1.
    iterations counts the power-iteration steps of both sides, and path (one
    of PATHS) names the solver path that produced the answer.
    """

    log_lambda: float
    log_h: np.ndarray
    log_nu: np.ndarray
    iterations: int
    residual: float
    path: str


@dataclass(frozen=True, eq=False)
class MarkovMeasure:
    """Stationary Markov chain (P, pi) over a truncation alphabet."""

    stochastic: np.ndarray
    stationary: np.ndarray
    alphabet: np.ndarray

    def local_index(self) -> dict[int, int]:
        return {int(s): a for a, s in enumerate(self.alphabet)}


def transfer_matrix(trunc: Truncation, f: MarkovPotential, t: float) -> np.ndarray:
    """log B with entries t*f(i, j) on admissible edges, -inf elsewhere."""
    inc = trunc.require_incidence()
    vals = f.value_grid(trunc.alphabet, trunc.alphabet)
    if np.isnan(vals[inc]).any():
        raise ValidationError("potential undefined on an admissible edge of the truncation")
    return np.where(inc, t * vals, _NEG_INF)


def _log_matvec(logA: np.ndarray, logv: np.ndarray, chunk: int = 1024) -> np.ndarray:
    n = logA.shape[0]
    out = np.empty(n, dtype=np.float64)
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        with np.errstate(invalid="ignore"):
            out[lo:hi] = logsumexp(logA[lo:hi] + logv[None, :], axis=1)
    return out


def _window_average(v_hist: list[np.ndarray], s_hist: list[float], est: float) -> np.ndarray:
    """Average the last d iterates after undoing the per-step normalizers.

    Iterate i carries cumulative normalizer S_i; rescaling by exp(S_i - i*est)
    reproduces the lambda-scaled sequence, whose window average projects onto
    the Perron eigenvector even when the support has period d > 1.
    """
    if len(v_hist) == 1:
        return v_hist[-1]
    terms = [v_hist[0]]
    offset = 0.0
    for j in range(1, len(v_hist)):
        offset += s_hist[j] - est
        terms.append(v_hist[j] + offset)
    stacked = np.stack(terms, axis=0)
    with np.errstate(invalid="ignore"):
        return logsumexp(stacked, axis=0) - math.log(len(terms))


def _support_period(logA: np.ndarray) -> int:
    return graph_period(np.isfinite(logA))


def _eigen_residual(logA: np.ndarray, logv: np.ndarray, est: float) -> float:
    lhs = _log_matvec(logA, logv)
    return float(np.max(np.abs(lhs - est - logv)))


def _power_iteration(
    logA: np.ndarray, logv: np.ndarray, d: int, tol: float, max_iter: int, res_tol: float
) -> tuple[np.ndarray | None, float, int, float, tuple]:
    """Log-domain power iteration from logv.

    Returns (log_vec, log_lambda, iters, residual, best); log_vec is None
    when the budget ran out, and best = (residual, vector, eigenvalue) is
    the best iterate seen. The eigenvalue estimate is the mean of the last d
    per-step log-normalizers and the eigenvector the average of the last d
    normalized iterates, which converges for period-d supports where the
    plain iteration oscillates.
    """
    s_hist: deque[float] = deque(maxlen=d)
    v_hist: deque[np.ndarray] = deque(maxlen=d)
    est_prev = math.nan
    best = (math.inf, None, math.nan)
    for it in range(1, max_iter + 1):
        u = _log_matvec(logA, logv)
        s = float(logsumexp(u))
        logv = u - s
        s_hist.append(s)
        v_hist.append(logv)
        if len(s_hist) < d:
            continue
        est = float(np.mean(s_hist))
        scale = max(1.0, abs(est), float(np.max(np.abs(logv[np.isfinite(logv)]))))
        if abs(est - est_prev) < max(tol, 4.0 * _EPS * scale) or it % 32 == 0:
            logw = _window_average(list(v_hist), list(s_hist), est)
            res = _eigen_residual(logA, logw, est)
            if res < best[0]:
                best = (res, logw, est)
            if res < max(res_tol, 8.0 * _EPS * scale):
                return logw, est, it, res, best
        est_prev = est
    return None, math.nan, max_iter, best[0], best


def _power_iteration_shifted(
    logA: np.ndarray, logv: np.ndarray, log_sigma: float, tol: float, max_iter: int, res_tol: float, best: tuple
) -> tuple[np.ndarray | None, float, int, float, tuple]:
    """Power iteration on B + sigma*I: same eigenvectors, eigenvalue lambda + sigma.

    sigma = exp(max cycle mean of log B) never exceeds lambda, and as t grows
    lambda / sigma stays bounded while the peripheral eigenvalues tend to
    lambda times roots of unity: the shift contracts each of them like
    |e^{i theta} + sigma / lambda| / (1 + sigma / lambda), and lambda is
    recovered as log(exp(s) - sigma) without cancellation. Same return as
    `_power_iteration`.
    """
    s_prev = math.nan
    it = 0
    for it in range(1, max_iter + 1):
        u = np.logaddexp(_log_matvec(logA, logv), log_sigma + logv)
        s = float(logsumexp(u))
        logv = u - s
        scale = max(1.0, abs(s), float(np.max(np.abs(logv[np.isfinite(logv)]))))
        if (abs(s - s_prev) < max(tol, 4.0 * _EPS * scale) or it % 32 == 0) and s > log_sigma:
            est = s + math.log1p(-math.exp(log_sigma - s))
            res = _eigen_residual(logA, logv, est)
            if res < best[0]:
                best = (res, logv, est)
            if res < max(res_tol, 8.0 * _EPS * max(scale, abs(est))):
                return logv, est, it, res, best
        s_prev = s
    return None, math.nan, it, best[0], best


def _normalized(logv: np.ndarray) -> np.ndarray:
    return logv - logsumexp(logv)


def _solve_side(
    logA: np.ndarray,
    d: int,
    gauge: MaxPlusGauge | None,
    warm_start,
    gauge_of_logA,
    tol: float,
    max_iter: int,
    res_tol: float,
) -> tuple[np.ndarray, float, int, float, str]:
    """Perron vector of one side: (log_vec, log_lambda, iterations, residual, path).

    With a gauge the start is its max-plus eigenvector and sigma its cycle
    mean; a cyclic critical graph goes straight to the shifted iteration.
    Without one the plain iteration starts from the uniform vector and only
    a stall pays for `gauge_of_logA`.
    """
    n = logA.shape[0]
    best = (math.inf, None, math.nan)
    spent = 0
    if gauge is None or gauge.cyclicity == 1:
        start = np.full(n, -math.log(n)) if gauge is None else _normalized(warm_start(gauge))
        logv, est, it, res, best = _power_iteration(logA, start, d, tol, max_iter, res_tol)
        if logv is not None:
            return logv, est, it, res, "plain" if d == 1 else "period-averaged"
        spent = it
    if gauge is None:
        gauge = gauge_of_logA()
    start = _normalized(warm_start(gauge))
    logv, est, it, res, best = _power_iteration_shifted(logA, start, gauge.beta, tol, max_iter, res_tol, best)
    if logv is not None:
        return logv, est, spent + it, res, "shifted"
    if best[1] is not None and best[0] <= 1e-10:
        return best[1], best[2], spent + it, best[0], "best-iterate"
    raise NoConvergence(spent + it, best[0])


def perron(
    logB: np.ndarray,
    tol: float = 1e-13,
    max_iter: int | None = None,
    period: int | None = None,
    res_tol: float = 1e-12,
    gauge: MaxPlusGauge | None = None,
) -> PerronData:
    """Perron data of an irreducible log-domain matrix by power iteration.

    `gauge` is the max-plus gauge of logB itself (for log B = t f, the gauge
    of f scaled by t); see the module docstring for the solver paths.
    """
    n = logB.shape[0]
    if max_iter is None:
        # 100 * n with a floor: tiny alphabets can still carry nearly
        # reducible supports whose spectral gap is independent of n
        max_iter = max(100 * n, 3000)
    d = period if period is not None else _support_period(logB)
    found: list[MaxPlusGauge] = []

    def gauge_of_logB() -> MaxPlusGauge:
        # built at most once per solve, by whichever side stalls first
        if not found:
            found.append(gauge_of(logB))
        return found[0]

    logh, est_r, it_r, res_r, path_r = _solve_side(
        logB, d, gauge, lambda g: g.v, gauge_of_logB, tol, max_iter, res_tol
    )
    lognu, est_l, it_l, res_l, path_l = _solve_side(
        logB.T, d, gauge, lambda g: g.u, gauge_of_logB, tol, max_iter, res_tol
    )
    log_lambda = 0.5 * (est_r + est_l)
    logh = logh - logsumexp(logh)
    lognu = lognu - logsumexp(lognu + logh)
    residual = max(res_r, res_l, abs(est_r - est_l))
    path = max(path_r, path_l, key=PATHS.index)
    return PerronData(float(log_lambda), logh, lognu, it_r + it_l, float(residual), path)


def pressure(trunc: Truncation, f: MarkovPotential, t: float, **kwargs) -> float:
    """Topological pressure of t*f on the truncation (log Perron eigenvalue)."""
    if t < 1.0:
        raise ValidationError(f"pressure requires t >= 1, got {t}")
    if trunc.incidence is None:
        if trunc.kind is ModelKind.FULL and f.is_row_constant:
            # rank-one transfer operator: eigenvalue is the row-weight sum
            row = f.value_grid(trunc.alphabet, np.asarray([0], dtype=np.int64))[:, 0]
            return float(logsumexp(t * row))
        raise AlphabetTooLarge(
            "pressure on a non-materialized truncation is only available for "
            "row-constant potentials on the full shift"
        )
    logB = transfer_matrix(trunc, f, t)
    return perron(logB, period=trunc.period, **kwargs).log_lambda


def gurevich_estimate(trunc: Truncation, f: MarkovPotential, t: float, a: int, n: int) -> float:
    """(1/n) log of the weight of length-n loops at symbol a.

    Independent finite-n oracle for the pressure; returns -inf when no cycle
    of length n passes through a (use multiples of the period).
    """
    if n < 1:
        raise ValidationError("cycle length must be at least 1")
    idx = trunc.local_index()
    if a not in idx:
        raise ValidationError(f"symbol {a} not in the truncation alphabet")
    ai = idx[a]
    logB = transfer_matrix(trunc, f, t)
    u = np.full(trunc.n_symbols, _NEG_INF)
    u[ai] = 0.0
    for _ in range(n):
        u = _log_matvec(logB, u)
    diag = u[ai]
    if not np.isfinite(diag):
        return -math.inf
    return float(diag) / n


def equilibrium(pd: PerronData, logB: np.ndarray, alphabet: np.ndarray | None = None) -> MarkovMeasure:
    """Equilibrium Markov chain P_ij = B_ij h_j / (lambda h_i), pi = nu*h."""
    n = logB.shape[0]
    if alphabet is None:
        alphabet = np.arange(n, dtype=np.int64)
    logP = logB + pd.log_h[None, :] - pd.log_h[:, None] - pd.log_lambda
    P = np.exp(logP)
    P /= P.sum(axis=1, keepdims=True)
    pi = np.exp(pd.log_nu + pd.log_h)
    pi /= pi.sum()
    # nu*h is stationary up to the solver residual; a few multiplications
    # polish it against the row-renormalized chain
    for _ in range(5):
        nxt = pi @ P
        nxt /= nxt.sum()
        if float(np.abs(nxt - pi).sum()) < 1e-15:
            pi = nxt
            break
        pi = nxt
    return MarkovMeasure(P, pi, np.asarray(alphabet, dtype=np.int64))


def equilibrium_measure(
    trunc: Truncation, f: MarkovPotential, t: float, gauge: MaxPlusGauge | None = None, **kwargs
) -> tuple[float, MarkovMeasure]:
    """Convenience: pressure and equilibrium state of t*f on the truncation.

    `gauge` is the max-plus gauge of f (not of t*f) on the truncation; the
    solve uses it scaled by t.
    """
    logB = transfer_matrix(trunc, f, t)
    pd = perron(logB, period=trunc.period, gauge=None if gauge is None else gauge.scaled(t), **kwargs)
    return pd.log_lambda, equilibrium(pd, logB, trunc.alphabet)


def log_cylinder_mass(m: MarkovMeasure, word: tuple[int, ...]) -> float:
    idx = m.local_index()
    if any(s not in idx for s in word):
        return -math.inf
    with np.errstate(divide="ignore"):
        logP = np.log(m.stochastic)
        logpi = np.log(m.stationary)
    total = logpi[idx[word[0]]]
    for a, b in zip(word, word[1:]):
        total += logP[idx[a], idx[b]]
    return float(total)


def cylinder_mass(m: MarkovMeasure, word: tuple[int, ...]) -> float:
    """Measure of the cylinder [word]; zero for inadmissible words."""
    if len(word) < 1:
        raise ValidationError("word must be non-empty")
    lm = log_cylinder_mass(m, word)
    return float(math.exp(lm)) if lm > -math.inf else 0.0


def integral(m: MarkovMeasure, f: MarkovPotential) -> float:
    """int f dmu = sum_ij pi_i P_ij f(i, j) over the support."""
    vals = f.value_grid(m.alphabet, m.alphabet)
    w = m.stationary[:, None] * m.stochastic
    mask = w > 0.0
    if np.isnan(vals[mask]).any():
        raise ValidationError("potential undefined on the support of the measure")
    return float(np.sum(w[mask] * vals[mask]))


def entropy(m: MarkovMeasure) -> float:
    """Kolmogorov-Sinai entropy -sum pi_i P_ij log P_ij with 0 log 0 = 0."""
    P = m.stochastic
    w = m.stationary[:, None] * P
    mask = (w > 0.0) & (P > 0.0)
    return float(-np.sum(w[mask] * np.log(P[mask]))) + 0.0


def partition_entropy(m: MarkovMeasure, trunc: Truncation, n: int, budget: int = 1_000_000) -> float:
    """Shannon entropy of the length-n cylinder partition under the measure."""
    if n < 1:
        raise ValidationError("partition depth must be at least 1")
    if trunc.n_symbols ** n > budget:
        raise BudgetExceeded(f"{trunc.n_symbols}^{n} cylinders exceed the budget {budget}")
    idx = m.local_index()
    succ = trunc.successor_lists()
    total = 0.0
    stack: list[tuple[int, int, float]] = []  # (trunc-local vertex, depth, mass)
    for a in range(trunc.n_symbols):
        sym = int(trunc.alphabet[a])
        mass = float(m.stationary[idx[sym]]) if sym in idx else 0.0
        stack.append((a, 1, mass))
    while stack:
        a, depth, mass = stack.pop()
        if mass <= 0.0:
            continue
        if depth == n:
            total -= mass * math.log(mass)
            continue
        sym_a = int(trunc.alphabet[a])
        for b in succ[a]:
            sym_b = int(trunc.alphabet[int(b)])
            p = float(m.stochastic[idx[sym_a], idx[sym_b]]) if sym_a in idx and sym_b in idx else 0.0
            stack.append((int(b), depth + 1, mass * p))
    return total


def support_first_variation(m: MarkovMeasure, f: MarkovPotential) -> float:
    """Row oscillation of f over the support of the chain (per-truncation V_1)."""
    return row_oscillation(f.value_grid(m.alphabet, m.alphabet), m.stochastic > 0.0)


def gibbs_ratio(
    m: MarkovMeasure,
    word: tuple[int, ...],
    f: MarkovPotential,
    t: float,
    pressure_value: float,
) -> tuple[float, bool]:
    """Cylinder mass against exp(S_n(t f) - n P) on the periodic continuation.

    The evaluation point repeats the word; when the wrap-around edge is not
    in the support the smallest admissible successor is used instead. The
    bound constant is exp(4 t V_1) with V_1 taken on the support.
    """
    n = len(word)
    idx = m.local_index()
    logmass = log_cylinder_mass(m, word)
    s_n = 0.0
    for a, b in zip(word, word[1:]):
        s_n += t * f.value(a, b)
    last = word[-1]
    cont = word[0]
    if last in idx:
        row = m.stochastic[idx[last]]
        if cont not in idx or row[idx[cont]] <= 0.0:
            options = [int(m.alphabet[j]) for j in np.flatnonzero(row > 0.0)]
            if not options:
                return 0.0, False
            cont = min(options)
    s_n += t * f.value(last, cont)
    log_ratio = logmass - (s_n - n * pressure_value)
    ratio = float(np.exp(log_ratio))
    v1 = support_first_variation(m, f)
    log_c = 4.0 * t * v1
    ok = bool(-log_c - 1e-9 <= log_ratio <= log_c + 1e-9)
    return ratio, ok


def one_cylinder_gibbs_check(
    m: MarkovMeasure,
    trunc: Truncation,
    f: MarkovPotential,
    t: float,
    pressure_value: float,
) -> list[tuple[int, float, bool]]:
    """Gibbs bound on every 1-cylinder: mass / exp(t sup f|_[i] - P) in [1/C, C]."""
    v1 = support_first_variation(m, f)
    log_c = 4.0 * t * v1
    out = []
    idx = m.local_index()
    for sym in trunc.alphabet:
        sym = int(sym)
        sup_i = f.cylinder_sup(sym, trunc)
        with np.errstate(divide="ignore"):
            log_ratio = float(np.log(m.stationary[idx[sym]])) - (t * sup_i - pressure_value)
        ok = bool(-log_c - 1e-9 <= log_ratio <= log_c + 1e-9)
        out.append((sym, float(np.exp(log_ratio)), ok))
    return out
