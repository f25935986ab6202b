"""Finite-alphabet thermodynamics via the log-domain transfer matrix.

Everything spectral stays in log space with log-sum-exp reductions: inverse
temperatures up to ~10^3 make the matrix entries exp(t f) underflow long
before the quantities of interest do.

`perron` runs one power iteration, on B + sigma I, on both sides. The plain
run is sigma = 0, averaged over d consecutive steps where d is the period
that `perron` reads from the support of log B; the shifted run is
sigma = e^{beta} <= lambda, beta the max cycle mean of log B, with d = 1.
The tolerances are fixed (`_TOL`, `_RES_TOL`); only the step budget can be
set. A solve takes one of these paths:

- No gauge (pressure grids, single points, critical components): the plain
  run from the uniform vector. Only if that stalls is the max-plus gauge of
  log B built (Howard's max cycle mean, then the critical graph) and the
  shifted run started.
- With a gauge (zero-temperature sweeps): the iteration starts from the
  max-plus eigenvectors, t v on the right and t u on the left, which already
  carry the e^{-t delta} decay of the off-critical entries. When the
  critical graph is cyclic (cyclicity c > 1) the peripheral spectrum of
  exp(t f) tends to lambda times the c-th roots of unity, so the solve goes
  straight to the shifted run, and only if that stalls runs plain from the
  uniform vector; when c = 1 it runs plain first and shifts only on a stall.

The gauge is linear in t: beta, v and u of t f are t times those of f, so a
sweep computes them once from f's critical decomposition and rescales.

Each side of a solve builds its transfer operator, logv -> log(B exp(logv)),
once, with the kernel its support calls for: a CSR log-sum-exp over the
finite entries when at most two thirds of the cells are finite and no row is
empty (renewal truncations have 2n - 1 edges), and otherwise (full shifts)
a dense kernel that absorbs a scaling at one iterate with a log-sum-exp over
the matrix and applies the result as a matvec until an iterate needs it
absorbed again (`_DenseLogOperator`). The log-sum-exps reduce like
``scipy.special.logsumexp`` (each maximum counted apart, the rest through
log1p), as do the scalar reductions, so gibbsline needs numpy only. They
subtract a maximum only from the entries below it, so they never form
-inf - (-inf) and need no np.errstate. The residual of an iterate is read
from the application that computes the next one, so a side on a period-1
support applies its operator iterations + 1 times.

At the small n of the bundled configs a step costs its numpy calls rather
than its arithmetic: one application, one log-sum-exp for the normalizer s,
and one masked minimum for the convergence scale (a normalized iterate is
<= 0); with d = 1 the eigenvalue estimate is s itself.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AlphabetTooLarge,
    BudgetExceeded,
    NoConvergence,
    ValidationError,
)
from .maxplus import MaxPlusGauge, gauge_of
from .potential import MarkovPotential, row_oscillation
from .shift_model import AlphabetIndexed, ModelKind, Truncation, graph_period

_NEG_INF = -np.inf
_EPS = float(np.finfo(np.float64).eps)
# Power iteration: the eigenvalue estimate has settled once consecutive
# estimates differ by less than _TOL, and an iterate is accepted once its
# eigen-residual is below _RES_TOL (both floored at a few ulp of the scale).
_TOL = 1e-13
_RES_TOL = 1e-12

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
class MarkovMeasure(AlphabetIndexed):
    """Stationary Markov chain (P, pi) over a truncation alphabet."""

    stochastic: np.ndarray
    stationary: np.ndarray
    alphabet: np.ndarray
    # V_1 of each potential on the support, kept by `support_first_variation`
    _first_variation: dict = field(default_factory=dict, init=False, repr=False)


def transfer_matrix(trunc: Truncation, f: MarkovPotential, t: float) -> np.ndarray:
    """log B with entries t*f(i, j) on admissible edges, -inf elsewhere."""
    inc = trunc.require_incidence()
    vals = f.value_grid(trunc.alphabet, trunc.alphabet)
    if np.isnan(vals[inc]).any():
        raise ValidationError("potential undefined on an admissible edge of the truncation")
    return np.where(inc, t * vals, _NEG_INF)


def _logsumexp(a: np.ndarray, axis: int | None = None, out: np.ndarray | None = None) -> np.ndarray:
    """log(sum(exp(a))) along axis, reduced as scipy.special.logsumexp does.

    Every entry equal to the maximum is counted apart and the rest enter
    through log1p, so one dominant term comes out exact; an all -inf slice
    gives -inf. The maximum is subtracted only from the entries below it,
    so no -inf - (-inf) is formed. `out` is scratch space of a's shape (a
    itself may be passed).
    """
    top = a.max(axis=axis)
    wide = top if axis is None else np.expand_dims(top, axis)
    at_top = a == wide
    rest = np.subtract(a, wide, out=out, where=~at_top)
    np.copyto(rest, _NEG_INF, where=at_top)
    np.exp(rest, out=rest)
    return _log_total(rest.sum(axis=axis), np.count_nonzero(at_top, axis=axis), top)


def _log_total(rest: np.ndarray, count: np.ndarray, top: np.ndarray) -> np.ndarray:
    # top + log(count * exp(0) + rest): the count maxima and the rest below them
    return np.log1p(rest / count) + np.log(count) + top


class _CsrLogOperator:
    """logv -> log(exp(logA) @ exp(logv)) over the finite entries of logA.

    The entries are stored row by row with int32 indices; every row must
    hold one, as on an irreducible support.
    """

    def __init__(self, logA: np.ndarray, finite: np.ndarray):
        rows, cols = np.nonzero(finite)
        self.n = logA.shape[0]
        self.vals = logA[rows, cols]
        self.rows = rows.astype(np.int32)
        self.cols = cols.astype(np.int32)
        self.starts = np.searchsorted(rows, np.arange(self.n)).astype(np.int32)

    def __call__(self, logv: np.ndarray) -> np.ndarray:
        z = self.vals + logv[self.cols]
        top = np.maximum.reduceat(z, self.starts)
        top_z = top[self.rows]
        at_top = z == top_z
        # a row whose terms are all -inf is at its maximum throughout, so
        # -inf - (-inf) is never formed
        np.subtract(z, top_z, out=z, where=~at_top)
        np.copyto(z, _NEG_INF, where=at_top)
        np.exp(z, out=z)
        count = np.add.reduceat(at_top, self.starts, dtype=np.int64)
        return _log_total(np.add.reduceat(z, self.starts), count, top)


class _DenseLogOperator:
    """logv -> log(exp(logA) @ exp(logv)) as a linear kernel with an absorbed scaling.

    An absorbing application reduces logA + logv row by row in the log
    domain, over row blocks of about 2^20 cells, as scipy's logsumexp does,
    and leaves K = exp(logA + g - top) behind, g = logv and top the row
    maxima (each row's largest entry is 1). Later applications are one
    matvec: with d = logv - g and m = max d, s = K @ exp(d - m) and the
    result is log(s) + top + m. Such a result is accepted only when

    - every row sum is at least _FLOOR: the terms that underflow in K or in
      exp(d - m) are below n 2^-1022 in total, so they stay under 1e-50 of
      their row and underflow never changes the support;
    - the magnitudes of top, m and log s add up to at most _SPREAD times the
      row's own (or 1): their rounding, a few ulp of each, then stays within
      a few ulp of the row, as in the log domain. The first matvec after the
      uniform start, whose top and m are about log n each, passes at every
      n up to DENSE_LIMIT.

    Otherwise, and for an iterate with a -inf entry, the application
    re-absorbs at that iterate (log-stabilized scaling, Schmitzer,
    arXiv:1610.06519).
    """

    _FLOOR = 1e-250
    _SPREAD = 32.0

    def __init__(self, logA: np.ndarray):
        self.n = logA.shape[0]
        self.logA = logA
        self.block = max(1, (1 << 20) // self.n)
        # logA's memory order (a transpose stays column-major) fixes the
        # order in which each row is summed
        self.K = np.empty_like(logA)
        self.g = self.top = self.abs_top = None

    def __call__(self, logv: np.ndarray) -> np.ndarray:
        if self.g is not None and np.isfinite(logv).all():
            d = logv - self.g
            m = d.max()
            s = self.K @ np.exp(d - m)
            if s.min() >= self._FLOOR:
                log_s = np.log(s)
                out = log_s + (self.top + m)
                parts = self.abs_top + abs(m) + np.abs(log_s)
                if (parts <= self._SPREAD * np.maximum(1.0, np.abs(out))).all():
                    return out
        return self._absorb(logv)

    def _absorb(self, logv: np.ndarray) -> np.ndarray:
        out = np.empty(self.n)
        top = np.empty(self.n)
        for lo in range(0, self.n, self.block):
            hi = min(lo + self.block, self.n)
            z = np.add(self.logA[lo:hi], logv[None, :], out=self.K[lo:hi])
            top[lo:hi] = z.max(axis=1)
            at_top = z == top[lo:hi, None]
            out[lo:hi] = _logsumexp(z, axis=1, out=z)
            z[at_top] = 1.0
        # a -inf in logv or an empty row leaves no kernel to keep
        finite = np.isfinite(logv).all() and np.isfinite(top).all()
        self.g, self.top, self.abs_top = (logv.copy(), top, np.abs(top)) if finite else (None, None, None)
        return out


def _log_operator(logA: np.ndarray) -> _CsrLogOperator | _DenseLogOperator:
    """The log-domain operator of logA: CSR when at most two thirds of the
    cells are finite and every row holds one, dense otherwise."""
    finite = np.isfinite(logA)
    if 3 * np.count_nonzero(finite) <= 2 * finite.size and finite.any(axis=1).all():
        return _CsrLogOperator(logA, finite)
    return _DenseLogOperator(logA)


def _window_average(v_hist: list[np.ndarray], s_hist: list[float], est: float) -> np.ndarray:
    """Average the last d >= 2 iterates after undoing the per-step normalizers.

    Iterate i carries cumulative normalizer S_i; rescaling by exp(S_i - i*est)
    reproduces the lambda-scaled sequence, whose window average projects onto
    the Perron eigenvector even when the support has period d > 1.
    """
    terms = [v_hist[0]]
    offset = 0.0
    for j in range(1, len(v_hist)):
        offset += s_hist[j] - est
        terms.append(v_hist[j] + offset)
    stacked = np.stack(terms, axis=0)
    return _logsumexp(stacked, axis=0, out=stacked) - math.log(len(terms))


def _residual(Aw: np.ndarray, logw: np.ndarray, est: float) -> float:
    """Eigen-residual of logw at log-eigenvalue est, from Aw = op(logw)."""
    return float(np.max(np.abs(Aw - est - logw)))


def _power_iteration(
    op, logv: np.ndarray, d: int, log_sigma: float, max_iter: int, best: tuple
) -> tuple[np.ndarray | None, float, int, float, tuple]:
    """Log-domain power iteration on B + sigma*I from logv.

    Returns (log_vec, log_lambda, iters, residual, best); log_vec is None
    when the budget ran out, and best = (residual, vector, eigenvalue) is
    the best iterate seen, this run's or the given one.

    The plain run is sigma = 0 (log_sigma = -inf), on the support's period
    d: the eigenvalue estimate is the mean of the last d per-step
    log-normalizers and the eigenvector the average of the last d
    normalized iterates, which converges where the plain iteration
    oscillates. The shifted run is sigma = exp(max cycle mean of log B)
    with d = 1: sigma never exceeds lambda, and as t grows lambda / sigma
    stays bounded while the peripheral eigenvalues tend to lambda times
    roots of unity, so the shift contracts each of them like
    |e^{i theta} + sigma / lambda| / (1 + sigma / lambda). Either way the
    eigenvalue is recovered from the mean m as log(exp(m) - sigma) without
    cancellation. For d = 1 the residual of an iterate comes from the
    application that computes the next one; for d > 1 the window average
    costs one application of its own.
    """
    s_hist: deque[float] = deque(maxlen=d)
    v_hist: deque[np.ndarray] = deque(maxlen=d)
    mean_prev = math.nan
    pending = None  # (estimate, gate) of iterate `it`, checked by its application
    for it in range(max_iter + 1):
        Av = op(logv)
        if pending is not None:
            est, gate = pending
            res = _residual(Av, logv, est)
            if res < best[0]:
                best = (res, logv, est)
            if res < gate:
                return logv, est, it, res, best
            pending = None
        if it == max_iter:
            break
        u = Av if log_sigma == _NEG_INF else np.logaddexp(Av, log_sigma + logv)
        s = float(_logsumexp(u))
        logv = u - s
        if d == 1:
            mean = s
        else:
            s_hist.append(s)
            v_hist.append(logv)
            if len(s_hist) < d:
                continue
            mean = float(np.mean(s_hist))
        # s >= max u, so the normalized iterate is <= 0 and -min is its largest finite magnitude
        scale = max(1.0, abs(mean), -float(logv.min(where=np.isfinite(logv), initial=0.0)))
        if (abs(mean - mean_prev) < max(_TOL, 4.0 * _EPS * scale) or (it + 1) % 32 == 0) and mean > log_sigma:
            est = mean + math.log1p(-math.exp(log_sigma - mean))
            gate = max(_RES_TOL, 8.0 * _EPS * max(scale, abs(est)))
            if d == 1:
                pending = (est, gate)
            else:
                logw = _window_average(list(v_hist), list(s_hist), est)
                res = _residual(op(logw), logw, est)
                if res < best[0]:
                    best = (res, logw, est)
                if res < gate:
                    return logw, est, it + 1, res, best
        mean_prev = mean
    return None, math.nan, max_iter, best[0], best


def _normalized(logv: np.ndarray) -> np.ndarray:
    return logv - _logsumexp(logv)


def _solve_side(
    op, d: int, gauge: MaxPlusGauge | None, warm_start, gauge_of_logA, max_iter: int
) -> tuple[np.ndarray, float, int, float, str]:
    """Perron vector of one side: (log_vec, log_lambda, iterations, residual, path).

    With a gauge the start is its max-plus eigenvector and sigma its cycle
    mean; a cyclic critical graph goes straight to the shifted iteration,
    and only if that stalls runs the plain iteration from the uniform
    vector. Without one the plain iteration starts from the uniform vector
    and only a stall pays for `gauge_of_logA`. Iterations add up over the
    runs, and the path names the run that converged.
    """
    n = op.n
    uniform = np.full(n, -math.log(n))
    plain = "plain" if d == 1 else "period-averaged"
    cyclic = gauge is not None and gauge.cyclicity > 1
    best = (math.inf, None, math.nan)
    spent = 0
    if not cyclic:
        start = uniform if gauge is None else _normalized(warm_start(gauge))
        logv, est, it, res, best = _power_iteration(op, start, d, _NEG_INF, max_iter, best)
        if logv is not None:
            return logv, est, it, res, plain
        spent = it
    if gauge is None:
        gauge = gauge_of_logA()
    start = _normalized(warm_start(gauge))
    logv, est, it, res, best = _power_iteration(op, start, 1, gauge.beta, max_iter, best)
    spent += it
    if logv is not None:
        return logv, est, spent, res, "shifted"
    if cyclic:
        logv, est, it, res, best = _power_iteration(op, uniform, d, _NEG_INF, max_iter, best)
        spent += it
        if logv is not None:
            return logv, est, spent, res, plain
    if best[1] is not None and best[0] <= 1e-10:
        return best[1], best[2], spent, best[0], "best-iterate"
    raise NoConvergence(spent, best[0])


def perron(logB: np.ndarray, max_iter: int | None = None, gauge: MaxPlusGauge | None = None) -> PerronData:
    """Perron data of an irreducible log-domain matrix by power iteration.

    `gauge` is the max-plus gauge of logB itself (for log B = t f, the gauge
    of f scaled by t); see the module docstring for the solver paths.
    """
    n = logB.shape[0]
    if max_iter is None:
        # 100 * n with a floor: tiny alphabets can still carry nearly
        # reducible supports whose spectral gap is independent of n
        max_iter = max(100 * n, 3000)
    d = graph_period(np.isfinite(logB))
    found: list[MaxPlusGauge] = []

    def gauge_of_logB() -> MaxPlusGauge:
        # built at most once per solve, by whichever side stalls first
        if not found:
            found.append(gauge_of(logB))
        return found[0]

    logh, est_r, it_r, res_r, path_r = _solve_side(
        _log_operator(logB), d, gauge, lambda g: g.v, gauge_of_logB, max_iter
    )
    lognu, est_l, it_l, res_l, path_l = _solve_side(
        _log_operator(logB.T), d, gauge, lambda g: g.u, gauge_of_logB, max_iter
    )
    log_lambda = 0.5 * (est_r + est_l)
    logh = _normalized(logh)
    lognu = lognu - _logsumexp(lognu + logh)
    residual = max(res_r, res_l, abs(est_r - est_l))
    path = max(path_r, path_l, key=PATHS.index)
    return PerronData(float(log_lambda), logh, lognu, it_r + it_l, float(residual), path)


def pressure(trunc: Truncation, f: MarkovPotential, t: float) -> float:
    """Topological pressure of t*f on the truncation (log Perron eigenvalue)."""
    if t < 1.0:
        raise ValidationError(f"pressure requires t >= 1, got {t}")
    if trunc.incidence is None:
        if trunc.kind is ModelKind.FULL and f.is_row_constant:
            # rank-one transfer operator: eigenvalue is the row-weight sum
            row = f.value_grid(trunc.alphabet, np.asarray([0], dtype=np.int64))[:, 0]
            return float(_logsumexp(t * row))
        raise AlphabetTooLarge(
            "pressure on a non-materialized truncation is only available for "
            "row-constant potentials on the full shift"
        )
    logB = transfer_matrix(trunc, f, t)
    return perron(logB).log_lambda


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
    op = _log_operator(transfer_matrix(trunc, f, t))
    u = np.full(trunc.n_symbols, _NEG_INF)
    u[ai] = 0.0
    for _ in range(n):
        u = op(u)
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
    trunc: Truncation, f: MarkovPotential, t: float, gauge: MaxPlusGauge | None = None
) -> tuple[float, MarkovMeasure]:
    """Convenience: pressure and equilibrium state of t*f on the truncation.

    `gauge` is the max-plus gauge of f (not of t*f) on the truncation; the
    solve uses it scaled by t.
    """
    logB = transfer_matrix(trunc, f, t)
    pd = perron(logB, gauge=None if gauge is None else gauge.scaled(t))
    return pd.log_lambda, equilibrium(pd, logB, trunc.alphabet)


def log_cylinder_mass(m: MarkovMeasure, word: tuple[int, ...]) -> float:
    idx = m.local_index()
    if any(s not in idx for s in word):
        return -math.inf
    pos = [idx[s] for s in word]
    with np.errstate(divide="ignore"):
        total = float(np.log(m.stationary[pos[0]]))
        steps = np.log(m.stochastic[pos[:-1], pos[1:]])
    for step in steps:
        total += float(step)
    return total


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
    """Row oscillation of f over the support of the chain (per-truncation V_1),
    computed once per measure and potential."""
    v1 = m._first_variation.get(f)
    if v1 is None:
        v1 = m._first_variation[f] = row_oscillation(f.value_grid(m.alphabet, m.alphabet), m.stochastic > 0.0)
    return v1


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
    last = word[-1]
    cont = word[0]
    if last in idx:
        row = m.stochastic[idx[last]]
        if cont not in idx or row[idx[cont]] <= 0.0:
            options = [int(m.alphabet[j]) for j in np.flatnonzero(row > 0.0)]
            if not options:
                return 0.0, False
            cont = min(options)
    # f on the word's pairs and the wrap-around pair, from one grid
    tails = tuple(word[1:]) + (cont,)
    syms = sorted({*word, cont})
    pos = {s: a for a, s in enumerate(syms)}
    vals = f.value_grid(syms, syms)[[pos[a] for a in word], [pos[b] for b in tails]]
    off = np.flatnonzero(~f.model.has_edge(word, tails) | np.isnan(vals))
    if off.size:
        f.value(word[off[0]], tails[off[0]])  # raises the error for that pair
    s_n = 0.0
    for v in vals.tolist():
        s_n += t * v
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
