"""Finite-alphabet thermodynamics via the log-domain transfer matrix.

Everything spectral stays in log space with log-sum-exp reductions: inverse
temperatures up to ~10^3 make the matrix entries exp(t f) underflow long
before the quantities of interest do.

`perron` reads the support of log B once (np.isfinite), and first asks
whether one vertex meets every cycle: every vertex but at most one hub a has
exactly one successor, following successors leads from every vertex to a,
and a reaches every vertex. Renewal truncations and 1 x 1 or cyclic
critical components have this shape, and a support with more than 2n - 1
edges is turned away after one count. There every loop at a is a first
return, so log lambda is the root P of the scalar first-return equation
sum_j B_aj exp(S_j - (dist_j + 1) P) = 1 (Sarig, ETDS 1999), with S_j and
dist_j the weight and length of the chain from j to a. Newton's method
finds it from the max cycle mean in a few steps; log h = S - dist P, and nu
follows from the chain recurrences, leaves first. That is the
`first-return` path; `iterations` counts its Newton steps. Its answer must
pass the residual gate of power iteration on both sides.

Every other support, and a first-return answer that fails the gate, goes to
one power iteration, on B + sigma I, on both sides. The plain
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

A side whose two runs both spend their budgets raises NoConvergence; no
solve returns an iterate that missed the gate (see `perron`).

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

Every exponential of a difference to a maximum (`_exp_below`, under the
log-sum-exps, the CSR kernel and the dense absorption) and the chain of
`equilibrium` call exp only on the entries whose result is not +0.0
(`_exp_nonzero`, np.exp bit for bit). At large t nearly every cell of a
full shift underflows: at t = 64 on the 511-symbol `tie_two_loops`
truncation, 255,532 of the 261,121 cells an absorption exponentiates do.
numpy 2.4's exp took about 0.25 ms on 511 x 511 normal arguments, 1.7-1.9
ms on -inf and 5.9 ms on arguments that underflow, so the zero-temperature
sweep spent most of its exponential time there. The mask costs a few
passes over bools and three more numpy calls, so arrays of fewer than
_MASK_MIN entries (the vectors, and every array of the bundled n <= 10 and
the 12-symbol custom models) take np.exp on every entry.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import (
    AlphabetTooLarge,
    BudgetExceeded,
    NoConvergence,
    ValidationError,
)
from .maxplus import MaxPlusGauge, gauge_of
from .potential import MarkovPotential
from .shift_model import AlphabetIndexed, ModelKind, Truncation, graph_period

_NEG_INF = -np.inf
_EPS = float(np.finfo(np.float64).eps)
# Power iteration: the eigenvalue estimate has settled once consecutive
# estimates differ by less than _TOL, and an iterate is accepted once its
# eigen-residual is below _RES_TOL (both floored at a few ulp of the scale).
_TOL = 1e-13
_RES_TOL = 1e-12
# Newton's method on the first-return equation converges quadratically from
# the max cycle mean; this budget is never reached on a valid support.
_NEWTON_STEPS = 64

# Solver paths in increasing order of cost; a solve reports its costlier side.
PATHS = ("first-return", "plain", "period-averaged", "shifted")


@dataclass(frozen=True)
class PerronData:
    """Log-domain Perron triple of a transfer matrix.

    log_lambda is the pressure of the truncated system; log_h and log_nu are
    the right/left eigenvectors, gauged so that sum(h) = 1 and sum(nu*h) = 1.
    iterations counts the power-iteration steps of both sides (the Newton
    steps on the first-return path), and path (one of PATHS) names the
    solver path that produced the answer. Every PerronData passed the
    residual gate: a solve that does not raises NoConvergence instead.
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
    return _log_total(_exp_below(a, wide, at_top, out).sum(axis=axis), np.count_nonzero(at_top, axis=axis), top)


def _exp_below(a: np.ndarray, top: np.ndarray, at_top: np.ndarray, out: np.ndarray | None) -> np.ndarray:
    # exp(a - top) below the maxima, 0 at them; a slice that is -inf throughout
    # is at its maximum throughout, so no -inf - (-inf) is formed
    rest = np.subtract(a, top, out=out, where=~at_top)
    np.copyto(rest, _NEG_INF, where=at_top)
    return _exp_nonzero(rest)


# np.exp rounds every argument below -745.14 (half the smallest subnormal,
# 2^-1075) and -inf to +0.0; exp(-746) is about 1.3e-324
_EXP_ZERO = -746.0
# below this many entries the mask's three extra numpy calls cost more than
# the exps it skips: on a 2-vCPU x86-64 VM with numpy 2.4, n x n arrays with
# 97% of the entries underflowing took 5.6 / 8.4 / 30 us unmasked against
# 8.9 / 8.5 / 7.6 us masked at n = 8 / 16 / 32, and with no entry
# underflowing the mask cost about 5 us more at each of these n
_MASK_MIN = 1024


def _exp_nonzero(x: np.ndarray) -> np.ndarray:
    """np.exp(x) in place, bit for bit.

    From _MASK_MIN entries on, exp is called only on the entries at or
    above _EXP_ZERO; the others (-inf among them) are set to +0.0 without
    one. NaN entries stay live, so a NaN propagates.
    """
    if x.size < _MASK_MIN:
        return np.exp(x, out=x)
    dead = np.less(x, _EXP_ZERO)
    np.copyto(x, 0.0, where=dead)
    return np.exp(x, out=x, where=np.logical_not(dead, out=dead))


def _log_total(rest: np.ndarray, count: np.ndarray, top: np.ndarray) -> np.ndarray:
    # top + log(count * exp(0) + rest): the count maxima and the rest below them
    return np.log1p(rest / count) + np.log(count) + top


class _CsrLogOperator:
    """logv -> log(exp(logA) @ exp(logv)) over the finite entries of logA.

    The entries are stored row by row with int32 indices; every row must
    hold one, as on an irreducible support.
    """

    def __init__(self, logA: np.ndarray, finite: np.ndarray, edges: tuple[np.ndarray, np.ndarray] | None = None):
        # edges: (rows, cols) of the finite cells in row order, if known
        self.n = logA.shape[0]
        rows, cols = np.divmod(np.flatnonzero(finite), self.n) if edges is None else edges
        self.vals = logA[rows, cols]
        self.rows = rows.astype(np.int32)
        self.cols = cols.astype(np.int32)
        self.starts = np.searchsorted(rows, np.arange(self.n)).astype(np.int32)

    def __call__(self, logv: np.ndarray) -> np.ndarray:
        z = self.vals + logv[self.cols]
        top = np.maximum.reduceat(z, self.starts)
        top_z = top[self.rows]
        at_top = z == top_z
        count = np.add.reduceat(at_top, self.starts, dtype=np.int64)
        return _log_total(np.add.reduceat(_exp_below(z, top_z, at_top, z), self.starts), count, top)


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

    At large t almost every cell of a full shift lies more than 746 below
    its row maximum, where numpy's exp is more than ten times slower per
    cell than on normal arguments; an absorption skips those cells
    (`_exp_below` through `_exp_nonzero`, see the module docstring).
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
            rest = _exp_below(z, top[lo:hi, None], at_top, z).sum(axis=1)
            out[lo:hi] = _log_total(rest, np.count_nonzero(at_top, axis=1), top[lo:hi])
            z[at_top] = 1.0
        # a -inf in logv or an empty row leaves no kernel to keep
        finite = np.isfinite(logv).all() and np.isfinite(top).all()
        self.g, self.top, self.abs_top = (logv.copy(), top, np.abs(top)) if finite else (None, None, None)
        return out


def _log_operator(logA: np.ndarray, finite: np.ndarray | None = None) -> _CsrLogOperator | _DenseLogOperator:
    """The log-domain operator of logA: CSR when at most two thirds of the
    cells are finite and every row holds one, dense otherwise. `finite` is
    np.isfinite(logA), if the caller has it."""
    if finite is None:
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
    op, logv: np.ndarray, d: int, log_sigma: float, max_iter: int
) -> tuple[np.ndarray | None, float, int, float]:
    """Log-domain power iteration on B + sigma*I from logv.

    Returns (log_vec, log_lambda, iters, residual); log_vec is None when the
    budget ran out, and residual is then the smallest one seen.

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
    best = math.inf
    pending = None  # (estimate, gate) of iterate `it`, checked by its application
    for it in range(max_iter + 1):
        Av = op(logv)
        if pending is not None:
            est, gate = pending
            res = _residual(Av, logv, est)
            if res < gate:
                return logv, est, it, res
            best = min(best, res)
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
                if res < gate:
                    return logw, est, it + 1, res
                best = min(best, res)
        mean_prev = mean
    return None, math.nan, max_iter, best


def _normalized(logv: np.ndarray) -> np.ndarray:
    return logv - _logsumexp(logv)


def _solve_side(
    op, d: int, gauge: MaxPlusGauge | None, warm_start, gauge_of_logA, max_iter: int
) -> tuple[np.ndarray, float, int, float, str]:
    """Perron vector of one side: (log_vec, log_lambda, iterations, residual, path).

    Two runs in ladder order: plain, then shifted from the max-plus gauge;
    a cyclic gauge goes shifted first, then plain from the uniform vector.
    A plain run that comes first starts from the gauge's max-plus
    eigenvector, or from the uniform vector when there is no gauge, and
    only a stall then pays for `gauge_of_logA`. Iterations add up over the
    runs, and the path names the run that converged; when neither does,
    NoConvergence carries the iterations spent and the smallest residual.
    """
    plain = "plain" if d == 1 else "period-averaged"
    cyclic = gauge is not None and gauge.cyclicity > 1
    plain_start = np.full(op.n, -math.log(op.n)) if gauge is None or cyclic else _normalized(warm_start(gauge))
    spent, best = 0, math.inf
    for path in ("shifted", plain) if cyclic else (plain, "shifted"):
        if path == "shifted":
            if gauge is None:
                gauge = gauge_of_logA()
            logv, est, it, res = _power_iteration(op, _normalized(warm_start(gauge)), 1, gauge.beta, max_iter)
        else:
            logv, est, it, res = _power_iteration(op, plain_start, d, _NEG_INF, max_iter)
        spent += it
        if logv is not None:
            return logv, est, spent, res, path
        best = min(best, res)
    raise NoConvergence(spent, best)


def perron(logB: np.ndarray, max_iter: int | None = None, gauge: MaxPlusGauge | None = None) -> PerronData:
    """Perron data of an irreducible log-domain matrix.

    A support on which one vertex meets every cycle is solved from its
    first-return equation; any other support, and a first-return answer that
    fails the residual gate, by power iteration. `gauge` is the max-plus
    gauge of logB itself (for log B = t f, the gauge of f scaled by t); see
    the module docstring for the solver paths.

    The answer either passes the residual gate on both sides or the solve
    raises NoConvergence. An iterate that misses the gate pins lambda to its
    residual, but h and nu only to residual / spectral gap, and the
    iteration stalls only where the gap is small, so such an iterate is
    never returned.
    """
    finite = np.isfinite(logB)
    pd = _first_return(logB, finite)
    return pd if pd is not None else _power_perron(logB, finite, max_iter, gauge)


def _first_return(logB: np.ndarray, finite: np.ndarray) -> PerronData | None:
    """Perron data from the first-return equation of a hub, or None.

    The support qualifies when every vertex but at most one hub a has exactly
    one successor, the successors lead from every vertex to a, and a reaches
    every vertex; then every cycle passes through a, and the loops at a are
    a -> j -> succ(j) -> ... -> a, of weight logB[a, j] + S_j and length
    dist_j + 1, with S_j and dist_j the weight and length of the chain from
    j to a. log lambda is the root P of log sum_j exp(logB[a, j] + S_j -
    (dist_j + 1) P) = 0, log h = S - dist P, and nu follows leaves first
    from nu_j lambda = nu_a B_aj + sum_{succ(i) = j} nu_i B_ij. The answer
    must pass power iteration's residual gate on both sides, or None is
    returned.
    """
    n = logB.shape[0]
    if np.count_nonzero(finite) > 2 * n - 1:
        return None
    rows, cols = np.divmod(np.flatnonzero(finite), n)
    hubs = np.flatnonzero(np.bincount(rows, minlength=n) != 1)
    # a vertex without a predecessor is not reached from the hub
    if hubs.size > 1 or not np.bincount(cols, minlength=n).all():
        return None
    a = int(hubs[0]) if hubs.size else 0
    vals = logB[rows, cols]
    chain = rows != a
    succ = [a] * n
    weight = [0.0] * n
    for i, j, w in zip(rows[chain].tolist(), cols[chain].tolist(), vals[chain].tolist()):
        succ[i], weight[i] = j, w
    # one pass: the chain length and weight of every vertex, from its successor's
    dist = [-1] * n
    dist[a] = 0
    S = [0.0] * n
    for start in range(n):
        path, v = [], start
        while dist[v] == -1:
            dist[v] = -2  # on the current path
            path.append(v)
            v = succ[v]
        if dist[v] == -2:
            return None  # a cycle that avoids the hub
        for x in reversed(path):
            dist[x] = dist[succ[x]] + 1
            S[x] = weight[x] + S[succ[x]]
    S_arr = np.array(S)
    dist_arr = np.array(dist, dtype=np.float64)
    loops, at_hub = cols[~chain], vals[~chain]
    P, steps = _first_return_root(at_hub + S_arr[loops], dist_arr[loops] + 1.0)
    logh = _normalized(S_arr - dist_arr * P)
    acc = [_NEG_INF] * n
    for j, w in zip(loops.tolist(), at_hub.tolist()):
        acc[j] = w
    lognu = [0.0] * n
    # leaves first: a vertex comes after every vertex whose successor it is
    for i in sorted(range(n), key=dist.__getitem__, reverse=True)[:-1]:
        lognu[i] = acc[i] - P
        j = succ[i]
        if j != a:
            acc[j] = _log_add(acc[j], lognu[i] + weight[i])
    lognu = np.array(lognu)
    lognu -= _logsumexp(lognu + logh)
    order = np.argsort(cols, kind="stable")
    sides = (
        (_CsrLogOperator(logB, finite, edges=(rows, cols)), logh),
        (_CsrLogOperator(logB.T, finite.T, edges=(cols[order], rows[order])), lognu),
    )
    residual = 0.0
    for op, logv in sides:
        res = _residual(op(logv), logv, P)
        # power iteration's gate, with the scale of this normalized vector
        if not res < max(_RES_TOL, 8.0 * _EPS * max(1.0, abs(P), float(np.max(np.abs(logv))))):
            return None
        residual = max(residual, res)
    return PerronData(P, logh, lognu, steps, residual, "first-return")


def _first_return_root(c: np.ndarray, L: np.ndarray) -> tuple[float, int]:
    """Root P of F(P) = log sum_j exp(c_j - L_j P) = 0 and the Newton steps taken.

    F is convex and decreasing, and F >= 0 at the max cycle mean max_j c_j /
    L_j, where one term is exp(0); Newton's method started there increases
    monotonically to the root. It stops once a step falls to a few ulp of P,
    or F reads <= 0.
    """
    P = float(np.max(c / L))
    for it in range(_NEWTON_STEPS):
        z = c - L * P
        top = z.max()
        w = np.exp(z - top)
        total = float(w.sum())
        # -F / F' with F' = -sum L w / sum w
        step = (top + math.log(total)) * total / float(L @ w)
        if not step > 0.0:
            return P, it
        P += step
        if step <= 4.0 * _EPS * max(1.0, abs(P)):
            return P, it + 1
    return P, _NEWTON_STEPS


def _log_add(x: float, y: float) -> float:
    """log(exp(x) + exp(y)) of two floats."""
    if x < y:
        x, y = y, x
    return x if y == -math.inf else x + math.log1p(math.exp(y - x))


def _power_perron(
    logB: np.ndarray, finite: np.ndarray, max_iter: int | None = None, gauge: MaxPlusGauge | None = None
) -> PerronData:
    """Perron data by power iteration on both sides; finite = np.isfinite(logB)."""
    n = logB.shape[0]
    if max_iter is None:
        # 100 * n with a floor: tiny alphabets can still carry nearly
        # reducible supports whose spectral gap is independent of n
        max_iter = max(100 * n, 3000)
    d = graph_period(finite)
    found: list[MaxPlusGauge] = []

    def gauge_of_logB() -> MaxPlusGauge:
        # built at most once per solve, by whichever side stalls first
        if not found:
            found.append(gauge_of(logB))
        return found[0]

    logh, est_r, it_r, res_r, path_r = _solve_side(
        _log_operator(logB, finite), d, gauge, lambda g: g.v, gauge_of_logB, max_iter
    )
    lognu, est_l, it_l, res_l, path_l = _solve_side(
        _log_operator(logB.T, finite.T), d, gauge, lambda g: g.u, gauge_of_logB, max_iter
    )
    log_lambda = 0.5 * (est_r + est_l)
    logh = _normalized(logh)
    lognu = lognu - _logsumexp(lognu + logh)
    residual = max(res_r, res_l, abs(est_r - est_l))
    path = max(path_r, path_l, key=PATHS.index)
    return PerronData(float(log_lambda), logh, lognu, it_r + it_l, float(residual), path)


def pressure(trunc: Truncation, f: MarkovPotential, t: float) -> float:
    """Topological pressure of t*f on the truncation (log Perron eigenvalue).

    NoConvergence when the solve does not converge (see `perron`).
    """
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
    return perron(transfer_matrix(trunc, f, t)).log_lambda


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
    # log P = ((log B + log h_j) - log h_i) - log lambda, built in one buffer
    P = np.add(logB, pd.log_h[None, :])
    P -= pd.log_h[:, None]
    P -= pd.log_lambda
    _exp_nonzero(P)
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
    trunc: Truncation,
    f: MarkovPotential,
    t: float,
    gauge: MaxPlusGauge | None = None,
    W: np.ndarray | None = None,
) -> tuple[float, MarkovMeasure]:
    """Convenience: pressure and equilibrium state of t*f on the truncation.

    `gauge` is the max-plus gauge of f (not of t*f) on the truncation; the
    solve uses it scaled by t. `W` is the weight matrix
    `transfer_matrix(trunc, f, 1.0)` when the caller holds it (a sweep over
    t builds it once); for t > 0 the solve then runs on t * W, which is
    `transfer_matrix(trunc, f, t)` bit for bit (1.0 * x = x, t * -inf =
    -inf). Without it, or at t <= 0, the transfer matrix is built here.
    NoConvergence when the solve does not converge (see `perron`).
    """
    logB = t * W if W is not None and t > 0 else transfer_matrix(trunc, f, t)
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
