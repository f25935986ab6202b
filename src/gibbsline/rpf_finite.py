"""Finite-alphabet thermodynamics via the log-domain transfer matrix.

Everything spectral stays in log space with log-sum-exp reductions, or in
linear coordinates on a scaled kernel (gauged solves, and the ungauged ones
on dense supports whose entries also keep normal floats once scaled):
inverse temperatures up to ~10^3 make the matrix entries exp(t f) underflow
long before the quantities of interest do.

A 1 x 1 support with a finite entry c is the loop alone: `perron` returns
log lambda = c and log h = log nu = 0 at once, which is the first-return
answer below bit for bit. Every other `perron` reads the support of log B
once (np.isfinite), and first asks whether one vertex meets every cycle:
every vertex but at most one hub a has exactly one successor, following
successors leads from every vertex to a, and a reaches every vertex. Renewal
truncations and 1 x 1 or cyclic critical components have this shape, and a
support with more than 2n - 1 edges is turned away after one count. There
every loop at a is a first return, so log lambda is the root P of the scalar
first-return equation sum_j B_aj exp(S_j - (dist_j + 1) P) = 1 (Sarig, ETDS
1999), with S_j and dist_j the weight and length of the chain from j to a.
Newton's method finds it from the max cycle mean in a few steps; log h = S -
dist P, and nu follows from the chain recurrences, leaves first. That is the
`first-return` path; `iterations` counts its Newton steps. Its answer must
pass the residual gate of power iteration on both sides.

Every other support, and a first-return answer that fails the gate, goes to
power iteration on B + sigma I (`_power_perron`, lone or a sweep's step),
the left side and then the right side (`_side`). The plain run is sigma =
0, averaged over d consecutive steps where d is the period of the support
of log B; the shifted run is sigma = e^{beta} <= lambda, beta the max cycle
mean of log B, with d = 1, from the max-plus gauge (Howard's max cycle
mean, then the critical graph). The tolerances (`_TOL`, `_RES_TOL`) and the
step budget (`_step_budget`) are fixed. Each side climbs one ladder of two
runs, iterations adding up over them:

- No gauge (pressure grids, single points, critical components): plain from
  the uniform vector; only if that stalls is the gauge of log B built, once
  per solve, and the shifted run started from it.
- With a gauge (zero-temperature sweeps) of cyclicity 1: plain, then
  shifted, both from the gauge.
- With a cyclic gauge (cyclicity c > 1): the peripheral spectrum of exp(t f)
  tends to lambda times the c-th roots of unity, so shifted from the gauge
  first, and only if that stalls plain from the uniform vector.

A side whose two runs both spend their budgets raises NoConvergence; no
solve returns an iterate that missed the gate (see `perron`).

A run goes linearly on the side's scaled kernel when the side has one and
the run starts from the gauge or is an ungauged plain run: every shifted
run of a gauged side, its plain run under cyclicity 1, and an ungauged plain
run. Every other run goes in the log domain, whose operator, log matrix and
period a side builds at its first such run. A linear iterate that leaves the
normal range (an entry below np.finfo(float).tiny) sends that run, and every
run after it, to the log domain, with the log-domain answer bit for bit. A
linear plain run needs no period: an ungauged side has a kernel only on a
support of period 1, and a gauged plain run comes first only under
cyclicity 1, whose critical components hold cycles of coprime lengths, and
the period divides every cycle length. An ungauged kernel is n x n and costs
n^2 a step, so an ungauged side has one only on a support whose edges fill
more than 1/_MIN_FILL of the cells (`_dense`); a gauged side has one on
every support, stored on its live cells:

- No gauge: on a dense support of period 1, K = exp(log B - m), m the largest
  entry of log B, from one exp in one buffer; the right side iterates on K,
  the left on K^T, with log lambda = m + log rho (`_scaled_kernels`). K
  needs every edge to keep a normal entry, that is the finite entries of
  log B to spread over at most _NORMAL_SPREAD = log(1/tiny), about 708: an
  edge that underflowed or went subnormal would change the matrix, and the
  residual gate, which reads K, would not see it. Where they spread wider,
  the solve builds the gauge of log B up front and becomes a lone gauged
  solve (`_power_perron`), whose reduced kernels are scaled at any spread.
- With a gauge: the reduced kernels K_r = exp(log B - t beta + t v_j - t
  v_i) on the right and K_l = exp(log B^T - t beta + t u_j - t u_i) on the
  left. Their exponent E (the one at t = 1; the kernel is exp(t E)) is 0
  up to the rounding of its sums: E <= 2 eps s on every edge and E >= -2
  eps s on each row's best edge, with eps = 2^-52 and s = |logA_ij| + |b_i|
  + |b_j| + |beta| of the side's inputs (`_ReducedSide`); both signs occur,
  up to 8.9e-16 above 0 on `tests/custom_n512.cfg`. So K is scaled at any
  t, and as t grows K tends entrywise to the critical adjacency (Akian,
  Bapat and Gaubert, C. R. Acad. Sci. Paris 1998), so at large t almost
  every cell lies below the normal range, and at every t thousands of a
  full shift's cells pass through the subnormal band on their way to +0.0.
  A side keeps its live cells, those with t E >= -_NORMAL_SPREAD, whose
  exp is a normal float, and every other cell of K is an exact zero: like
  an ungauged K, a gauged one holds only normal floats and zeros, at every
  n and on either storage. Where numpy's exp returns a subnormal it costs
  about 100 times a normal result, and a matvec over subnormal entries
  about 3 times one over zeros. K is so not fl(exp(t E)) but that matrix
  without its entries below 2^-1022. Every row of K reaches exp(-2 eps t
  s), so rho >= exp(-2 eps t max s), and at K's reduced Perron vector x
  the Collatz-Wielandt bound gives that log rho moves by about n 2^-1022
  max x / min x at most (the spread is at most 800 on the sweeps of the
  tests); the residual gate certifies the matrix the iteration runs on. A
  side stores K as a row-sorted edge list of its live cells (`_LiveKernel`, an
  application is one gather, one multiply and one np.add.reduceat) where
  they fill at most 1/_LIVE_FILL of the cells, and n x n (`_ReducedKernel`,
  from one exp of the matrix) otherwise. Every row keeps its best cell, so
  a side of fewer than _LIVE_FILL symbols is n x n without a count. A sweep
  builds each side's t-free exponent E = (W + v_j) - (v_i + beta) once
  (`_ReducedSide`, from W and f's own gauge; the left one from W^T and u),
  and a step to the next t costs one multiply t E and one exp per side, in
  one buffer the two sides share (`GaugedSweep`). The live cells only
  shrink as t grows, so at a t above that of a side's last edge list the
  side filters that list instead of passing over E. A lone gauged `perron`
  builds E from log B and the scaled gauge and takes t = 1. Both storages
  hold the same entries, so only the summation order of a matvec can move
  a last ulp. For t a power of two (every default t of the sweeps), t E
  equals the lone exponent (t W + t v_j) - (t v_i + t beta) bit for bit
  unless an intermediate is subnormal, so the sweep and per-t solves agree
  bit for bit; between powers of two they may differ in the last ulp of an
  exponent. The uniform start is the gauge start t v (t u) in reduced
  coordinates: log h = log h~ + t v, log nu = log nu~ + t u and log lambda
  = t beta + log rho. The left side is reduced by u, not by v: the left
  vector of K_r^T is nu e^{t v}, whose smallest entry on the planted
  12-symbol model of the tests is 2e-188 of its largest at t = 128 and
  underflows at t = 256, while nu e^{-t u} stays above 0.6 of its largest
  at every t of the sweep.

When the right side converged linearly, its kernel becomes the chain of
`equilibrium` (P_ij = K_ij x_j, rows renormalized), which so needs no exp
of its own; in a sweep that chain is the buffer the two sides share (an
edge list's chain is scattered into it after zeroing it), so a sweep's
measure is valid until the sweep's next t.

The gauge is linear in t: beta, v and u of t f are t times those of f, so a
sweep computes them once from f's critical decomposition and rescales. A
sweep reads its support once, from W: supports of at most 2n - 1 edges
(which the first-return path may take) solve each t by `perron` on t W,
and t W is formed for the others only when a side hands over to the log
domain, once per such side: the right side's t W also gives the chain.

Each side of a log-domain run builds its transfer operator, the map
logv -> log(B exp(logv)), once: a CSR log-sum-exp over the finite entries
of its matrix (`_CsrLogOperator`), on sparse and dense supports alike; a
row without a finite entry, as the transpose of a reducible support has,
maps to -inf. The log-sum-exps reduce like ``scipy.special.logsumexp``
(each maximum counted apart, the rest through log1p), as do the scalar
reductions, so gibbsline needs numpy only. They subtract a maximum only
from the entries below it, so they never form -inf - (-inf) and need no
np.errstate. The residual of an iterate is read from the application that
computes the next one, so a side on a period-1 support applies its
operator iterations + 1 times.

At the small n of the bundled configs a step costs its numpy calls rather
than its arithmetic. A log-domain step is one application, one log-sum-exp
for the normalizer s and one masked minimum for the convergence scale (a
normalized iterate is <= 0), with d = 1 the eigenvalue estimate s itself,
and each of these is several numpy calls. A linear step is one matvec, one
sum, one division and one minimum. That is why sides go linear: on dense
supports those are the sweeps and most of the bundled configs' pressure
grids and critical components, and on a sparse one a log-domain step pays
an exp and a log per edge, more than a matvec of n^2 cells up to n = 512.

Every exponential of a difference to a maximum (`_exp_below`, under the
log-sum-exps and the CSR kernel) and the log-domain chain of `equilibrium`
call exp only on the entries whose result is not +0.0 (`_exp_nonzero`,
np.exp bit for bit), and the reduced kernels only on their live cells. The
log-domain users keep their subnormals: a log-sum-exp of 0 and a subnormal
is that subnormal's log, not -inf. At large t nearly every cell of a full
shift underflows: at t = 64 on the 511-symbol `tie_two_loops` truncation,
255,532 of the 261,121 cells of the log-domain chain do. numpy 2.4's exp
took about 0.25 ms on 511 x 511 normal arguments, 1.7-1.9 ms on -inf and
5.9 ms on arguments that underflow, so the zero-temperature sweep spent
most of its exponential time there. The mask costs a few passes over bools
and three more numpy calls, so arrays of fewer than _MASK_MIN entries (the
vectors, and every array of the bundled n <= 10 and the 12-symbol custom
models) take np.exp on every entry.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field, replace
from functools import partial

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
_TINY = float(np.finfo(np.float64).tiny)
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
    chain is (log B, P) when a solve built the equilibrium chain P of the
    matrix log B it solved from its right scaled kernel, on which that side
    converged linearly (a gauged solve's reduced kernel, or an ungauged
    solve's exp(log B - m); see `perron`), else None.
    """

    log_lambda: float
    log_h: np.ndarray
    log_nu: np.ndarray
    iterations: int
    residual: float
    path: str
    chain: tuple[np.ndarray, np.ndarray] | None = field(default=None, repr=False, compare=False)


@dataclass(frozen=True, eq=False)
class MarkovMeasure(AlphabetIndexed):
    """Stationary Markov chain (P, pi) over a truncation alphabet."""

    stochastic: np.ndarray
    stationary: np.ndarray
    alphabet: np.ndarray


def transfer_matrix(trunc: Truncation, f: MarkovPotential, t: float) -> np.ndarray:
    """log B with entries t*f(i, j) on admissible edges, -inf elsewhere.

    Built in place in f's value grid. f is finite where it is defined, so
    t*f is NaN on an edge exactly where f is undefined there.
    """
    inc = trunc.require_incidence()
    logB = f.value_grid(trunc.alphabet, trunc.alphabet)
    logB *= t
    np.copyto(logB, _NEG_INF, where=~inc)
    if np.isnan(logB.max()):
        raise ValidationError("potential undefined on an admissible edge of the truncation")
    return logB


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


# np.exp rounds every argument below -745.14 (the log of 2^-1075, half the
# smallest subnormal) and -inf to +0.0: exp(-746) is 1.04e-324, below half
# the smallest subnormal (2.47e-324), so it rounds to +0.0
_EXP_ZERO = -746.0
# np.exp(-_NORMAL_SPREAD) is still a normal float (2.2250738585072626e-308
# against np.finfo(float).tiny = 2.2250738585072014e-308), and so is the exp
# of every larger argument
_NORMAL_SPREAD = -math.log(_TINY)
# below this many entries the mask's three extra numpy calls cost more than
# the exps it skips: on a 2-vCPU x86-64 VM with numpy 2.4, n x n arrays with
# 97% of the entries underflowing took 5.6 / 8.4 / 30 us unmasked against
# 8.9 / 8.5 / 7.6 us masked at n = 8 / 16 / 32, and with no entry
# underflowing the mask cost about 5 us more at each of these n
_MASK_MIN = 1024


def _exp_nonzero(x: np.ndarray, dead: np.ndarray | None = None) -> np.ndarray:
    """np.exp(x) in place, bit for bit.

    From _MASK_MIN entries on, exp is called only on the entries at or
    above _EXP_ZERO; the others (-inf among them) are set to +0.0 without
    one. NaN entries stay live, so a NaN propagates. `dead` is
    np.less(x, _EXP_ZERO), if the caller has it, or a mask of more entries
    to set to +0.0 (a reduced kernel's, at -_NORMAL_SPREAD); it is
    overwritten, and below _MASK_MIN entries it is not read.
    """
    if x.size < _MASK_MIN:
        return np.exp(x, out=x)
    if dead is None:
        dead = np.less(x, _EXP_ZERO)
    np.copyto(x, 0.0, where=dead)
    return np.exp(x, out=x, where=np.logical_not(dead, out=dead))


def _log_total(rest: np.ndarray, count: np.ndarray, top: np.ndarray) -> np.ndarray:
    # top + log(count * exp(0) + rest): the count maxima and the rest below them
    return np.log1p(rest / count) + np.log(count) + top


class _CsrLogOperator:
    """logv -> log(exp(logA) @ exp(logv)) over the finite entries of logA.

    The entries are stored row by row with int32 indices. A row without a
    finite entry maps to -inf; where every row holds one, as on an
    irreducible support, the rows are reduced as they stand.
    """

    def __init__(self, logA: np.ndarray, finite: np.ndarray, edges: tuple[np.ndarray, np.ndarray] | None = None):
        # edges: (rows, cols) of the finite cells in row order, if known
        self.n = logA.shape[0]
        rows, cols = np.divmod(np.flatnonzero(finite), self.n) if edges is None else edges
        self.vals = logA[rows, cols]
        self.cols = cols.astype(np.int32)
        sizes = np.bincount(rows, minlength=self.n)
        # only the rows that hold an entry are reduced, each entry indexed by
        # its row's rank among them; held lists them where some row holds
        # none, and is None otherwise
        self.held = None if sizes.all() else np.flatnonzero(sizes)
        if self.held is None:
            self.rows, held = rows.astype(np.int32), np.arange(self.n)
        else:
            held = self.held
            self.rows = np.repeat(np.arange(held.size, dtype=np.int32), sizes[held])
        self.starts = np.searchsorted(rows, held).astype(np.int32)

    def __call__(self, logv: np.ndarray) -> np.ndarray:
        z = self.vals + logv[self.cols]
        top = np.maximum.reduceat(z, self.starts)
        top_z = top[self.rows]
        at_top = z == top_z
        count = np.add.reduceat(at_top, self.starts, dtype=np.int64)
        out = _log_total(np.add.reduceat(_exp_below(z, top_z, at_top, z), self.starts), count, top)
        if self.held is None:
            return out
        full = np.full(self.n, _NEG_INF)
        full[self.held] = out
        return full


# an ungauged scaled kernel is stored n x n and costs n^2 a step, while the
# log-domain CSR operator costs its edges, so an ungauged side steps linearly
# only where the edges fill enough of the cells (a gauged side stores its
# kernel on its live cells instead, see _LIVE_FILL). On a 2-vCPU x86-64 VM
# with numpy 2.4 and one BLAS thread, an ungauged perron on a Hamiltonian
# cycle, a loop and random further edges took, in ms, on the scaled kernel /
# in the log domain (equal iterations):
#     fill    n = 256       n = 512       n = 1024
#     1/32    2.7 / 10.2    6.6 / 12.7    34.9 / 45.7
#     1/64    3.8 / 13.6    7.4 / 12.3    39.5 / 40.1
#     1/128   8.0 / 24.4    11.6 / 19.4   47.2 / 40.7
#     1/256                 28.0 / 35.5   66.2 / 47.2
# An ungauged side takes the kernel above 1/128: one fill for every n, so it
# passes up n = 512 at 1/256 and takes n = 1024 at 1/128. There the live
# cells are the edges, and an edge-list kernel measured no faster.
_MIN_FILL = 128


def _dense(finite: np.ndarray) -> bool:
    """Whether the edges of the support `finite` fill more than 1/_MIN_FILL
    of its cells, so that a side on it steps on an n x n scaled kernel."""
    return _MIN_FILL * np.count_nonzero(finite) > finite.size


# a gauged side's kernel at t is an edge list where its live cells fill at
# most 1/_LIVE_FILL of the cells, and n x n otherwise. On a 2-vCPU x86-64 VM
# (Intel Xeon) with numpy 2.4 and one BLAS thread, the tie_two_loops sweep
# over ZT_TS_DEFAULT at n = 511 (live cells 1/1.7 of the matrix at t = 2,
# 1/11.9 at t = 16, 1/23.5 at t = 32, 1/255.5 from t = 256 on) took, in ms,
# medians [quartiles] of 21 interleaved rounds:
#     _LIVE_FILL   4             8             16            32
#                  16.3 [16, 17] 16.1 [16, 17] 17.0 [17, 18] 18.2 [18, 19]
#     _LIVE_FILL   64            n x n only
#                  19.6 [19, 20] 35.2 [34, 36]
# An edge list saves the passes over the matrix and the exps of the dead
# cells, and a sweep filters its list at the next t. The sparse n = 512
# custom sweep (edges in 1/128.4 of the cells) took 55.6 ms on edge lists
# against 214 ms on n x n kernels.
_LIVE_FILL = 16


class _ReducedSide:
    """The exponent of one side's reduced kernels, built once for every t.

    logA is the side's matrix (log B or its transpose for a lone solve, the
    weight matrix W or its transpose for a sweep), finite its support, b its
    max-plus eigenvector (v on the right, u on the left) and beta its max
    cycle mean. The exponent E = (logA + b_j) - (b_i + beta) is 0 up to
    the rounding of its sums: E <= 2 eps s on every edge and E >= -2 eps s
    on each row's best edge, s = |logA_ij| + |b_i| + |b_j| + |beta| and eps
    = 2^-52. The side's reduced kernel at t is exp(t E) on its live cells,
    those whose exp is a normal float, and 0 elsewhere (`kernel`): n x n in
    `out` (E itself unless given), or an edge list whose chain is scattered
    into `out`. A lone solve takes t
    = 1, a sweep the t of its step; a sweep side keeps its last edge list,
    with its t, for the next t. For t a power of two, t E is the exponent
    (t logA + t b_j) - (t b_i + t beta) of a lone solve on t logA with the
    gauge scaled by t, bit for bit, unless an intermediate is subnormal:
    scaling by 2^k commutes with rounding.
    """

    def __init__(self, logA: np.ndarray, finite: np.ndarray, bias: np.ndarray, beta: float, out=None):
        E = np.add(logA, bias[None, :])
        E -= (bias + beta)[:, None]
        self.E, self.logA, self.finite = E, logA, finite
        self.out = E if out is None else out
        # (t, rows, cols, E on them) of the last edge-list kernel, else None
        self.live = None

    def kernel(self, t: float, gauge: MaxPlusGauge, warm_start) -> _ReducedKernel | _LiveKernel:
        """The side's reduced kernel at t on its live cells, those with t E
        >= -_NORMAL_SPREAD, whose exp is a normal float; every other cell is
        0, so the kernel holds no subnormal, and log rho is that of exp(t E)
        within n 2^-1022 max x / min x, x the reduced Perron vector (see the
        module docstring). n x n in its buffer, from one multiply and one exp,
        or an edge list where the live cells fill at most 1/_LIVE_FILL of
        the cells. At a t above that of its last edge list, the side filters
        that list instead of passing over E. gauge is the max-plus gauge of
        t logA."""
        bias, scale = warm_start(gauge), gauge.beta
        if self.live is not None and t > self.live[0]:
            # the live cells at t are live at every smaller t
            _, rows, cols, E = self.live
            keep = np.greater_equal(E * t, -_NORMAL_SPREAD)
            rows, cols, E = rows[keep], cols[keep], E[keep]
        else:
            tE = np.multiply(self.E, t, out=self.out)
            # every row keeps its best cell, so below _LIVE_FILL symbols the
            # live cells fill more than 1/_LIVE_FILL without a count
            dead = None if tE.shape[0] < _LIVE_FILL else np.less(tE, -_NORMAL_SPREAD)
            if dead is None or _LIVE_FILL * (dead.size - np.count_nonzero(dead)) > dead.size:
                self.live = None
                K = _exp_nonzero(tE, dead)
                if dead is None or K.size < _MASK_MIN:
                    # _exp_nonzero did not skip the cells below the normal range
                    np.copyto(K, 0.0, where=K < _TINY)
                return _ReducedKernel(K, bias, scale)
            rows, cols = np.divmod(np.flatnonzero(np.logical_not(dead, out=dead)), dead.shape[0])
            E = self.E[rows, cols]
        self.live = (t, rows, cols, E)
        tE = E * t
        return _LiveKernel(rows, cols, np.exp(tE, out=tE), bias, scale, self.out)

    def log_matrix(self, t: float) -> np.ndarray:
        """t logA, the side's matrix for the log domain (formed on a handover only)."""
        return t * self.logA


class _ReducedKernel:
    """x -> K x for an n x n scaled kernel K_ij = exp(logA_ij + b_j - b_i - c) of one side.

    A gauged side has bias b = t v (or t u) and scale c = t beta
    (`_ReducedSide.kernel`, where its live cells fill more than
    1/_LIVE_FILL of the cells); an ungauged one has b = 0 and c the largest
    entry of log B (`_scaled_kernels`). On a gauged side every entry of K
    is at most exp(2 eps t s) and every row reaches exp(-2 eps t s) (see
    `_ReducedSide`), and the largest entry of K is 1 on an ungauged one, so
    a linear power iteration on K needs no log domain: its Perron vector is
    h e^{-b} (or nu e^{-b}) and its Perron root lambda e^{-c}.
    """

    def __init__(self, K: np.ndarray, bias: np.ndarray | float, scale: float):
        self.n = K.shape[0]
        self.K, self.bias, self.scale = K, bias, scale
        self.apply = K.__matmul__

    def chain(self, x: np.ndarray) -> np.ndarray:
        """The stochastic matrix K_ij x_j / sum_j K_ij x_j, built in the
        kernel's buffer, so the kernel serves no further application."""
        P = self.K
        P *= x[None, :]
        P /= P.sum(axis=1, keepdims=True)
        return P


class _LiveKernel:
    """x -> K x for a gauged side's reduced kernel stored on its live cells.

    rows, cols and vals list the live cells of K, whose entries are normal
    floats (every other cell is 0), row by row; every row holds one, its
    best cell, so an application is one gather, one multiply and one
    np.add.reduceat.
    bias and scale are those of `_ReducedKernel`, and out is the side's n x
    n buffer, into which the chain is scattered.
    """

    def __init__(self, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, bias: np.ndarray, scale: float, out):
        self.n = out.shape[0]
        self.rows, self.cols, self.vals, self.bias, self.scale, self.out = rows, cols, vals, bias, scale, out
        self.starts = np.searchsorted(rows, np.arange(self.n))

    def apply(self, x: np.ndarray) -> np.ndarray:
        return np.add.reduceat(self.vals * x[self.cols], self.starts)

    def chain(self, x: np.ndarray) -> np.ndarray:
        """The stochastic matrix K_ij x_j / sum_j K_ij x_j, zero off the live
        cells, in the side's buffer."""
        p = self.vals * x[self.cols]
        p /= np.add.reduceat(p, self.starts)[self.rows]
        P = self.out
        P.fill(0.0)
        P[self.rows, self.cols] = p
        return P


def _scaled_kernels(logB: np.ndarray, top: float) -> tuple[_ReducedKernel, _ReducedKernel]:
    """The right and left kernels of an ungauged solve, K = exp(log B - top)
    and K^T, top the largest entry of log B, from one exp in one buffer.
    The caller has checked that every edge of K is a normal float
    (`_power_perron`).
    """
    K = _exp_nonzero(np.subtract(logB, top))
    return _ReducedKernel(K, 0.0, top), _ReducedKernel(K.T, 0.0, top)


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


def _settled_estimate(mean: float, mean_prev: float, scale: float, log_sigma: float, it: int) -> float | None:
    """The eigenvalue estimate log(exp(mean) - sigma) of step `it`, or None.

    An estimate is taken once consecutive means differ by less than _TOL,
    floored at 4 ulp of scale (the step's largest magnitude), and at every
    32nd step in any case; never while mean <= log sigma.
    """
    if (abs(mean - mean_prev) < max(_TOL, 4.0 * _EPS * scale) or (it + 1) % 32 == 0) and mean > log_sigma:
        return mean + math.log1p(-math.exp(log_sigma - mean))
    return None


def _gate(*scales: float) -> float:
    """The residual an iterate must beat: _RES_TOL, floored at 8 ulp of the
    largest of 1 and the magnitudes in scales."""
    return max(_RES_TOL, 8.0 * _EPS * max(1.0, *scales))


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
        est = _settled_estimate(mean, mean_prev, scale, log_sigma, it)
        if est is not None:
            gate = _gate(scale, abs(est))
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


class _LeftNormalRange(Exception):
    """An iterate of a linear power iteration fell below the normal range."""

    def __init__(self, iterations: int):
        super().__init__(iterations)
        self.iterations = iterations


def _linear_iteration(
    kernel: _ReducedKernel | _LiveKernel, shifted: bool, max_iter: int
) -> tuple[np.ndarray | None, float, int, float]:
    """`_power_iteration` with d = 1 on a scaled kernel K, in the linear domain.

    Iterates on K (or K + I when shifted, the shifted run in reduced
    coordinates, where sigma = e^{t beta} becomes 1) from the uniform
    vector, which is the gauge's start t b in reduced coordinates (and an
    ungauged side's start). Returns (x, log_lambda, iters, residual) with x
    the reduced Perron vector (log_lambda is c + log rho, c the kernel's
    scale), or x None when the budget ran out, the residual then being the
    smallest one seen. The estimates, their checks and the gate are those
    of `_power_iteration`: the residual is the same log-domain residual,
    max |log(K x) - log rho - log x|, and the gate's ulp floor takes the
    scale of the lifted vector log x + b and of the lifted estimate. An
    iterate with an entry below the normal range (or a NaN, from an
    overflow) raises _LeftNormalRange.
    """
    apply, bias, scale = kernel.apply, kernel.bias, kernel.scale
    x = np.full(kernel.n, 1.0 / kernel.n)
    log_sigma = 0.0 if shifted else _NEG_INF
    mean_prev = math.nan
    best = math.inf
    pending = None  # (estimate, gate) of iterate `it`, checked by its application
    for it in range(max_iter + 1):
        Kx = apply(x)
        if pending is not None:
            est, gate = pending
            # a zero entry of K x (a row whose kernel entries underflowed)
            # gives an infinite residual, which fails the gate
            with np.errstate(divide="ignore"):
                log_kx = np.log(Kx)
            res = float(np.max(np.abs(log_kx - est - np.log(x))))
            if res < gate:
                return x, scale + est, it, res
            best = min(best, res)
            pending = None
        if it == max_iter:
            break
        if shifted:
            Kx += x
        s = float(np.add.reduce(Kx))
        x = np.divide(Kx, s, out=Kx)
        low = float(np.minimum.reduce(x))
        if not low >= _TINY:
            raise _LeftNormalRange(it + 1)
        mean = math.log(s)
        est = _settled_estimate(mean, mean_prev, max(1.0, abs(mean), -math.log(low)), log_sigma, it)
        if est is not None:
            lifted = np.log(x) + bias
            lifted -= _logsumexp(lifted)
            pending = (est, _gate(abs(scale + mean), abs(scale + est), -float(lifted.min())))
        mean_prev = mean
    return None, math.nan, max_iter, best


def _side(
    kernel: _ReducedKernel | _LiveKernel | None, log_matrix, finite: np.ndarray, period: int | None,
    gauge: MaxPlusGauge | None, warm_start, gauge_of_logA, max_iter: int,
) -> tuple[tuple[np.ndarray, float, int, float, str], tuple[_ReducedKernel | _LiveKernel | None, np.ndarray]]:
    """Perron vector of one side, by the ladder of the module docstring.

    Returns ((log_vec, log_lambda, iterations, residual, path), (kernel, x))
    when a linear run on `kernel` converges, x the kernel's Perron vector,
    and (answer, (None, logA)) when the side finished in the log domain on
    logA = log_matrix(), formed only then. finite is logA's support and
    period its period, or None to read it on a handover; gauge is the
    max-plus gauge of logA, or None, and then `gauge_of_logA` builds it for
    the shifted run; warm_start maps a gauge to its start (v or u). The path
    names the run that converged; when neither does, NoConvergence carries
    the iterations spent and the smallest residual.
    """
    cyclic = gauge is not None and gauge.cyclicity > 1
    # how many leading runs may go linearly: both from a gauge of cyclicity
    # 1, the first otherwise (a cyclic gauge's shifted run, or plain without one)
    linear = 0 if kernel is None else 2 if gauge is not None and not cyclic else 1
    op = logA = None
    spent, best = 0, math.inf
    for rung, path in enumerate(("shifted", "plain") if cyclic else ("plain", "shifted")):
        shifted = path == "shifted"
        if rung < linear:
            try:
                x, est, it, res = _linear_iteration(kernel, shifted, max_iter)
            except _LeftNormalRange as exc:
                spent += exc.iterations
                linear = 0
            else:
                spent += it
                if x is not None:
                    return (np.log(x) + kernel.bias, est, spent, res, path), (kernel, x)
                best = min(best, res)
                continue
        if op is None:
            logA = log_matrix()
            op = _CsrLogOperator(logA, finite)
            if period is None:
                period = graph_period(finite)
        if shifted:
            if gauge is None:
                gauge = gauge_of_logA()
            logv, est, it, res = _power_iteration(op, _normalized(warm_start(gauge)), 1, gauge.beta, max_iter)
        else:
            if period > 1:
                path = "period-averaged"
            start = np.full(op.n, -math.log(op.n)) if gauge is None or cyclic else _normalized(warm_start(gauge))
            logv, est, it, res = _power_iteration(op, start, period, _NEG_INF, max_iter)
        spent += it
        if logv is not None:
            return (logv, est, spent, res, path), (None, logA)
        best = min(best, res)
    raise NoConvergence(spent, best)


def perron(logB: np.ndarray, gauge: MaxPlusGauge | None = None) -> PerronData:
    """Perron data of an irreducible log-domain matrix.

    A 1 x 1 loop is its own answer. A support on which one vertex meets
    every cycle is solved from its first-return equation; any other support,
    and a first-return answer that fails the residual gate, by power
    iteration. `gauge` is the max-plus gauge of logB itself (for log B = t
    f, the gauge of f scaled by t). Where the right side converged on a
    scaled kernel, the solve returns the equilibrium chain with the Perron
    data (`PerronData.chain`, which `equilibrium` uses for this logB only).
    See the module docstring for the solver paths and the ladder.

    The answer either passes the residual gate on both sides or the solve
    raises NoConvergence. An iterate that misses the gate pins lambda to its
    residual, but h and nu only to residual / spectral gap, and the
    iteration stalls only where the gap is small, so such an iterate is
    never returned.
    """
    if logB.shape == (1, 1) and math.isfinite(logB[0, 0]):
        # the loop alone: the first-return answer without its passes (which
        # add the chain weight 0.0 to the loop, so -0.0 comes out as 0.0)
        return PerronData(float(logB[0, 0] + 0.0), np.zeros(1), np.zeros(1), 0, 0.0, "first-return")
    finite = np.isfinite(logB)
    pd = _first_return(logB, finite)
    if pd is not None:
        return pd
    pd, (kernel, x) = _power_perron(logB, finite, gauge)
    return pd if kernel is None else replace(pd, chain=(logB, kernel.chain(x)))


def _may_be_first_return(finite: np.ndarray) -> bool:
    """Whether the support `finite` has at most 2n - 1 edges, as a support
    of `_first_return` has: one out of each vertex but the hub, and at most
    n out of the hub."""
    return np.count_nonzero(finite) <= 2 * finite.shape[0] - 1


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
    if not _may_be_first_return(finite):
        return None
    n = logB.shape[0]
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
        if not res < _gate(abs(P), float(np.max(np.abs(logv)))):
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


def _step_budget(n: int) -> int:
    # 100 * n with a floor: tiny alphabets can still carry nearly reducible
    # supports whose spectral gap is independent of n
    return max(100 * n, 3000)


# a gauge's start on the left side and on the right side
_STARTS = (lambda g: g.u, lambda g: g.v)


def _power_perron(
    logB: np.ndarray | None, finite: np.ndarray | None, gauge: MaxPlusGauge | None = None,
    sides: tuple[_ReducedSide, _ReducedSide] | None = None, t: float = 1.0,
) -> tuple[PerronData, tuple[_ReducedKernel | _LiveKernel | None, np.ndarray]]:
    """Perron data by power iteration, the left side and then the right side
    through `_side`, and the right side's (kernel, x) or (None, logA) for
    the chain. A lone solve passes logB, finite = np.isfinite(logB) and its
    gauge, if any; a sweep's step the gauge of t W, the sweep's sides and t.
    A gauged side iterates on its reduced kernel on any support, and an
    ungauged one of period 1 on K or K^T where `_dense` accepts the support
    and the finite entries of log B spread over at most _NORMAL_SPREAD;
    where they spread wider, the solve builds the gauge of log B up front
    and is a lone gauged solve. Left goes first: a sweep's right kernel is
    then the last one built in the buffer the sides share, and an ungauged
    chain, built in K, waits for K^T.
    """
    if sides is None and gauge is not None:
        sides = (_ReducedSide(logB.T, finite.T, gauge.u, gauge.beta), _ReducedSide(logB, finite, gauge.v, gauge.beta))
    if sides is not None:
        n, period, gauge_of_logA = sides[1].E.shape[0], None, None
        # each kernel is built when its side's turn comes
        runs = (
            (side.kernel(t, gauge, start), partial(side.log_matrix, t), side.finite, start)
            for side, start in zip(sides, _STARTS)
        )
    else:
        n, period = logB.shape[0], graph_period(finite)
        scaled = period == 1 and _dense(finite)
        if scaled:
            top = float(logB.max())
            if top - float(logB.min(where=finite, initial=math.inf)) > _NORMAL_SPREAD:
                # an edge of exp(log B - top) would not be a normal float
                return _power_perron(logB, finite, gauge_of(logB))
        right, left = _scaled_kernels(logB, top) if scaled else (None, None)
        found: list[MaxPlusGauge] = []

        def gauge_of_logA() -> MaxPlusGauge:
            # built at most once per solve, by whichever side stalls first
            if not found:
                found.append(gauge_of(logB))
            return found[0]

        runs = ((left, lambda: logB.T, finite.T, _STARTS[0]), (right, lambda: logB, finite, _STARTS[1]))
    max_iter = _step_budget(n)
    ((lognu, est_l, it_l, res_l, path_l), _), ((logh, est_r, it_r, res_r, path_r), reduced) = (
        _side(kernel, log_matrix, side_finite, period, gauge, start, gauge_of_logA, max_iter)
        for kernel, log_matrix, side_finite, start in runs
    )
    logh = _normalized(logh)
    lognu = lognu - _logsumexp(lognu + logh)
    residual = max(res_r, res_l, abs(est_r - est_l))
    path = max(path_r, path_l, key=PATHS.index)
    return PerronData(float(0.5 * (est_r + est_l)), logh, lognu, it_r + it_l, float(residual), path), reduced


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
    return gurevich_estimates(trunc, f, t, a, (n,))[0]


def gurevich_estimates(
    trunc: Truncation, f: MarkovPotential, t: float, a: int, ns: tuple[int, ...]
) -> tuple[float, ...]:
    """`gurevich_estimate` at each loop length of ns, from one run of max(ns)
    steps: the run to length n is the first n steps of every longer one, so
    each estimate equals a run of its own bit for bit."""
    if min(ns) < 1:
        raise ValidationError("cycle length must be at least 1")
    idx = trunc.local_index()
    if a not in idx:
        raise ValidationError(f"symbol {a} not in the truncation alphabet")
    ai = idx[a]
    logB = transfer_matrix(trunc, f, t)
    op = _CsrLogOperator(logB, np.isfinite(logB))
    u = np.full(trunc.n_symbols, _NEG_INF)
    u[ai] = 0.0
    loops = {}
    for step in range(1, max(ns) + 1):
        u = op(u)
        loops[step] = float(u[ai])
    return tuple(loops[n] / n if math.isfinite(loops[n]) else -math.inf for n in ns)


def equilibrium(pd: PerronData, logB: np.ndarray, alphabet: np.ndarray | None = None) -> MarkovMeasure:
    """Equilibrium Markov chain P_ij = B_ij h_j / (lambda h_i), pi = nu*h.

    When pd carries the chain its solve built for this very logB (a solve
    builds it from its right scaled kernel without an exp), P is that
    array, and the measure takes it over; otherwise P is built here.
    """
    alphabet = np.arange(logB.shape[0], dtype=np.int64) if alphabet is None else alphabet
    return _measure(pd, _solved_chain(pd, logB), alphabet)


def _solved_chain(pd: PerronData, logB: np.ndarray) -> np.ndarray:
    """The equilibrium chain of logB: the one pd's solve built for this very logB, else built here."""
    if pd.chain is not None and pd.chain[0] is logB:
        return pd.chain[1]
    return _chain(pd, logB)


def _chain(pd: PerronData, logB: np.ndarray) -> np.ndarray:
    """P_ij = B_ij h_j / (lambda h_i), rows renormalized."""
    # log P = ((log B + log h_j) - log h_i) - log lambda, built in one buffer
    P = np.add(logB, pd.log_h[None, :])
    P -= pd.log_h[:, None]
    P -= pd.log_lambda
    _exp_nonzero(P)
    P /= P.sum(axis=1, keepdims=True)
    return P


def _measure(
    pd: PerronData, P: np.ndarray, alphabet: np.ndarray, index: dict[int, int] | None = None
) -> MarkovMeasure:
    """The measure of the chain P, with pi = nu*h polished against P.

    index, when given, is the `local_index` of `alphabet` (a truncation's),
    which the measure then shares instead of building its own.
    """
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
    m = MarkovMeasure(P, pi, np.asarray(alphabet, dtype=np.int64))
    if index is not None:
        object.__setattr__(m, "_local_index", index)
    return m


class GaugedSweep:
    """What a zero-temperature sweep on one truncation keeps from t to t.

    W is `transfer_matrix(trunc, f, 1.0)` and gauge the max-plus gauge of f
    (not of t*f) on the truncation; `equilibrium_measure(trunc, f, t,
    sweep)` solves t*f with the gauge scaled by t. `finite` is W's support,
    np.isfinite(W), as the caller has read it. Where it has more than 2n - 1
    edges (which the first-return path turns away, see
    `_may_be_first_return`), however sparse, both sides' exponents are
    built here once
    (`_ReducedSide`; the left one from W^T, which stays column-major, so
    that the left matvec keeps the BLAS path and the bits of a lone
    solve). Every t costs each side one multiply and
    one exp in one n x n buffer, or, where its live cells fill at most
    1/_LIVE_FILL of the cells, an edge list: built by one pass over E, or
    filtered from the side's last one at a larger t, with exps of the live
    cells only. The left side uses the buffer first, then the right side,
    whose kernel becomes the chain in the buffer (an edge list's scattered
    into it after zeroing it), so the chain needs no n x n array of its own
    and a measure of the sweep is valid until its next t. t W is formed only
    for a side that hands over to the log domain, and the right side's then
    gives the chain. Every other support (renewal truncations among them)
    solves each t by `perron` on t W (on transfer_matrix at t <= 0), as a
    lone gauged solve.
    """

    def __init__(self, W: np.ndarray, finite: np.ndarray, gauge: MaxPlusGauge):
        self.W, self.gauge = W, gauge
        self.sides = None
        if not _may_be_first_return(finite):
            buf = np.empty_like(W)
            self.sides = (
                _ReducedSide(W.T, finite.T, gauge.u, gauge.beta, buf.T),
                _ReducedSide(W, finite, gauge.v, gauge.beta, buf),
            )


def equilibrium_measure(
    trunc: Truncation, f: MarkovPotential, t: float, sweep: GaugedSweep | None = None
) -> tuple[float, MarkovMeasure]:
    """Convenience: pressure and equilibrium state of t*f on the truncation.

    `sweep` is the GaugedSweep of f on this truncation, when the caller
    steps through ts: the solve then takes its gauge scaled by t and, for
    t > 0, its reduced exponents or its weight matrix (t * W is
    `transfer_matrix(trunc, f, t)` bit for bit: 1.0 * x = x, t * -inf =
    -inf), and the measure is valid until the sweep's next t. Without it,
    or at t <= 0, the transfer matrix is built here.
    NoConvergence when the solve does not converge (see `perron`).
    """
    gauge = None if sweep is None else sweep.gauge.scaled(t)
    if sweep is not None and t > 0 and sweep.sides is not None:
        pd, (kernel, arg) = _power_perron(None, None, gauge, sweep.sides, t)
        # the right kernel, or the t W the right side handed over to
        P = _chain(pd, arg) if kernel is None else kernel.chain(arg)
    else:
        logB = transfer_matrix(trunc, f, t) if sweep is None or not t > 0 else t * sweep.W
        pd = perron(logB, gauge=gauge)
        P = _solved_chain(pd, logB)
    return pd.log_lambda, _measure(pd, P, trunc.alphabet, trunc.local_index())


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
