"""The log-domain transfer operators against scipy, and the solver built on them.

The reference kernel is the dense, row-chunked scipy log-sum-exp that the
operators replaced, and the reference solver the two power-iteration loops
(plain and shifted) that the single sigma-shifted loop replaced; both stay
here as oracles only.
"""

import dataclasses
import math
import os
import subprocess
import sys
from collections import deque
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq
from scipy.special import logsumexp

from conftest import gauged_sweep, log_domain_side, power_perron, sparse_aperiodic, step_budget, tied_period_3
from gibbsline import rpf_finite
from gibbsline.bundled import bundled_pair
from gibbsline.errors import NoConvergence, SolverError
from gibbsline.limits import ZT_TS_DEFAULT
from gibbsline.maxplus import gauge_of
from gibbsline.rpf_finite import (
    _CsrLogOperator,
    cylinder_mass,
    equilibrium_measure,
    gurevich_estimate,
    perron,
    pressure,
    transfer_matrix,
)
from gibbsline.shift_model import build_truncation, graph_period

NEG_INF = -np.inf
SRC = Path(__file__).resolve().parent.parent / "src"


def reference_log_matvec(logA: np.ndarray, logv: np.ndarray, chunk: int = 1024) -> np.ndarray:
    n = logA.shape[0]
    out = np.empty(n, dtype=np.float64)
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        with np.errstate(invalid="ignore"):
            out[lo:hi] = logsumexp(logA[lo:hi] + logv[None, :], axis=1)
    return out


class ReferenceOperator:
    """The scipy kernel in `_CsrLogOperator`'s place (its support arguments unread)."""

    def __init__(self, logA, finite=None, edges=None):
        self.logA = logA
        self.n = logA.shape[0]

    def __call__(self, logv):
        return reference_log_matvec(self.logA, logv)


def assert_close_to_reference(got: np.ndarray, ref: np.ndarray) -> None:
    assert np.array_equal(np.isneginf(got), np.isneginf(ref))
    finite = np.isfinite(ref)
    assert np.all(np.isfinite(got[finite]))
    # a different summation order moves the log by a few ulp of the row maximum
    assert np.all(np.abs(got[finite] - ref[finite]) <= 1e-14 * np.maximum(1.0, np.abs(ref[finite])))


@st.composite
def supports_and_vectors(draw):
    n = draw(st.integers(min_value=1, max_value=40))
    density = draw(st.sampled_from((0.05, 0.3, 0.7, 1.0)))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    spread = draw(st.sampled_from((1.0, 1e3)))
    finite = rng.random((n, n)) < density
    finite[np.arange(n), (np.arange(n) + 1) % n] = True  # no empty row
    logA = np.where(finite, rng.uniform(-spread, spread, (n, n)), NEG_INF)
    # ties between the largest terms of a row exercise the counted maxima
    if draw(st.booleans()):
        logA = np.where(finite, np.round(logA / spread * 3.0), NEG_INF)
    logv = rng.uniform(-spread, spread, n)
    logv[rng.random(n) < draw(st.sampled_from((0.0, 0.3, 0.9)))] = NEG_INF
    transpose = draw(st.booleans())
    return (logA.T if transpose else logA), logv


@settings(max_examples=150, deadline=None)
@given(supports_and_vectors())
def test_kernels_match_scipy_reference(case):
    logA, logv = case
    ref = reference_log_matvec(logA, logv)
    assert_close_to_reference(_CsrLogOperator(logA, np.isfinite(logA))(logv), ref)


@settings(max_examples=100, deadline=None)
@given(supports_and_vectors(), st.data())
def test_an_empty_row_maps_to_minus_infinity(case, data):
    """A row without a finite entry, the last one among them, gives -inf
    there, and every other row is reduced as scipy reduces it."""
    logA, logv = case
    row = data.draw(st.integers(0, logA.shape[0] - 1))
    logA = logA.copy()
    logA[row] = NEG_INF
    got = _CsrLogOperator(logA, np.isfinite(logA))(logv)
    assert got[row] == NEG_INF
    assert_close_to_reference(got, ReferenceOperator(logA)(logv))


def test_kernel_follows_the_support(monkeypatch, renewal_weighted, tie_two_loops):
    """Every log-domain side, on a sparse support (renewal) or a dense one
    (full shift), applies the CSR operator over exactly the finite entries
    of its matrix; an empty row, as the transpose of a reducible support
    has, maps to -inf."""
    built = []
    real = rpf_finite._CsrLogOperator
    monkeypatch.setattr(rpf_finite, "_CsrLogOperator", lambda *args, **kw: built.append(real(*args, **kw)) or built[-1])
    monkeypatch.setattr(rpf_finite, "_side", log_domain_side)
    for model, f in (renewal_weighted, tie_two_loops):
        logB = transfer_matrix(build_truncation(model, 63), f, 2.0)
        built.clear()
        power_perron(logB)
        assert len(built) == 2
        assert all(op.vals.size == np.count_nonzero(np.isfinite(logB)) and op.held is None for op in built)
    logA = np.full((4, 4), NEG_INF)
    logA[0, 1] = logA[1, 2] = logA[2, 0] = 0.0
    for M in (logA, logA.T):
        op = real(M, np.isfinite(M))
        assert op(np.zeros(4))[3] == NEG_INF


@pytest.mark.parametrize("name", ["log_quadratic", "tie_two_loops", "renewal_weighted"])
def test_log_lambda_matches_scipy_reference_on_bundled_models(name, monkeypatch):
    """The solves the zero-temperature sweeps make, on their reduced kernels,
    against the same solves run in the log domain on the scipy kernel and
    scipy's reductions, to 1e-12."""
    model, f = bundled_pair(name)
    for n in (7, 127, 511):
        tr = build_truncation(model, n - 1)
        assert tr.n_symbols == n
        gauge = gauged_sweep(tr, f).gauge
        for t in ZT_TS_DEFAULT:
            logB = transfer_matrix(tr, f, t)
            new = perron(logB, gauge=gauge.scaled(t))
            with monkeypatch.context() as m:
                m.setattr(rpf_finite, "_side", log_domain_side)
                m.setattr(rpf_finite, "_CsrLogOperator", ReferenceOperator)
                m.setattr(rpf_finite, "_logsumexp", lambda a, axis=None, out=None: logsumexp(a, axis=axis))
                ref = perron(logB, gauge=gauge.scaled(t))
            assert abs(new.log_lambda - ref.log_lambda) <= 1e-12, (n, t)


def reference_perron(logB, gauge=None):
    """perron run in the log domain alone, on the scipy kernel and scipy's reductions."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(rpf_finite, "_side", log_domain_side)
        m.setattr(rpf_finite, "_CsrLogOperator", ReferenceOperator)
        m.setattr(rpf_finite, "_logsumexp", lambda a, axis=None, out=None: logsumexp(a, axis=axis))
        return perron(logB, gauge=gauge)


@pytest.mark.parametrize("name", ["log_quadratic", "tie_two_loops"])
def test_ungauged_dense_log_lambda_matches_scipy_reference(name, monkeypatch):
    """The solves of pressure grids and single points against scipy, to
    1e-12: on the scaled kernel where the entries of log B spread over at
    most _NORMAL_SPREAD (about 708), else as a lone gauged solve on the
    reduced kernels, from the gauge of log B built up front. Either way the
    right side converges linearly and brings the chain."""
    model, f = bundled_pair(name)
    real_scaled, real_gauge = rpf_finite._scaled_kernels, rpf_finite.gauge_of
    for n in (7, 127, 511):
        tr = build_truncation(model, n - 1)
        for t in ZT_TS_DEFAULT:
            logB = transfer_matrix(tr, f, t)
            wide = logB.max() - logB.min() > rpf_finite._NORMAL_SPREAD
            routes = []
            with monkeypatch.context() as m:
                m.setattr(rpf_finite, "_scaled_kernels", lambda *args: routes.append("scaled") or real_scaled(*args))
                m.setattr(rpf_finite, "gauge_of", lambda W: routes.append("gauge") or real_gauge(W))
                new = perron(logB)
            assert routes == ["gauge" if wide else "scaled"] and new.chain is not None, (n, t)
            assert abs(new.log_lambda - reference_perron(logB).log_lambda) <= 1e-12, (n, t)


def test_dense_gauged_sides_build_one_kernel_each(monkeypatch, tie_two_loops):
    """The gauged full-shift solves at n = 511 over the default ts: every
    side builds one reduced kernel and iterates linearly on it, and no
    log-domain operator is built. Up to t = 16 the live cells (t E >=
    -_NORMAL_SPREAD, those whose exp is a normal float) fill more than 1/16
    of the matrix, and each kernel is n x n, from one n x n exp; from t = 32
    on each is an edge list, and only its live cells are exponentiated. The right kernel becomes the n x n chain,
    and equilibrium exponentiates no n x n array."""
    model, f = tie_two_loops
    tr = build_truncation(model, 510)
    n = tr.n_symbols
    gauge = gauged_sweep(tr, f).gauge
    counts = count_applications(monkeypatch)
    exps, kernels = [], []
    real_exp, real_live = rpf_finite._exp_nonzero, rpf_finite._LiveKernel
    monkeypatch.setattr(rpf_finite, "_exp_nonzero", lambda x, *dead: exps.append(x.shape) or real_exp(x, *dead))
    monkeypatch.setattr(rpf_finite, "_LiveKernel", lambda *args: kernels.append(args[2].size) or real_live(*args))
    for t in ZT_TS_DEFAULT:
        exps.clear()
        kernels.clear()
        logB = transfer_matrix(tr, f, t)
        pd = perron(logB, gauge=gauge.scaled(t))
        if t <= 16.0:
            assert exps.count((n, n)) == 2 and kernels == [], t
        else:
            assert exps.count((n, n)) == 0 and len(kernels) == 2 and rpf_finite._LIVE_FILL * max(kernels) <= n * n, t
        assert pd.chain is not None and pd.chain[1].shape == (n, n), t
        rpf_finite.equilibrium(pd, logB)
        assert exps.count((n, n)) == (2 if t <= 16.0 else 0), t
    assert counts == []


@pytest.mark.parametrize("name", ["log_quadratic", "tie_two_loops"])
def test_gurevich_estimate_from_a_delta_matches_scipy_reference(monkeypatch, name):
    """The loop sums start from a delta vector, whose -inf entries leave
    each row one finite term at the first application; they run on one CSR
    operator over the full shift's cells."""
    model, f = bundled_pair(name)
    tr = build_truncation(model, 126)
    counts = count_applications(monkeypatch)
    for t in (2.0, 1024.0):
        for loops in (12, 64):
            counts.clear()
            new = gurevich_estimate(tr, f, t, 0, loops)
            assert counts == [loops]
            with monkeypatch.context() as m:
                m.setattr(rpf_finite, "_CsrLogOperator", ReferenceOperator)
                ref = gurevich_estimate(tr, f, t, 0, loops)
            assert new == pytest.approx(ref, rel=1e-14, abs=1e-14), (t, loops)


def test_renewal_pressure_at_511_symbols_solves_the_first_return_equation(renewal_weighted):
    """Every loop of the renewal truncation returns through 0: the loop of
    length L weighs t (-L - L (L - 1) / 2), and P is the root of
    sum_{L <= n} exp(t w_L - L P) = 1."""
    model, f = renewal_weighted
    n, t = 511, 2.0
    tr = build_truncation(model, n - 1)
    assert tr.n_symbols == n
    L = np.arange(1, n + 1, dtype=np.float64)
    loops = t * (-L - L * (L - 1) / 2)
    root = brentq(lambda p: logsumexp(loops - L * p), -10.0, 10.0, xtol=1e-15, rtol=1e-15)
    assert pressure(tr, f, t) == pytest.approx(root, abs=1e-12)


def count_applications(monkeypatch):
    """Wrap every log-domain operator built from here on; returns the running
    list of call counts."""
    counts = []

    def counting(logA, finite, edges=None):
        op = _CsrLogOperator(logA, finite, edges)
        slot = len(counts)
        counts.append(0)

        def apply(logv):
            counts[slot] += 1
            return op(logv)

        apply.n = op.n
        return apply

    monkeypatch.setattr(rpf_finite, "_CsrLogOperator", counting)
    return counts


def count_reduced_applications(monkeypatch):
    """Count the applications of every reduced kernel perron builds."""
    counts = []
    real = rpf_finite._ReducedKernel.__init__

    def counting(kernel, *args):
        real(kernel, *args)
        slot = len(counts)
        counts.append(0)
        apply = kernel.apply

        def counted(x):
            counts[slot] += 1
            return apply(x)

        kernel.apply = counted

    monkeypatch.setattr(rpf_finite._ReducedKernel, "__init__", counting)
    return counts


class TestApplicationsPerIteration:
    """On period-1 supports the residual of each iterate is read from the
    application that computes the next one: a run of the iteration applies
    its operator iterations + 1 times, one application per side beyond the
    reported steps, instead of one more per residual check."""

    def test_plain_solve(self, monkeypatch, renewal_weighted):
        # the renewal truncation at n = 256 fills 511 of 65,536 cells, at
        # most 1/128, so both sides run in the log domain
        model, f = renewal_weighted
        logB = transfer_matrix(build_truncation(model, 255), f, 2.0)
        assert not rpf_finite._dense(np.isfinite(logB))
        counts = count_applications(monkeypatch)
        pd = power_perron(logB)
        assert pd.path == "plain"
        assert len(counts) == 2
        assert sum(counts) == pd.iterations + 2

    def test_sparse_plain_solve(self, monkeypatch):
        # the same on a sparse period-1 support whose edges fill more than
        # 1/128 of the cells and at most 1/32 (128 symbols): its plain runs
        # go linearly on the n x n kernel and it builds no log-domain operator
        W = sparse_aperiodic(128, np.random.default_rng(128))
        finite = np.isfinite(W)
        assert rpf_finite._dense(finite) and 32 * np.count_nonzero(finite) <= finite.size
        counts = count_applications(monkeypatch)
        kernels = count_reduced_applications(monkeypatch)
        pd = perron(2.0 * W)
        assert pd.path == "plain" and pd.chain is not None
        assert counts == [] and len(kernels) == 2
        assert sum(kernels) == pd.iterations + 2

    def test_gauged_sweep(self, monkeypatch, tie_two_loops):
        # a gauged solve iterates on one reduced kernel per side and builds
        # no log-domain operator; the linear run reads residuals the same way
        model, f = tie_two_loops
        tr = build_truncation(model, 11)
        gauge = gauged_sweep(tr, f).gauge
        counts = count_applications(monkeypatch)
        kernels = count_reduced_applications(monkeypatch)
        for t in ZT_TS_DEFAULT:
            before = len(kernels), sum(kernels)
            pd = perron(transfer_matrix(tr, f, t), gauge=gauge.scaled(t))
            assert len(kernels) - before[0] == 2
            assert sum(kernels) - before[1] == pd.iterations + 2, t
        assert counts == []

    def test_fallback_and_no_convergence(self, monkeypatch):
        # plain on the left kernel (the right kernel's transpose, built with
        # it), then shifted in the log domain, on the left side, which goes
        # first; each run ends at its budget, and the right kernel is never
        # applied
        logB = np.log(np.array([[1.0, 0.1], [0.1, 0.9]]))
        counts = count_applications(monkeypatch)
        kernels = count_reduced_applications(monkeypatch)
        with pytest.raises(NoConvergence) as exc, step_budget(96):
            perron(logB)
        assert len(counts) == 1 and len(kernels) == 2 and kernels[0] == 0
        assert sum(counts) + sum(kernels) == exc.value.iterations + 2

    def test_period_two_pays_for_its_window_checks(self, monkeypatch):
        logB = np.array([[NEG_INF, -0.7], [-2.3, NEG_INF]])
        counts = count_applications(monkeypatch)
        pd = power_perron(logB)
        assert pd.path == "period-averaged"
        assert sum(counts) > pd.iterations


def test_log_cylinder_mass_reads_the_word_only(renewal_weighted):
    model, f = renewal_weighted
    tr = build_truncation(model, 63)
    _, meas = equilibrium_measure(tr, f, 2.0)
    with np.errstate(divide="ignore"):
        logP, logpi = np.log(meas.stochastic), np.log(meas.stationary)
    for word in ((0,), (0, 5, 4, 3), (0, 0, 1, 0), (7, 6, 5, 4, 3, 2, 1, 0, 63), (3, 3)):
        total = logpi[word[0]]
        for a, b in zip(word, word[1:]):
            total += logP[a, b]
        expected = math.exp(total) if total > -math.inf else 0.0
        assert cylinder_mass(meas, word) == expected, word


def test_cli_import_loads_no_scipy():
    code = "import sys, gibbsline.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# the merged power iteration against the two loops it replaced

REF_TOL = 1e-13
REF_RES_TOL = 1e-12


def reference_plain_iteration(op, logv, d, tol, max_iter, res_tol):
    """The plain loop: estimate and vector averaged over the last d steps."""
    s_hist = deque(maxlen=d)
    v_hist = deque(maxlen=d)
    est_prev = math.nan
    best = (math.inf, None, math.nan)
    pending = None
    for it in range(max_iter + 1):
        u = op(logv)
        if pending is not None:
            est, gate = pending
            res = rpf_finite._residual(u, logv, est)
            if res < best[0]:
                best = (res, logv, est)
            if res < gate:
                return logv, est, it, res, best
            pending = None
        if it == max_iter:
            break
        s = float(rpf_finite._logsumexp(u))
        logv = u - s
        s_hist.append(s)
        v_hist.append(logv)
        if len(s_hist) < d:
            continue
        est = float(np.mean(s_hist))
        scale = max(1.0, abs(est), float(np.max(np.abs(logv[np.isfinite(logv)]))))
        if abs(est - est_prev) < max(tol, 4.0 * rpf_finite._EPS * scale) or (it + 1) % 32 == 0:
            gate = max(res_tol, 8.0 * rpf_finite._EPS * scale)
            if d == 1:
                pending = (est, gate)
            else:
                logw = rpf_finite._window_average(list(v_hist), list(s_hist), est)
                res = rpf_finite._residual(op(logw), logw, est)
                if res < best[0]:
                    best = (res, logw, est)
                if res < gate:
                    return logw, est, it + 1, res, best
        est_prev = est
    return None, math.nan, max_iter, best[0], best


def reference_shifted_iteration(op, logv, log_sigma, tol, max_iter, res_tol, best):
    """The shifted loop: iteration on B + sigma I, lambda = log(exp(s) - sigma)."""
    s_prev = math.nan
    pending = None
    for it in range(max_iter + 1):
        Av = op(logv)
        if pending is not None:
            est, gate = pending
            res = rpf_finite._residual(Av, logv, est)
            if res < best[0]:
                best = (res, logv, est)
            if res < gate:
                return logv, est, it, res, best
            pending = None
        if it == max_iter:
            break
        u = np.logaddexp(Av, log_sigma + logv)
        s = float(rpf_finite._logsumexp(u))
        logv = u - s
        scale = max(1.0, abs(s), float(np.max(np.abs(logv[np.isfinite(logv)]))))
        if (abs(s - s_prev) < max(tol, 4.0 * rpf_finite._EPS * scale) or (it + 1) % 32 == 0) and s > log_sigma:
            est = s + math.log1p(-math.exp(log_sigma - s))
            pending = (est, max(res_tol, 8.0 * rpf_finite._EPS * max(scale, abs(est))))
        s_prev = s
    return None, math.nan, max_iter, best[0], best


def reference_solve_side(op, d, gauge, warm_start, gauge_of_logA, max_iter):
    """The solver paths around the two loops; a cyclic gauge whose shifted
    run stalls falls back to the plain loop from the uniform vector."""
    n = op.n
    uniform = np.full(n, -math.log(n))
    plain = "plain" if d == 1 else "period-averaged"
    cyclic = gauge is not None and gauge.cyclicity > 1
    best = (math.inf, None, math.nan)
    spent = 0
    if not cyclic:
        start = uniform if gauge is None else rpf_finite._normalized(warm_start(gauge))
        logv, est, it, res, best = reference_plain_iteration(op, start, d, REF_TOL, max_iter, REF_RES_TOL)
        if logv is not None:
            return logv, est, it, res, plain
        spent = it
    if gauge is None:
        gauge = gauge_of_logA()
    start = rpf_finite._normalized(warm_start(gauge))
    logv, est, it, res, best = reference_shifted_iteration(
        op, start, gauge.beta, REF_TOL, max_iter, REF_RES_TOL, best
    )
    spent += it
    if logv is not None:
        return logv, est, spent, res, "shifted"
    if cyclic:
        logv, est, it, res, best_plain = reference_plain_iteration(op, uniform, d, REF_TOL, max_iter, REF_RES_TOL)
        spent += it
        if logv is not None:
            return logv, est, spent, res, plain
        if best_plain[0] < best[0]:
            best = best_plain
    # the loops kept the best iterate, which the solve once returned at a
    # residual <= 1e-10; a solve that stalls now raises
    raise rpf_finite.NoConvergence(spent, best[0])


def reference_side(kernel, log_matrix, finite, period, gauge, warm_start, gauge_of_logA, max_iter):
    """`reference_solve_side` in `rpf_finite._side`'s place: the side in the
    log domain alone, on the operator and period the module would use."""
    logA = log_matrix()
    d = graph_period(finite) if period is None else period
    op = rpf_finite._CsrLogOperator(logA, finite)
    return reference_solve_side(op, d, gauge, warm_start, gauge_of_logA, max_iter), (None, logA)


def solve_outcome(logB, **kwargs):
    """The power iteration's PerronData, or the type, arguments and attributes
    (a NoConvergence's iterations and residual) of the solver error it raised.
    perron skips the iteration where one vertex meets every cycle, as on the
    period-2 two-cycle and the 2 x 2 with a zero entry below."""
    try:
        with np.errstate(divide="ignore"):
            return power_perron(logB, **kwargs)
    except SolverError as exc:
        return type(exc), exc.args, vars(exc)


def assert_same_as_reference(logB, **kwargs):
    """The module's log-domain ladder against the reference loops, both with
    the linear runs on scaled kernels patched away (`log_domain_side`), which
    would otherwise take every gauged and every ungauged period-1 solve on
    a dense support, on both sides of the comparison alike."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(rpf_finite, "_side", log_domain_side)
        new = solve_outcome(logB, **kwargs)
        m.setattr(rpf_finite, "_side", reference_side)
        ref = solve_outcome(logB, **kwargs)
    if not isinstance(ref, rpf_finite.PerronData):
        assert new == ref
        return ref
    assert isinstance(new, rpf_finite.PerronData), new
    for field in ("log_lambda", "log_h", "log_nu", "iterations", "residual"):
        got, want = np.asarray(getattr(new, field)), np.asarray(getattr(ref, field))
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), field
    assert new.path == ref.path
    return ref


@st.composite
def periodic_weights(draw):
    """Weights on an irreducible support of period exactly d in {1, 2, 3}.

    Vertex i lies in class i mod d and edges go from each class to the next.
    The covering cycle i -> i + 1 (length n, a multiple of d) and the chord
    n - 1 - d -> 0 (a cycle of length n - d) fix the period at d; for d = 1
    the support has a self-loop only when n = 2.
    """
    d = draw(st.sampled_from((1, 2, 3)))
    n = d * draw(st.integers(min_value=2, max_value=9 // d if d > 1 else 8))
    density = draw(st.sampled_from((0.0, 0.3, 0.7, 1.0)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cls = np.arange(n) % d
    finite = (rng.random((n, n)) < density) & (cls[None, :] == (cls[:, None] + 1) % d)
    finite[np.arange(n), (np.arange(n) + 1) % n] = True
    finite[n - 1 - d, 0] = True
    W = rng.uniform(-3.0, 3.0, (n, n))
    if draw(st.booleans()):
        W = np.round(W)  # ties between cycle means and between row maxima
    return np.where(finite, W, NEG_INF), d


@settings(max_examples=30, deadline=None)
@given(periodic_weights())
def test_merged_iteration_matches_the_two_loops(case):
    """Every field of every solve, bit for bit: plain solves (period-averaged
    on period-d supports, and stalls into the gauge they build) and gauged
    solves at every t of the zero-temperature sweep, cyclic gauges included.
    The ungauged solves get a smaller budget, which makes stalls, shifted
    runs and NoConvergence more frequent and each example cheaper."""
    W, d = case
    assert graph_period(np.isfinite(W)) == d
    for t in (1.0, 4.0):
        assert_same_as_reference(t * W, max_iter=600)
    try:
        gauge = gauge_of(W)
    except SolverError:
        return
    for t in ZT_TS_DEFAULT:
        assert_same_as_reference(t * W, gauge=gauge.scaled(t))


def test_merged_iteration_matches_the_two_loops_on_fixed_cases():
    # aperiodic, but -0.9995 is an eigenvalue: plain stalls, then shifted
    with np.errstate(divide="ignore"):
        logB = np.log(np.array([[0.0, 1.0], [1.0, 0.001]]))
    assert assert_same_as_reference(logB).path == "shifted"
    # too small a budget: plain, then shifted, then NoConvergence
    logB = np.log(np.array([[1.0, 0.1], [0.1, 0.9]]))
    assert assert_same_as_reference(logB, max_iter=96)[0] is NoConvergence
    # a cyclic gauge goes straight to the shifted run
    logB = np.array([[NEG_INF, -0.7], [-2.3, NEG_INF]])
    assert assert_same_as_reference(logB).path == "period-averaged"
    assert assert_same_as_reference(logB, gauge=gauge_of(logB)).path == "shifted"
    # a cyclic gauge whose shifted run stalls: the plain run from uniform
    W = tied_period_3()
    assert assert_same_as_reference(64.0 * W, gauge=gauge_of(W).scaled(64.0)).path == "period-averaged"


# ---------------------------------------------------------------------------
# the leaner step against the step it replaced, bit for bit
#
# Copies of the reductions, kernels and loop as they were before a step took
# fewer numpy calls: the normalizer reduced through keepdims/squeeze under
# np.errstate, the kernels subtracted every maximum under np.errstate, and
# the loop kept a d-step history even for d = 1 and read the scale from
# max |logv|. The solver paths around them are the module's own.


def parent_log_total(rest, count, top):
    return np.log1p(rest / count) + np.log(count) + top


def parent_logsumexp(a, axis=None, out=None):
    top = a.max(axis=axis, keepdims=True)
    at_top = a == top
    with np.errstate(invalid="ignore"):
        rest = np.subtract(a, top, out=out)
    np.copyto(rest, NEG_INF, where=at_top)
    np.exp(rest, out=rest)
    return parent_log_total(rest.sum(axis=axis), np.count_nonzero(at_top, axis=axis), np.squeeze(top, axis=axis))


class ParentCsrLogOperator(_CsrLogOperator):
    def __call__(self, logv):
        z = self.vals + logv[self.cols]
        top = np.maximum.reduceat(z, self.starts)
        top_z = top[self.rows]
        at_top = z == top_z
        with np.errstate(invalid="ignore"):
            rest = z - top_z
        rest[at_top] = NEG_INF
        np.exp(rest, out=rest)
        count = np.add.reduceat(at_top, self.starts, dtype=np.int64)
        return parent_log_total(np.add.reduceat(rest, self.starts), count, top)


def parent_residual(Aw, logw, est):
    return float(np.max(np.abs(Aw - est - logw)))


def parent_window_average(v_hist, s_hist, est):
    terms = [v_hist[0]]
    offset = 0.0
    for j in range(1, len(v_hist)):
        offset += s_hist[j] - est
        terms.append(v_hist[j] + offset)
    stacked = np.stack(terms, axis=0)
    return parent_logsumexp(stacked, axis=0, out=stacked) - math.log(len(terms))


def parent_power_iteration(op, logv, d, log_sigma, max_iter, best):
    eps = rpf_finite._EPS
    s_hist = deque(maxlen=d)
    v_hist = deque(maxlen=d)
    mean_prev = math.nan
    pending = None
    for it in range(max_iter + 1):
        Av = op(logv)
        if pending is not None:
            est, gate = pending
            res = parent_residual(Av, logv, est)
            if res < best[0]:
                best = (res, logv, est)
            if res < gate:
                return logv, est, it, res, best
            pending = None
        if it == max_iter:
            break
        u = Av if log_sigma == NEG_INF else np.logaddexp(Av, log_sigma + logv)
        s = float(parent_logsumexp(u))
        logv = u - s
        s_hist.append(s)
        v_hist.append(logv)
        if len(s_hist) < d:
            continue
        mean = float(np.mean(s_hist))
        scale = max(1.0, abs(mean), float(np.max(np.abs(logv[np.isfinite(logv)]))))
        if (abs(mean - mean_prev) < max(REF_TOL, 4.0 * eps * scale) or (it + 1) % 32 == 0) and mean > log_sigma:
            est = mean + math.log1p(-math.exp(log_sigma - mean))
            gate = max(REF_RES_TOL, 8.0 * eps * max(scale, abs(est)))
            if d == 1:
                pending = (est, gate)
            else:
                logw = parent_window_average(list(v_hist), list(s_hist), est)
                res = parent_residual(op(logw), logw, est)
                if res < best[0]:
                    best = (res, logw, est)
                if res < gate:
                    return logw, est, it + 1, res, best
        mean_prev = mean
    return None, math.nan, max_iter, best[0], best


def parent_power_iteration_4(op, logv, d, log_sigma, max_iter):
    """parent_power_iteration on the module's signature: it starts from no
    best iterate and returns (log_vec, log_lambda, iters, residual), the
    residual of a stalled run being the smallest it saw."""
    return parent_power_iteration(op, logv, d, log_sigma, max_iter, (math.inf, None, math.nan))[:4]


def parent_module(m):
    m.setattr(rpf_finite, "_CsrLogOperator", ParentCsrLogOperator)
    m.setattr(rpf_finite, "_logsumexp", parent_logsumexp)
    m.setattr(rpf_finite, "_power_iteration", parent_power_iteration_4)


def outcome(logB, **kwargs):
    try:
        return power_perron(logB, **kwargs)
    except SolverError as exc:
        return type(exc), exc.args, vars(exc)


def assert_same_bits_as_parent(logB, **kwargs):
    """As `assert_same_as_reference`, on the log-domain ladder alone."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(rpf_finite, "_side", log_domain_side)
        new = outcome(logB, **kwargs)
        parent_module(m)
        ref = outcome(logB, **kwargs)
    if not isinstance(ref, rpf_finite.PerronData):
        assert new == ref
        return ref
    assert isinstance(new, rpf_finite.PerronData), new
    for field in ("log_lambda", "log_h", "log_nu", "iterations", "residual"):
        got, want = np.asarray(getattr(new, field)), np.asarray(getattr(ref, field))
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), field
    assert new.path == ref.path
    return ref


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=25, deadline=None)
@given(periodic_weights())
def test_leaner_step_keeps_the_bits_on_periodic_supports(case):
    """Every field of every solve, as in the merged-iteration test: plain and
    period-averaged runs, stalls into the shifted run, NoConvergence and
    cyclic gauges, on supports of period 1, 2 and 3."""
    W, d = case
    for t in (1.0, 4.0):
        assert_same_bits_as_parent(t * W, max_iter=600)
    try:
        gauge = gauge_of(W)
    except SolverError:
        return
    for t in ZT_TS_DEFAULT:
        assert_same_bits_as_parent(t * W, gauge=gauge.scaled(t))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_leaner_step_keeps_the_bits_on_every_path():
    with np.errstate(divide="ignore"):
        W = np.log(np.array([[0.0, 1.0], [1.0, 0.001]]))
    assert assert_same_bits_as_parent(W).path == "shifted"
    W = np.log(np.array([[1.0, 0.1], [0.1, 0.9]]))
    assert assert_same_bits_as_parent(W, max_iter=96)[0] is NoConvergence
    W = np.array([[NEG_INF, -0.7], [-2.3, NEG_INF]])
    assert assert_same_bits_as_parent(W).path == "period-averaged"
    assert assert_same_bits_as_parent(W, gauge=gauge_of(W)).path == "shifted"
    W = tied_period_3()
    assert assert_same_bits_as_parent(64.0 * W, gauge=gauge_of(W).scaled(64.0)).path == "period-averaged"
    # the bundled models at n = 7, on both kernels, with and without a gauge
    for name in ("renewal_weighted", "tie_two_loops", "log_quadratic"):
        model, f = bundled_pair(name)
        tr = build_truncation(model, 6)
        gauge = gauged_sweep(tr, f).gauge
        for t in (2.0,) + ZT_TS_DEFAULT:
            logB = transfer_matrix(tr, f, t)
            assert_same_bits_as_parent(logB)
            assert_same_bits_as_parent(logB, gauge=gauge.scaled(t))


def edge_vectors(n, rng):
    """Vectors with tied maxima, with -inf entries, and all -inf."""
    tied = np.round(rng.uniform(-3.0, 3.0, n))
    tied[rng.integers(n)] = tied.max()
    holed = np.where(rng.random(n) < 0.5, NEG_INF, rng.uniform(-3.0, 3.0, n))
    return [tied, holed, np.full(n, NEG_INF), np.where(np.arange(n) == 0, 0.0, NEG_INF)]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=100, deadline=None)
@given(supports_and_vectors())
def test_leaner_reductions_keep_the_bits(case):
    logA, logv = case
    n = logA.shape[0]
    rng = np.random.default_rng(n)
    for v in [logv] + edge_vectors(n, rng):
        got, want = rpf_finite._logsumexp(v), parent_logsumexp(v)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
        finite = np.isfinite(logA)
        got = _CsrLogOperator(logA, finite)(v)
        assert got.tobytes() == ParentCsrLogOperator(logA, finite)(v).tobytes()
        for axis in (0, 1):
            a = logA + v[None, :]
            got = rpf_finite._logsumexp(a.copy(), axis=axis, out=None)
            scratch = a.copy()
            assert got.tobytes() == parent_logsumexp(scratch, axis=axis, out=scratch).tobytes()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("name", ["renewal_weighted", "tie_two_loops", "log_quadratic"])
def test_gurevich_estimate_from_a_delta_keeps_the_bits(name, monkeypatch):
    """The loop sums start from a delta vector: every row of the first
    applications is all -inf but one, and no kernel may warn about it."""
    model, f = bundled_pair(name)
    tr = build_truncation(model, 6)
    for t in (2.0, 1024.0):
        for loops in (1, 8, 64):
            new = gurevich_estimate(tr, f, t, 0, loops)
            with monkeypatch.context() as m:
                parent_module(m)
                ref = gurevich_estimate(tr, f, t, 0, loops)
            assert np.float64(new).tobytes() == np.float64(ref).tobytes(), (t, loops)


# ---------------------------------------------------------------------------
# exponentials that skip the lanes that round to zero, against np.exp


def exp_edge_cases(rng):
    """Normal arguments, the subnormal band, arguments below -746, -inf,
    +-0, NaN, and ulp steps around -746, -745.14, the rounding edge
    log(2^-1075) = -745.1332 and the subnormal edge -708.4."""
    steps = []
    for edge in (-746.0, -745.14, -745.1332, -708.4):
        x = edge
        for _ in range(4):
            x = np.nextafter(x, -np.inf)
        for _ in range(9):
            steps.append(x)
            x = np.nextafter(x, np.inf)
    special = [NEG_INF, np.inf, 0.0, -0.0, np.nan, -np.nan, 709.78, 1.0, -1.0, -1e300, -5e-324]
    return np.concatenate(
        [
            rng.uniform(-30.0, 5.0, 200),
            rng.uniform(-745.13, -708.4, 200),
            rng.uniform(-1e4, -746.0, 200),
            np.array(steps + special),
        ]
    )


# C-order, F-order, transposed (the left side reads logB.T) and strided views
LAYOUTS = (lambda g: g, np.asfortranarray, np.transpose, lambda g: g[:, ::2])


def exp_grid(x, rng, lanes):
    """x, repeated to at least `lanes` lanes and shuffled, as a square array
    (NaN-padded)."""
    x = np.tile(x, -(-lanes // x.size))
    n = int(math.isqrt(x.size)) + 1
    grid = np.full(n * n, np.nan)
    grid[: x.size] = rng.permutation(x)
    return grid.reshape(n, n)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("masked", [False, True])
def test_exp_nonzero_is_np_exp_bit_for_bit(masked):
    """Below _MASK_MIN lanes np.exp runs on every lane, from it on only on
    the live ones; both give np.exp's bits."""
    rng = np.random.default_rng(17)
    grid = exp_grid(exp_edge_cases(rng), rng, 4 * rpf_finite._MASK_MIN if masked else 1)
    for layout in LAYOUTS:
        a = layout(grid)
        assert (a.size >= rpf_finite._MASK_MIN) == masked
        want = np.exp(a)
        got = layout(grid.copy())
        assert rpf_finite._exp_nonzero(got) is got
        assert np.array_equal(got, want, equal_nan=True) and got.tobytes() == want.tobytes()
        assert not np.signbit(got[~np.isnan(got)]).any()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_masked_log_sum_exps_keep_the_bits():
    """The vector and CSR reductions, masked from _MASK_MIN entries on,
    against their formulations with np.exp on every entry."""
    rng = np.random.default_rng(5)
    x = rng.uniform(-2000.0, 0.0, 4 * rpf_finite._MASK_MIN)
    x[rng.random(x.size) < 0.1] = NEG_INF
    assert rpf_finite._logsumexp(x.copy()).tobytes() == parent_logsumexp(x.copy()).tobytes()
    logA = np.full((128, 128), NEG_INF)
    live = rng.random(logA.shape) < 0.3
    live[np.arange(128), rng.integers(0, 128, 128)] = True
    logA[live] = rng.uniform(-2000.0, 0.0, np.count_nonzero(live))
    assert np.count_nonzero(live) >= rpf_finite._MASK_MIN
    new, ref = _CsrLogOperator(logA, live), ParentCsrLogOperator(logA, live)
    for logv in (np.zeros(128), rng.uniform(-900.0, 0.0, 128)):
        assert new(logv).tobytes() == ref(logv).tobytes()


def parent_equilibrium(pd, logB):
    """equilibrium's chain as it was built with np.exp on every cell."""
    P = np.add(logB, pd.log_h[None, :])
    P -= pd.log_h[:, None]
    P -= pd.log_lambda
    np.exp(P, out=P)
    P /= P.sum(axis=1, keepdims=True)
    pi = np.exp(pd.log_nu + pd.log_h)
    pi /= pi.sum()
    for _ in range(5):
        nxt = pi @ P
        nxt /= nxt.sum()
        if float(np.abs(nxt - pi).sum()) < 1e-15:
            pi = nxt
            break
        pi = nxt
    return P, pi


def assert_equilibrium_keeps_the_bits(pd, logB):
    m = rpf_finite.equilibrium(pd, logB)
    P, pi = parent_equilibrium(pd, logB)
    assert m.stochastic.tobytes() == P.tobytes()
    assert m.stationary.tobytes() == pi.tobytes()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_skipped_zero_lanes_keep_the_bits_of_the_dense_sweep_at_511_symbols():
    """Every log-domain application at the starts and Perron vectors of
    both sides, and every equilibrium chain, of the full-shift sweep at n =
    511 (where nearly every lane of a large t underflows) against the
    formulation with np.exp on every lane."""
    model, f = bundled_pair("tie_two_loops")
    tr = build_truncation(model, 510)
    W = transfer_matrix(tr, f, 1.0)
    gauge = gauged_sweep(tr, f).gauge
    n = tr.n_symbols
    for t in ZT_TS_DEFAULT:
        logB = t * W
        pd = perron(logB, gauge=gauge.scaled(t))
        starts = (np.full(n, -math.log(n)), t * gauge.v, t * gauge.u, pd.log_h, pd.log_nu)
        for M in (logB, logB.T):
            finite = np.isfinite(M)
            new, ref = _CsrLogOperator(M, finite), ParentCsrLogOperator(M, finite)
            for logv in starts:
                assert new(logv).tobytes() == ref(logv).tobytes(), t
        # the chain a gauged solve brings is built without an exp; the
        # log-domain chain is what the lanes apply to
        assert_equilibrium_keeps_the_bits(dataclasses.replace(pd, chain=None), logB)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_skipped_zero_lanes_keep_the_bits_of_a_renewal_equilibrium():
    model, f = bundled_pair("renewal_weighted")
    tr = build_truncation(model, 127)
    for t in (2.0, 64.0, 1024.0):
        logB = transfer_matrix(tr, f, t)
        pd = perron(logB)
        assert pd.path == "first-return"
        assert_equilibrium_keeps_the_bits(pd, logB)
