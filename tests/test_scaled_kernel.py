"""Ungauged solves on the scaled kernel K = exp(log B - m), against the log-domain ladder.

An ungauged solve on a support of period 1 whose edges fill more than 1/128
of the cells and whose entries spread over at most log(1/tiny) runs its
plain run linearly on K, m the largest entry of log B, with one exp for
both sides. Its answers are checked against the log-domain ladder (the
linear runs patched away with `log_domain_side`) and against
`dense_gauged_state`; an entry spread beyond the normal range, which takes
the gauge instead, against the lone gauged solve and `dense_gauged_state`;
a mid-run underflow against the log-domain bits; and the supports that must not reach
K by counting the kernels built, against the gauged twin of each support,
which reaches a reduced kernel on every support but a first-return one.
Sparse supports above 1/128, on which gauged solves run on their reduced
kernels, get the same checks. Last, the rule by which a side picks each
run's domain, for sides with and without a gauge.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import dense_gauged_state, log_domain_side, power_perron, sparse_aperiodic, tied_period_3
from gibbsline import rpf_finite
from gibbsline.bundled import bundled_pair
from gibbsline.errors import NoConvergence
from gibbsline.maxplus import gauge_of
from gibbsline.rpf_finite import equilibrium, perron, transfer_matrix
from gibbsline.shift_model import build_truncation, graph_period

NEG_INF = -np.inf
# a support is sparse here when its edges fill at most 1/SPARSE of the cells
SPARSE = 32


def log_domain(logB, **kwargs):
    """perron with every side on the log-domain ladder alone."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(rpf_finite, "_side", log_domain_side)
        return perron(logB, **kwargs)


def count_linear_runs(monkeypatch):
    """Count the runs of `_linear_iteration`, whatever their outcome."""
    runs = []
    real = rpf_finite._linear_iteration

    def counting(*args):
        runs.append(args[1])  # shifted or not
        return real(*args)

    monkeypatch.setattr(rpf_finite, "_linear_iteration", counting)
    return runs


@st.composite
def aperiodic_dense_weights(draw):
    """Weights on a dense aperiodic support of 2..8 vertices that the
    first-return path turns away: a Hamiltonian cycle, a loop at 0 and
    random further edges, more than 2n - 1 in all."""
    n = draw(st.integers(min_value=2, max_value=8))
    density = draw(st.sampled_from((0.4, 0.7, 1.0)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    finite = rng.random((n, n)) < density
    finite[np.arange(n), (np.arange(n) + 1) % n] = True
    finite[0, 0] = True
    assume(np.count_nonzero(finite) > 2 * n - 1)
    return np.where(finite, rng.uniform(-3.0, 3.0, (n, n)), NEG_INF)


@settings(max_examples=30, deadline=None)
@given(aperiodic_dense_weights(), st.sampled_from((1.0, 4.0)))
def test_linear_answers_match_the_log_domain_ladder_and_the_dense_oracle(W, t):
    """log lambda within 1e-12 relative of the log-domain ladder, pi and P
    within 1e-10 (an eigenvector is pinned only to residual / gap), and all
    three against the dense eigensolve at the oracle tests' tolerances.
    Where the linear plain run stalls, the shifted run of the log domain
    answers, from the gauge it builds. A matrix on which the log-domain
    ladder spends its budget is drawn again, as in the sparse test below
    (`test_a_dense_table_on_which_both_runs_stall_raises` keeps one)."""
    assert graph_period(np.isfinite(W)) == 1
    logB = t * W
    try:
        old = log_domain(logB)
    except NoConvergence:
        assume(False)
    with pytest.MonkeyPatch.context() as m:
        runs = count_linear_runs(m)
        new = perron(logB)
    assert runs == [False, False]  # the plain run of each side, on K
    meas = equilibrium(new, logB)
    ref = equilibrium(old, logB)
    assert new.path == old.path
    assert new.log_lambda == pytest.approx(old.log_lambda, rel=1e-12, abs=1e-300)
    assert np.allclose(meas.stationary, ref.stationary, rtol=1e-10, atol=0.0)
    assert np.allclose(meas.stochastic, ref.stochastic, rtol=1e-10, atol=0.0)
    log_lambda, pi, P, gap = dense_gauged_state(W, t)
    assert new.log_lambda == pytest.approx(log_lambda, rel=1e-10, abs=1e-10)
    if gap >= 1e-3:
        assert np.allclose(meas.stationary, pi, rtol=1e-9, atol=1e-12)
        assert np.allclose(meas.stochastic, P, rtol=1e-9, atol=1e-12)


def test_a_dense_table_on_which_both_runs_stall_raises():
    """A 4-symbol table that the dense hypothesis test above once drew: at t
    = 4 the left side's plain run on K^T and its shifted run from the gauge
    both spend their 3,000 steps, ending near a residual of 4e-12, above
    the gate of 1e-12, so `perron` raises NoConvergence, as does the
    log-domain ladder. That is the documented answer: no solve returns an
    iterate that missed the gate. At t = 1 the same table converges."""
    W = np.array([
        [1.13171363, 1.8197048, NEG_INF, NEG_INF],
        [NEG_INF, -0.02089083, -1.84738154, NEG_INF],
        [NEG_INF, NEG_INF, -2.6332719, 0.7767634],
        [-0.99733167, -2.28071038, 1.49400957, NEG_INF],
    ])
    assert np.count_nonzero(np.isfinite(W)) > 2 * 4 - 1 and graph_period(np.isfinite(W)) == 1
    assert perron(W).path == "plain"
    logB = 4.0 * W
    with pytest.raises(NoConvergence) as exc:
        perron(logB)
    assert exc.value.iterations == 2 * 3000
    with pytest.raises(NoConvergence):
        log_domain(logB)


def tied_shift(t):
    """The 2-shift {0, 1} and a loop at 2, all at weight 0, coupled by
    1 -> 2 and 2 -> 0 at weight -1, times t: the entries of log B spread
    over exactly t, and the Perron vectors carry about e^{-t} / 2 at
    vertex 2 on both sides (right: h_2 = e^{-t} h_0; left: nu_2 = e^{-t} nu_1)."""
    W = np.full((3, 3), NEG_INF)
    W[:2, :2] = 0.0
    W[2, 2], W[1, 2], W[2, 0] = 0.0, -1.0, -1.0
    return t * W


def sparse_kernel_support(finite):
    """Whether `finite` is sparse and yet takes the n x n kernels, gauged or
    not: edges in at most 1/SPARSE of the cells and in more than 1/128."""
    return rpf_finite._dense(finite) and SPARSE * np.count_nonzero(finite) <= finite.size


def sparse_tied_component(t):
    """127 symbols on a cycle with one more successor each and a loop at 0,
    all at weight 0, and a loop at 127 (0) coupled by 126 -> 127 and 127 ->
    0 at weight -1, times t: sparse, with entries that spread over t. The
    component's Perron root is near 2, so the Perron vectors carry about
    e^{-t} / 127 at 127 on both sides."""
    n = 128
    W = np.full((n, n), NEG_INF)
    W[np.arange(n - 1), (np.arange(n - 1) + 1) % (n - 1)] = 0.0
    W[np.arange(n - 1), np.random.default_rng(127).integers(n - 1, size=n - 1)] = 0.0
    W[0, 0] = W[n - 1, n - 1] = 0.0
    W[n - 2, n - 1] = W[n - 1, 0] = -1.0
    assert sparse_kernel_support(np.isfinite(W))
    return t * W


def assert_log_domain_bits(new, old, iterations_too):
    for name in ("log_lambda", "log_h", "log_nu", "residual", "path") + (("iterations",) if iterations_too else ()):
        got, want = np.asarray(getattr(new, name)), np.asarray(getattr(old, name))
        assert got.tobytes() == want.tobytes(), name
    assert new.chain is None


def test_an_entry_spread_beyond_the_normal_range_takes_the_gauge(monkeypatch):
    """At t = 709 the entries spread over 709 > log(1/tiny) = 708.396, so
    exp(-709) would be subnormal in K = exp(log B - m): the solve builds no
    K, builds the gauge of log B up front and is the lone gauged solve bit
    for bit, every field and the chain (there the Perron vectors carry
    e^{-709} at vertex 2, so both sides hand over to the log domain). The same on a sparse support of 128
    symbols, whose edges fill more than 1/128 of the cells, with its loop
    at 0 709 below its largest entry. log lambda is within the residual of
    the dense eigensolve, and pi and P agree with it at the oracle tests'
    tolerances."""
    sparse = sparse_aperiodic(128, np.random.default_rng(709))
    finite = np.isfinite(sparse)
    assert sparse_kernel_support(finite)
    sparse[0, 0] = sparse[finite].max() - 709.0
    for logB in (tied_shift(709.0), sparse):
        gauges, scaled = [], []
        with monkeypatch.context() as m:
            m.setattr(rpf_finite, "gauge_of", lambda W: gauges.append(W) or gauge_of(W))
            m.setattr(rpf_finite, "_scaled_kernels", lambda *args: scaled.append(args))
            new = perron(logB)
        assert len(gauges) == 1 and gauges[0] is logB and scaled == []
        lone = perron(logB, gauge=gauge_of(logB))
        for name in ("log_lambda", "log_h", "log_nu", "iterations", "residual", "path"):
            assert np.asarray(getattr(new, name)).tobytes() == np.asarray(getattr(lone, name)).tobytes(), name
        assert equilibrium(new, logB).stochastic.tobytes() == equilibrium(lone, logB).stochastic.tobytes()
        log_lambda, pi, P, gap = dense_gauged_state(logB, 1.0)
        # Collatz-Wielandt: each side's estimate lies within its residual of log lambda
        assert abs(new.log_lambda - log_lambda) <= new.residual + 1e-14
        meas = equilibrium(new, logB)
        assert gap >= 1e-3
        assert np.allclose(meas.stationary, pi, rtol=1e-9, atol=1e-12)
        assert np.allclose(meas.stochastic, P, rtol=1e-9, atol=1e-12)


def test_an_iterate_that_underflows_mid_run_reruns_in_the_log_domain(monkeypatch):
    """At t = 708 every entry of K is a normal float (exp(-708) = 3.3e-308),
    but the Perron vectors' entries at vertex 2 settle near e^{-708} / 2,
    below np.finfo(float).tiny, on both sides: each linear plain run leaves
    the normal range part way, and the solve returns the log-domain bits.
    The same on the sparse support of `sparse_tied_component`."""
    runs = []
    real = rpf_finite._linear_iteration

    def recording(*args):
        try:
            return real(*args)
        except rpf_finite._LeftNormalRange as exc:
            runs.append(exc.iterations)
            raise

    for logB in (tied_shift(708.0), sparse_tied_component(708.0)):
        finite = np.isfinite(logB)
        right, left = rpf_finite._scaled_kernels(logB, float(logB.max()))
        assert right.K[finite].min() >= np.finfo(float).tiny and left.K.base is right.K
        runs.clear()
        with monkeypatch.context() as m:
            m.setattr(rpf_finite, "_linear_iteration", recording)
            new = perron(logB)
        assert len(runs) == 2 and all(it > 1 for it in runs)
        old = log_domain(logB)
        assert_log_domain_bits(new, old, iterations_too=False)
        # the linear steps taken before the handover are counted too
        assert new.iterations == old.iterations + sum(runs)
        a, b = equilibrium(new, logB), equilibrium(old, logB)
        assert a.stochastic.tobytes() == b.stochastic.tobytes()
        assert a.stationary.tobytes() == b.stationary.tobytes()


def test_periodic_first_return_and_sparsest_supports_never_reach_the_scaled_kernel(monkeypatch):
    """Periodic and first-return supports, dense or sparse, and period-1
    supports whose edges fill at most 1/128 of the cells build no scaled
    kernel and make no linear run; a sparse period-1 support above 1/128
    runs each side's plain run on the n x n kernel, as the same support with
    every cell filled does. The gauged twin of each support, solved from its
    own gauge, needs no fill: no reduced kernel on a first-return support,
    one per side on every other, n x n where its live cells fill more than
    1/16 of the matrix and an edge list elsewhere, the sparsest supports
    among them. A gauged side needs no period, so the periodic supports'
    twins reduce too, and their cyclic gauges start each side on the linear
    shifted run."""
    built, kernels = [], []
    real, real_kernel, real_live = rpf_finite._scaled_kernels, rpf_finite._ReducedKernel, rpf_finite._LiveKernel
    monkeypatch.setattr(rpf_finite, "_scaled_kernels", lambda *args: built.append(args) or real(*args))
    monkeypatch.setattr(rpf_finite, "_ReducedKernel", lambda *args: kernels.append("n x n") or real_kernel(*args))
    monkeypatch.setattr(rpf_finite, "_LiveKernel", lambda *args: kernels.append("edge list") or real_live(*args))
    runs = count_linear_runs(monkeypatch)

    def solve(logB, gauged=False):
        """perron on logB, from its own gauge if gauged, with the kernels
        built and the linear runs counted afresh."""
        for seen in (built, kernels, runs):
            seen.clear()
        return perron(logB, gauge=gauge_of(logB) if gauged else None)

    # period 2: the complete bipartite graph on {0, 1} x {2, 3}, both ways
    W = np.full((4, 4), NEG_INF)
    W[np.ix_([0, 1], [2, 3])] = np.array([[0.0, -1.0], [-0.5, 0.0]])
    W[np.ix_([2, 3], [0, 1])] = np.array([[-0.25, 0.0], [0.0, -2.0]])
    assert graph_period(np.isfinite(W)) == 2
    for logB in (W, 4.0 * W):
        assert solve(logB).path == "period-averaged"
        assert built == [] and kernels == [] and runs == []
        assert solve(logB, gauged=True).path == "shifted"
        assert built == [] and kernels == ["n x n"] * 2 and runs == [True, True]
    # period 2 and sparse: a Hamiltonian cycle through even and odd symbols
    # by turns, and one more successor each, of the other parity
    n = 128
    W = np.full((n, n), NEG_INF)
    rng = np.random.default_rng(2)
    perm = np.empty(n, dtype=np.int64)
    perm[0::2], perm[1::2] = rng.permutation(np.arange(0, n, 2)), rng.permutation(np.arange(1, n, 2))
    W[perm, np.roll(perm, -1)] = -rng.exponential(size=n)
    W[np.arange(n), 2 * rng.integers(n // 2, size=n) + 1 - np.arange(n) % 2] = -rng.exponential(size=n)
    finite = np.isfinite(W)
    assert graph_period(finite) == 2 and sparse_kernel_support(finite)
    assert solve(W).path == "period-averaged"
    assert built == [] and kernels == [] and runs == []
    solve(W, gauged=True)
    assert built == [] and kernels == ["edge list"] * 2 and runs[:1] == [True]
    # first return: the renewal truncation at n = 7 and at n = 256 (sparse),
    # and a 1 x 1 loop
    model, f = bundled_pair("renewal_weighted")
    for logB in (
        transfer_matrix(build_truncation(model, 6), f, 2.0),
        transfer_matrix(build_truncation(model, 255), f, 2.0),
        np.array([[-0.75]]),
    ):
        for gauged in (False, True):
            assert solve(logB, gauged).path == "first-return"
            assert built == [] and kernels == [] and runs == []
    # the sparsest: 300 symbols, period 1, edges in at most 1/128 of the cells
    W = sparse_aperiodic(300, np.random.default_rng(300))
    finite = np.isfinite(W)
    assert graph_period(finite) == 1 and not rpf_finite._dense(finite)
    pd = solve(2.0 * W)
    assert pd.path in ("plain", "shifted") and pd.chain is None
    assert built == [] and kernels == [] and runs == []
    gauge = gauge_of(2.0 * W)
    pd = solve(2.0 * W, gauged=True)
    assert pd.chain is not None
    assert built == [] and kernels == ["edge list"] * 2 and runs[:1] == [gauge.cyclicity > 1]
    # sparse: 128 symbols, period 1, edges in more than 1/128 of the cells
    # and at most 1/SPARSE
    W = sparse_aperiodic(128, np.random.default_rng(128))
    finite = np.isfinite(W)
    assert graph_period(finite) == 1 and sparse_kernel_support(finite)
    # and the same cycle with every cell filled
    for logB, storage in ((2.0 * W, "edge list"), (np.where(finite, W, -8.0), "n x n")):
        pd = solve(logB)
        assert pd.path == "plain" and pd.chain is not None
        assert len(built) == 1 and kernels == ["n x n"] * 2 and runs == [False, False]
        gauge = gauge_of(logB)
        pd = solve(logB, gauged=True)
        assert pd.chain is not None
        assert built == [] and kernels == [storage] * 2 and runs[:1] == [gauge.cyclicity > 1]


@st.composite
def sparse_aperiodic_weights(draw):
    """Weights from -3..3 on a sparse aperiodic support of 60..64 vertices
    that the first-return path turns away: a Hamiltonian cycle, a loop at 0
    and about as many further edges as fit in 1/SPARSE of the cells. At
    n = 32 the cycle alone fills 1/32, and with fewer further edges the support
    stays so close to periodic that power iteration often spends its budget
    on either domain: with n >= 48 and n / 3 further edges or more, 3 of 400
    random solves did not converge on the log-domain ladder."""
    n = draw(st.integers(min_value=60, max_value=64))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    finite = np.zeros((n, n), dtype=bool)
    perm = rng.permutation(n)
    finite[perm, np.roll(perm, -1)] = True
    finite[0, 0] = True
    room = n * n // SPARSE - n - 1
    extra = draw(st.integers(min_value=min(room, 9 * n // 10), max_value=room))
    finite.flat[rng.choice(n * n, size=extra, replace=False)] = True
    assume(np.count_nonzero(finite.sum(axis=1) > 1) > 1)  # no hub of a first-return support
    assert sparse_kernel_support(finite)
    return np.where(finite, rng.uniform(-3.0, 3.0, (n, n)), NEG_INF)


@settings(max_examples=30, deadline=None)
@given(sparse_aperiodic_weights(), st.sampled_from((1.0, 4.0)), st.booleans())
def test_sparse_kernel_answers_match_the_log_domain_ladder_and_the_dense_oracle(W, t, gauged):
    """Solves on sparse supports whose edges fill more than 1/128 of the
    cells and at most 1/SPARSE: an ungauged one runs both plain runs on the
    n x n kernel, a gauged one starts each side on its reduced kernel, with
    the plain run under cyclicity 1 (and the shifted one if that stalls) and
    with the shifted run under a cyclic gauge. log lambda
    within 1e-12 relative of the log-domain ladder (or 1e-12 absolute, the
    residual gate, where |log lambda| < 1), pi and P within 1e-10 of it;
    and against the dense eigensolve, where its margin resolves the
    eigenvector, pi and the 2-cylinder masses pi_i P_ij within 1e-10. The
    eigensolve's P itself is no oracle here: its SVD resolves h only to
    round-off of the largest entry, and on one draw, whose h spanned 5e-14,
    its P read 1.00006 on a row with one successor, where a 40-digit power
    iteration matched the solver. A matrix on which the ladder spends its
    budget (two near-tied cycles that barely meet) is drawn again."""
    assert graph_period(np.isfinite(W)) == 1
    logB = t * W
    gauge = gauge_of(logB) if gauged else None
    try:
        old = log_domain(logB, gauge=gauge)
    except NoConvergence:
        assume(False)
    with pytest.MonkeyPatch.context() as m:
        runs = count_linear_runs(m)
        new = perron(logB, gauge=gauge)
    first = gauged and gauge.cyclicity > 1
    assert runs[0] == first and runs.count(first) == 2
    assert gauged or runs == [False, False]
    meas = equilibrium(new, logB)
    ref = equilibrium(old, logB)
    assert new.path == old.path
    assert new.log_lambda == pytest.approx(old.log_lambda, rel=1e-12, abs=1e-12)
    assert np.allclose(meas.stationary, ref.stationary, rtol=1e-10, atol=0.0)
    assert np.allclose(meas.stochastic, ref.stochastic, rtol=1e-10, atol=0.0)
    log_lambda, pi, P, gap = dense_gauged_state(W, t)
    assert new.log_lambda == pytest.approx(log_lambda, rel=1e-10, abs=1e-10)
    if gap >= 1e-3:
        assert np.allclose(meas.stationary, pi, rtol=1e-10, atol=1e-12)
        masses = meas.stationary[:, None] * meas.stochastic
        assert np.allclose(masses, pi[:, None] * P, rtol=1e-10, atol=1e-12)


def test_a_sparse_kernel_chain_matches_the_chain_built_from_log_b():
    """The chain an ungauged solve on a sparse support builds from its
    right kernel, against the chain `equilibrium` builds from log B and the
    Perron data: zero off the edges, and within 1e-12 on them."""
    logB = 2.0 * sparse_aperiodic(128, np.random.default_rng(7))
    assert sparse_kernel_support(np.isfinite(logB))
    pd = perron(logB)
    assert pd.chain is not None and pd.chain[0] is logB
    want = rpf_finite._chain(pd, logB)
    assert np.array_equal(pd.chain[1] > 0.0, want > 0.0)
    assert np.allclose(pd.chain[1], want, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("c", [0.0, -0.0, 2.5, -1e300, 5e-324])
def test_a_one_by_one_loop_is_the_first_return_answer_bit_for_bit(c):
    logB = np.array([[c]])
    got = perron(logB)
    want = rpf_finite._first_return(logB, np.isfinite(logB))
    for name in ("log_lambda", "log_h", "log_nu", "iterations", "residual", "path"):
        a, b = np.asarray(getattr(got, name)), np.asarray(getattr(want, name))
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    assert type(got.log_lambda) is float and got.chain is None


def test_the_right_kernel_becomes_the_chain(tie_two_loops):
    """The full shift at n = 7, t = 2: one exp of the matrix for both sides,
    and equilibrium takes the right kernel as its chain without another."""
    model, f = tie_two_loops
    logB = transfer_matrix(build_truncation(model, 6), f, 2.0)
    exps = []
    real = rpf_finite._exp_nonzero
    with pytest.MonkeyPatch.context() as m:
        m.setattr(rpf_finite, "_exp_nonzero", lambda x: exps.append(x.shape) or real(x))
        pd = perron(logB)
        meas = equilibrium(pd, logB)
    assert exps.count((7, 7)) == 1
    assert pd.path == "plain" and meas.stochastic is pd.chain[1]
    ref = equilibrium(log_domain(logB), logB)
    assert np.allclose(meas.stochastic, ref.stochastic, rtol=1e-12, atol=0.0)
    assert np.allclose(meas.stationary, ref.stationary, rtol=1e-12, atol=0.0)
    # the component solves of the shipped configs take the same rung
    assert power_perron(np.zeros((2, 2))).chain is not None


def record_runs(monkeypatch):
    """The runs of every side from here on, in order: (domain, run)."""
    runs = []
    linear, log = rpf_finite._linear_iteration, rpf_finite._power_iteration

    def linear_run(kernel, shifted, max_iter):
        runs.append(("linear", "shifted" if shifted else "plain"))
        return linear(kernel, shifted, max_iter)

    def log_run(op, logv, d, log_sigma, max_iter):
        runs.append(("log", "plain" if log_sigma == NEG_INF else "shifted"))
        return log(op, logv, d, log_sigma, max_iter)

    monkeypatch.setattr(rpf_finite, "_linear_iteration", linear_run)
    monkeypatch.setattr(rpf_finite, "_power_iteration", log_run)
    return runs


@pytest.mark.parametrize(
    "gauged, with_kernel, expected",
    [
        # no gauge: the plain run from the uniform vector on K, the shifted
        # run from the gauge it builds in the log domain
        (None, True, [("linear", "plain"), ("log", "shifted")]),
        (None, False, [("log", "plain"), ("log", "shifted")]),
        # cyclicity 1: both runs start from the gauge
        ("aperiodic", True, [("linear", "plain"), ("linear", "shifted")]),
        ("aperiodic", False, [("log", "plain"), ("log", "shifted")]),
        # a cyclic gauge: shifted from the gauge, then plain from the
        # uniform vector, which is no gauge start, in the log domain
        ("cyclic", True, [("linear", "shifted"), ("log", "plain")]),
        ("cyclic", False, [("log", "shifted"), ("log", "plain")]),
    ],
)
def test_a_side_runs_linearly_only_from_the_gauge_or_ungauged_plain(gauged, with_kernel, expected, monkeypatch):
    """One side whose runs all stall on a budget of 3 steps: the ladder's
    order, and the domain of each run, read from the iterations called."""
    if gauged == "cyclic":
        logB = 64.0 * tied_period_3()
    else:
        logB = np.log(np.array([[1.0, 0.1], [0.1, 0.9]]))
    finite = np.isfinite(logB)
    gauge = None if gauged is None else gauge_of(logB)
    assert gauge is None or (gauge.cyclicity > 1) == (gauged == "cyclic")
    kernel = None
    if with_kernel and gauge is None:
        kernel = rpf_finite._scaled_kernels(logB, float(logB.max()))[0]
    elif with_kernel:
        kernel = rpf_finite._ReducedSide(logB, finite, gauge.v, gauge.beta).kernel(1.0, gauge, lambda g: g.v)
    runs = record_runs(monkeypatch)
    with pytest.raises(NoConvergence) as exc:
        rpf_finite._side(
            kernel, lambda: logB, finite, graph_period(finite), gauge, lambda g: g.v, lambda: gauge_of(logB), 3
        )
    assert runs == expected
    assert exc.value.iterations == 2 * 3


def test_a_side_that_leaves_the_normal_range_stays_in_the_log_domain(monkeypatch):
    """A gauged side of cyclicity 1 on a budget of 3 steps, whose kernel
    (a stand-in, diag(1, 1e-310)) sends the linear plain run below the
    normal range at its first step: that run is run again in the log
    domain, and so is the shifted run after it, though it starts from the
    gauge."""
    logB = np.log(np.array([[1.0, 0.1], [0.1, 0.9]]))
    finite = np.isfinite(logB)
    gauge = gauge_of(logB)
    assert gauge.cyclicity == 1
    kernel = rpf_finite._ReducedKernel(np.array([[1.0, 0.0], [0.0, 1e-310]]), 0.0, 0.0)
    runs = record_runs(monkeypatch)
    with pytest.raises(NoConvergence) as exc:
        rpf_finite._side(kernel, lambda: logB, finite, 1, gauge, lambda g: g.v, None, 3)
    assert runs == [("linear", "plain"), ("log", "plain"), ("log", "shifted")]
    assert exc.value.iterations == 1 + 2 * 3
