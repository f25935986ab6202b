"""Gauged solves on reduced kernels, against the dense oracle and the log-domain path.

A gauged solve iterates linearly on K = exp(log B - t beta + t b_j - t b_i),
b = v on the right and u on the left, stored on its live cells (n x n, or an
edge list where they fill at most 1/16 of the cells), and builds the chain
from the right kernel. Its answers are checked against `dense_gauged_state`
(the configs' sweeps, the planted 12-symbol model, `tie_two_loops` at n =
511, sparse supports), against the same sweep on n x n kernels and the
log-domain ladder, its handover to the log domain against the log-domain
path bit for bit, and its costs by counting kernels, passes over E,
exponentials and applications.
"""

from pathlib import Path

import numpy as np
import pytest

from conftest import dense_gauged_state, gauged_sweep, karp_max_cycle_mean, log_domain_side, sparse_aperiodic, tied_period_3
from gibbsline import limits, rpf_finite
from gibbsline.bundled import bundled_pair
from gibbsline.config import parse_model_config
from gibbsline.ergodic_opt import detect_k0
from gibbsline.errors import NoConvergence
from gibbsline.limits import ZT_TS_DEFAULT
from gibbsline.maxplus import gauge_of
from gibbsline.potential import Family, MarkovPotential
from gibbsline.rpf_finite import GaugedSweep, equilibrium, equilibrium_measure, perron, transfer_matrix
from gibbsline.shift_model import ModelKind, ShiftModel, build_truncation

HERE = Path(__file__).resolve().parent
CONFIGS = HERE.parent / "configs"


def assert_matches_oracle(pd, meas, W, t, beta=None):
    """log lambda, pi and P of a gauged solve against the dense oracle, at the
    tolerances of the other oracle tests; skipped where the oracle's margin
    cannot resolve the eigenvector (as in the random-graph test)."""
    log_lambda, pi, P, gap = dense_gauged_state(W, t, beta)
    assert pd.log_lambda == pytest.approx(log_lambda, rel=1e-10, abs=1e-10), t
    if gap < 1e-3:
        return
    assert np.allclose(meas.stationary, pi, rtol=1e-9, atol=1e-12), t
    assert np.allclose(meas.stochastic, P, rtol=1e-9, atol=1e-12), t


def solve_sweep(trunc, f, ts):
    """(t, PerronData, MarkovMeasure) of every t of a gauged sweep on trunc."""
    W = transfer_matrix(trunc, f, 1.0)
    gauge = gauged_sweep(trunc, f).gauge
    out = []
    for t in ts:
        logB = t * W
        pd = perron(logB, gauge=gauge.scaled(t))
        out.append((t, pd, equilibrium(pd, logB, trunc.alphabet)))
    return W, out


@pytest.mark.parametrize(
    "source, k", [("log_quadratic", None), ("non_summable", 3), ("renewal_weighted", None), ("tie_two_loops", None)]
)
def test_config_sweeps_match_the_dense_oracle(source, k):
    cfg = parse_model_config((CONFIGS / f"{source}.cfg").read_text())
    model, f, sw = cfg.model, cfg.potential, cfg.sweep
    if k is None:
        k = detect_k0(model, f, stability_window=sw.k0_window, tie_tol=sw.tie_tol).k0 + 1
    W, solves = solve_sweep(build_truncation(model, k), f, sw.zt_ts)
    for t, pd, meas in solves:
        assert_matches_oracle(pd, meas, W, t)


def test_planted_cyclic_sweep_matches_the_dense_oracle():
    cfg = parse_model_config((HERE / "planted_cyclic.cfg").read_text())
    trunc = build_truncation(cfg.model, 11)
    W, solves = solve_sweep(trunc, cfg.potential, ZT_TS_DEFAULT)
    for t, pd, meas in solves:
        assert pd.path == "shifted" and pd.chain is not None, t
        assert_matches_oracle(pd, meas, W, t)


def test_full_shift_sweep_at_511_symbols_matches_the_dense_oracle():
    """beta = 0 on tie_two_loops (the zero block {0, 1}^2), which spares
    the oracle its O(n^4) walk search."""
    model, f = bundled_pair("tie_two_loops")
    W, solves = solve_sweep(build_truncation(model, 510), f, (2.0, 64.0, 1024.0))
    for t, pd, meas in solves:
        assert pd.chain is not None
        assert_matches_oracle(pd, meas, W, t, beta=0.0)


def record_linear_runs(monkeypatch):
    """Record 'converged', 'stalled' or 'left the normal range' for every linear run."""
    runs = []
    real = rpf_finite._linear_iteration

    def recording(*args):
        try:
            result = real(*args)
        except rpf_finite._LeftNormalRange:
            runs.append("left the normal range")
            raise
        runs.append("stalled" if result[0] is None else "converged")
        return result

    monkeypatch.setattr(rpf_finite, "_linear_iteration", recording)
    return runs


def test_a_reduced_vector_below_the_normal_range_hands_over_to_the_log_domain(monkeypatch):
    """Two critical components tied at beta = 0 with unequal entropies, the
    2-shift {0, 1} and the loop at 2, coupled by 1 -> 2 (-1) and 2 -> 0 (-2).
    gauge_of seeds both, so the reduced vectors at the loop are about e^{-2t}
    (right) and e^{-t} (left): at t = 1024 both leave the normal range, and
    the solve returns the log-domain answer bit for bit."""
    W = np.full((3, 3), -np.inf)
    W[:2, :2] = 0.0
    W[2, 2], W[1, 2], W[2, 0] = 0.0, -1.0, -2.0
    gauge = gauge_of(W)
    assert gauge.cyclicity == 1
    t = 1024.0
    logB = t * W
    runs = record_linear_runs(monkeypatch)
    new = perron(logB, gauge=gauge.scaled(t))
    assert runs == ["left the normal range"] * 2
    assert new.chain is None
    with monkeypatch.context() as m:
        m.setattr(rpf_finite, "_side", log_domain_side)
        old = perron(logB, gauge=gauge.scaled(t))
    for name in ("log_lambda", "log_h", "log_nu", "residual", "path"):
        got, want = np.asarray(getattr(new, name)), np.asarray(getattr(old, name))
        assert got.tobytes() == want.tobytes(), name
    # the linear steps taken before the handover are counted too
    assert new.iterations > old.iterations
    a, b = equilibrium(new, logB), equilibrium(old, logB)
    assert a.stochastic.tobytes() == b.stochastic.tobytes()
    assert a.stationary.tobytes() == b.stationary.tobytes()


def test_a_stalled_linear_run_goes_to_the_next_run_of_the_ladder(monkeypatch):
    """tied_period_3's cyclic gauge: the linear shifted run stalls on both
    sides and is not repeated in the log domain; the plain run from the
    uniform vector converges at t = 64 (3000 + 5 steps a side) and nothing
    does at t = 8, 16 and 32."""
    W = tied_period_3()
    gauge = gauge_of(W)
    runs = record_linear_runs(monkeypatch)
    pd = perron(64.0 * W, gauge=gauge.scaled(64.0))
    assert runs == ["stalled"] * 2
    assert pd.path == "period-averaged" and pd.chain is None
    assert pd.iterations == 2 * 3000 + 10
    for t in (8.0, 16.0, 32.0):
        with pytest.raises(NoConvergence):
            perron(t * W, gauge=gauge.scaled(t))


def test_a_sparse_support_takes_the_log_domain_ladder(monkeypatch):
    """256 symbols on a Hamiltonian cycle with one more successor each: the
    edges fill at most 1/128 of the cells, so the ungauged solves build no
    scaled kernel, run the log-domain ladder and bring no chain. The gauged
    solves need no fill: each side steps on an edge list of its live cells,
    and the chain comes from the right one. Both match the dense oracle."""
    rng = np.random.default_rng(256)
    n = 256
    perm = rng.permutation(n)
    weights = {(int(perm[a]), int(perm[(a + 1) % n])): -float(rng.exponential()) for a in range(n)}
    for i in range(n):
        weights.setdefault((i, int(rng.integers(n))), -float(rng.exponential()))
    model = ShiftModel(ModelKind.CUSTOM, tuple(sorted(weights)))
    f = MarkovPotential(model, Family.TABLE, table=tuple((i, j, w) for (i, j), w in sorted(weights.items())))
    trunc = build_truncation(model, n - 1)
    assert rpf_finite._MIN_FILL * len(weights) <= n * n
    kinds = record_kernel_kinds(monkeypatch)
    ts = (2.0, 16.0, 128.0, 1024.0)
    W, solves = solve_sweep(trunc, f, ts)
    assert kinds == ["_LiveKernel"] * 2 * len(ts)
    beta = gauge_of(W).beta
    for t, pd, meas in solves:
        assert pd.chain is not None
        assert_matches_oracle(pd, meas, W, t, beta)
    kinds.clear()
    for t in ts:
        logB = t * W
        pd = perron(logB)
        assert pd.chain is None
        assert_matches_oracle(pd, equilibrium(pd, logB), W, t, beta)
    assert kinds == []


def record_kernel_kinds(monkeypatch):
    """The class name of every reduced kernel a side builds from here on."""
    kinds = []
    real = rpf_finite._ReducedSide.kernel

    def kernel(side, *args):
        K = real(side, *args)
        kinds.append(type(K).__name__)
        return K

    monkeypatch.setattr(rpf_finite._ReducedSide, "kernel", kernel)
    return kinds


def record_sweep_kernels(monkeypatch):
    """(t, class name, whether the side passed over E) of every kernel a
    sweep side builds from here on. A sweep side's buffer is filled with
    NaN before each kernel: a pass over E writes t E into it, a filtered
    edge list leaves it alone."""
    built = []
    real = rpf_finite._ReducedSide.kernel

    def kernel(side, t, *args):
        assert side.out is not side.E
        side.out.fill(np.nan)
        K = real(side, t, *args)
        built.append((t, type(K).__name__, not np.isnan(side.out).any()))
        return K

    monkeypatch.setattr(rpf_finite._ReducedSide, "kernel", kernel)
    return built


def sweep_results(trunc, f, sweep, ts):
    """(pressure, pi, P) of the sweep at every t, in the order given."""
    out = []
    for t in ts:
        p, meas = equilibrium_measure(trunc, f, t, sweep=sweep)
        out.append((p, meas.stationary.copy(), meas.stochastic.copy()))
    return out


def test_a_full_shift_sweep_at_511_symbols_steps_on_edge_lists_from_t_32(monkeypatch, tie_two_loops):
    """tie_two_loops at n = 511 over the default ts: the live cells fill
    more than 1/16 of the matrix up to t = 16 (149,564 of 261,121 at t = 2,
    21,999 at t = 16), so each side steps on its n x n kernel there; from
    t = 32 (11,120) on, on an edge list, built by one pass over E at t = 32
    and filtered at every larger t. Every t matches the sweep with every
    kernel n x n, log lambda within 1e-12 relative and pi and P within
    1e-10, and the dense oracle at the edge-list ts."""
    model, f = tie_two_loops
    trunc = build_truncation(model, 510)
    built = record_sweep_kernels(monkeypatch)
    got = sweep_results(trunc, f, gauged_sweep(trunc, f), ZT_TS_DEFAULT)
    listed = [t for t in ZT_TS_DEFAULT if t >= 32.0]
    want_built = [(t, "_ReducedKernel", True) for t in ZT_TS_DEFAULT if t < 32.0]
    want_built += [(t, "_LiveKernel", t == 32.0) for t in listed]
    assert built == [b for b in want_built for _ in range(2)]
    monkeypatch.undo()
    with monkeypatch.context() as m:
        m.setattr(rpf_finite, "_LIVE_FILL", 1 << 20)
        sweep = gauged_sweep(trunc, f)
        want = sweep_results(trunc, f, sweep, ZT_TS_DEFAULT)
    for t, (p, pi, P), (p_nn, pi_nn, P_nn) in zip(ZT_TS_DEFAULT, got, want):
        assert p == pytest.approx(p_nn, rel=1e-12, abs=0.0), t
        assert np.allclose(pi, pi_nn, rtol=1e-10, atol=0.0), t
        assert np.allclose(P, P_nn, rtol=1e-10, atol=0.0), t
    beta = gauge_of(sweep.W).beta
    for t in (32.0, 128.0, 1024.0):
        p, pi, P = got[ZT_TS_DEFAULT.index(t)]
        log_lambda, pi_o, P_o, gap = dense_gauged_state(sweep.W, t, beta)
        assert p == pytest.approx(log_lambda, rel=1e-10, abs=1e-10), t
        if gap >= 1e-3:
            assert np.allclose(pi, pi_o, rtol=1e-9, atol=1e-12), t
            assert np.allclose(P, P_o, rtol=1e-9, atol=1e-12), t


# how each side builds its kernel at each t: "n x n" and "pass" over E, or an
# edge list by a "pass" or by a "filter" of the side's last one
@pytest.mark.parametrize(
    "ts, steps",
    [
        (
            (1024.0, 512.0, 256.0, 128.0, 64.0, 32.0, 16.0, 2.0),
            ["list pass"] * 5 + ["n x n pass"] * 3,
        ),
        (
            (64.0, 64.0, 128.0, 32.0, 1024.0, 256.0, 512.0, 2.0),
            ["list pass", "list pass", "list filter", "n x n pass"] + ["list pass", "list pass", "list filter", "n x n pass"],
        ),
    ],
)
def test_a_sweep_in_any_order_gives_the_answers_of_an_ascending_one(monkeypatch, ts, steps):
    """The 256-symbol full shift of tie_two_loops, whose live cells fill at
    most 1/16 of the matrix from t = 64 on, stepped through decreasing and
    repeated ts: every t gives the bits of the ascending sweep, and a side
    filters its last edge list only at a larger t, passing over E at a
    smaller or equal one."""
    model, f = bundled_pair("tie_two_loops")
    trunc = build_truncation(model, 255)
    ascending = sorted(set(ts))
    want = dict(zip(ascending, sweep_results(trunc, f, gauged_sweep(trunc, f), ascending)))
    built = record_sweep_kernels(monkeypatch)
    got = sweep_results(trunc, f, gauged_sweep(trunc, f), ts)
    for t, (p, pi, P) in zip(ts, got):
        p_a, pi_a, P_a = want[t]
        assert p == p_a and pi.tobytes() == pi_a.tobytes() and P.tobytes() == P_a.tobytes(), t
    names = {
        ("_LiveKernel", True): "list pass",
        ("_LiveKernel", False): "list filter",
        ("_ReducedKernel", True): "n x n pass",
    }
    assert [b[0] for b in built] == [t for t in ts for _ in range(2)]
    assert [names[b[1:]] for b in built] == [step for step in steps for _ in range(2)]


def test_an_edge_list_iterate_below_the_normal_range_hands_over_to_the_log_domain(monkeypatch):
    """The handover test above on 128 symbols: a cycle on 127 with one more
    successor each and a loop at 0, all at weight 0, and a loop at 127 (0)
    coupled by 126 -> 127 and 127 -> 0 at -1. The edges fill 1/64 of the
    cells, so each side steps on an edge list; at t = 1024 both reduced
    vectors leave the normal range at 127, and the solve returns the
    log-domain answer bit for bit."""
    n = 128
    W = np.full((n, n), -np.inf)
    W[np.arange(n - 1), (np.arange(n - 1) + 1) % (n - 1)] = 0.0
    W[np.arange(n - 1), np.random.default_rng(127).integers(n - 1, size=n - 1)] = 0.0
    W[0, 0] = W[n - 1, n - 1] = 0.0
    W[n - 2, n - 1] = W[n - 1, 0] = -1.0
    gauge = gauge_of(W)
    t = 1024.0
    logB = t * W
    kinds = record_kernel_kinds(monkeypatch)
    runs = record_linear_runs(monkeypatch)
    new = perron(logB, gauge=gauge.scaled(t))
    assert kinds == ["_LiveKernel"] * 2
    assert runs == ["left the normal range"] * 2
    assert new.chain is None
    with monkeypatch.context() as m:
        m.setattr(rpf_finite, "_side", log_domain_side)
        old = perron(logB, gauge=gauge.scaled(t))
    for name in ("log_lambda", "log_h", "log_nu", "residual", "path"):
        got, want = np.asarray(getattr(new, name)), np.asarray(getattr(old, name))
        assert got.tobytes() == want.tobytes(), name
    assert new.iterations > old.iterations


def test_an_edge_list_chain_is_zero_off_the_live_cells_and_matches_the_chain_from_log_b(monkeypatch):
    """A gauged solve on 128 symbols (a Hamiltonian cycle, one more successor
    each and a loop) at t = 128, where 2 of the 257 edges lie below
    -_NORMAL_SPREAD in t E: its chain, scattered from the right edge list into the
    n x n buffer, is zero off the 255 live cells and within 1e-12 of the
    chain `equilibrium` builds from log B and the Perron data on them."""
    W = sparse_aperiodic(128, np.random.default_rng(7))
    gauge = gauge_of(W)
    t = 128.0
    logB = t * W
    kinds = record_kernel_kinds(monkeypatch)
    pd = perron(logB, gauge=gauge.scaled(t))
    assert kinds == ["_LiveKernel"] * 2
    E = (W + gauge.v[None, :]) - (gauge.v[:, None] + gauge.beta)
    live = t * E >= -rpf_finite._NORMAL_SPREAD
    assert np.count_nonzero(live) == 255 and np.count_nonzero(np.isfinite(W)) == 257
    P = pd.chain[1]
    assert pd.chain[0] is logB and P.shape == W.shape
    assert not P[~live].any()
    assert np.allclose(P[live], rpf_finite._chain(pd, logB)[live], rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("seed", [300, 301, 302])
def test_the_sparsest_supports_step_linearly_under_a_gauge(monkeypatch, seed):
    """Supports whose edges fill at most 1/128 of the cells (300 symbols, a
    Hamiltonian cycle, one more successor each and a loop at 0) took the
    log-domain ladder under a gauge while a reduced kernel was n x n; on
    edge lists of their live cells they step linearly. log lambda within
    1e-12 relative of the log-domain ladder (or 1e-12 absolute), pi and P
    within 1e-10 of it, as in the sparse sibling test of the scaled
    kernels, and the dense oracle at its tolerances."""
    W = sparse_aperiodic(300, np.random.default_rng(seed))
    assert not rpf_finite._dense(np.isfinite(W))
    beta = gauge_of(W).beta
    for t in (1.0, 4.0, 64.0):
        logB = t * W
        gauge = gauge_of(logB)
        with monkeypatch.context() as m:
            m.setattr(rpf_finite, "_side", log_domain_side)
            old = perron(logB, gauge=gauge)
        with monkeypatch.context() as m:
            kinds = record_kernel_kinds(m)
            runs = record_linear_runs(m)
            new = perron(logB, gauge=gauge)
        assert kinds == ["_LiveKernel"] * 2 and "converged" in runs and "left the normal range" not in runs, t
        assert new.chain is not None and new.path == old.path, t
        meas, ref = equilibrium(new, logB), equilibrium(old, logB)
        assert new.log_lambda == pytest.approx(old.log_lambda, rel=1e-12, abs=1e-12), t
        assert np.allclose(meas.stationary, ref.stationary, rtol=1e-10, atol=0.0), t
        assert np.allclose(meas.stochastic, ref.stochastic, rtol=1e-10, atol=0.0), t
        assert_matches_oracle(new, meas, W, t, beta)


def walk_search_max_cycle_mean(W):
    """The max cycle mean of W by a walk search of O(n^4): the heaviest closed
    walk of each length up to n, over its length."""
    n = W.shape[0]
    walks, beta = W.copy(), float(np.max(np.diag(W)))
    for length in range(2, n + 1):
        walks = np.max(walks[:, :, None] + W[None, :, :], axis=1)
        beta = max(beta, float(np.max(np.diag(walks))) / length)
    return beta


def test_the_oracles_karp_recurrence_matches_a_walk_search():
    """`karp_max_cycle_mean`, which `dense_gauged_state` runs when it is
    given no beta, against the walk search it replaced, on 600 random
    tables of 1 to 6 symbols with weights from -3..3 on random supports,
    reducible and acyclic ones among them (beta = -inf on those)."""
    rng = np.random.default_rng(6)
    acyclic = 0
    for _ in range(600):
        n = int(rng.integers(1, 7))
        W = np.where(rng.random((n, n)) < rng.uniform(0.1, 1.0), rng.uniform(-3.0, 3.0, (n, n)), -np.inf)
        want = walk_search_max_cycle_mean(W)
        acyclic += want == -np.inf
        assert karp_max_cycle_mean(W) == pytest.approx(want, rel=1e-14, abs=1e-14), W
    assert 0 < acyclic < 300


def test_equilibrium_takes_a_solve_chain_only_for_the_matrix_it_solved():
    """A gauged solve's chain is the measure's P for the logB it solved; for
    any other matrix, equal or not, equilibrium builds P from that matrix."""
    cfg = parse_model_config((HERE / "planted_cyclic.cfg").read_text())
    W, [(_, pd, meas)] = solve_sweep(build_truncation(cfg.model, 11), cfg.potential, (4.0,))
    logB, P = pd.chain
    assert meas.stochastic is P
    copy = equilibrium(pd, logB.copy())
    assert copy.stochastic is not P
    assert np.allclose(copy.stochastic, P, rtol=1e-12, atol=1e-15)
    other = equilibrium(pd, 2.0 * logB)
    assert not np.allclose(other.stochastic, P)


@pytest.mark.parametrize("source, k", [("planted_cyclic", 11), ("tie_two_loops", 255), ("log_quadratic", 6)])
def test_a_sweep_between_powers_of_two_matches_per_t_solves_and_the_oracle(source, k):
    """At ts that are no powers of two, t E and the exponent of a lone solve on
    t W may differ in the last ulp. The sweep's pressure matches the ungauged
    per-t solve, its pi and P the gauged per-t solve on transfer_matrix(trunc,
    f, t), each within 1e-12 relative, and all three the dense oracle."""
    path = HERE / "planted_cyclic.cfg" if source == "planted_cyclic" else CONFIGS / f"{source}.cfg"
    cfg = parse_model_config(path.read_text())
    trunc = build_truncation(cfg.model, k)
    sweep = gauged_sweep(trunc, cfg.potential)
    assert sweep.sides is not None
    for t in (3.0, 6.0, 100.0, 1000.0):
        p, meas = equilibrium_measure(trunc, cfg.potential, t, sweep=sweep)
        assert p == pytest.approx(equilibrium_measure(trunc, cfg.potential, t)[0], rel=1e-12, abs=0.0), t
        logB = transfer_matrix(trunc, cfg.potential, t)
        pd = perron(logB, gauge=sweep.gauge.scaled(t))
        lone = equilibrium(pd, logB)
        assert p == pytest.approx(pd.log_lambda, rel=1e-12, abs=0.0), t
        assert np.allclose(meas.stationary, lone.stationary, rtol=1e-12, atol=0.0), t
        assert np.allclose(meas.stochastic, lone.stochastic, rtol=1e-12, atol=0.0), t
        assert_matches_oracle(pd, meas, sweep.W, t, beta=0.0 if source == "tie_two_loops" else None)


def test_a_sweep_forms_t_w_only_where_a_side_hands_over(monkeypatch):
    """The tied 2-shift of the handover test above, as a sweep over the
    default ts: the right reduced vector leaves the normal range at t = 512
    and both do at t = 1024, and only there is t W formed, once per side
    that hands over. Every t equals
    the lone gauged solve on t W bit for bit, and at t = 1024 the log-domain
    ladder."""
    entries = {(0, 0): 0.0, (0, 1): 0.0, (1, 0): 0.0, (1, 1): 0.0, (2, 2): 0.0, (1, 2): -1.0, (2, 0): -2.0}
    model = ShiftModel(ModelKind.CUSTOM, tuple(sorted(entries)))
    f = MarkovPotential(model, Family.TABLE, table=tuple((i, j, w) for (i, j), w in sorted(entries.items())))
    trunc = build_truncation(model, 2)
    W = transfer_matrix(trunc, f, 1.0)
    sweep = GaugedSweep(W, np.isfinite(W), gauge_of(W))
    assert sweep.sides is not None
    formed, handed_over = [], []
    log_matrix = rpf_finite._ReducedSide.log_matrix
    monkeypatch.setattr(rpf_finite._ReducedSide, "log_matrix", lambda side, t: formed.append(t) or log_matrix(side, t))
    runs = record_linear_runs(monkeypatch)
    got = {}
    for t in ZT_TS_DEFAULT:
        before = len(runs)
        p, meas = equilibrium_measure(trunc, f, t, sweep=sweep)
        if "left the normal range" in runs[before:]:
            handed_over.append(t)
        got[t] = (p, meas.stochastic.copy(), meas.stationary.copy())
    assert handed_over == [512.0, 1024.0]
    # once per side that hands over: the right side's t W also gives the chain
    assert formed == [512.0, 1024.0, 1024.0]
    monkeypatch.undo()

    def assert_same_bits(pd, logB, t):
        want = equilibrium(pd, logB, trunc.alphabet)
        p, P, pi = got[t]
        assert p == pd.log_lambda, t
        assert P.tobytes() == want.stochastic.tobytes(), t
        assert pi.tobytes() == want.stationary.tobytes(), t

    for t in ZT_TS_DEFAULT:
        logB = t * W
        assert_same_bits(perron(logB, gauge=sweep.gauge.scaled(t)), logB, t)
    logB = 1024.0 * W
    with monkeypatch.context() as m:
        m.setattr(rpf_finite, "_side", log_domain_side)
        assert_same_bits(perron(logB, gauge=sweep.gauge.scaled(1024.0)), logB, 1024.0)


def test_a_sweep_builds_each_exponent_once_and_each_kernel_in_one_buffer(monkeypatch):
    """A zero-temperature sweep on the planted model builds E twice (one per
    side), not twice per t; each t builds one kernel per side, both in the
    one n x n buffer of the sweep, the left one column-major; and the
    measure's P is that buffer, valid until the next t."""
    cfg = parse_model_config((HERE / "planted_cyclic.cfg").read_text())
    exponents, kernels = [], []
    side_init = rpf_finite._ReducedSide.__init__
    kernel_init = rpf_finite._ReducedKernel.__init__

    def building(side, *args):
        side_init(side, *args)
        exponents.append(side)

    def exponentiating(kernel, *args):
        kernel_init(kernel, *args)
        kernels.append(kernel.K)

    monkeypatch.setattr(rpf_finite._ReducedSide, "__init__", building)
    monkeypatch.setattr(rpf_finite._ReducedKernel, "__init__", exponentiating)
    stochastic = []
    real = limits.equilibrium_measure

    def keeping(*args, **kwargs):
        p, meas = real(*args, **kwargs)
        stochastic.append(meas.stochastic)
        return p, meas

    monkeypatch.setattr(limits, "equilibrium_measure", keeping)
    res = limits.zero_temp_sweep(cfg.model, cfg.potential, 11, ts=ZT_TS_DEFAULT)
    assert res.ts == ZT_TS_DEFAULT
    assert len(exponents) == 2
    assert len(kernels) == 2 * len(ZT_TS_DEFAULT)
    buf = kernels[1]
    assert buf.flags.c_contiguous and buf.shape == (12, 12)
    assert all(K is buf for K in kernels[1::2])
    assert all(K.base is buf and K.flags.f_contiguous for K in kernels[::2])
    assert len(stochastic) == len(ZT_TS_DEFAULT) and all(P is buf for P in stochastic)
