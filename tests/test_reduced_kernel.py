"""Gauged solves on reduced kernels, against the dense oracle and the log-domain path.

A gauged solve iterates linearly on K = exp(log B - t beta + t b_j - t b_i),
b = v on the right and u on the left, and builds the chain from the right
kernel. Its answers are checked against `dense_gauged_state` (the configs'
sweeps, the planted 12-symbol model, `tie_two_loops` at n = 511), its
handover to the log domain against the log-domain path bit for bit, and its
costs by counting kernels, exponentials and applications.
"""

from pathlib import Path

import numpy as np
import pytest

from conftest import dense_gauged_state, log_domain_side, tied_period_3
from gibbsline import limits, rpf_finite
from gibbsline.bundled import bundled_pair
from gibbsline.config import parse_model_config
from gibbsline.ergodic_opt import critical_decomposition, detect_k0, max_plus_gauge
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
    gauge = max_plus_gauge(trunc, f, critical_decomposition(trunc, f, W=W), W=W)
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
    edges fill at most 1/128 of the cells, so the gauged solves build no
    reduced kernel, run the log-domain ladder from the gauge and bring no
    chain, and match the dense oracle (given Howard's max cycle mean: its
    own walk search costs O(n^4), about 20 s at this n)."""
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
    built = []
    monkeypatch.setattr(rpf_finite, "_ReducedKernel", lambda *args: built.append(args))
    W, solves = solve_sweep(trunc, f, (2.0, 16.0, 128.0, 1024.0))
    assert built == []
    beta = gauge_of(W).beta
    for t, pd, meas in solves:
        assert pd.chain is None
        assert_matches_oracle(pd, meas, W, t, beta)


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


def sweep_of(trunc, f, W=None, gauge=None):
    """The GaugedSweep of f on trunc, from the max-plus gauge of its critical decomposition unless given."""
    if W is None:
        W = transfer_matrix(trunc, f, 1.0)
    if gauge is None:
        gauge = max_plus_gauge(trunc, f, critical_decomposition(trunc, f, W=W), W=W)
    return GaugedSweep(W, gauge)


@pytest.mark.parametrize("source, k", [("planted_cyclic", 11), ("tie_two_loops", 255), ("log_quadratic", 6)])
def test_a_sweep_between_powers_of_two_matches_per_t_solves_and_the_oracle(source, k):
    """At ts that are no powers of two, t E and the exponent of a lone solve on
    t W may differ in the last ulp. The sweep's pressure matches the ungauged
    per-t solve, its pi and P the gauged per-t solve on transfer_matrix(trunc,
    f, t), each within 1e-12 relative, and all three the dense oracle."""
    path = HERE / "planted_cyclic.cfg" if source == "planted_cyclic" else CONFIGS / f"{source}.cfg"
    cfg = parse_model_config(path.read_text())
    trunc = build_truncation(cfg.model, k)
    sweep = sweep_of(trunc, cfg.potential)
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
    sweep = sweep_of(trunc, f, W, gauge_of(W))
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
