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
from gibbsline import rpf_finite
from gibbsline.bundled import bundled_pair
from gibbsline.config import parse_model_config
from gibbsline.ergodic_opt import critical_decomposition, detect_k0, max_plus_gauge
from gibbsline.errors import NoConvergence
from gibbsline.limits import ZT_TS_DEFAULT
from gibbsline.maxplus import gauge_of
from gibbsline.potential import Family, MarkovPotential
from gibbsline.rpf_finite import equilibrium, perron, transfer_matrix
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
        m.setattr(rpf_finite, "_gauged_side", log_domain_side)
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
    """64 symbols on a Hamiltonian cycle with one more successor each: the
    edges fill at most 1/32 of the cells, so the gauged solves build no
    reduced kernel, run the log-domain ladder from the gauge and bring no
    chain, and match the dense oracle."""
    rng = np.random.default_rng(64)
    n = 64
    perm = rng.permutation(n)
    weights = {(int(perm[a]), int(perm[(a + 1) % n])): -float(rng.exponential()) for a in range(n)}
    for i in range(n):
        weights.setdefault((i, int(rng.integers(n))), -float(rng.exponential()))
    model = ShiftModel(ModelKind.CUSTOM, tuple(sorted(weights)))
    f = MarkovPotential(model, Family.TABLE, table=tuple((i, j, w) for (i, j), w in sorted(weights.items())))
    trunc = build_truncation(model, n - 1)
    assert rpf_finite._REDUCED_MIN_FILL * len(weights) <= n * n
    built = []
    monkeypatch.setattr(rpf_finite, "_ReducedKernel", lambda *args: built.append(args))
    W, solves = solve_sweep(trunc, f, (2.0, 16.0, 128.0, 1024.0))
    assert built == []
    for t, pd, meas in solves:
        assert pd.chain is None
        assert_matches_oracle(pd, meas, W, t)


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
