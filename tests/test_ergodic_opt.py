import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_force_cycles, brute_force_max_mean
from gibbsline.bundled import bundled_pair
from gibbsline.cli import run_command
from gibbsline.config import parse_model_config
from gibbsline.ergodic_opt import (
    _structure_key,
    critical_decomposition,
    critical_graph,
    detect_k0,
    max_entropy_over_maximizing,
    max_mean_cycle,
    subaction,
)
from gibbsline import ergodic_opt, maxplus, rpf_finite
from gibbsline.errors import BudgetExceeded, NoConvergence, NotStabilized, SolverError, ValidationError
from gibbsline.potential import Family, MarkovPotential
from gibbsline.rpf_finite import pressure, transfer_matrix
from gibbsline.shift_model import ModelKind, ShiftModel, build_truncation

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def table_model(entries):
    edges = tuple((i, j) for i, j, _ in entries)
    model = ShiftModel(ModelKind.CUSTOM, edges)
    return model, MarkovPotential(model, Family.TABLE, table=tuple(entries))


def random_irreducible(rng, n):
    """Random irreducible weighted graph on n symbols (cycle + extras)."""
    perm = np.roll(np.arange(n), -1)
    entries = {(i, int(perm[i])): float(rng.normal()) for i in range(n)}
    extra = rng.random((n, n)) < 0.45
    for i, j in zip(*np.nonzero(extra)):
        entries.setdefault((int(i), int(j)), float(rng.normal()))
    return table_model([(i, j, v) for (i, j), v in sorted(entries.items())])


class TestMaxMeanCycle:
    def test_renewal_weighted_loop(self, renewal_weighted):
        model, f = renewal_weighted
        beta, witness = max_mean_cycle(build_truncation(model, 2), f)
        assert beta == pytest.approx(-1.0, abs=1e-15)
        assert witness == (0,)

    def test_tie_two_loops_zero(self, tie_two_loops):
        model, f = tie_two_loops
        beta, witness = max_mean_cycle(build_truncation(model, 3), f)
        assert beta == 0.0
        assert set(witness) <= {0, 1}

    def test_log_quadratic_self_loop(self, log_quadratic):
        model, f = log_quadratic
        tr = build_truncation(model, 3)
        beta_raw, wit_raw = max_mean_cycle(tr, f)
        assert beta_raw == pytest.approx(-math.log(2), abs=1e-15)
        assert wit_raw == (0,)
        beta_norm, _ = max_mean_cycle(tr, f.normalized())
        assert beta_norm == pytest.approx(0.0, abs=1e-12)

    def test_normalization_covariance(self, renewal_weighted):
        model, f = renewal_weighted
        tr = build_truncation(model, 3)
        beta, witness = max_mean_cycle(tr, f)
        for c in (0.3, -2.0):
            shifted = MarkovPotential(model, f.family, shift=c)
            beta_c, witness_c = max_mean_cycle(tr, shifted)
            assert beta_c == pytest.approx(beta + c, abs=1e-12)
            assert witness_c == witness


class TestBruteForce:
    def test_single_cycle(self):
        model, f = table_model([(0, 1, -1.0), (1, 0, -3.0)])
        assert brute_force_max_mean(build_truncation(model, 1), f, 2) == pytest.approx(-2.0)

    def test_full_two_shift_table(self):
        model, f = table_model([(0, 0, 0.0), (0, 1, -1.0), (1, 0, -1.0), (1, 1, -5.0)])
        assert brute_force_max_mean(build_truncation(model, 1), f, 2) == pytest.approx(0.0)

    def test_renewal(self, renewal_weighted):
        model, f = renewal_weighted
        assert brute_force_max_mean(build_truncation(model, 2), f, 3) == pytest.approx(-1.0)

    def test_budgets(self, renewal_weighted):
        model, f = renewal_weighted
        with pytest.raises(BudgetExceeded):
            brute_force_max_mean(build_truncation(model, 11), f, 3)
        with pytest.raises(BudgetExceeded):
            brute_force_max_mean(build_truncation(model, 3), f, 9)

    def test_karp_matches_brute_force_25_graphs(self, rng):
        for trial in range(25):
            n = int(rng.integers(2, 9))
            model, f = random_irreducible(rng, n)
            tr = build_truncation(model, n - 1)
            beta, _ = max_mean_cycle(tr, f)
            oracle = brute_force_max_mean(tr, f, tr.n_symbols)
            assert beta == pytest.approx(oracle, abs=1e-12), trial


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_karp_matches_brute_force_hypothesis(data):
    n = data.draw(st.integers(min_value=2, max_value=6))
    perm = list(range(1, n)) + [0]
    entries = {(i, perm[i]): data.draw(st.floats(-10, 10)) for i in range(n)}
    extra = data.draw(
        st.dictionaries(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            st.floats(-10, 10),
            max_size=8,
        )
    )
    for k, v in extra.items():
        entries.setdefault(k, v)
    model, f = table_model([(i, j, v) for (i, j), v in sorted(entries.items())])
    tr = build_truncation(model, n - 1)
    beta, _ = max_mean_cycle(tr, f)
    assert beta == pytest.approx(brute_force_max_mean(tr, f, tr.n_symbols), abs=1e-12)


def cycle_mean(W, cycle):
    """Mean weight of a cycle, summed from its first vertex."""
    total = 0.0
    L = len(cycle)
    for a in range(L):
        total += W[cycle[a], cycle[(a + 1) % L]]
    return total / L


def karp(W):
    """Karp's dynamic program with a back-pointer witness: the reference beta.

    Walks of length 0..n from vertex 0 give beta = max_v min_r (D_n(v) -
    D_r(v)) / (n - r); the witness is the best cycle on the heaviest
    length-n walk into the maximizing v, by enumeration where that walk
    misses it.
    """
    n = W.shape[0]
    D = np.full((n + 1, n), -np.inf)
    D[0, 0] = 0.0
    parent = np.full((n + 1, n), -1, dtype=np.int64)
    for r in range(1, n + 1):
        cand = D[r - 1][:, None] + W
        parent[r] = np.argmax(cand, axis=0)
        D[r] = cand[parent[r], np.arange(n)]
    with np.errstate(invalid="ignore"):
        ratios = (D[n] - D[:n]) / (n - np.arange(n))[:, None]
    q = np.where(np.isfinite(D[:n]), ratios, np.inf).min(axis=0)
    q[~np.isfinite(D[n])] = -np.inf
    v = int(np.argmax(q))
    path = [v]
    for r in range(n, 0, -1):
        v = int(parent[r, v])
        path.append(v)
    path.reverse()
    best, cycle = -np.inf, None
    seen = {}
    for pos, u in enumerate(path):
        if u in seen and cycle_mean(W, path[seen[u] : pos]) > best:
            cycle = path[seen[u] : pos]
            best = cycle_mean(W, cycle)
        seen[u] = pos
    if abs(best - q.max()) > 1e-7 * max(1.0, abs(q.max())):
        best, cycle = brute_force_cycles(W, n)
    return best, cycle


def random_weights(n, seed, ties):
    """Weights on a Hamiltonian cycle plus random chords; integer weights tie many cycle means."""
    rng = np.random.default_rng(seed)
    finite = rng.random((n, n)) < 0.3
    finite[np.arange(n), (np.arange(n) + 1) % n] = True
    weights = rng.integers(-3, 2, (n, n)).astype(float) if ties else rng.normal(size=(n, n))
    return np.where(finite, weights, -np.inf)


def rotations(cycle):
    return {tuple(cycle[i:] + cycle[:i]) for i in range(len(cycle))}


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 24), st.integers(0, 2**32 - 1), st.booleans())
def test_howard_keeps_karps_beta_and_untied_witness(n, seed, ties):
    W = random_weights(n, seed, ties)
    beta, cycle = maxplus.max_cycle_mean(W)
    karp_beta, karp_cycle = karp(W)
    assert beta == pytest.approx(karp_beta, abs=1e-12)
    # the witness is a simple cycle of finite edges, through its smallest
    # vertex first, and beta is its mean summed from there
    assert len(set(cycle)) == len(cycle) and cycle[0] == min(cycle)
    assert all(np.isfinite(W[a, b]) for a, b in zip(cycle, cycle[1:] + cycle[:1]))
    assert cycle_mean(W, cycle) == beta
    if not ties:
        assert tuple(cycle) in rotations(karp_cycle)
    if n <= 8:
        model, f = table_model([(int(i), int(j), float(W[i, j])) for i, j in zip(*np.nonzero(np.isfinite(W)))])
        tr = build_truncation(model, n - 1)
        assert beta == pytest.approx(brute_force_max_mean(tr, f, n), abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 12), st.integers(0, 2**32 - 1), st.booleans())
def test_critical_structure_matches_karp(n, seed, ties):
    W = random_weights(n, seed, ties)
    model, f = table_model([(int(i), int(j), float(W[i, j])) for i, j in zip(*np.nonzero(np.isfinite(W)))])
    tr = build_truncation(model, n - 1)
    dec = critical_decomposition(tr, f)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(maxplus, "_max_cycle_mean", lambda W, finite, tol: karp(W))
        ref = critical_decomposition(tr, f)
    assert _structure_key(dec) == _structure_key(ref)
    assert dec.cyclicity == ref.cyclicity
    assert dec.beta == pytest.approx(ref.beta, abs=1e-12)


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.cfg")), ids=lambda p: p.stem)
def test_detect_k0_matches_karp_on_shipped_configs(path):
    cfg = parse_model_config(path.read_text(encoding="utf-8"))

    def k0():
        try:
            return detect_k0(cfg.model, cfg.potential)
        except ValidationError as exc:  # the non-summable config has no k0
            return type(exc)

    got = k0()
    with pytest.MonkeyPatch.context() as m:
        m.setattr(maxplus, "_max_cycle_mean", lambda W, finite, tol: karp(W))
        want = k0()
    assert got == want


class TestDetectK0OnAFiniteModel:
    """A custom model without tail rule runs out of truncations; the last one
    is the whole compact shift, so its structure is final."""

    def test_a_run_of_one_at_the_end(self):
        # k = 0 has the loop at 0 (beta -2); k = 1, the last, the 2-cycle (beta -1)
        model, f = table_model([(0, 0, -2.0), (0, 1, -1.0), (1, 0, -1.0), (1, 1, -3.0)])
        rep = detect_k0(model, f)
        assert (rep.k0, rep.window, rep.ks, rep.betas) == (1, 1, (0, 1), (-2.0, -1.0))

    def test_the_run_at_the_end_not_the_first_agreeing_window(self):
        # k = 0, 1, 2 agree on the loop at 0; the last truncation (k = 3) finds the loop at 3
        entries = [(i, j, -5.0) for i in range(4) for j in range(4)]
        entries[0] = (0, 0, -1.0)
        entries[-1] = (3, 3, 0.0)
        model, f = table_model(entries)
        rep = detect_k0(model, f)
        assert (rep.k0, rep.window, rep.ks, rep.betas) == (3, 1, (0, 1, 2, 3), (-1.0, -1.0, -1.0, 0.0))

    def test_a_longer_run_at_the_end(self):
        entries = [(i, j, -5.0) for i in range(3) for j in range(3)]
        entries[0] = (0, 0, -2.0)
        entries[1:2] = [(0, 1, -1.0)]
        entries[3] = (1, 0, -1.0)
        model, f = table_model(entries)
        rep = detect_k0(model, f)
        assert (rep.k0, rep.window, rep.ks) == (1, 2, (0, 1, 2))

    def test_a_model_without_truncations_does_not_stabilize(self):
        # symbol 0 lies on no edge, so no prefix alphabet has a truncation
        model, f = table_model([(1, 1, -1.0)])
        with pytest.raises(NotStabilized):
            detect_k0(model, f)

    def test_a_model_that_never_runs_out_keeps_its_window(self, renewal_weighted):
        rep = detect_k0(*renewal_weighted)
        assert rep.ks == tuple(range(10)) and rep.window == 3


@pytest.mark.parametrize("name, beta", [("log_quadratic", -math.log(2)), ("tie_two_loops", 0.0), ("renewal_weighted", -1.0)])
def test_howard_beta_at_1023_symbols_is_the_closed_form(name, beta):
    model, f = bundled_pair(name)
    assert max_mean_cycle(build_truncation(model, 1022), f)[0] == beta


def test_howard_raises_on_an_empty_row_and_past_its_round_cap(monkeypatch):
    with pytest.raises(SolverError, match="no out-edge"):
        maxplus.max_cycle_mean(np.array([[0.0, 1.0], [-np.inf, -np.inf]]))
    # an improvement step that never settles runs into the cap
    monkeypatch.setattr(maxplus, "_improve", lambda W, finite, policy, *rest: policy.copy())
    with pytest.raises(SolverError, match="did not settle"):
        maxplus.max_cycle_mean(random_weights(6, 0, ties=False))


class TestSubaction:
    def test_constant_potential(self):
        model, f = table_model([(0, 1, -1.0), (1, 0, -1.0), (0, 0, -1.0)])
        tr = build_truncation(model, 1)
        v = subaction(tr, f, -1.0)
        assert np.allclose(v, 0.0, atol=1e-12)

    def test_two_cycle_example(self):
        model, f = table_model([(0, 1, 0.0), (1, 0, -2.0)])
        tr = build_truncation(model, 1)
        v = subaction(tr, f, -1.0)
        assert v[0] == 0.0
        assert v[1] == pytest.approx(-1.0, abs=1e-12)

    def test_tie_two_loops_value(self, tie_two_loops):
        model, f = tie_two_loops
        tr = build_truncation(model, 2)
        v = subaction(tr, f, 0.0)
        assert np.allclose(v[:2], 0.0, atol=1e-12)
        assert v[2] == pytest.approx(-3.0, abs=1e-12)

    def test_superharmonic_everywhere(self, renewal_weighted):
        model, f = renewal_weighted
        tr = build_truncation(model, 4)
        beta, _ = max_mean_cycle(tr, f)
        v = subaction(tr, f, beta)
        vals = f.value_grid(tr.alphabet, tr.alphabet)
        inc = tr.incidence
        for a in range(tr.n_symbols):
            for b in np.flatnonzero(inc[a]):
                assert vals[a, b] - beta + v[b] - v[a] <= 1e-10


def value_iteration_subaction(G, seeds, tie_tol=1e-9):
    """The value iteration that computed subactions before policy iteration, verbatim: the oracle."""
    n = G.shape[0]
    v = np.full(n, -np.inf)
    v[seeds] = 0.0
    for _ in range(n + 1):
        with np.errstate(invalid="ignore"):
            candidate = np.max(G + v[None, :], axis=1)
        new = np.maximum(v, candidate)
        if np.allclose(new, v, rtol=0.0, atol=tie_tol / 100.0, equal_nan=True):
            v = new
            break
        v = new
    if not np.all(np.isfinite(v)):
        raise NoConvergence(n + 1, math.inf)
    with np.errstate(invalid="ignore"):
        resid = float(np.max(np.max(G + v[None, :], axis=1) - v))
    if resid > tie_tol / 10.0:
        raise NoConvergence(n + 1, resid)
    return v


@pytest.mark.parametrize("n", [3, 4, 7, 64, 255, 1023])
@pytest.mark.parametrize("name", ["log_quadratic", "tie_two_loops", "renewal_weighted"])
def test_seeded_policy_iteration_keeps_the_bits_of_value_iteration(name, n):
    model, f = bundled_pair(name)
    tr = build_truncation(model, n - 1)
    dec = critical_decomposition(tr, f)
    W = transfer_matrix(tr, f, 1.0)
    idx = tr.local_index()
    witness_seed = (idx[min(dec.witness_cycle)],)
    maximal_seeds = tuple(idx[dec.components[j].symbols[0]] for j in dec.maximal_components)
    for seeds in {witness_seed, maximal_seeds}:
        for side in (W, W.T):
            got = maxplus.subaction(side, dec.beta, list(seeds))
            assert got.tobytes() == value_iteration_subaction(side - dec.beta, list(seeds)).tobytes()
    gauge = ergodic_opt._gauge(tr, W, *maxplus._support(W), dec)
    assert gauge.v.tobytes() == maxplus.subaction(W, dec.beta, list(maximal_seeds)).tobytes()
    assert gauge.u.tobytes() == maxplus.subaction(W.T, dec.beta, list(maximal_seeds)).tobytes()


@settings(max_examples=80, deadline=None)
@given(st.integers(2, 24), st.integers(0, 2**32 - 1), st.booleans(), st.sampled_from([0.0, -100.3, -1000.0]))
def test_seeded_policy_iteration_matches_value_iteration_on_random_graphs(n, seed, ties, offset):
    # a common offset makes beta large while G = W - beta stays small
    W = random_weights(n, seed, ties) + offset
    beta, witness = maxplus.max_cycle_mean(W)
    G = W - beta
    scale = max(1.0, float(np.max(np.abs(W[np.isfinite(W)]))))
    tie_tol = 1e-9 * scale
    v = maxplus.subaction(W, beta, [min(witness)])
    ref = value_iteration_subaction(G, [min(witness)], tie_tol)
    assert np.max(np.abs(v - ref)) <= 1e-12 * scale
    _, comps = maxplus.critical_components(W, beta, v, tie_tol)
    _, ref_comps = maxplus.critical_components(W, beta, ref, tie_tol)
    assert [(c, sub.tolist()) for c, sub in comps] == [(c, sub.tolist()) for c, sub in ref_comps]
    # the gauge seeds every critical component, on both sides
    seeds = [c[0] for c, _ in comps]
    gauge = maxplus.gauge(W, beta, seeds, 1)
    assert np.max(np.abs(gauge.v - value_iteration_subaction(G, seeds, tie_tol))) <= 1e-12 * scale
    assert np.max(np.abs(gauge.u - value_iteration_subaction(G.T, seeds, tie_tol))) <= 1e-12 * scale


@pytest.mark.parametrize(
    "W",
    [
        # 2-cycles whose float sum rounds above twice beta, so G sums to about +1e-13 around them
        np.array([[-np.inf, -100.1], [-100.3, -np.inf]]),
        np.array([[-np.inf, -494.7], [-479.5, -np.inf]]),
        np.array([[-np.inf, -735.3], [-750.6, -np.inf]]),
        # a loop one ulp heavier than the witness loop, within the tolerance beta is settled with
        np.array([[-700.3, -701.0], [-702.0, np.nextafter(-700.3, 0.0)]]),
    ],
)
def test_cycles_that_round_above_beta_are_ties(W):
    beta, witness = maxplus.max_cycle_mean(W)
    scale = float(np.max(np.abs(W[np.isfinite(W)])))
    for side in (W, W.T):
        v = maxplus.subaction(side, beta, [min(witness)])
        ref = value_iteration_subaction(side - beta, [min(witness)], 1e-9 * scale)
        assert np.max(np.abs(v - ref)) <= 1e-12 * scale
        assert v[min(witness)] == 0.0


def test_a_near_tie_above_the_tie_tolerance_is_resolved():
    # at n = 1023 and |W| = 3000, 16 n eps |W| is about 1e-8: vertex 3's two edges
    # differ by 5e-9, which the default tie_tol of 1e-9 tells apart
    n, off = 1023, -300.0
    W = np.full((n, n), -np.inf)
    W[[0, 1, 2], 0] = off
    W[3, 1], W[3, 2] = off, off + 5e-9
    W[4:, 0] = off
    W[0, n - 1] = 10 * off
    beta, witness = maxplus.max_cycle_mean(W)
    assert (beta, witness) == (off, [0])
    v = maxplus.subaction(W, beta, [0])
    ref = value_iteration_subaction(W - beta, [0])
    assert v.tobytes() == ref.tobytes()
    tight, _ = maxplus.critical_components(W, beta, v, 1e-9)
    assert tight[3].tolist() == (np.arange(n) == 2).tolist()


def test_a_seed_leaves_its_stop_for_a_heavier_walk_to_another_seed():
    # both loops are critical, and the walk 0 -> 1 weighs 1 more than stopping at 0
    G = np.array([[0.0, 1.0], [-5.0, 0.0]])
    assert maxplus.subaction(G, 0.0, [0, 1]).tolist() == value_iteration_subaction(G, [0, 1]).tolist() == [1.0, 0.0]
    assert maxplus.subaction(G, 0.0, [0]).tolist() == [0.0, -5.0]
    assert maxplus.subaction(G, 0.0, [1, 0]).tolist() == [1.0, 0.0]  # seeds in any order
    # seed 0's own loop outweighs beta by less than the tolerance: once seed 0 has
    # left its stop, the loop must not read as a return to it
    G[0, 0] = 4e-15
    v = maxplus.subaction(G, 0.0, [0, 1])
    assert np.abs(v - value_iteration_subaction(G, [0, 1])).max() <= 1e-12 and v[0] >= 1.0


def test_subaction_raises_below_the_max_cycle_mean(tie_two_loops):
    W = random_weights(8, 3, ties=False)
    beta, witness = maxplus.max_cycle_mean(W)
    for low in (beta - 0.5, beta - 1e-6):
        with pytest.raises(SolverError, match="below the max cycle mean"):
            maxplus.subaction(W, low, [min(witness)])
    # a positive loop on the seed itself, on a single vertex
    with pytest.raises(SolverError, match="below the max cycle mean"):
        maxplus.subaction(np.array([[0.5]]), 0.0, [0])
    model, f = tie_two_loops
    tr = build_truncation(model, 4)
    with pytest.raises(SolverError, match="below the max cycle mean"):
        subaction(tr, f, -1.0)


def test_subaction_raises_on_a_vertex_that_reaches_no_seed():
    G = np.array([[0.0, -np.inf, -np.inf], [-1.0, 0.0, -np.inf], [-np.inf, -np.inf, 0.0]])
    with pytest.raises(SolverError, match="vertex 2 reaches no seed"):
        maxplus.subaction(G, 0.0, [0])
    assert maxplus.subaction(G[:2, :2], 0.0, [0]).tolist() == [0.0, -1.0]


def test_cli_exits_3_when_beta_is_below_the_max_cycle_mean(tmp_path, monkeypatch, capsys):
    real = maxplus._max_cycle_mean

    def too_small(W, finite, tol):
        beta, witness = real(W, finite, tol)
        return beta - 1.0, witness

    monkeypatch.setattr(maxplus, "_max_cycle_mean", too_small)
    code = run_command(["zerotemp", "--config", str(CONFIGS / "tie_two_loops.cfg"), "--out", str(tmp_path)])
    assert code == 3
    assert "below the max cycle mean" in capsys.readouterr().err


def test_a_component_solve_that_stalls_raises(tmp_path, monkeypatch, capsys, tie_two_loops):
    """tie_two_loops' critical component {0, 1} carries 4 edges, so its solves
    take power iteration. When both runs spend their budgets, the
    decomposition raises the solve's NoConvergence instead of keeping a
    degraded component, and zerotemp exits 3. The plain run goes linear on
    the component's scaled kernel and the shifted run in the log domain, so
    both iterations stall."""

    def stalled(*args):
        return None, math.nan, args[-1], 1e-3

    monkeypatch.setattr(rpf_finite, "_power_iteration", stalled)
    monkeypatch.setattr(rpf_finite, "_linear_iteration", stalled)
    model, f = tie_two_loops
    with pytest.raises(NoConvergence) as exc:
        critical_decomposition(build_truncation(model, 3), f)
    assert exc.value.args == NoConvergence(2 * 3000, 1e-3).args  # plain and shifted, the default budget each
    code = run_command(["zerotemp", "--config", str(CONFIGS / "tie_two_loops.cfg"), "--out", str(tmp_path)])
    assert code == 3
    assert "solver failure: no convergence after 6000 iterations (residual 1.000e-03)" in capsys.readouterr().err


def test_seeded_runs_settle_in_one_round_on_renewal_at_1023_symbols(monkeypatch, renewal_weighted):
    model, f = renewal_weighted
    tr = build_truncation(model, 1022)
    dec = critical_decomposition(tr, f)
    evaluated = []
    real = maxplus._evaluate
    monkeypatch.setattr(maxplus, "_evaluate", lambda *args: evaluated.append(1) or real(*args))
    v = subaction(tr, f, dec.beta, witness=dec.witness_cycle)
    assert len(evaluated) == 1  # the shortest walks into the seed are already the best
    W = transfer_matrix(tr, f, 1.0)
    gauge = ergodic_opt._gauge(tr, W, *maxplus._support(W), dec)
    assert len(evaluated) == 3  # one evaluation per side
    assert gauge.v.tobytes() == v.tobytes()


@pytest.mark.parametrize("name", ["tie_two_loops", "renewal_weighted"])
def test_one_weight_matrix_per_decomposition_and_per_sweep_setup(monkeypatch, name):
    model, f = bundled_pair(name)
    tr = build_truncation(model, 510)
    n = tr.n_symbols
    assert n == 511
    full_grids = []
    real = MarkovPotential.value_grid

    def counted(self, rows, cols):
        full_grids.append(len(rows) == n and len(cols) == n)
        return real(self, rows, cols)

    monkeypatch.setattr(MarkovPotential, "value_grid", counted)
    critical_decomposition(tr, f)
    assert sum(full_grids) == 1
    # the decomposition, the gauge and the sweep share one W
    ergodic_opt._sweep_setup(tr, f)
    assert sum(full_grids) == 2


@pytest.mark.parametrize("name", ["log_quadratic", "tie_two_loops", "renewal_weighted"])
def test_critical_decomposition_is_the_sweep_setups(name):
    """The public decomposition builds its own W; the sweep set-up's, read
    from the W it shares with the gauge, is the same."""
    model, f = bundled_pair(name)
    for k in (6, 63):
        tr = build_truncation(model, k)
        dec = critical_decomposition(tr, f)
        setup_dec, sweep = ergodic_opt._sweep_setup(tr, f)
        assert dec.beta == setup_dec.beta == sweep.gauge.beta
        assert _structure_key(dec) == _structure_key(setup_dec)
        assert dec.maximal_components == setup_dec.maximal_components
        assert np.array_equal(dec.subaction, setup_dec.subaction)


UNDEFINED_EDGE = """
[model]
kind = custom
edges = 0 0, 0 1, 1 0, 1 1

[potential]
family = table
table = 0 0 -2.0, 0 1 -1.0, 1 0 -1.0

[sweep]
ks = 1,2,3
ts = 2,4
"""


def test_critical_decomposition_rejects_a_potential_undefined_on_an_admissible_edge():
    cfg = parse_model_config(UNDEFINED_EDGE)
    with pytest.raises(ValidationError, match="potential undefined on an admissible edge"):
        critical_decomposition(build_truncation(cfg.model, 1), cfg.potential)


@pytest.mark.parametrize("command", ["zerotemp", "entropy-limit", "pressure", "diagnose"])
def test_cli_exits_2_on_a_potential_undefined_on_an_admissible_edge(tmp_path, capsys, command):
    path = tmp_path / "undefined.cfg"
    path.write_text(UNDEFINED_EDGE)
    assert run_command([command, "--config", str(path), "--out", str(tmp_path / "runs")]) == 2
    err = capsys.readouterr().err
    assert "potential undefined on an admissible edge" in err
    assert "Traceback" not in err


class TestCriticalGraph:
    def test_tie_two_loops_full_component(self, tie_two_loops):
        model, f = tie_two_loops
        tr = build_truncation(model, 3)
        dec = critical_decomposition(tr, f)
        assert len(dec.components) == 1
        comp = dec.components[0]
        assert comp.symbols == (0, 1)
        assert set(comp.edges) == {(0, 0), (0, 1), (1, 0), (1, 1)}
        assert comp.h_top == pytest.approx(math.log(2), abs=1e-12)
        assert dec.maximal_components == (0,)

    def test_renewal_loop_component(self, renewal_weighted):
        model, f = renewal_weighted
        dec = critical_decomposition(build_truncation(model, 3), f)
        assert len(dec.components) == 1
        assert dec.components[0].symbols == (0,)
        assert dec.components[0].h_top == pytest.approx(0.0, abs=1e-14)

    def test_two_tied_fixed_points(self):
        model, f = table_model([(0, 0, 0.0), (1, 1, 0.0), (0, 1, -1.0), (1, 0, -1.0)])
        dec = critical_decomposition(build_truncation(model, 1), f)
        assert len(dec.components) == 2
        assert dec.maximal_components == (0, 1)
        assert all(c.h_top == pytest.approx(0.0, abs=1e-14) for c in dec.components)
        assert all(c.pressure == pytest.approx(0.0, abs=1e-12) for c in dec.components)

    def test_invariant_under_constant_shift(self, tie_two_loops):
        model, f = tie_two_loops
        tr = build_truncation(model, 2)
        dec = critical_decomposition(tr, f)
        shifted = MarkovPotential(model, f.family, shift=1.7)
        dec_c = critical_decomposition(tr, shifted)
        assert {c.symbols for c in dec_c.components} == {c.symbols for c in dec.components}
        tight = [
            maxplus.critical_components(transfer_matrix(tr, g, 1.0), d.beta, d.subaction, d.tie_tol_used)[0]
            for g, d in ((f, dec), (shifted, dec_c))
        ]
        assert tight[1].tolist() == tight[0].tolist()

    def test_pressure_pinch(self):
        for name in ("log_quadratic", "tie_two_loops", "renewal_weighted"):
            model, f = bundled_pair(name)
            tr = build_truncation(model, 3)
            dec = critical_decomposition(tr, f)
            p1 = pressure(tr, f, 1.0)
            for comp in dec.components:
                assert comp.pressure <= p1 + 1e-9
            # finite-t consistency of the entropy part at t = 50
            p50 = pressure(tr, f, 50.0)
            for j in dec.maximal_components:
                comp = dec.components[j]
                assert comp.h_top + 50.0 * dec.beta <= p50 + 1e-9
                assert comp.h_top <= (p50 - 50.0 * dec.beta) + 1e-9


class TestDetectK0:
    def test_bundled_models_stabilize_early(self):
        expected = {"log_quadratic": 0, "tie_two_loops": 1, "renewal_weighted": 0}
        for name, want in expected.items():
            model, f = bundled_pair(name)
            rep = detect_k0(model, f)
            assert rep.k0 == want
            assert rep.k0 <= 3
            assert rep.heuristic

    def test_beta_monotone_nondecreasing(self):
        for name in ("log_quadratic", "tie_two_loops", "renewal_weighted"):
            model, f = bundled_pair(name)
            betas = [max_mean_cycle(build_truncation(model, k), f)[0] for k in range(7)]
            for a, b in zip(betas, betas[1:]):
                assert b >= a - 1e-15

    def test_a_repeated_alphabet_is_decomposed_once(self, monkeypatch):
        """The planted 12-symbol model augments k = 0..8 to one 9-symbol
        alphabet: detect_k0 decomposes it once, and reports what one
        decomposition per k gives."""
        cfg = parse_model_config(Path(__file__).with_name("planted_cyclic.cfg").read_text())
        model, f = cfg.model, cfg.potential
        real = ergodic_opt.critical_decomposition
        calls = []

        def counted(trunc, *args, **kwargs):
            calls.append(trunc.k)
            return real(trunc, *args, **kwargs)

        monkeypatch.setattr(ergodic_opt, "critical_decomposition", counted)
        rep = detect_k0(model, f)
        assert calls == [0, 9]
        per_k = [real(build_truncation(model, k), f) for k in rep.ks]
        assert rep.betas == tuple(d.beta for d in per_k)
        assert [_structure_key(d) for d in per_k[:9]] == [_structure_key(per_k[0])] * 9
        assert (rep.k0, rep.window) == (0, 3)

    def test_structure_constant_beyond_k0(self, tie_two_loops):
        model, f = tie_two_loops
        rep = detect_k0(model, f)
        decs = [critical_decomposition(build_truncation(model, k), f) for k in range(rep.k0, rep.k0 + 4)]
        keys = [{(c.symbols, tuple(sorted(c.edges))) for c in d.components} for d in decs]
        assert all(key == keys[0] for key in keys)


class TestMaxEntropyOverMaximizing:
    def test_values(self):
        expected = {"log_quadratic": 0.0, "tie_two_loops": math.log(2), "renewal_weighted": 0.0}
        for name, want in expected.items():
            model, f = bundled_pair(name)
            dec = critical_decomposition(build_truncation(model, 3), f)
            assert max_entropy_over_maximizing(dec) == pytest.approx(want, abs=1e-12)

    def test_two_tied_fixed_points_zero(self):
        model, f = table_model([(0, 0, 0.0), (1, 1, 0.0), (0, 1, -1.0), (1, 0, -1.0)])
        dec = critical_decomposition(build_truncation(model, 1), f)
        assert max_entropy_over_maximizing(dec) == 0.0
