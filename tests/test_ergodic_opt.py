import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gibbsline.bundled import bundled_pair
from gibbsline.ergodic_opt import (
    brute_force_max_mean,
    critical_decomposition,
    critical_graph,
    detect_k0,
    max_entropy_over_maximizing,
    max_mean_cycle,
    subaction,
)
from gibbsline import maxplus
from gibbsline.errors import BudgetExceeded
from gibbsline.potential import Family, MarkovPotential
from gibbsline.rpf_finite import pressure
from gibbsline.shift_model import ModelKind, ShiftModel, build_truncation


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


def karp_with_loops(W):
    """Karp's final step as a loop over v and r, as `maxplus` first wrote it."""
    n = W.shape[0]
    D = np.full((n + 1, n), -np.inf)
    D[0, 0] = 0.0
    parent = np.full((n + 1, n), -1, dtype=np.int64)
    for r in range(1, n + 1):
        cand = D[r - 1][:, None] + W
        parent[r] = np.argmax(cand, axis=0)
        D[r] = cand[parent[r], np.arange(n)]
    best, best_v = -np.inf, -1
    for v in range(n):
        if not np.isfinite(D[n, v]):
            continue
        q = min((D[n, v] - D[r, v]) / (n - r) for r in range(n) if np.isfinite(D[r, v]))
        if q > best:
            best, best_v = q, v
    cycle = maxplus._extract_cycle(W, parent, best_v, n, best)
    return maxplus._cycle_mean(W, cycle), cycle


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 24), st.integers(0, 2**32 - 1), st.booleans())
def test_vectorized_karp_keeps_beta_and_witness(n, seed, ties):
    rng = np.random.default_rng(seed)
    finite = rng.random((n, n)) < 0.3
    finite[np.arange(n), (np.arange(n) + 1) % n] = True
    # small integer weights tie many cycle means; the first maximizer must win
    weights = rng.integers(-3, 2, (n, n)).astype(float) if ties else rng.normal(size=(n, n))
    W = np.where(finite, weights, -np.inf)
    beta, cycle = maxplus.max_cycle_mean(W)
    assert (beta, cycle) == karp_with_loops(W)
    if n <= 8:
        model, f = table_model([(int(i), int(j), float(W[i, j])) for i, j in zip(*np.nonzero(finite))])
        tr = build_truncation(model, n - 1)
        assert beta == pytest.approx(brute_force_max_mean(tr, f, n), abs=1e-12)


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
        assert set(dec_c.tight_edges) == set(dec.tight_edges)

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
            rep = detect_k0(model, f, stability_window=3)
            assert rep.k0 == want
            assert rep.k0 <= 3
            assert rep.heuristic

    def test_beta_monotone_nondecreasing(self):
        for name in ("log_quadratic", "tie_two_loops", "renewal_weighted"):
            model, f = bundled_pair(name)
            betas = [max_mean_cycle(build_truncation(model, k), f)[0] for k in range(7)]
            for a, b in zip(betas, betas[1:]):
                assert b >= a - 1e-15

    def test_structure_constant_beyond_k0(self, tie_two_loops):
        model, f = tie_two_loops
        rep = detect_k0(model, f, stability_window=3)
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
