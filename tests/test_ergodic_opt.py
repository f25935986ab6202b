import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gibbsline.bundled import bundled_pair
from gibbsline.config import parse_model_config
from gibbsline.ergodic_opt import (
    _structure_key,
    brute_force_max_mean,
    critical_decomposition,
    critical_graph,
    detect_k0,
    max_entropy_over_maximizing,
    max_mean_cycle,
    subaction,
)
from gibbsline import maxplus
from gibbsline.errors import BudgetExceeded, SolverError, ValidationError
from gibbsline.potential import Family, MarkovPotential
from gibbsline.rpf_finite import pressure
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
        if u in seen and maxplus._cycle_mean(W, path[seen[u] : pos]) > best:
            cycle = path[seen[u] : pos]
            best = maxplus._cycle_mean(W, cycle)
        seen[u] = pos
    if abs(best - q.max()) > 1e-7 * max(1.0, abs(q.max())):
        best, cycle = maxplus.brute_force_cycles(W, n)
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
    assert maxplus._cycle_mean(W, cycle) == beta
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
        m.setattr(maxplus, "max_cycle_mean", karp)
        ref = critical_decomposition(tr, f)
    assert _structure_key(dec) == _structure_key(ref)
    assert dec.cyclicity == ref.cyclicity
    assert dec.beta == pytest.approx(ref.beta, abs=1e-12)


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.cfg")), ids=lambda p: p.stem)
def test_detect_k0_matches_karp_on_shipped_configs(path):
    cfg = parse_model_config(path.read_text(encoding="utf-8"))

    def k0():
        try:
            return detect_k0(cfg.model, cfg.potential, stability_window=cfg.sweep.k0_window, tie_tol=cfg.sweep.tie_tol)
        except ValidationError as exc:  # the non-summable config has no k0
            return type(exc)

    got = k0()
    with pytest.MonkeyPatch.context() as m:
        m.setattr(maxplus, "max_cycle_mean", karp)
        want = k0()
    assert got == want


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
