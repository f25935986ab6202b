import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import admissible_words
from gibbsline.config import parse_model_config
from gibbsline.errors import BudgetExceeded, NonTransitive, ValidationError
from gibbsline.shift_model import (
    ModelKind,
    ShiftModel,
    TailRule,
    Truncation,
    build_truncation,
    graph_period,
    is_irreducible,
    is_whole_shift,
    last_truncation,
    strongly_connected_components,
)


def two_cycle_model():
    return ShiftModel(ModelKind.CUSTOM, ((0, 1), (1, 0)))


class TestBuildTruncation:
    def test_full_shift_k1(self):
        tr = build_truncation(ShiftModel(ModelKind.FULL), 1)
        assert tr.alphabet.tolist() == [0, 1]
        assert tr.incidence.all() and tr.incidence.shape == (2, 2)
        assert tr.period == 1

    def test_renewal_k2(self):
        tr = build_truncation(ShiftModel(ModelKind.RENEWAL), 2)
        assert tr.alphabet.tolist() == [0, 1, 2]
        edges = {(i, j) for i, j in zip(*np.nonzero(tr.incidence))}
        assert edges == {(0, 0), (0, 1), (0, 2), (1, 0), (2, 1)}
        assert tr.period == 1  # cycles of length 1 and 2 coexist

    def test_custom_two_cycle_k0_augments(self):
        tr = build_truncation(two_cycle_model(), 0)
        assert tr.alphabet.tolist() == [0, 1]
        assert tr.period == 2

    def test_custom_without_connection_raises(self):
        # symbol 2 in the prefix has no edges at all
        model = two_cycle_model()
        with pytest.raises(NonTransitive):
            build_truncation(model, 2)

    def test_nesting_built_ins(self):
        for kind in (ModelKind.FULL, ModelKind.RENEWAL):
            model = ShiftModel(kind)
            alphabets = [set(build_truncation(model, k).alphabet.tolist()) for k in range(8)]
            for small, big in zip(alphabets, alphabets[1:]):
                assert small < big

    def test_irreducibility_every_pair_reachable(self):
        for name_model in (ShiftModel(ModelKind.FULL), ShiftModel(ModelKind.RENEWAL), two_cycle_model()):
            tr = build_truncation(name_model, 3) if name_model.kind is not ModelKind.CUSTOM else build_truncation(name_model, 0)
            n = tr.n_symbols
            reach = tr.incidence.copy()
            for _ in range(n):
                reach = reach | (reach @ tr.incidence)
            assert reach.all()

    @pytest.mark.parametrize("symbol", [2**62, 2**63 - 1, 2**64])
    def test_custom_symbol_limit(self, symbol):
        # construction only: past the limit int64 arithmetic on the alphabet breaks
        for edges in (((0, 1), (1, symbol)), ((symbol, 0), (0, symbol))):
            with pytest.raises(ValidationError, match="not below 2\\^62"):
                ShiftModel(ModelKind.CUSTOM, edges, TailRule.FULL_TAIL)
        model = ShiftModel(ModelKind.CUSTOM, ((0, 1), (1, 2**62 - 1)), TailRule.FULL_TAIL)
        assert model.custom_edges[-1] == (1, 2**62 - 1)

    def test_structured_large_truncation(self):
        tr = build_truncation(ShiftModel(ModelKind.FULL), 100_000)
        assert tr.incidence is None
        assert tr.n_symbols == 100_001
        assert tr.period == 1


class TestAdmissibleWords:
    def test_full_two_shift_pairs(self):
        tr = build_truncation(ShiftModel(ModelKind.FULL), 1)
        assert admissible_words(tr, 2) == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_renewal_words(self):
        tr = build_truncation(ShiftModel(ModelKind.RENEWAL), 2)
        assert admissible_words(tr, 2) == [(0, 0), (0, 1), (0, 2), (1, 0), (2, 1)]

    def test_two_cycle_alternating(self):
        tr = build_truncation(two_cycle_model(), 0)
        assert admissible_words(tr, 3) == [(0, 1, 0), (1, 0, 1)]

    def test_length_one_is_alphabet(self):
        tr = build_truncation(ShiftModel(ModelKind.RENEWAL), 4)
        assert admissible_words(tr, 1) == [(s,) for s in tr.alphabet.tolist()]

    def test_full_shift_count(self):
        for n_sym, length in ((2, 5), (3, 4), (4, 3)):
            tr = build_truncation(ShiftModel(ModelKind.FULL), n_sym - 1)
            assert len(admissible_words(tr, length)) == n_sym**length

    def test_budget(self):
        tr = build_truncation(ShiftModel(ModelKind.FULL), 9)
        with pytest.raises(BudgetExceeded):
            admissible_words(tr, 8, budget=1000)


class TestPeriod:
    def test_full_shift(self):
        assert build_truncation(ShiftModel(ModelKind.FULL), 1).period == 1

    def test_two_cycle(self):
        assert build_truncation(two_cycle_model(), 0).period == 2

    def test_renewal_matches_cycle_enumeration(self):
        tr = build_truncation(ShiftModel(ModelKind.RENEWAL), 2)
        # oracle: gcd of all cycle lengths up to length 3, by enumeration
        lengths = []
        n = tr.n_symbols
        inc = tr.incidence
        for L in range(1, 4):
            for start in range(n):
                stack = [(start, (start,))]
                while stack:
                    v, path = stack.pop()
                    if len(path) == L + 1:
                        continue
                    for w in np.flatnonzero(inc[v]):
                        if w == start and len(path) == L:
                            lengths.append(L)
                        elif len(path) < L:
                            stack.append((int(w), path + (int(w),)))
        oracle = 0
        for L in set(lengths):
            oracle = math.gcd(oracle, L)
        assert oracle == 1
        assert tr.period == oracle


@st.composite
def irreducible_custom_models(draw):
    n = draw(st.integers(min_value=2, max_value=5))
    perm = list(range(1, n)) + [0]  # guaranteed covering cycle
    edges = {(i, perm[i]) for i in range(n)}
    extra = draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=6))
    edges |= extra
    return ShiftModel(ModelKind.CUSTOM, tuple(sorted(edges))), n


@settings(max_examples=40, deadline=None)
@given(irreducible_custom_models())
def test_custom_truncations_are_irreducible(model_n):
    model, n = model_n
    tr = build_truncation(model, n - 1)
    assert is_irreducible(tr.incidence)
    assert set(range(n)) <= set(tr.alphabet.tolist())
    assert tr.period == graph_period(tr.incidence)


@pytest.mark.parametrize(
    "edges, tail_rule, last",
    [
        (((0, 1), (1, 0), (1, 2), (2, 0)), TailRule.NONE, 2),  # the whole shift at k = 2
        (((0, 5), (5, 0)), TailRule.NONE, 0),  # {0} augments to {0, 5}; symbol 1 lies on no edge
        (((0, 0), (1, 2)), TailRule.NONE, 0),  # {0, 1, 2} is not irreducible
        (((1, 1),), TailRule.NONE, None),  # symbol 0 lies on no edge
        (((0, 1), (1, 0)), TailRule.FULL_TAIL, None),  # infinite alphabet: never capped
    ],
)
def test_last_truncation(edges, tail_rule, last):
    model = ShiftModel(ModelKind.CUSTOM, edges, tail_rule)
    assert last_truncation(model, 6) == last
    if model.is_infinite_alphabet():
        return
    for k in range(7):  # the ks with a truncation are 0..last
        if last is not None and k <= last:
            build_truncation(model, k)
        else:
            with pytest.raises(NonTransitive):
                build_truncation(model, k)


@pytest.mark.parametrize(
    "edges, tail_rule, whole",
    [
        (((0, 1), (1, 0), (1, 2), (2, 0)), TailRule.NONE, [False, False, True]),
        (((0, 5), (5, 0)), TailRule.NONE, [True]),  # {0} augments to the whole alphabet {0, 5}
        (((0, 0), (1, 2)), TailRule.NONE, [False]),  # the last truncation {0} misses 1 and 2
        (((0, 1), (1, 0)), TailRule.FULL_TAIL, [False, False, False]),
    ],
)
def test_is_whole_shift(edges, tail_rule, whole):
    model = ShiftModel(ModelKind.CUSTOM, edges, tail_rule)
    assert [is_whole_shift(model, build_truncation(model, k)) for k in range(len(whole))] == whole


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 9).flatmap(lambda n: st.lists(st.booleans(), min_size=n * n, max_size=n * n)))
def test_scc_matches_mutual_reachability(cells):
    n = math.isqrt(len(cells))
    adj = np.asarray(cells, dtype=bool).reshape(n, n)
    reach = np.eye(n, dtype=bool) | adj
    for _ in range(n):
        reach = reach | ((reach.astype(int) @ reach.astype(int)) > 0)
    comps = strongly_connected_components(adj)
    assert sorted(v for c in comps for v in c) == list(range(n))
    for c in comps:
        assert c == sorted(c)
        assert [int(v) for v in np.flatnonzero(reach[c[0]] & reach[:, c[0]])] == c


def test_scc_reverse_topological():
    adj = np.zeros((6, 6), dtype=bool)
    for i, j in ((0, 1), (1, 0), (1, 2), (2, 3), (3, 2), (4, 4), (3, 5)):
        adj[i, j] = True
    comps = strongly_connected_components(adj)
    as_sets = [set(c) for c in comps]
    assert {0, 1} in as_sets and {2, 3} in as_sets and {4} in as_sets and {5} in as_sets
    # edges only flow from later components to earlier ones in the list
    order = {v: idx for idx, comp in enumerate(comps) for v in comp}
    for i, j in zip(*np.nonzero(adj)):
        assert order[int(i)] >= order[int(j)] or order[int(i)] == order[int(j)]


def edge_oracle(model: ShiftModel, i: int, j: int) -> bool:
    """The edge rule as the ShiftModel docstring states it, one pair at a time."""
    if i < 0 or j < 0:
        return False
    if model.kind is ModelKind.FULL:
        return True
    if model.kind is ModelKind.RENEWAL:
        return i == 0 or j == i - 1
    if (i, j) in model.custom_edges:
        return True
    tail = 1 + max(max(e) for e in model.custom_edges)
    if model.custom_tail_rule is TailRule.FULL_TAIL:
        return i >= tail or j >= tail
    if model.custom_tail_rule is TailRule.RENEWAL_TAIL:
        return (i == 0 and j >= tail) or (i >= tail and j == i - 1)
    return False


def period_oracle(inc: np.ndarray) -> int:
    """gcd of the lengths L <= n that carry a closed walk (the period of an irreducible graph)."""
    n = inc.shape[0]
    g, walk = 0, np.eye(n, dtype=np.int64)
    for length in range(1, n + 1):
        walk = np.minimum(walk @ inc.astype(np.int64), 1)
        if np.trace(walk):
            g = math.gcd(g, length)
    return g


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 12), st.integers(0, 2**32 - 1), st.sampled_from((0.0, 0.1, 0.3)))
def test_graph_period_matches_closed_walk_oracle(n, seed, density):
    rng = np.random.default_rng(seed)
    adj = rng.random((n, n)) < density
    order = rng.permutation(n)
    adj[order, np.roll(order, -1)] = True  # a covering cycle: irreducible
    np.fill_diagonal(adj, False)  # the level-by-level BFS, not the self-loop shortcut
    assert graph_period(adj) == period_oracle(adj)


@st.composite
def any_models(draw):
    kind = draw(st.sampled_from(ModelKind))
    if kind is not ModelKind.CUSTOM:
        return ShiftModel(kind)
    n = draw(st.integers(min_value=1, max_value=7))
    edges = draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), min_size=1, max_size=12))
    return ShiftModel(kind, tuple(sorted(edges)), draw(st.sampled_from(TailRule)))


@settings(max_examples=150, deadline=None)
@given(any_models(), st.lists(st.integers(-2, 12), min_size=1, max_size=8), st.integers(0, 8))
def test_edge_rule_matches_docstring_oracle(model, symbols, k):
    sym = np.asarray(symbols, dtype=np.int64)
    grid = model.has_edge(sym[:, None], sym[None, :])
    assert grid.dtype == bool and grid.shape == (sym.size, sym.size)
    for a, i in enumerate(symbols):
        for b, j in enumerate(symbols):
            expected = edge_oracle(model, i, j)
            assert grid[a, b] == expected
            assert model.has_edge(i, j) is expected
    try:
        tr = build_truncation(model, k)
    except NonTransitive:
        return
    alpha = tr.alphabet.tolist()
    oracle = np.array([[edge_oracle(model, i, j) for j in alpha] for i in alpha], dtype=bool)
    assert np.array_equal(tr.incidence, oracle)
    assert tr.period == period_oracle(oracle)


def test_custom_truncation_reads_the_edge_rule_once_per_step(monkeypatch):
    n = 256
    order = np.random.default_rng(3).permutation(n).tolist()
    model = ShiftModel(ModelKind.CUSTOM, tuple((order[a], order[(a + 1) % n]) for a in range(n)))
    calls = []
    rule = ShiftModel.has_edge

    def counted(self, i, j):
        calls.append(np.broadcast_shapes(np.shape(i), np.shape(j)))
        return rule(self, i, j)

    monkeypatch.setattr(ShiftModel, "has_edge", counted)
    tr = build_truncation(model, n - 4)  # prefix {0..252}: three augmentation steps to the cycle
    assert tr.n_symbols == n
    assert calls == [(n - 3, n - 3), (n - 2, n - 2), (n - 1, n - 1), (n, n)]


def test_custom_truncations_read_each_visited_alphabet_once(monkeypatch):
    """The planted 12-symbol model, whose prefixes augment through shared
    alphabets: over k = 0..11, twice, the edge rule runs once per distinct
    alphabet, and every truncation equals a fresh model's build and holds a
    read-only incidence."""
    model = parse_model_config(Path(__file__).with_name("planted_cyclic.cfg").read_text()).model
    alphabets = []
    rule = ShiftModel.has_edge

    def counted(self, i, j):
        alphabets.append(np.asarray(j).tobytes())
        return rule(self, i, j)

    monkeypatch.setattr(ShiftModel, "has_edge", counted)
    built = [build_truncation(model, k) for k in range(12)]
    visited = len(alphabets)
    assert visited == len(set(alphabets)) > len({tr.alphabet.tobytes() for tr in built})
    for k in range(12):
        build_truncation(model, k)
    assert len(alphabets) == visited
    monkeypatch.undo()
    for k, tr in enumerate(built):
        fresh = build_truncation(ShiftModel(model.kind, model.custom_edges, model.custom_tail_rule), k)
        assert (tr.k, tr.period, tr.kind) == (fresh.k, fresh.period, fresh.kind)
        assert np.array_equal(tr.alphabet, fresh.alphabet)
        assert np.array_equal(tr.incidence, fresh.incidence)
        assert not tr.incidence.flags.writeable
