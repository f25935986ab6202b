"""The zero-temperature set-up builds its n x n arrays in place.

`value_grid`, `transfer_matrix`, Howard's improvement step, the seeded
walks and the critical graph each write into an array they already hold.
These tests pin their results, bit for bit, to the broadcasting formulas
they replace, and bound the memory each set-up step allocates beyond what
it returns.
"""

import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gibbsline import ergodic_opt, maxplus
from gibbsline.bundled import bundled_pair
from gibbsline.config import parse_model_config
from gibbsline.errors import ValidationError
from gibbsline.ergodic_opt import critical_decomposition
from gibbsline.potential import Family, MarkovPotential
from gibbsline.rpf_finite import transfer_matrix
from gibbsline.shift_model import ModelKind, ShiftModel, build_truncation, strongly_connected_components

TESTS = Path(__file__).resolve().parent


def broadcast_grid(f: MarkovPotential, rows, cols) -> np.ndarray:
    """f over rows x cols by whole-grid broadcasting, one temporary per operation."""
    ii = np.asarray(rows, dtype=np.int64)[:, None].astype(float)
    jj = np.asarray(cols, dtype=np.int64)[None, :].astype(float)
    if f.family is Family.LOG_QUADRATIC:
        vals = -np.log((ii + 1.0) * (ii + 2.0)) + 0.0 * jj
    elif f.family is Family.TIE_TWO_LOOPS:
        vals = np.where((ii < 2) & (jj < 2), 0.0, -(np.maximum(ii, jj) + 1.0))
    elif f.family is Family.RENEWAL_WEIGHTED:
        vals = np.where(ii == 0, -(jj + 1.0), np.where(jj == ii - 1.0, -ii, np.nan))
    else:
        table = {(i, j): v for i, j, v in f.table}
        vals = np.array([[table.get((int(i), int(j)), np.nan) for j in cols] for i in rows])
        vals = vals.reshape(len(rows), len(cols))
    return vals + f.shift


def planted_table():
    cfg = parse_model_config((TESTS / "custom_n12.cfg").read_text(encoding="utf-8"))
    return cfg.model, cfg.potential


def family_pair(name, request):
    return planted_table() if name == "table" else request.getfixturevalue(name)


FAMILIES = ("log_quadratic", "tie_two_loops", "renewal_weighted", "table")


@pytest.mark.parametrize("name", FAMILIES)
@pytest.mark.parametrize("t", [1.0, 2.0, 1024.0])
def test_transfer_matrix_is_the_broadcast_reference_bit_for_bit(name, t, request):
    model, f = family_pair(name, request)
    for shift in (0.0, -0.75):
        g = replace(f, shift=shift)
        tr = build_truncation(model, 11 if name == "table" else 40)
        a, inc = tr.alphabet, tr.require_incidence()
        reference = np.where(inc, t * broadcast_grid(g, a, a), -np.inf)
        assert transfer_matrix(tr, g, t).tobytes() == reference.tobytes()
        assert transfer_matrix(tr, g, t).tobytes() == np.where(inc, t * g.value_grid(a, a), -np.inf).tobytes()


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(FAMILIES[:3]), st.lists(st.integers(0, 60), unique=True, max_size=12), st.data())
def test_value_grid_is_the_broadcast_reference_on_unsorted_symbols(name, rows, data):
    _, f = bundled_pair(name)
    cols = data.draw(st.lists(st.integers(0, 60), unique=True, max_size=12))
    assert f.value_grid(rows, cols).tobytes() == broadcast_grid(f, rows, cols).tobytes()


@pytest.mark.parametrize("t", [1.0, 2.0, 1024.0])
def test_a_table_undefined_on_an_admissible_edge_still_raises(t):
    # undefined on (1, 1), an edge, and on (0, 0), which is not one
    model = ShiftModel(ModelKind.CUSTOM, ((0, 1), (1, 0), (1, 1)))
    tr = build_truncation(model, 1)
    f = MarkovPotential(model, Family.TABLE, table=((0, 1, -1.0), (1, 0, -2.0)))
    with pytest.raises(ValidationError, match="undefined on an admissible edge"):
        transfer_matrix(tr, f, t)
    defined = MarkovPotential(model, Family.TABLE, table=((0, 1, -1.0), (1, 0, -2.0), (1, 1, -3.0)))
    W = transfer_matrix(tr, defined, t)
    assert W[0, 0] == -np.inf and W[1, 1] == -3.0 * t


def general_improve(W, finite, policy, eta, x, tol):
    """Howard's improvement step with its masks built in full, whatever the spread of eta."""
    succ_eta = np.where(finite, eta[None, :], -np.inf)
    best_eta = succ_eta.max(axis=1)
    move = best_eta > eta + tol
    if move.any():
        return np.where(move, np.argmax(succ_eta, axis=1), policy)
    same = finite & (np.abs(eta[None, :] - eta[:, None]) <= tol)
    value = np.where(same, W - eta[:, None] + x[None, :], -np.inf)
    move = value.max(axis=1) > value[np.arange(len(policy)), policy] + tol
    if not move.any():
        return None
    return np.where(move, np.argmax(value, axis=1), policy)


@st.composite
def howard_states(draw):
    """A weight matrix, dense or sparse, with tied weights or not, a policy on it and its evaluation."""
    n = draw(st.integers(2, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    finite = np.ones((n, n), dtype=bool) if draw(st.booleans()) else rng.random((n, n)) < 0.3
    finite[np.arange(n), (np.arange(n) + 1) % n] = True
    weights = rng.integers(-2, 2, (n, n)).astype(float) if draw(st.booleans()) else rng.normal(size=(n, n))
    W = np.where(finite, weights, -np.inf)
    policy = np.array([rng.choice(np.flatnonzero(row)) for row in finite])
    eta, x, _ = maxplus._evaluate(policy, W[np.arange(n), policy])
    return W, finite, policy, eta, x


@settings(max_examples=150, deadline=None)
@given(howard_states(), st.sampled_from([0.0, 0.25, 0.5, 1.0, 4.0]))
def test_the_equal_eta_shortcut_keeps_the_policy_of_the_general_step(state, spread):
    W, finite, policy, eta, x = state
    tol = maxplus._tolerance(W, finite)
    # eta as evaluated (exact ties when the weights tie), and eta spread by
    # a fraction or a multiple of tol, below and above the shortcut's bound
    for eta in (eta, eta + spread * tol * np.linspace(0.0, 1.0, eta.size)):
        want = general_improve(W, finite, policy, eta, x, tol)
        got = maxplus._improve(W, finite, policy, eta, x, tol, np.empty_like(W))
        assert (got is None) == (want is None)
        if want is not None:
            assert got.tolist() == want.tolist()


def broadcast_tight(W, beta, v, tie_tol):
    with np.errstate(invalid="ignore"):
        residue = W - beta + v[None, :] - v[:, None]
    return np.isfinite(W) & (np.abs(residue) <= tie_tol)


@settings(max_examples=60, deadline=None)
@given(howard_states())
def test_critical_components_returns_the_broadcast_tight_mask(state):
    W = state[0]
    beta, witness = maxplus.max_cycle_mean(W)
    v = maxplus.subaction(W, beta, [min(witness)])
    for tie_tol in (1e-9, 1e-6, 0.5):
        tight, _ = maxplus.critical_components(W, beta, v, tie_tol)
        assert tight.dtype == bool
        assert tight.tolist() == broadcast_tight(W, beta, v, tie_tol).tolist()


@settings(max_examples=60, deadline=None)
@given(howard_states())
def test_critical_components_are_the_cycle_carrying_sccs_of_the_whole_tight_graph(state):
    """The SCC walk starts without the vertices that lack a tight in-edge or
    out-edge: its components are those of the walk over every vertex that
    carry a cycle, in the order of their smallest vertices."""
    W = state[0]
    beta, witness = maxplus.max_cycle_mean(W)
    v = maxplus.subaction(W, beta, [min(witness)])
    for tie_tol in (1e-9, 1e-6, 0.5):
        tight, comps = maxplus.critical_components(W, beta, v, tie_tol)
        want = sorted(c for c in strongly_connected_components(tight) if len(c) > 1 or tight[c[0], c[0]])
        assert [comp for comp, _ in comps] == want
        assert all(sub.tolist() == tight[np.ix_(comp, comp)].tolist() for comp, sub in comps)


def test_a_sweep_set_up_reads_the_support_and_tolerance_of_w_once(monkeypatch, tie_two_loops):
    """`_sweep_setup` at n = 511 takes np.isfinite of one n x n array and
    Howard's tolerance once, for the max cycle mean, the subaction, both
    sides of the gauge and the sweep's sides."""
    model, f = tie_two_loops
    tr = build_truncation(model, 510)
    n = tr.n_symbols
    shapes, tolerances = [], []
    isfinite, tolerance = np.isfinite, maxplus._tolerance
    monkeypatch.setattr(np, "isfinite", lambda x, *args, **kw: shapes.append(np.shape(x)) or isfinite(x, *args, **kw))
    monkeypatch.setattr(maxplus, "_tolerance", lambda *args: tolerances.append(args) or tolerance(*args))
    _, sweep = ergodic_opt._sweep_setup(tr, f)
    assert shapes.count((n, n)) == 1 and len(tolerances) == 1
    assert sweep.sides is not None


@pytest.mark.parametrize("name", FAMILIES)
def test_critical_graph_lists_its_edges_as_python_ints(name, request):
    model, f = family_pair(name, request)
    tr = build_truncation(model, 11 if name == "table" else 30)
    W = transfer_matrix(tr, f, 1.0)
    dec = critical_decomposition(tr, f)
    a = tr.alphabet
    tight = broadcast_tight(W, dec.beta, dec.subaction, dec.tie_tol_used)
    assert maxplus.critical_components(W, dec.beta, dec.subaction, dec.tie_tol_used)[0].tolist() == tight.tolist()
    for c in dec.components:
        comp = [tr.local_index()[s] for s in c.symbols]
        sub = tight[np.ix_(comp, comp)]
        assert c.edges == tuple((int(a[comp[i]]), int(a[comp[j]])) for i, j in zip(*np.nonzero(sub)))
        assert all(type(s) is int for e in c.edges for s in e) and all(type(s) is int for s in c.symbols)


def excess_nxn(call, n: int) -> float:
    """The peak memory traced during call() above what is traced when it returns, in n x n float64 arrays."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        result = call()  # held, so that what the call returns is traced as current
        current, peak = tracemalloc.get_traced_memory()
    finally:
        if started:
            tracemalloc.stop()
    return (peak - current) / (8.0 * n * n)


def test_the_set_up_allocates_at_most_one_and_a_half_grids_beyond_its_results(tie_two_loops):
    model, f = tie_two_loops
    tr = build_truncation(model, 255)
    n = tr.n_symbols
    assert n == 256
    # a warm-up call finishes lazy imports and caches
    W = transfer_matrix(tr, f, 1.0)
    finite, tol = maxplus._support(W)
    dec = ergodic_opt._decomposition(tr, W, finite, tol)
    ergodic_opt._gauge(tr, W, finite, tol, dec)
    steps = {
        "transfer_matrix": lambda: transfer_matrix(tr, f, 1.0),
        "_decomposition": lambda: ergodic_opt._decomposition(tr, W, finite, tol),
        "_gauge": lambda: ergodic_opt._gauge(tr, W, finite, tol, dec),
    }
    excess = {name: excess_nxn(call, n) for name, call in steps.items()}
    assert all(x <= 1.5 for x in excess.values()), excess
