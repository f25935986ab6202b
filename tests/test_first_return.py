"""perron's first-return path: supports on which one hub meets every cycle.

The checks are the dense eigensolve of tests/conftest.py, the power iteration
that perron runs on every other support, and 50-digit roots of the
first-return equation of the renewal and non-summable truncations.
"""

import math
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dense_gauged_state, power_perron
from gibbsline import rpf_finite
from gibbsline.bundled import bundled_pair
from gibbsline.config import parse_model_config
from gibbsline.ergodic_opt import critical_decomposition
from gibbsline.errors import SolverError
from gibbsline.limits import ZT_TS_DEFAULT
from gibbsline.rpf_finite import equilibrium, perron, transfer_matrix
from gibbsline.shift_model import build_truncation, graph_period

NEG_INF = -np.inf
EPS = float(np.finfo(np.float64).eps)
NON_SUMMABLE = Path(__file__).resolve().parent.parent / "configs" / "non_summable.cfg"


def non_summable_pair():
    cfg = parse_model_config(NON_SUMMABLE.read_text())
    return cfg.model, cfg.potential


@st.composite
def first_return_supports(draw):
    """Weights on a support whose hub meets every cycle, and its period d.

    Loops are added one at a time: a new chain of m vertices from the hub
    that joins an existing vertex (the hub itself, or a chain, which makes
    the chains a branching tree). Every loop length is a multiple of d, so
    the period is d or a multiple of it. Vertices are then relabelled, so
    the hub is any vertex.
    """
    d = draw(st.sampled_from((1, 2, 3)))
    size = draw(st.integers(min_value=max(1, d), max_value=12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dist = [0]  # vertex 0 is the hub
    edges: set[tuple[int, int]] = set()
    hub_edges = 0
    for _ in range(40):
        if len(dist) >= size and hub_edges:
            break
        join = int(rng.integers(len(dist)))
        room = size - len(dist)
        m = (-(1 + dist[join])) % d
        if m > room:
            continue
        m += d * int(rng.integers(0, (room - m) // d + 1))
        path = [0] + list(range(len(dist), len(dist) + m)) + [join]
        if m == 0 and (0, join) in edges:
            continue
        for k in range(1, m + 1):
            dist.append(dist[join] + m + 1 - k)
        edges.update(zip(path, path[1:]))
        hub_edges += 1
    n = len(dist)
    perm = rng.permutation(n)
    W = np.full((n, n), NEG_INF)
    for i, j in edges:
        W[perm[i], perm[j]] = rng.uniform(-3.0, 3.0)
    if draw(st.booleans()):
        W = np.round(W)  # tied loops and tied cycle means
    return W, d


def outcome(solve, logB):
    """The solve's PerronData, or the type and arguments of its solver error."""
    try:
        with np.errstate(invalid="ignore"):  # -inf - (-inf) in a reducible residual
            return solve(logB)
    except SolverError as exc:
        return type(exc), exc.args


@settings(max_examples=60, deadline=None)
@given(first_return_supports(), st.sampled_from((1.0, 2.0, 7.5) + ZT_TS_DEFAULT))
def test_first_return_matches_the_dense_oracle_and_power_iteration(case, t):
    W, d = case
    assert graph_period(np.isfinite(W)) % d == 0
    logB = t * W
    pd = perron(logB)
    assert pd.path == "first-return"
    assert pd.iterations < rpf_finite._NEWTON_STEPS
    n = W.shape[0]
    scale = max(1.0, abs(pd.log_lambda), float(np.max(np.abs(pd.log_h))), float(np.max(np.abs(pd.log_nu))))
    assert pd.residual <= max(1e-12, 8.0 * EPS * scale)
    assert np.all(np.isfinite(pd.log_h)) and np.all(np.isfinite(pd.log_nu))

    log_lambda, pi, _, gap = dense_gauged_state(W, t)
    assert pd.log_lambda == pytest.approx(log_lambda, rel=1e-10, abs=1e-10)
    if gap >= 1e-3 or n == 1:
        # the oracle pins pi only to round-off / gap
        assert np.allclose(equilibrium(pd, logB).stationary, pi, rtol=1e-9, atol=1e-12)

    ref = outcome(power_perron, logB)
    if isinstance(ref, rpf_finite.PerronData):
        assert abs(pd.log_lambda - ref.log_lambda) <= max(1e-12, 8.0 * EPS * scale)


def renewal_type_truncations():
    renewal = bundled_pair("renewal_weighted")
    non_summable = non_summable_pair()
    for k in (0, 1, 2, 3, 4, 5, 6, 127, 255):
        yield "renewal_weighted", k, renewal
    for k in range(9):
        yield "non_summable", k, non_summable


def test_bundled_renewal_type_truncations_take_the_first_return_path():
    """Within 1e-12 in log lambda of power iteration on every renewal-type
    truncation of the bundled configs, at every t they are solved at."""
    for name, k, (model, f) in renewal_type_truncations():
        tr = build_truncation(model, k)
        for t in (2.0, 4.0) + ZT_TS_DEFAULT:
            logB = transfer_matrix(tr, f, t)
            pd = perron(logB)
            assert pd.path == "first-return", (name, k, t)
            ref = power_perron(logB)
            assert abs(pd.log_lambda - ref.log_lambda) <= 1e-12, (name, k, t)


def test_full_shifts_and_critical_components():
    # a full shift has n^2 > 2n - 1 edges and keeps power iteration
    for name in ("tie_two_loops", "log_quadratic"):
        model, f = bundled_pair(name)
        for k in (1, 6):
            assert perron(transfer_matrix(build_truncation(model, k), f, 2.0)).path != "first-return"
    # the 1 x 1 critical component of the renewal model: the loop at 0
    model, f = bundled_pair("renewal_weighted")
    dec = critical_decomposition(build_truncation(model, 6), f)
    (comp,) = dec.components
    assert comp.symbols == (0,)
    pd = perron(np.array([[-1.0 - dec.beta]]))
    assert (pd.path, pd.log_lambda, pd.iterations) == ("first-return", 0.0, 0)


def decimal_root(loops: list[tuple[int, int]], t: int) -> Decimal:
    """50-digit root P of sum over (L, w) of exp(t w - L P) = 1, by Newton's method."""
    with localcontext() as ctx:
        ctx.prec = 50
        c = [(L, Decimal(t) * w) for L, w in loops]
        P = max(cw / L for L, cw in c)
        for _ in range(200):
            terms = [(L, (cw - L * P).exp()) for L, cw in c]
            total = sum(e for _, e in terms)
            step = total.ln() * total / sum(L * e for L, e in terms)
            P += step
            if abs(step) < Decimal("1e-45"):
                return P
    raise AssertionError("no decimal root")


@pytest.mark.parametrize("n, t", [(1, 2), (7, 2), (7, 64), (127, 2), (511, 2), (511, 16)])
def test_renewal_pressure_is_the_decimal_root(n, t):
    """The loop of length L weighs -L - L (L - 1) / 2."""
    model, f = bundled_pair("renewal_weighted")
    root = decimal_root([(L, -L - L * (L - 1) // 2) for L in range(1, n + 1)], t)
    pd = perron(transfer_matrix(build_truncation(model, n - 1), f, float(t)))
    assert pd.path == "first-return"
    assert abs(Decimal(pd.log_lambda) - root) <= Decimal(4.0 * EPS * max(1.0, abs(float(root))))


@pytest.mark.parametrize("k", range(1, 9))
def test_non_summable_pressure_is_the_decimal_root(k):
    """Every edge weighs 0: one loop of each length 1 .. k + 1."""
    model, f = non_summable_pair()
    root = decimal_root([(L, 0) for L in range(1, k + 2)], 2)
    pd = perron(transfer_matrix(build_truncation(model, k), f, 2.0))
    assert pd.path == "first-return"
    assert abs(Decimal(pd.log_lambda) - root) <= Decimal(4.0 * EPS)


def test_non_summable_at_k_3_is_closer_to_the_root_than_power_iteration():
    model, f = non_summable_pair()
    logB = transfer_matrix(build_truncation(model, 3), f, 2.0)
    root = decimal_root([(L, 0) for L in range(1, 5)], 2)
    assert str(root).startswith("0.65625597923697")
    assert abs(Decimal(perron(logB).log_lambda) - root) < abs(Decimal(power_perron(logB).log_lambda) - root)


@pytest.mark.parametrize(
    "logB",
    [
        # vertex 1 has no predecessor: the hub does not reach it
        np.array([[0.0, NEG_INF], [0.0, NEG_INF]]),
        # vertex 1 loops on itself and never returns to the hub 0
        np.array([[0.0, 0.0], [NEG_INF, -1.0]]),
        # the chain 1 -> 2 -> 1 avoids the hub 0
        np.array([[0.0, 0.0, NEG_INF], [NEG_INF, NEG_INF, 0.0], [NEG_INF, 0.0, NEG_INF]]),
    ],
)
def test_reducible_supports_of_the_accepted_shape_go_to_power_iteration(logB):
    """At most one vertex with other than one successor, but reducible: the
    solve is power iteration's, answer or error, bit for bit."""
    assert np.count_nonzero(np.isfinite(logB)) <= 2 * logB.shape[0] - 1
    got, want = outcome(perron, logB), outcome(power_perron, logB)
    if isinstance(want, rpf_finite.PerronData):
        assert got.path == want.path != "first-return"
        for field in ("log_lambda", "log_h", "log_nu", "iterations", "residual"):
            assert np.asarray(getattr(got, field)).tobytes() == np.asarray(getattr(want, field)).tobytes()
    else:
        assert got == want


def test_an_answer_that_fails_the_gate_goes_to_power_iteration(monkeypatch):
    """Without Newton steps the root is the max cycle mean, whose hub
    residual fails the gate: the solve is power iteration's."""
    model, f = bundled_pair("renewal_weighted")
    logB = transfer_matrix(build_truncation(model, 6), f, 2.0)
    assert perron(logB).path == "first-return"
    monkeypatch.setattr(rpf_finite, "_NEWTON_STEPS", 0)
    assert rpf_finite._first_return(logB, np.isfinite(logB)) is None
    got, want = perron(logB), power_perron(logB)
    assert got.path == want.path == "plain"
    assert got.log_lambda == want.log_lambda and got.iterations == want.iterations


def test_renewal_at_4095_symbols():
    """The largest materialized renewal truncation: 4 Newton steps, against
    4,112 power-iteration steps."""
    model, f = bundled_pair("renewal_weighted")
    pd = perron(transfer_matrix(build_truncation(model, 4094), f, 2.0))
    assert pd.path == "first-return" and pd.iterations <= 8
    assert math.isfinite(pd.log_lambda) and np.all(np.isfinite(pd.log_nu))
