import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    admissible_words,
    dense_gauged_state,
    edge_value,
    gauged_sweep,
    gibbs_ratio,
    one_cylinder_gibbs_check,
    power_perron,
    random_stochastic,
    stationary_of,
    step_budget,
    tied_period_3,
)
from gibbsline.bundled import bundled_pair
from gibbsline.ergodic_opt import detect_k0
from gibbsline.errors import BudgetExceeded, NoConvergence
from gibbsline.limits import ZT_TS_DEFAULT
from gibbsline.maxplus import gauge_of
from gibbsline.potential import Family, MarkovPotential
from gibbsline import shift_model
from gibbsline.rpf_finite import (
    cylinder_mass,
    entropy,
    equilibrium,
    equilibrium_measure,
    gurevich_estimate,
    integral,
    partition_entropy,
    perron,
    pressure,
    transfer_matrix,
)
from gibbsline.shift_model import ModelKind, ShiftModel, build_truncation

NEG_INF = -np.inf


def two_cycle(a: float, b: float):
    model = ShiftModel(ModelKind.CUSTOM, ((0, 1), (1, 0)))
    f = MarkovPotential(model, Family.TABLE, table=((0, 1, a), (1, 0, b)))
    return model, f


def zero_potential(n_symbols: int):
    model = ShiftModel(ModelKind.FULL)
    explicit = max(64, n_symbols)
    table = None
    # j-independent zero table is easiest expressed through TieTwoLoops?? no:
    # use a custom full table over the needed block
    entries = tuple((i, j, 0.0) for i in range(n_symbols) for j in range(n_symbols))
    custom = ShiftModel(ModelKind.CUSTOM, tuple((i, j) for i in range(n_symbols) for j in range(n_symbols)))
    return custom, MarkovPotential(custom, Family.TABLE, table=entries)


class TestTransferMatrix:
    def test_zero_potential_all_zero(self):
        model, f = zero_potential(2)
        tr = build_truncation(model, 1)
        logB = transfer_matrix(tr, f, 5.0)
        assert np.all(logB == 0.0)

    def test_log_quadratic_rows(self, log_quadratic):
        model, f = log_quadratic
        tr = build_truncation(model, 2)
        logB = transfer_matrix(tr, f, 1.0)
        expected = np.array([-math.log(2), -math.log(6), -math.log(12)])
        assert np.allclose(logB, expected[:, None], atol=1e-14)

    def test_two_cycle_support(self):
        model, f = two_cycle(-1.0, -2.0)
        tr = build_truncation(model, 0)
        logB = transfer_matrix(tr, f, 3.0)
        assert np.isfinite(logB).sum() == 2
        assert logB[0, 1] == -3.0 and logB[1, 0] == -6.0


class TestPerron:
    def test_all_ones_matrix(self):
        for n in (2, 5, 9):
            pd = perron(np.zeros((n, n)))
            assert pd.log_lambda == pytest.approx(math.log(n), abs=1e-12)
            assert np.allclose(np.exp(pd.log_h), 1.0 / n, atol=1e-12)
            assert np.allclose(np.exp(pd.log_nu), 1.0, atol=1e-10)

    def test_log_quadratic_rank_one(self, log_quadratic):
        model, f = log_quadratic
        tr = build_truncation(model, 2)
        pd = perron(transfer_matrix(tr, f, 1.0))
        assert pd.log_lambda == pytest.approx(math.log(0.75), abs=1e-13)

    def test_two_cycle_geometric_mean(self):
        a, b = -0.7, -2.3
        model, f = two_cycle(a, b)
        tr = build_truncation(model, 0)
        pd = perron(transfer_matrix(tr, f, 1.0))
        assert pd.log_lambda == pytest.approx((a + b) / 2, abs=1e-12)

    def test_reports_solver_path(self):
        # the power-iteration paths; perron solves the two-cycle and the 2 x 2
        # below, where one vertex meets every cycle, by first return
        assert power_perron(np.zeros((3, 3))).path == "plain"
        model, f = two_cycle(-0.7, -2.3)
        tr = build_truncation(model, 0)
        logB = transfer_matrix(tr, f, 1.0)
        assert power_perron(logB).path == "period-averaged"
        gauge = gauged_sweep(tr, f).gauge
        assert gauge.cyclicity == 2
        pd = power_perron(logB, gauge=gauge.scaled(1.0))
        assert pd.path == "shifted"
        assert pd.log_lambda == pytest.approx(-1.5, abs=1e-12)
        # aperiodic, but -0.9995 is an eigenvalue: the plain iteration stalls
        # and the solve falls back to the gauge it builds itself
        B = np.array([[0.0, 1.0], [1.0, 0.001]])
        with np.errstate(divide="ignore"):
            pd = power_perron(np.log(B))
        assert pd.path == "shifted"
        assert pd.log_lambda == pytest.approx(math.log(np.max(np.linalg.eigvals(B).real)), abs=1e-12)

    def test_a_stalled_solve_raises(self):
        # a budget too small for the residual gate: the right side's plain and
        # shifted runs both spend it, and the smallest residual seen is reported
        logB = np.log(np.array([[1.0, 0.1], [0.1, 0.9]]))
        with pytest.raises(NoConvergence) as exc, step_budget(96):
            perron(logB)
        assert 1e-12 < exc.value.residual <= 1e-10
        assert exc.value.iterations == 2 * 96
        assert perron(logB).path == "plain"

    def test_against_dense_eigensolver(self, rng):
        # independent oracle: numpy dense eigendecomposition on random supports
        for _ in range(10):
            n = int(rng.integers(2, 7))
            perm = list(range(1, n)) + [0]
            inc = np.zeros((n, n), dtype=bool)
            for i in range(n):
                inc[i, perm[i]] = True
            extra = rng.random((n, n)) < 0.5
            inc |= extra
            W = np.where(inc, rng.normal(size=(n, n)), NEG_INF)
            pd = perron(W)
            lam = np.exp(pd.log_lambda)
            B = np.where(inc, np.exp(W), 0.0)
            eigs = np.linalg.eigvals(B)
            assert lam == pytest.approx(np.max(np.abs(eigs)), rel=1e-10)


class TestPressure:
    def test_full_shift_entropy(self):
        for n in (2, 4, 7):
            model, f = zero_potential(n)
            tr = build_truncation(model, n - 1)
            for t in (1.0, 3.0, 10.0):
                assert pressure(tr, f, t) == pytest.approx(math.log(n), abs=1e-12)

    def test_log_quadratic_frozen(self, log_quadratic):
        model, f = log_quadratic
        tr = build_truncation(model, 2)
        assert pressure(tr, f, 1.0) == pytest.approx(math.log(0.75), abs=1e-13)

    def test_two_cycle_mean_weight(self):
        model, f = two_cycle(-1.0, -1.0)
        tr = build_truncation(model, 0)
        assert pressure(tr, f, 2.0) == pytest.approx(-2.0, abs=1e-12)

    def test_scale_covariance(self, log_quadratic):
        model, f = log_quadratic
        tr = build_truncation(model, 3)
        for c in (0.37, -1.2):
            shifted = MarkovPotential(model, f.family, shift=c)
            for t in (1.0, 2.0, 8.0):
                assert pressure(tr, shifted, t) == pytest.approx(pressure(tr, f, t) + t * c, abs=1e-12)

    def test_structured_fast_path_agrees_with_dense(self, log_quadratic, monkeypatch):
        model, f = log_quadratic
        dense = build_truncation(model, 499)
        monkeypatch.setattr(shift_model, "DENSE_LIMIT", 10)
        fast = build_truncation(model, 499)
        assert fast.incidence is None
        for t in (1.0, 2.0):
            assert pressure(fast, f, t) == pytest.approx(pressure(dense, f, t), abs=1e-12)


class TestGurevich:
    def test_full_two_shift_closed_form(self):
        model, f = zero_potential(2)
        tr = build_truncation(model, 1)
        est = gurevich_estimate(tr, f, 1.0, 0, 4)
        assert est == pytest.approx(math.log(8.0) / 4.0, abs=1e-12)  # (B^4)_00 = 2^3

    def test_two_cycle_odd_length(self):
        model, f = two_cycle(0.0, 0.0)
        tr = build_truncation(model, 0)
        assert gurevich_estimate(tr, f, 1.0, 0, 3) == -math.inf

    def test_converges_to_pressure(self, log_quadratic):
        model, f = log_quadratic
        tr = build_truncation(model, 2)
        p = pressure(tr, f, 1.0)
        errs = [abs(gurevich_estimate(tr, f, 1.0, 0, n) - p) for n in (8, 16, 32, 64)]
        assert errs == sorted(errs, reverse=True)
        assert errs[-1] <= math.log(1.5) / 64 + 1e-6  # |log pi_0| / n

    def test_decreasing_for_bundled_models_at_t2(self):
        for name in ("log_quadratic", "tie_two_loops", "renewal_weighted"):
            model, f = bundled_pair(name)
            tr = build_truncation(model, 5)
            p = pressure(tr, f, 2.0)
            ns = (8, 16, 32, 64)
            errs = [abs(gurevich_estimate(tr, f, 2.0, 0, n) - p) for n in ns]
            assert errs == sorted(errs, reverse=True), name
            assert errs[-1] <= 0.02, name
            # O(1/n) rate: n * err is essentially constant across the schedule
            scaled = [n * e for n, e in zip(ns, errs)]
            assert max(scaled) <= 2.0 * min(scaled), name

    def test_matches_periodic_orbit_enumeration(self, renewal_weighted):
        # independent oracle: enumerate the length-n loops at the base symbol
        # and sum their weights directly
        model, f = renewal_weighted
        tr = build_truncation(model, 3)
        t = 2.0
        succ = {int(i): [int(j) for j in tr.alphabet if model.has_edge(int(i), int(j))] for i in tr.alphabet}
        for n in (1, 2, 3, 4, 5, 6):
            total = 0.0
            stack = [(0, (0,))]
            while stack:
                v, path = stack.pop()
                if len(path) == n:
                    if 0 in succ[v]:
                        weight = sum(t * edge_value(f, a, b) for a, b in zip(path, path[1:] + (0,)))
                        total += math.exp(weight)
                    continue
                for w in succ[v]:
                    stack.append((w, path + (w,)))
            est = gurevich_estimate(tr, f, t, 0, n)
            assert math.exp(n * est) == pytest.approx(total, rel=1e-12), n


class TestEquilibrium:
    def test_parry_two_shift(self):
        model, f = zero_potential(2)
        tr = build_truncation(model, 1)
        _, meas = equilibrium_measure(tr, f, 1.0)
        assert np.allclose(meas.stochastic, 0.5, atol=1e-12)
        assert np.allclose(meas.stationary, 0.5, atol=1e-12)

    def test_log_quadratic_bernoulli(self, log_quadratic):
        model, f = log_quadratic
        tr = build_truncation(model, 2)
        _, meas = equilibrium_measure(tr, f, 1.0)
        assert np.allclose(meas.stationary, [2 / 3, 2 / 9, 1 / 9], atol=1e-12)
        assert np.allclose(meas.stochastic, np.tile([2 / 3, 2 / 9, 1 / 9], (3, 1)), atol=1e-12)

    def test_deterministic_two_cycle(self):
        model, f = two_cycle(-1.0, -3.0)
        tr = build_truncation(model, 0)
        _, meas = equilibrium_measure(tr, f, 2.0)
        assert np.allclose(meas.stationary, 0.5, atol=1e-12)
        assert meas.stochastic[0, 1] == pytest.approx(1.0, abs=1e-12)
        assert meas.stochastic[1, 0] == pytest.approx(1.0, abs=1e-12)

    def test_rows_sum_to_one(self, renewal_weighted):
        model, f = renewal_weighted
        for k, t in ((2, 2.0), (5, 16.0), (3, 256.0)):
            _, meas = equilibrium_measure(build_truncation(model, k), f, t)
            assert np.allclose(meas.stochastic.sum(axis=1), 1.0, atol=1e-12)
            assert meas.stationary.sum() == pytest.approx(1.0, abs=1e-12)


class TestCylinderMass:
    def test_parry_pair(self):
        model, f = zero_potential(2)
        tr = build_truncation(model, 1)
        _, meas = equilibrium_measure(tr, f, 1.0)
        assert cylinder_mass(meas, (0, 1)) == pytest.approx(0.25, abs=1e-12)

    def test_log_quadratic_one_cylinder(self, log_quadratic):
        model, f = log_quadratic
        _, meas = equilibrium_measure(build_truncation(model, 2), f, 1.0)
        assert cylinder_mass(meas, (0,)) == pytest.approx(2 / 3, abs=1e-12)

    def test_inadmissible_word_zero(self):
        model, f = two_cycle(-1.0, -1.0)
        _, meas = equilibrium_measure(build_truncation(model, 0), f, 1.0)
        assert cylinder_mass(meas, (0, 0)) == 0.0

    def test_word_masses_sum_to_one(self, renewal_weighted):
        model, f = renewal_weighted
        tr = build_truncation(model, 4)
        _, meas = equilibrium_measure(tr, f, 2.0)
        for n in (1, 2, 3):
            total = sum(cylinder_mass(meas, w) for w in admissible_words(tr, n))
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_local_index_is_built_once_per_object(self, renewal_weighted):
        model, f = renewal_weighted
        tr = build_truncation(model, 4)
        _, meas = equilibrium_measure(tr, f, 2.0)
        for obj in (tr, meas):
            idx = obj.local_index()
            assert idx == {int(s): a for a, s in enumerate(obj.alphabet)}
            assert obj.local_index() is idx

    @pytest.mark.parametrize("name", ["renewal_weighted", "tie_two_loops"])
    def test_a_measure_shares_its_truncations_index(self, name):
        # renewal supports solve each t by perron on t W, the full shift on the sweep's sides
        model, f = bundled_pair(name)
        tr = build_truncation(model, 6)
        sweep = gauged_sweep(tr, f)
        assert (sweep.sides is None) == (name == "renewal_weighted")
        for kwargs in ({}, {"sweep": sweep}):
            _, meas = equilibrium_measure(tr, f, 2.0, **kwargs)
            assert meas.local_index() is tr.local_index()


class TestIntegralEntropy:
    def test_constant_potential_integral(self):
        model, f = two_cycle(-1.5, -1.5)
        _, meas = equilibrium_measure(build_truncation(model, 0), f, 1.0)
        assert integral(meas, f) == pytest.approx(-1.5, abs=1e-12)

    def test_log_quadratic_three_terms(self, log_quadratic):
        model, f = log_quadratic
        _, meas = equilibrium_measure(build_truncation(model, 2), f, 1.0)
        expected = -(2 / 3) * math.log(2) - (2 / 9) * math.log(6) - (1 / 9) * math.log(12)
        assert integral(meas, f) == pytest.approx(expected, abs=1e-12)
        h = entropy(meas)
        expected_h = -((2 / 3) * math.log(2 / 3) + (2 / 9) * math.log(2 / 9) + (1 / 9) * math.log(1 / 9))
        assert h == pytest.approx(expected_h, abs=1e-12)
        assert h + integral(meas, f) == pytest.approx(math.log(0.75), abs=1e-12)

    def test_parry_entropy(self):
        model, f = zero_potential(2)
        _, meas = equilibrium_measure(build_truncation(model, 1), f, 1.0)
        assert entropy(meas) == pytest.approx(math.log(2), abs=1e-12)

    def test_deterministic_cycle_entropy_zero(self):
        model, f = two_cycle(-1.0, -2.0)
        _, meas = equilibrium_measure(build_truncation(model, 0), f, 3.0)
        assert entropy(meas) == pytest.approx(0.0, abs=1e-12)

    def test_variational_identity_grid(self):
        for name in ("log_quadratic", "tie_two_loops", "renewal_weighted"):
            model, f = bundled_pair(name)
            for k in (1, 3, 5):
                tr = build_truncation(model, k)
                for t in (1.0, 2.0, 8.0, 64.0):
                    p, meas = equilibrium_measure(tr, f, t)
                    resid = entropy(meas) + t * integral(meas, f) - p
                    assert abs(resid) <= 1e-9, (name, k, t, resid)

    def test_variational_inequality_random_measures(self, rng):
        for name in ("log_quadratic", "tie_two_loops", "renewal_weighted"):
            model, f = bundled_pair(name)
            for k in (2, 4):
                tr = build_truncation(model, k)
                vals = f.value_grid(tr.alphabet, tr.alphabet)
                for t in (2.0, 8.0):
                    p = pressure(tr, f, t)
                    for _ in range(100):
                        P = random_stochastic(tr.incidence, rng)
                        pi = stationary_of(P)
                        w = pi[:, None] * P
                        mask = w > 0
                        h = -np.sum(w[mask] * np.log(P[np.nonzero(mask)[0], np.nonzero(mask)[1]]))
                        mu_f = np.sum(w[mask] * vals[mask])
                        assert h + t * mu_f <= p + 1e-9


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_pressure_squeeze_on_random_graphs(data):
    """t*beta <= P(t) <= t*beta + log n on any finite irreducible graph.

    The solver may refuse an instance only when its spectrum is verifiably
    near-degenerate (subdominant modulus within 1% of the Perron root).
    """
    from gibbsline.errors import NoConvergence
    from gibbsline.ergodic_opt import max_mean_cycle

    n = data.draw(st.integers(min_value=2, max_value=6))
    perm = list(range(1, n)) + [0]
    entries = {(i, perm[i]): data.draw(st.floats(-5, 5)) for i in range(n)}
    extra = data.draw(
        st.dictionaries(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            st.floats(-5, 5),
            max_size=8,
        )
    )
    for key, v in extra.items():
        entries.setdefault(key, v)
    model = ShiftModel(ModelKind.CUSTOM, tuple(sorted(entries)))
    f = MarkovPotential(model, Family.TABLE, table=tuple((i, j, v) for (i, j), v in sorted(entries.items())))
    tr = build_truncation(model, n - 1)
    t = data.draw(st.floats(min_value=1.0, max_value=20.0))
    try:
        p, meas = equilibrium_measure(tr, f, t)
    except NoConvergence:
        logB = transfer_matrix(tr, f, t)
        B = np.where(np.isfinite(logB), np.exp(logB), 0.0)
        moduli = sorted(np.abs(np.linalg.eigvals(B)))
        assert moduli[-2] / moduli[-1] > 0.99, "refused an instance with a healthy spectral gap"
        return
    beta, _ = max_mean_cycle(tr, f)
    assert t * beta - 1e-9 <= p <= t * beta + math.log(tr.n_symbols) + 1e-9
    assert np.allclose(meas.stochastic.sum(axis=1), 1.0, atol=1e-12)
    assert abs(entropy(meas) + t * integral(meas, f) - p) <= 1e-9


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_gauged_solve_matches_dense_oracle_on_random_graphs(data):
    """Across the zero-temperature grid the gauged solve agrees with a dense
    eigensolve of the gauged matrix, on aperiodic and period-2 supports.

    It may refuse an instance only when the shifted iteration verifiably
    cannot contract: some other eigenvalue mu of the gauged matrix has
    |mu + 1| within 1% of rho + 1 (tied maximal components).
    """
    n = data.draw(st.integers(min_value=2, max_value=6))
    bipartite = n % 2 == 0 and data.draw(st.booleans())
    weight = st.floats(-5, 5)
    entries = {(i, (i + 1) % n): data.draw(weight) for i in range(n)}
    if bipartite:
        entries.setdefault((1, 0), data.draw(weight))  # a 2-cycle: period exactly 2
    extra = data.draw(
        st.dictionaries(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), weight, max_size=8)
    )
    for (i, j), v in extra.items():
        if not bipartite or (i + j) % 2 == 1:
            entries.setdefault((i, j), v)
    model = ShiftModel(ModelKind.CUSTOM, tuple(sorted(entries)))
    f = MarkovPotential(model, Family.TABLE, table=tuple((i, j, v) for (i, j), v in sorted(entries.items())))
    tr = build_truncation(model, n - 1)
    if bipartite:
        assert tr.period == 2
    W = np.full((n, n), NEG_INF)
    for (i, j), v in entries.items():
        W[i, j] = v
    sweep = gauged_sweep(tr, f)
    for t in ZT_TS_DEFAULT:
        log_lambda, pi, _, gap = dense_gauged_state(W, t)
        try:
            p, meas = equilibrium_measure(tr, f, t, sweep=sweep)
        except NoConvergence:
            assert gap < 0.01, f"refused t={t} with shifted contraction margin {gap:.4f}"
            continue
        if gap < 1e-3:
            # the residual gate pins the eigenvector only to 1e-12 / gap, and
            # the oracle to round-off / gap: neither is a 1e-9 answer here
            continue
        assert p == pytest.approx(log_lambda, rel=1e-10, abs=1e-10), t
        assert np.allclose(meas.stationary, pi, rtol=1e-9, atol=1e-12), t


def test_gauged_solve_and_oracle_resolve_a_nearly_critical_loop():
    """A loop of weight -6.1e-5 beside the critical loop at 0 holds mass far
    below round-off of the largest; both the solve and the dense oracle give it
    to 1e-9 relative. The references are an 80-digit eigensolve of exp(t W)."""
    entries = {(0, 0): 0.0, (0, 1): 0.0, (1, 1): -6.103515625e-05, (1, 2): 0.0, (2, 3): 0.0, (3, 0): -1.0}
    model = ShiftModel(ModelKind.CUSTOM, tuple(sorted(entries)))
    f = MarkovPotential(model, Family.TABLE, table=tuple((i, j, v) for (i, j), v in sorted(entries.items())))
    tr = build_truncation(model, 3)
    W = np.full((4, 4), NEG_INF)
    for (i, j), v in entries.items():
        W[i, j] = v
    t, masses = 128.0, [1.0, 4.247339459024474e-52, 3.3053057899832378e-54, 3.3053057899832378e-54]
    ref = np.array(masses) / np.sum(masses)
    _, meas = equilibrium_measure(tr, f, t, sweep=gauged_sweep(tr, f))
    assert np.allclose(meas.stationary, ref, rtol=1e-9, atol=0.0)
    assert np.allclose(dense_gauged_state(W, t)[1], ref, rtol=1e-9, atol=0.0)


def test_equilibrium_measure_raises_on_a_stalled_solve():
    """Two tied critical loops at t = 8 leave a contraction margin of 0.003:
    the budget ends with residual 7.5e-11 and stationary masses off by 1e-8.
    The solve raises NoConvergence, and so does the measure."""
    entries = {(0, 0): 0.0, (0, 1): 0.0, (1, 1): 0.0, (1, 2): 0.0, (2, 0): -1.4375}
    model = ShiftModel(ModelKind.CUSTOM, tuple(sorted(entries)))
    f = MarkovPotential(model, Family.TABLE, table=tuple((i, j, v) for (i, j), v in sorted(entries.items())))
    tr = build_truncation(model, 2)
    sweep = gauged_sweep(tr, f)
    with pytest.raises(NoConvergence) as solve:
        perron(transfer_matrix(tr, f, 8.0), gauge=sweep.gauge.scaled(8.0))
    assert 1e-12 < solve.value.residual <= 1e-10
    with pytest.raises(NoConvergence) as exc:
        equilibrium_measure(tr, f, 8.0, sweep=sweep)
    assert exc.value.args == solve.value.args


def test_pressure_raises_on_a_stalled_solve():
    """The support of the test above, ungauged: at t = 8 the plain and the
    shifted runs both spend their budgets, with residual 7.5e-11 at best.
    pressure raises the solve's NoConvergence, as equilibrium_measure does."""
    entries = {(0, 0): 0.0, (0, 1): 0.0, (1, 1): 0.0, (1, 2): 0.0, (2, 0): -1.4375}
    model = ShiftModel(ModelKind.CUSTOM, tuple(sorted(entries)))
    f = MarkovPotential(model, Family.TABLE, table=tuple((i, j, v) for (i, j), v in sorted(entries.items())))
    tr = build_truncation(model, 2)
    with pytest.raises(NoConvergence) as solve:
        perron(transfer_matrix(tr, f, 8.0))
    assert 1e-12 < solve.value.residual <= 1e-10
    with pytest.raises(NoConvergence) as exc:
        pressure(tr, f, 8.0)
    assert exc.value.args == solve.value.args
    assert pressure(tr, f, 4.0) == perron(transfer_matrix(tr, f, 4.0)).log_lambda


def test_gauged_matches_ungauged_on_bundled_models():
    for name in ("log_quadratic", "tie_two_loops", "renewal_weighted"):
        model, f = bundled_pair(name)
        tr = build_truncation(model, detect_k0(model, f).k0 + 1)
        gauge = gauged_sweep(tr, f).gauge
        for t in ZT_TS_DEFAULT:
            logB = transfer_matrix(tr, f, t)
            gauged = perron(logB, gauge=gauge.scaled(t))
            try:
                plain = perron(logB)
            except NoConvergence:
                continue
            tol = 1e-12 * max(1.0, abs(plain.log_lambda))
            assert abs(gauged.log_lambda - plain.log_lambda) <= tol, (name, t)


def test_cyclic_gauge_falls_back_to_the_plain_run():
    W = tied_period_3()
    gauge = gauge_of(W)
    assert gauge.cyclicity == 3
    for t in (4.0, 8.0, 16.0, 32.0, 64.0, 1024.0):
        if t in (8.0, 16.0, 32.0):
            # no path converges here, with or without the gauge
            with pytest.raises(NoConvergence):
                perron(t * W)
            with pytest.raises(NoConvergence):
                perron(t * W, gauge=gauge.scaled(t))
            continue
        plain = perron(t * W)
        gauged = perron(t * W, gauge=gauge.scaled(t))
        assert plain.path == gauged.path == "period-averaged", t
        assert gauged.log_lambda == pytest.approx(plain.log_lambda, rel=1e-12), t
        assert np.allclose(gauged.log_h, plain.log_h, atol=1e-9), t
        if t >= 64.0:
            # both sides spend the shifted run's whole budget first
            assert plain.iterations == 10 and gauged.iterations == 2 * 3000 + 10, t


class TestPartitionEntropy:
    def test_parry_three_blocks(self):
        model, f = zero_potential(2)
        tr = build_truncation(model, 1)
        _, meas = equilibrium_measure(tr, f, 1.0)
        assert partition_entropy(meas, tr, 3) == pytest.approx(3 * math.log(2), abs=1e-12)

    def test_depth_one_is_stationary_entropy(self, renewal_weighted):
        model, f = renewal_weighted
        tr = build_truncation(model, 3)
        _, meas = equilibrium_measure(tr, f, 2.0)
        pi = meas.stationary
        expected = float(-(pi[pi > 0] * np.log(pi[pi > 0])).sum())
        assert partition_entropy(meas, tr, 1) == pytest.approx(expected, abs=1e-12)

    def test_deterministic_cycle_words(self):
        model, f = two_cycle(-1.0, -1.0)
        tr = build_truncation(model, 0)
        _, meas = equilibrium_measure(tr, f, 1.0)
        assert partition_entropy(meas, tr, 5) == pytest.approx(math.log(2), abs=1e-12)

    def test_chain_rule_identity(self):
        for name in ("log_quadratic", "tie_two_loops", "renewal_weighted"):
            model, f = bundled_pair(name)
            tr = build_truncation(model, 4)
            for t in (2.0, 16.0):
                _, meas = equilibrium_measure(tr, f, t)
                h = entropy(meas)
                H = [partition_entropy(meas, tr, n) for n in (1, 2, 3, 4)]
                for a, b in zip(H, H[1:]):
                    assert b - a == pytest.approx(h, abs=1e-9)

    def test_budget_guard(self):
        model, f = zero_potential(4)
        tr = build_truncation(model, 3)
        _, meas = equilibrium_measure(tr, f, 1.0)
        with pytest.raises(BudgetExceeded):
            partition_entropy(meas, tr, 9, budget=1000)


class TestGibbsRatio:
    def test_zero_potential_exact(self):
        model, f = zero_potential(3)
        tr = build_truncation(model, 2)
        p, meas = equilibrium_measure(tr, f, 1.0)
        for word in ((0,), (1, 2), (0, 1, 2, 0)):
            ratio, ok = gibbs_ratio(meas, word, f, 1.0, p)
            assert ratio == pytest.approx(1.0, abs=1e-11)
            assert ok

    def test_row_constant_exact(self, log_quadratic):
        model, f = log_quadratic
        tr = build_truncation(model, 2)
        p, meas = equilibrium_measure(tr, f, 1.0)
        for word in ((0,), (2,), (0, 1), (2, 1, 0)):
            ratio, ok = gibbs_ratio(meas, word, f, 1.0, p)
            assert ratio == pytest.approx(1.0, abs=1e-9)
            assert ok

    def test_one_cylinder_bound_all_models(self):
        for name in ("log_quadratic", "tie_two_loops", "renewal_weighted"):
            model, f = bundled_pair(name)
            for k in (2, 5):
                tr = build_truncation(model, k)
                p, meas = equilibrium_measure(tr, f, 2.0)
                for sym, ratio, ok in one_cylinder_gibbs_check(meas, tr, f, 2.0, p):
                    assert ok, (name, k, sym, ratio)
