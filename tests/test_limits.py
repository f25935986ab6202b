import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import ambient_sup, dense_gauged_state, gauged_sweep
from gibbsline import limits as limits_mod
from gibbsline import rpf_finite
from gibbsline.bundled import bundled_pair
from gibbsline.config import parse_model_config
from gibbsline.ergodic_opt import (
    K0Report,
    critical_decomposition,
    detect_k0,
    max_entropy_over_maximizing,
)
from gibbsline.errors import EmptyCriticalGraph, NoConvergence, NonMixingModel, NotConverged, ValidationError
from gibbsline.limits import (
    ZT_TS_DEFAULT,
    entropy_limit,
    entropy_upper_semicontinuity_check,
    equilibrium_limit_in_k,
    integral_limit_check,
    pressure_sweep,
    tightness_bound_check,
    zero_temp_sweep,
)
from gibbsline.potential import Family, MarkovPotential, TailDescriptor, TailKind
from gibbsline.rpf_finite import (
    cylinder_mass,
    entropy,
    equilibrium,
    equilibrium_measure,
    perron,
    pressure,
    transfer_matrix,
)
from gibbsline.shift_model import ModelKind, ShiftModel, build_truncation

BUNDLED = ("log_quadratic", "tie_two_loops", "renewal_weighted")
CONFIGS = Path(__file__).resolve().parent.parent / "configs"
PLANTED = Path(__file__).with_name("planted_cyclic.cfg")


def config_path(source: str) -> Path:
    """A shipped config, or a model beside this file: the planted 12-symbol
    one or the sparse custom one of 256 symbols."""
    if source in ("planted_cyclic", "custom_n256"):
        return Path(__file__).with_name(f"{source}.cfg")
    return CONFIGS / f"{source}.cfg"
LQ_P2 = math.log(math.pi**2 / 3 - 3)


def full_block_zero(n):
    """Zero potential on the full shift over {0..n-1} (finite custom block)."""
    edges = tuple((i, j) for i in range(n) for j in range(n))
    model = ShiftModel(ModelKind.CUSTOM, edges)
    table = tuple((i, j, 0.0) for i in range(n) for j in range(n))
    return model, MarkovPotential(model, Family.TABLE, table=table)


def full_shift_zero_table(hi):
    """Zero table on the infinite full shift; certifiably non-summable."""
    model = ShiftModel(ModelKind.FULL)
    table = tuple((i, j, 0.0) for i in range(hi) for j in range(hi))
    tail = TailDescriptor(TailKind.GEOMETRIC, a=0.0, b=0.0)
    return model, MarkovPotential(model, Family.TABLE, table=table, tail=tail)


class TestPressureSweep:
    def test_log_quadratic_monotone_to_closed_form(self, log_quadratic):
        model, f = log_quadratic
        res = pressure_sweep(model, f, ks=tuple(range(1, 8)), ts=(2.0, 4.0))
        p2 = [g.pressure for g in res.grid if g.t == 2.0]
        assert all(b >= a - 1e-12 for a, b in zip(p2, p2[1:]))
        assert all(p <= LQ_P2 + 1e-12 for p in p2)
        assert res.diagnostics["monotone_in_k"][2.0]
        est = res.diagnostics["p_estimate"][2.0]
        assert est["value"] == pytest.approx(LQ_P2, abs=1e-2)

    def test_zero_potential_block_pressures_exact(self):
        model, f = full_block_zero(7)
        res = pressure_sweep(model, f, ks=tuple(range(0, 7)), ts=(2.0,))
        for g in res.grid:
            assert g.pressure == pytest.approx(math.log(g.n_symbols), abs=1e-12)

    def test_monotone_all_bundled_grid(self):
        ts = (2.0, 4.0, 8.0, 16.0, 32.0, 64.0)
        for name in BUNDLED:
            model, f = bundled_pair(name)
            res = pressure_sweep(model, f, ks=tuple(range(1, 7)), ts=ts)
            assert all(res.diagnostics["monotone_in_k"].values()), name

    def test_uncertified_sweep_has_no_estimate(self):
        model, f = full_shift_zero_table(12)
        res = pressure_sweep(model, f, ks=(1, 2, 3), ts=(2.0,))
        assert not res.diagnostics["certified_summable"]
        assert res.diagnostics["p_estimate"] == {}

    def test_only_a_missing_tail_descriptor_means_uncertified(self, monkeypatch):
        import gibbsline.limits as limits_mod
        from gibbsline.errors import InvalidT, NoTailDescriptor

        model, f = full_block_zero(2)

        def raising(exc):
            def check(_f):
                raise exc

            return check

        monkeypatch.setattr(limits_mod, "check_summability", raising(NoTailDescriptor("no tail")))
        res = pressure_sweep(model, f, ks=(1,), ts=(2.0,))
        assert res.reference["certificate"] is None
        for exc in (InvalidT("other validation error"), ZeroDivisionError("bug")):
            monkeypatch.setattr(limits_mod, "check_summability", raising(exc))
            with pytest.raises(type(exc)):
                pressure_sweep(model, f, ks=(1,), ts=(2.0,))

    def test_rejects_low_t(self, log_quadratic):
        model, f = log_quadratic
        with pytest.raises(ValidationError):
            pressure_sweep(model, f, ks=(1, 2), ts=(1.0, 2.0))

    def test_convexity_and_monotone_in_t_normalized(self):
        for name in BUNDLED:
            model, f = bundled_pair(name)
            g = f.normalized()
            tr = build_truncation(model, 4)
            ps = {t: pressure(tr, g, t) for t in (2.0, 4.0, 6.0, 8.0)}
            assert ps[4.0] <= (ps[2.0] + ps[6.0]) / 2 + 1e-9, name
            assert ps[6.0] <= (ps[4.0] + ps[8.0]) / 2 + 1e-9, name
            vals = [ps[t] for t in (2.0, 4.0, 6.0, 8.0)]
            assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:])), name

    def test_pressure_over_t_squeezes_to_beta(self):
        for name in BUNDLED:
            model, f = bundled_pair(name)
            k0 = detect_k0(model, f).k0
            tr = build_truncation(model, k0)
            dec = critical_decomposition(tr, f)
            from gibbsline.rpf_finite import perron
            import numpy as np

            log_zero = np.where(tr.incidence, 0.0, -np.inf)
            h_top = perron(log_zero).log_lambda
            for t in (256.0, 1024.0):
                gap = pressure(tr, f, t) / t - dec.beta
                assert -1e-9 <= gap <= h_top / t + 1e-9, (name, t)


class TestEquilibriumLimit:
    def test_log_quadratic_closed_form(self, log_quadratic):
        model, f = log_quadratic
        ks = (32, 64, 128, 256)
        table = equilibrium_limit_in_k(model, f, 2.0, ks, words=((0,),), tol=1e-5)
        assert table.converged
        # oracle: Bernoulli weight 0.25 / Z with Z from direct summation
        i = np.arange(2_000_000, dtype=float)
        Z = float(np.sum(((i + 1) * (i + 2)) ** -2.0))
        assert table.limits[(0,)] == pytest.approx(0.25 / Z, abs=5e-6)

    def test_zero_potential_full_shift_not_converged(self):
        model, f = full_shift_zero_table(12)
        with pytest.raises(NotConverged):
            equilibrium_limit_in_k(model, f, 2.0, (1, 2, 3, 4, 5, 6), words=((0,),), tol=1e-6)

    def test_tie_two_loops_mass_cauchy_in_k_and_decaying_in_t(self, tie_two_loops):
        model, f = tie_two_loops
        finals = {}
        for t in (2.0, 5.0):
            table = equilibrium_limit_in_k(model, f, t, (2, 3, 4, 5), words=((2,),), tol=1e-6)
            gaps = table.gaps[(2,)]
            assert all(b <= a + 1e-15 for a, b in zip(gaps, gaps[1:]))
            finals[t] = table.limits[(2,)]
        assert finals[5.0] < finals[2.0] * 1e-6  # symbol 2 freezes out as t grows

    def test_repeated_ks_count_once(self, tie_two_loops):
        model, f = tie_two_loops
        with pytest.raises(ValidationError, match="three truncations"):
            equilibrium_limit_in_k(model, f, 2.0, (4, 5, 5, 5), words=((2,),))

    def test_the_whole_shift_of_a_finite_model_is_exact(self):
        # symbols 0, 1, 2: the truncation at k = 2 holds them all, k = 1 does not
        entries = ((0, 1, -0.3), (1, 0, -0.1), (1, 2, -0.2), (2, 0, -0.05))
        model = ShiftModel(ModelKind.CUSTOM, tuple((i, j) for i, j, _ in entries))
        f = MarkovPotential(model, Family.TABLE, table=entries)
        table = equilibrium_limit_in_k(model, f, 2.0, (1, 2, 2), words=((0,),), tol=1e-12)
        assert table.exact and table.converged and table.ks == (1, 2)
        assert table.final_gap == table.gaps[(0,)][-1] > 1e-12  # measured, not a gap of k = 2 to itself
        _, meas = equilibrium_measure(build_truncation(model, 2), f, 2.0)
        assert table.limits[(0,)] == cylinder_mass(meas, (0,))
        alone = equilibrium_limit_in_k(model, f, 2.0, (2,), words=((0,),))
        assert alone.exact and alone.final_gap == 0.0 and alone.limits == table.limits
        with pytest.raises(ValidationError, match="three truncations"):
            equilibrium_limit_in_k(model, f, 2.0, (0, 1), words=((0,),))


class TestIntegralLimit:
    def test_log_quadratic_energy_limit(self, log_quadratic):
        model, f = log_quadratic
        rep = integral_limit_check(model, f, 2.0, (16, 32, 64, 128, 256), tol=1e-3)
        assert rep.vp_residual <= 1e-9
        # oracle: 2 * sum q_i f(i) with closed-form Bernoulli weights
        i = np.arange(2_000_000, dtype=float)
        w = ((i + 1) * (i + 2)) ** -2.0
        q = w / w.sum()
        expected = 2.0 * float(np.sum(q * (-np.log((i + 1) * (i + 2)))))
        assert rep.limit == pytest.approx(expected, abs=1e-4)

    def test_gate_on_non_summable(self):
        model, f = full_shift_zero_table(12)
        with pytest.raises(ValidationError):
            integral_limit_check(model, f, 2.0, (1, 2, 3))

    def test_renewal_cauchy(self, renewal_weighted):
        model, f = renewal_weighted
        rep = integral_limit_check(model, f, 3.0, (1, 2, 3, 4, 5, 6), tol=1e-4)
        positive = [g for g in rep.gaps if g > 0]
        assert all(b <= a for a, b in zip(positive, positive[1:]))

    def test_only_converged_energies_are_reported(self, renewal_weighted):
        # a report is returned only when the last two gaps are below tol; a
        # repeated k counts once, so it makes no zero gap
        model, f = renewal_weighted
        for ks, tol in (((1, 2), 1e-4), ((1, 2, 3), 1e-12), ((1, 2, 3, 3, 3), 1e-12)):
            with pytest.raises(NotConverged):
                integral_limit_check(model, f, 3.0, ks, tol=tol)


class TestTightness:
    def test_zero_violations_bundled(self):
        for name in BUNDLED:
            model, f = bundled_pair(name)
            for t in (2.0, 8.0, 32.0):
                rep = tightness_bound_check(model, f, t, ks=tuple(range(1, 7)))
                assert rep.violations == (), (name, t)

    def test_log_quadratic_threshold_is_zero(self, log_quadratic):
        model, f = log_quadratic
        rep = tightness_bound_check(model, f, 2.0, ks=(3, 5))
        assert rep.s_ref == pytest.approx(-math.log(2), abs=1e-15)
        assert all(th == 0 for th in rep.thresholds.values())

    def test_bound_actually_checked(self, log_quadratic):
        model, f = log_quadratic
        rep = tightness_bound_check(model, f, 2.0, ks=(5,))
        tr = build_truncation(model, 5)
        from gibbsline.rpf_finite import equilibrium_measure

        _, meas = equilibrium_measure(tr, f, 2.0)
        for a, sym in enumerate(tr.alphabet):
            bound = math.exp(ambient_sup(f, int(sym)) - rep.s_ref)
            assert meas.stationary[a] <= bound + 1e-12


class TestZeroTemp:
    def test_log_quadratic_concentrates(self, log_quadratic):
        model, f = log_quadratic
        res = zero_temp_sweep(model, f, k=1, words=((0,),))
        assert res.estimate.weights == pytest.approx((1.0,), abs=1e-9)
        assert res.trajectories[(0,)][-1] >= 0.999
        assert res.estimate.mass((0,)) == pytest.approx(1.0, abs=1e-9)

    def test_tie_two_loops_parry_mix(self, tie_two_loops):
        model, f = tie_two_loops
        res = zero_temp_sweep(model, f, k=2, words=((0,), (1,)))
        assert abs(res.trajectories[(0,)][-1] - 0.5) <= 1e-3
        assert abs(res.trajectories[(1,)][-1] - 0.5) <= 1e-3
        assert res.estimate.mass((0,)) == pytest.approx(0.5, abs=1e-9)
        assert sum(res.estimate.weights) == pytest.approx(1.0, abs=1e-6)
        assert res.estimate.residual <= 1e-3

    def test_renewal_delta_at_zero(self, renewal_weighted):
        model, f = renewal_weighted
        res = zero_temp_sweep(model, f, k=1, words=((0, 0),))
        assert res.trajectories[(0, 0)][-1] >= 0.999
        assert res.estimate.mass((0, 0)) == pytest.approx(1.0, abs=1e-9)

    def test_weights_stable_and_normalized(self):
        for name in BUNDLED:
            model, f = bundled_pair(name)
            res = zero_temp_sweep(model, f, k=detect_k0(model, f).k0 + 1)
            assert sum(res.estimate.weights) == pytest.approx(1.0, abs=1e-6), name
            assert res.estimate.residual <= 1e-3, name

    def test_k_below_k0_rejected(self, tie_two_loops):
        model, f = tie_two_loops
        with pytest.raises(ValidationError):
            zero_temp_sweep(model, f, k=0)


class TestPlantedCyclicGroundState:
    """The sweep solves every t on a cyclic critical graph, in few iterations."""

    @pytest.fixture(scope="class")
    def planted(self):
        # 12 symbols, a Hamiltonian cycle plus random successors; the
        # maximizing cycle 2 -> 7 -> 9 -> 2 is planted, so the critical graph
        # has cyclicity 3 and the peripheral spectrum of exp(t f) tends to
        # lambda times the cube roots of unity as t grows.
        cfg = parse_model_config(PLANTED.read_text())
        W = np.full((12, 12), -np.inf)
        for i, j, w in cfg.potential.table:
            W[i, j] = w
        return cfg.model, cfg.potential, W

    def test_zero_temp_sweep_matches_dense_oracle(self, planted, monkeypatch):
        model, f, W = planted
        gauged_iterations = []
        solve = rpf_finite._power_perron

        # the sweep solves each t on the reduced kernels of its sides; other
        # solves are not counted
        def counting(logB, finite, gauge=None, sides=None, t=1.0):
            pd, reduced = solve(logB, finite, gauge, sides, t)
            if sides is not None:
                gauged_iterations.append(pd.iterations)
            return pd, reduced

        monkeypatch.setattr(rpf_finite, "_power_perron", counting)
        words = tuple((s,) for s in range(12)) + ((2, 7), (7, 9, 2))
        res = zero_temp_sweep(model, f, 11, ts=ZT_TS_DEFAULT, words=words)
        assert res.errors == ()
        assert res.ts == ZT_TS_DEFAULT
        assert res.decomposition.cyclicity == 3
        assert res.estimate.component_symbols == ((2, 7, 9),)
        for i, t in enumerate(res.ts):
            _, pi, P, _ = dense_gauged_state(W, t)
            for w in words:
                mass = pi[w[0]] * np.prod([P[a, b] for a, b in zip(w, w[1:])])
                assert res.trajectories[w][i] == pytest.approx(mass, rel=1e-9, abs=1e-12), (t, w)
            gamma = pi[2] + pi[7] + pi[9]
            assert res.gamma_trajectories[0][i] == pytest.approx(gamma, rel=1e-9, abs=1e-12), t
        assert len(gauged_iterations) == len(ZT_TS_DEFAULT)
        assert sum(gauged_iterations) < 2000

    def test_entropy_limit_returns(self, planted):
        model, f, _ = planted
        rep = entropy_limit(model, f, 11, ts=ZT_TS_DEFAULT)
        assert rep.ts == ZT_TS_DEFAULT
        # the ground state is the periodic orbit of the planted cycle
        assert rep.h_infinity == pytest.approx(0.0, abs=1e-12)
        assert rep.sup_over_maximizing == pytest.approx(0.0, abs=1e-12)


class TestEntropyLimit:
    def test_bundled_limits(self):
        expected = {"log_quadratic": 0.0, "tie_two_loops": math.log(2), "renewal_weighted": 0.0}
        for name, want in expected.items():
            model, f = bundled_pair(name)
            rep = entropy_limit(model, f, k=detect_k0(model, f).k0 + 1)
            assert abs(rep.h_infinity - want) <= 1e-3, name
            assert rep.sup_over_maximizing == pytest.approx(want, abs=1e-12), name
            assert rep.validated

    def test_non_mixing_warns(self):
        model = ShiftModel(ModelKind.CUSTOM, ((0, 1), (1, 0)))
        f = MarkovPotential(model, Family.TABLE, table=((0, 1, -1.0), (1, 0, -1.0)))
        with pytest.warns(NonMixingModel):
            rep = entropy_limit(model, f, k=0)
        assert not rep.validated
        assert rep.h_infinity == pytest.approx(0.0, abs=1e-12)


class TestSweepSetUp:
    """`zero_temp_sweep` and `entropy_limit` share their set-up and keep
    their own error behaviour."""

    def test_each_sweep_names_itself_below_k0(self, tie_two_loops):
        model, f = tie_two_loops
        assert detect_k0(model, f).k0 == 1
        with pytest.raises(ValidationError, match=r"^zero-temperature sweep needs k >= k0 = 1$"):
            zero_temp_sweep(model, f, k=0)
        with pytest.raises(ValidationError, match=r"^entropy limit needs k >= k0 = 1$"):
            entropy_limit(model, f, k=0)

    def test_a_failed_solve_is_recorded_by_the_sweep_and_raised_by_the_entropy_limit(self, tie_two_loops, monkeypatch):
        model, f = tie_two_loops
        real = limits_mod.equilibrium_measure

        def flaky(trunc, pot, t, **kw):
            if t == 512.0:
                raise NoConvergence(3000, 1e-3)
            return real(trunc, pot, t, **kw)

        monkeypatch.setattr(limits_mod, "equilibrium_measure", flaky)
        res = zero_temp_sweep(model, f, k=2)
        assert res.ts == tuple(t for t in ZT_TS_DEFAULT if t != 512.0)
        assert [t for t, _ in res.errors] == [512.0]
        with pytest.raises(NoConvergence):
            entropy_limit(model, f, k=2)

    def test_the_non_mixing_warning_comes_before_the_set_up(self, monkeypatch):
        model = ShiftModel(ModelKind.CUSTOM, ((0, 1), (1, 0)))
        f = MarkovPotential(model, Family.TABLE, table=((0, 1, -1.0), (1, 0, -1.0)))

        def failing(*args):
            raise EmptyCriticalGraph(1e-9)

        monkeypatch.setattr(limits_mod, "_sweep_setup", failing)
        with pytest.warns(NonMixingModel), pytest.raises(EmptyCriticalGraph):
            entropy_limit(model, f, k=0)


class TestSemicontinuity:
    def test_log_quadratic_h1_converges_to_series(self, log_quadratic):
        model, f = log_quadratic
        rep = entropy_upper_semicontinuity_check(model, f, 2.0, ks=(16, 32, 64, 128), n_max=1)
        # oracle: entropy of the closed-form Bernoulli weights by direct series
        i = np.arange(2_000_000, dtype=float)
        w = ((i + 1) * (i + 2)) ** -2.0
        q = w / w.sum()
        h1 = float(-(q * np.log(q)).sum())
        assert rep.partition_rates[1][-1] == pytest.approx(h1, abs=1e-3)
        assert all(rep.within_band)
        assert all(g <= 1e-3 for g in rep.partition_final_gaps.values())

    def test_deterministic_cycle_all_zero(self):
        model = ShiftModel(ModelKind.CUSTOM, ((0, 1), (1, 0)))
        f = MarkovPotential(model, Family.TABLE, table=((0, 1, -1.0), (1, 0, -1.0)))
        rep = entropy_upper_semicontinuity_check(model, f, 4.0, ks=(0, 1))
        assert all(h == pytest.approx(0.0, abs=1e-12) for h in rep.entropies)

    def test_tie_two_loops_rate_gaps_shrink(self, tie_two_loops):
        model, f = tie_two_loops
        rep = entropy_upper_semicontinuity_check(model, f, 4.0, ks=(2, 3, 4, 5), n_max=2)
        rates = rep.partition_rates[2]
        gaps = [abs(b - a) for a, b in zip(rates, rates[1:])]
        assert all(b <= a + 1e-12 for a, b in zip(gaps, gaps[1:]))


class TestOneWeightMatrixPerTruncation:
    """A sweep builds W = transfer_matrix(trunc, f, 1) once per truncation and
    solves each t on t * W, or on the reduced exponents it builds from W."""

    @pytest.mark.parametrize("sweep", [zero_temp_sweep, entropy_limit])
    def test_a_t_sweep_evaluates_the_full_grid_once(self, tie_two_loops, value_grid_sizes, sweep):
        model, f = tie_two_loops
        k0 = detect_k0(model, f)
        value_grid_sizes.clear()
        sweep(model, f, 20, ts=ZT_TS_DEFAULT, k0_report=k0)
        assert value_grid_sizes.count((21, 21)) == 1

    @pytest.mark.parametrize("t", [-1.0, 0.0, 0.5, 2.0, 1024.0])
    def test_a_solve_on_w_equals_the_solve_on_its_own_transfer_matrix(self, renewal_weighted, t):
        # t * W is exact only for t > 0 (0 * -inf is nan); elsewhere the solve builds its own
        model, f = renewal_weighted
        trunc = build_truncation(model, 6)
        sweep = gauged_sweep(trunc, f)
        assert sweep.sides is None  # a renewal support: each t is solved on t * W
        p, meas = equilibrium_measure(trunc, f, t, sweep=sweep)
        p0, meas0 = self._gauged_per_t(trunc, f, t, sweep.gauge)
        assert p == p0
        assert np.array_equal(meas.stochastic, meas0.stochastic)
        assert np.array_equal(meas.stationary, meas0.stationary)

    @staticmethod
    def _gauged_per_t(trunc, f, t, gauge):
        """A lone gauged solve on transfer_matrix(trunc, f, t), as the sweeps solved each t before."""
        logB = transfer_matrix(trunc, f, t)
        pd = perron(logB, gauge=gauge.scaled(t))
        return pd.log_lambda, equilibrium(pd, logB, trunc.alphabet)

    def _per_t(self, trunc, f, ts, words):
        """Each t solved on its own transfer_matrix(trunc, f, t), as the sweeps did before."""
        dec = critical_decomposition(trunc, f)
        gauge = gauged_sweep(trunc, f).gauge
        maximal = [dec.components[j] for j in dec.maximal_components]
        out = []
        for t in ts:
            logB = transfer_matrix(trunc, f, t)
            p, meas = self._gauged_per_t(trunc, f, t, gauge)
            assert np.array_equal(logB, t * transfer_matrix(trunc, f, 1.0))
            masses = tuple(cylinder_mass(meas, w) for w in words)
            gammas = tuple(sum(cylinder_mass(meas, (s,)) for s in c.symbols) for c in maximal)
            out.append((p, masses, gammas, entropy(meas)))
        return out

    @pytest.mark.parametrize(
        "source, k",
        [
            ("log_quadratic", None),
            ("non_summable", 3),
            ("renewal_weighted", None),
            ("tie_two_loops", None),
            ("tie_two_loops", 255),
            ("planted_cyclic", 11),
            ("custom_n256", 255),  # sparse: every t on edge lists of the live cells
        ],
    )
    def test_b_sweeps_equal_per_t_solves_bit_for_bit(self, source, k):
        cfg = parse_model_config(config_path(source).read_text())
        model, f, sw = cfg.model, cfg.potential, cfg.sweep
        if k is None:
            k0 = detect_k0(model, f)
            k = k0.k0 + 1
        else:  # no k0 to detect on a non-summable potential; the sweep takes any k >= 0
            k0 = K0Report(k0=0, window=1, heuristic=True, ks=(), betas=())
        trunc = build_truncation(model, k)
        words = tuple((s,) for s in range(min(trunc.n_symbols, 8))) + ((0, 0), (0, 1))
        want = self._per_t(trunc, f, sw.zt_ts, words)

        zt = zero_temp_sweep(model, f, k, ts=sw.zt_ts, words=words, k0_report=k0)
        assert zt.ts == tuple(sw.zt_ts) and not zt.errors
        for i, (_, masses, gammas, _) in enumerate(want):
            assert tuple(zt.trajectories[w][i] for w in words) == masses
            assert tuple(g[i] for g in zt.gamma_trajectories) == gammas
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NonMixingModel)
            rep = entropy_limit(model, f, k, ts=sw.zt_ts, k0_report=k0)
        assert rep.entropies == tuple(h for *_, h in want)
