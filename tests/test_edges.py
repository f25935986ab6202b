"""Edge-of-contract coverage: tail rules, structured guards, error recording."""

import json
import math

import numpy as np
import pytest

from conftest import admissible_words
from gibbsline.bundled import bundled_pair
from gibbsline.ergodic_opt import detect_k0
from gibbsline.errors import AlphabetTooLarge, NotStabilized, ParseError, SolverError
from gibbsline.limits import pressure_sweep
from gibbsline.potential import (
    Family,
    MarkovPotential,
    TailDescriptor,
    TailKind,
    check_summability,
    variation,
)
from gibbsline.rpf_finite import cylinder_mass, equilibrium_measure
from gibbsline.shift_model import (
    ModelKind,
    ShiftModel,
    TailRule,
    build_truncation,
    is_irreducible,
)


class TestCustomTailRules:
    def test_renewal_tail_extends_to_infinite_model(self):
        model = ShiftModel(ModelKind.CUSTOM, ((0, 0),), TailRule.RENEWAL_TAIL)
        assert model.is_infinite_alphabet()
        assert model.has_edge(0, 17) and model.has_edge(17, 16)
        assert not model.has_edge(17, 3)
        alphabets = [set(build_truncation(model, k).alphabet.tolist()) for k in range(6)]
        for small, big in zip(alphabets, alphabets[1:]):
            assert small < big
        assert all(is_irreducible(build_truncation(model, k).incidence) for k in range(6))

    def test_full_tail_connects_prefix(self):
        model = ShiftModel(ModelKind.CUSTOM, ((0, 1), (1, 0)), TailRule.FULL_TAIL)
        tr = build_truncation(model, 4)
        assert tr.alphabet.tolist() == [0, 1, 2, 3, 4]
        assert tr.incidence[2, 3] and tr.incidence[4, 0] and not tr.incidence[0, 0]
        assert tr.period == 1  # tail self-loops plus the 2-cycle

    def test_summability_on_tailed_custom_model(self):
        model = ShiftModel(ModelKind.CUSTOM, ((0, 0),), TailRule.RENEWAL_TAIL)
        table = tuple([(0, j, -(j + 1.0)) for j in range(9)] + [(i, i - 1, -float(i)) for i in range(1, 9)])
        f = MarkovPotential(model, Family.TABLE, table=table, tail=TailDescriptor(TailKind.GEOMETRIC, a=0.0, b=1.0))
        cert = check_summability(f)
        assert cert.converges and math.isfinite(cert.total_upper_bound)


class TestTabledTailVariation:
    def test_truncated_variation_reads_only_the_values_there(self):
        """The first variation is read on each truncation; a tail descriptor
        bounds the series, not the variation."""
        model = ShiftModel(ModelKind.FULL)
        table = tuple((i, j, -float(i) - 0.1 * j) for i in range(4) for j in range(4))
        tr = build_truncation(model, 3)
        for tail in (TailDescriptor(TailKind.GEOMETRIC, a=0.0, b=1.0), TailDescriptor(TailKind.NONE)):
            f = MarkovPotential(model, Family.TABLE, table=table, tail=tail)
            assert variation(f, tr) == pytest.approx(0.3, abs=1e-15)


class TestStructuredGuards:
    def test_words_need_materialized_incidence(self):
        tr = build_truncation(ShiftModel(ModelKind.FULL), 100_000)
        with pytest.raises(AlphabetTooLarge):
            admissible_words(tr, 2)

    def test_pressure_fast_path_rejects_row_varying(self):
        model, f = bundled_pair("tie_two_loops")
        tr = build_truncation(model, 100_000)
        from gibbsline.rpf_finite import pressure

        with pytest.raises(AlphabetTooLarge):
            pressure(tr, f, 2.0)


class TestSweepErrorRecording:
    def test_solver_errors_recorded_per_point(self, monkeypatch):
        model, f = bundled_pair("log_quadratic")
        import gibbsline.limits as limits_mod

        real = limits_mod.equilibrium_measure

        def flaky(trunc, pot, t, **kw):
            if trunc.n_symbols == 3 and t == 4.0:
                raise SolverError("injected failure")
            return real(trunc, pot, t, **kw)

        monkeypatch.setattr(limits_mod, "equilibrium_measure", flaky)
        res = pressure_sweep(model, f, ks=(1, 2, 3), ts=(2.0, 4.0))
        failed = [g for g in res.grid if g.error is not None]
        assert len(failed) == 1
        assert failed[0].k == 2 and failed[0].t == 4.0
        assert math.isnan(failed[0].pressure)
        done = [g for g in res.grid if g.error is None]
        assert len(done) == 5  # the sweep continued


class TestDetectK0Failure:
    def test_window_longer_than_schedule(self):
        model, f = bundled_pair("log_quadratic")
        with pytest.raises(NotStabilized):
            detect_k0(model, f, stability_window=11)  # the schedule has 10 ks


class TestConfigDuplicates:
    def test_duplicate_key_rejected(self):
        from gibbsline.config import parse_model_config

        with pytest.raises(ParseError):
            parse_model_config("[model]\nkind = full\nkind = renewal\n")

    def test_duplicate_section_rejected(self):
        from gibbsline.config import parse_model_config

        with pytest.raises(ParseError):
            parse_model_config("[model]\nkind = full\n[model]\nkind = full\n")


class TestMassNormalization:
    def test_word_masses_sum_to_one_all_models(self):
        for name in ("log_quadratic", "tie_two_loops", "renewal_weighted"):
            model, f = bundled_pair(name)
            for k in (2, 4):
                tr = build_truncation(model, k)
                for t in (2.0, 16.0):
                    _, meas = equilibrium_measure(tr, f, t)
                    for n in (1, 2, 3):
                        total = sum(cylinder_mass(meas, w) for w in admissible_words(tr, n))
                        assert total == pytest.approx(1.0, abs=1e-9), (name, k, t, n)
