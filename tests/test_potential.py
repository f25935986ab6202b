import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import ambient_sup, edge_value, truncated_sups
from gibbsline import cli, potential
from gibbsline.bundled import BUNDLED_NAMES, bundled_pair
from gibbsline.config import parse_model_config
from gibbsline.ergodic_opt import detect_k0
from gibbsline.errors import DeadEndSymbol, InvalidT, NoTailDescriptor, ValidationError
from gibbsline.potential import (
    Family,
    MarkovPotential,
    SummabilityCertificate,
    TailDescriptor,
    TailKind,
    check_summability,
    check_summability_t,
    is_summable,
    variation,
)
from gibbsline.rpf_finite import pressure, transfer_matrix
from gibbsline.shift_model import ModelKind, ShiftModel, TailRule, build_truncation


class TestEvaluate:
    def test_log_quadratic_row(self, log_quadratic):
        _, f = log_quadratic
        for j in (0, 3, 17):
            assert edge_value(f, 0, j) == pytest.approx(-math.log(2.0), abs=1e-15)

    def test_tie_two_loops_zero_block(self, tie_two_loops):
        _, f = tie_two_loops
        assert edge_value(f, 0, 1) == 0.0
        assert edge_value(f, 2, 1) == -3.0

    def test_renewal_weighted(self, renewal_weighted):
        _, f = renewal_weighted
        assert edge_value(f, 3, 2) == -3.0
        assert edge_value(f, 0, 4) == -5.0


class TestCylinderSup:
    def test_log_quadratic(self, log_quadratic):
        _, f = log_quadratic
        assert ambient_sup(f, 4) == pytest.approx(-math.log(30.0), abs=1e-15)

    def test_tie_two_loops_loop_value(self, tie_two_loops):
        _, f = tie_two_loops
        assert ambient_sup(f, 1) == 0.0

    def test_renewal_single_edge(self, renewal_weighted):
        _, f = renewal_weighted
        assert ambient_sup(f, 5) == -5.0

    def test_truncated_sup(self, tie_two_loops):
        model, f = tie_two_loops
        tr = build_truncation(model, 3)
        assert truncated_sups(f, tr)[2] == -3.0


class TestNormalize:
    def test_tie_two_loops_unchanged(self, tie_two_loops):
        _, f = tie_two_loops
        g = f.normalized()
        assert g.shift == 0.0
        assert g.global_sup() == 0.0

    def test_log_quadratic_shifts_by_log2(self, log_quadratic):
        _, f = log_quadratic
        g = f.normalized()
        assert g.shift == pytest.approx(math.log(2.0), abs=1e-15)
        assert edge_value(g, 0, 0) == pytest.approx(0.0, abs=1e-15)

    def test_constant_table_goes_to_zero(self):
        model = ShiftModel(ModelKind.CUSTOM, ((0, 1), (1, 0)))
        f = MarkovPotential(model, Family.TABLE, table=((0, 1, -2.5), (1, 0, -2.5)))
        g = f.normalized()
        assert edge_value(g, 0, 1) == 0.0 and edge_value(g, 1, 0) == 0.0

    def test_idempotent(self, renewal_weighted):
        _, f = renewal_weighted
        g = f.normalized()
        h = g.normalized()
        assert h.shift == pytest.approx(g.shift, abs=0.0)
        assert abs(g.global_sup()) < 1e-14

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(min_value=-50, max_value=50), min_size=2, max_size=2))
    def test_idempotent_random_two_cycle(self, vals):
        model = ShiftModel(ModelKind.CUSTOM, ((0, 1), (1, 0)))
        f = MarkovPotential(model, Family.TABLE, table=((0, 1, vals[0]), (1, 0, vals[1])))
        g = f.normalized()
        assert abs(g.global_sup()) < 1e-12
        assert g.normalized().shift == pytest.approx(g.shift, abs=1e-12)


class TestSummability:
    def test_log_quadratic_telescopes_to_one(self, log_quadratic):
        _, f = log_quadratic
        cert = check_summability(f)
        assert cert.converges
        # oracle: the explicit part telescopes to 1 - 1/(R+2)
        R = cert.terms_used - 1
        assert cert.partial_sum == pytest.approx(1.0 - 1.0 / (R + 2), rel=1e-12)
        assert abs(cert.total_upper_bound - 1.0) < 1e-3
        assert cert.total_upper_bound >= cert.partial_sum

    def test_renewal_geometric(self, renewal_weighted):
        _, f = renewal_weighted
        cert = check_summability(f)
        assert cert.converges and cert.tol_met
        # oracle: direct summation of exp(sup f|_[i]) far past the certificate range
        i = np.arange(200)
        sups = np.where(i == 0, -1.0, -i.astype(float))
        direct = float(np.exp(sups).sum())
        assert cert.total_upper_bound >= direct - 1e-12
        assert cert.total_upper_bound == pytest.approx(direct, rel=1e-6)

    def test_non_summable_renewal_diverges(self):
        _, f = bundled_pair("non_summable_renewal")
        cert = check_summability(f)
        assert not cert.converges
        assert math.isinf(cert.tail_bound)

    def test_monotone_in_explicit_range(self, log_quadratic):
        model, f = log_quadratic
        small = MarkovPotential(model, f.family, explicit_hi=8)
        large = MarkovPotential(model, f.family, explicit_hi=512)
        cs, cl = check_summability(small), check_summability(large)
        assert cs.converges and cl.converges

    def test_missing_tail_raises(self):
        model = ShiftModel(ModelKind.RENEWAL)
        f = MarkovPotential(model, Family.TABLE, table=((0, 0, -1.0), (1, 0, -1.0)))
        with pytest.raises(NoTailDescriptor):
            check_summability(f)
        with pytest.raises(NoTailDescriptor):
            is_summable(f)


CONFIGS = Path(__file__).resolve().parent.parent / "configs"
POTENTIALS = [("bundled", name) for name in BUNDLED_NAMES + ("non_summable_renewal",)]
POTENTIALS += [("config", p.stem) for p in sorted(CONFIGS.glob("*.cfg"))]


@pytest.mark.parametrize("kind, name", POTENTIALS, ids=[f"{k}:{n}" for k, n in POTENTIALS])
def test_is_summable_is_the_certificate_verdict(kind, name):
    if kind == "bundled":
        f = bundled_pair(name)[1]
    else:
        f = parse_model_config((CONFIGS / f"{name}.cfg").read_text()).potential
    got = is_summable(f)
    assert f._certificates == {}  # no certificate was summed for it
    assert got is check_summability(f).converges


def test_detect_k0_sums_no_certificate(log_quadratic):
    model, f = log_quadratic
    detect_k0(model, f)
    assert f._certificates == {}


@st.composite
def tailed_potentials(draw):
    """Geometric and polynomial tails, on a family whose certificate grows
    round by round and on a one-round table; `a` reaches values whose
    closed form overflows (exp(a - b i) or exp(a) past 709.78)."""
    kind = draw(st.sampled_from((TailKind.GEOMETRIC, TailKind.POLYNOMIAL)))
    a = draw(st.sampled_from((0.0, 0.5, 700.0, 709.0, 720.0, 800.0, 1e4)) | st.floats(0.0, 2000.0))
    if kind is TailKind.GEOMETRIC:
        rate = draw(st.sampled_from((1e-300, 1e-12, 1e-3, 1.0, 11.0)) | st.floats(1e-6, 12.0))
        tail = TailDescriptor(kind, a=a, b=rate)
    else:
        tail = TailDescriptor(kind, a=a, p=draw(st.sampled_from((0.5, 1.0, 1.0 + 1e-9, 2.0)) | st.floats(0.0, 2.0)))
    hi = draw(st.integers(0, 64))
    model = ShiftModel(ModelKind.FULL)
    if draw(st.booleans()):
        # -log((i+1)(i+2)) <= a - p log(i+1) for p <= 2, a >= 0; a geometric
        # tail may fail to majorize it
        try:
            return MarkovPotential(model, Family.LOG_QUADRATIC, tail=tail, explicit_hi=hi)
        except ValidationError:
            assume(False)
    rows = np.arange(hi + 1)
    values = np.minimum(np.asarray(tail.bound(rows), dtype=float), 0.0) - 1.0
    return MarkovPotential(model, Family.TABLE, table=tuple((int(i), 0, float(v)) for i, v in zip(rows, values)), tail=tail)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@settings(max_examples=60, deadline=None)
@given(tailed_potentials())
def test_is_summable_is_the_certificate_verdict_on_drawn_tails(f):
    assert is_summable(f) is check_summability(f).converges


def reference_check_summability(f, tol=1e-9, max_terms=2_000_000):
    """The from-scratch doubling loop: each round re-evaluates the whole prefix."""
    finite_syms = potential._finite_alphabet_symbols(f)
    if finite_syms is not None:
        sups = f._ambient_sups(finite_syms)
        partial = float(np.sum(np.exp(sups)))
        return SummabilityCertificate(True, partial, 0.0, partial, int(finite_syms.size), True)
    if f.tail.kind is TailKind.NONE:
        raise NoTailDescriptor("summability over an infinite alphabet needs a tail descriptor")
    hi = int(f._explicit_symbols()[-1])
    grow_ok = f.family is not Family.TABLE
    while True:
        syms = np.arange(hi + 1, dtype=np.int64)
        sups = f._ambient_sups(syms)
        partial = float(np.sum(np.exp(sups)))
        a_eff = f.tail.a + f.shift
        if f.tail.kind is TailKind.GEOMETRIC:
            tail = potential._geometric_tail(a_eff, f.tail.b, 1.0, hi + 1)
        else:
            tail = potential._polynomial_tail(a_eff, f.tail.p, 1.0, hi + 1)
        total = partial + tail
        tol_met = math.isfinite(tail) and tail <= tol * total
        if tol_met or not grow_ok or not math.isfinite(tail) or hi + 1 >= max_terms:
            return SummabilityCertificate(bool(math.isfinite(tail)), partial, tail, total, hi + 1, tol_met)
        hi = min(max_terms - 1, max(2 * hi, 64))


def reference_check_summability_t(f, t, tol=1e-9, max_terms=2_000_000):
    """The from-scratch weighted loop, for potentials with a tail descriptor."""
    g = f.normalized()

    def term(sups):
        x = -t * np.minimum(sups, 0.0)
        return x * np.exp(-x)

    a_eff = g.tail.a + g.shift
    if g.tail.kind is TailKind.GEOMETRIC:
        start_min = max(0, math.ceil((a_eff + 1.0 / t) / g.tail.b))
    else:
        start_min = max(0, math.ceil(math.exp((a_eff + 1.0 / t) / g.tail.p) - 1.0))
    hi = int(g._explicit_symbols()[-1])
    grow_ok = g.family is not Family.TABLE
    if grow_ok:
        hi = max(hi, start_min)
    while True:
        syms = np.arange(hi + 1, dtype=np.int64)
        partial = float(np.sum(term(g._ambient_sups(syms))))
        start = int(syms[-1]) + 1
        bridge = 0.0
        if start <= start_min:
            mid = np.arange(start, start_min + 1, dtype=np.int64)
            bridge = float(np.sum(term(np.asarray(g._tail_bound_at(mid), dtype=float))))
            start = start_min + 1
        if g.tail.kind is TailKind.GEOMETRIC:
            tail = bridge + potential._weighted_geometric_tail(a_eff, g.tail.b, t, start)
        else:
            tail = bridge + potential._weighted_polynomial_tail(a_eff, g.tail.p, t, start)
        total = partial + tail
        tol_met = math.isfinite(tail) and tail <= tol * max(total, 1e-300)
        if tol_met or not grow_ok or hi + 1 >= max_terms:
            return SummabilityCertificate(bool(math.isfinite(tail)), partial, tail, total, int(syms.size), tol_met)
        hi = min(max_terms - 1, max(2 * hi, 64, start_min))


FAMILIES = ("log_quadratic", "tie_two_loops", "renewal_weighted")
# renewal tables that stop at symbol 5: the prefix cannot grow, and with
# b = 0.05 the weighted tail is bridged by majorant terms up to its regime
RENEWAL_TABLE = tuple([(0, j, -(j + 1.0)) for j in range(6)] + [(i, i - 1, -float(i)) for i in range(1, 6)])
# weighted terms that underflow to 0 on the table and a tail near 1e-310 at
# t = 2, so the weighted series sums below 1e-300
STEEP_TABLE = tuple([(0, j, 0.0 if j == 0 else -400.0) for j in range(6)] + [(i, i - 1, -400.0) for i in range(1, 6)])
TABLES = {
    "table_geometric_b1": (RENEWAL_TABLE, TailDescriptor(TailKind.GEOMETRIC, a=0.0, b=1.0)),
    "table_geometric_b0.05": (RENEWAL_TABLE, TailDescriptor(TailKind.GEOMETRIC, a=0.0, b=0.05)),
    "table_polynomial": (RENEWAL_TABLE, TailDescriptor(TailKind.POLYNOMIAL, a=0.5, p=2.0)),
    "table_steep_b60": (STEEP_TABLE, TailDescriptor(TailKind.GEOMETRIC, a=0.0, b=60.0)),
}


def certificate_input(name, shift):
    if name in TABLES:
        table, tail = TABLES[name]
        return MarkovPotential(ShiftModel(ModelKind.RENEWAL), Family.TABLE, table=table, tail=tail, shift=shift)
    model, f = bundled_pair(name)
    return MarkovPotential(model, f.family, shift=shift)


class TestCertificateLoops:
    """The growing-prefix loops against the from-scratch loops they replace."""

    @pytest.mark.parametrize("name", FAMILIES + tuple(TABLES))
    # at -700 and -720 the unweighted series sums below 1e-300
    @pytest.mark.parametrize("shift", [0.0, -0.75, 1.3, -700.0, -720.0])
    @pytest.mark.parametrize("tol", [1e-6, 1e-9, 1e-12])
    def test_bit_identical_to_the_from_scratch_loop(self, name, shift, tol):
        g = certificate_input(name, shift)
        # the 2,000,000-term budget ends mid-doubling, at 1,999,999
        assert check_summability(g, tol) == reference_check_summability(g, tol)
        for t in (1.5, 2.0, 10.0):
            assert check_summability_t(g, t, tol) == reference_check_summability_t(g, t, tol)

    def test_rounds_are_evaluated_in_blocks(self, log_quadratic, monkeypatch):
        """A budget of 3 * 2^15 + 5 terms: the last round adds 32,772
        symbols, split into a full block and one of 4 that ends mid-block.
        The certificates equal the from-scratch loops' bit for bit."""
        _, f = log_quadratic
        block = potential._TERM_BLOCK
        max_terms = 3 * block + 5
        expected = (
            reference_check_summability(f, 1e-15, max_terms),
            reference_check_summability_t(f, 2.0, 1e-15, max_terms),
        )
        sizes = []
        ambient_sups = MarkovPotential._ambient_sups
        monkeypatch.setattr(MarkovPotential, "_ambient_sups", lambda g, syms: sizes.append(np.size(syms)) or ambient_sups(g, syms))
        monkeypatch.setattr(potential, "_MAX_TERMS", max_terms)
        got = check_summability(f, 1e-15), check_summability_t(f, 2.0, 1e-15)
        assert got == expected
        assert [cert.terms_used for cert in got] == [max_terms, max_terms]
        assert max(sizes) == block and sizes.count(4) == 2

    def test_budget_is_honoured(self, log_quadratic, monkeypatch):
        model, f = log_quadratic
        # a fast tail stops long before the budget
        _, g = bundled_pair("renewal_weighted")
        assert check_summability(g).terms_used == 65
        monkeypatch.setattr(potential, "_MAX_TERMS", 10)
        assert check_summability(f).terms_used == 10
        assert check_summability_t(f, 2.0).terms_used == 10
        monkeypatch.setattr(potential, "_MAX_TERMS", 1)
        # a new potential: the first keeps its 10-term certificate
        cert = check_summability(MarkovPotential(model, f.family))
        assert cert.terms_used == 1 and cert.partial_sum == 0.5

    def test_certificate_is_kept_per_tolerance(self, log_quadratic):
        _, f = log_quadratic
        cert = check_summability(f)
        assert check_summability(f) is cert
        assert check_summability(f, tol=1e-6) is not cert
        # normalization makes a new potential, which computes its own
        assert check_summability(f.normalized()) is not cert

    def test_failures_raise_on_every_call(self):
        model = ShiftModel(ModelKind.RENEWAL)
        no_tail = MarkovPotential(model, Family.TABLE, table=((0, 0, -1.0), (1, 0, -1.0)))
        # symbol 1 lies inside the explicit range but has no table row
        model = ShiftModel(ModelKind.CUSTOM, ((0, 2), (2, 0)), TailRule.RENEWAL_TAIL)
        tail = TailDescriptor(TailKind.GEOMETRIC, a=1.0, b=1.0)
        dead_end = MarkovPotential(model, Family.TABLE, table=((0, 2, -1.0), (2, 0, -1.0)), tail=tail)
        for f, exc in ((no_tail, NoTailDescriptor), (dead_end, DeadEndSymbol)):
            for _ in range(2):
                with pytest.raises(exc):
                    check_summability(f)

    def test_diagnose_evaluates_each_series_term_once(self, tmp_path, monkeypatch):
        seen = []
        ambient_sups = MarkovPotential._ambient_sups

        def counting(f, symbols):
            seen.append(np.asarray(symbols).ravel())
            return ambient_sups(f, symbols)

        monkeypatch.setattr(MarkovPotential, "_ambient_sups", counting)
        assert cli.run_command(["diagnose", "--config", str(CONFIGS / "log_quadratic.cfg"), "--out", str(tmp_path)]) == 0
        syms = np.concatenate(seen)
        # only certificates read sups past the explicit range 0..64; the
        # polynomial tail never meets tol, so the series runs to its budget
        beyond = syms[syms > 64]
        assert beyond.size == 2_000_000 - 65
        assert np.unique(beyond).size == beyond.size


def out_of_place_sups(f, symbols):
    """The closed-form sups from int64 symbols, each operation into a new array."""
    s = np.asarray(symbols, dtype=np.int64).astype(float)
    if f.family is Family.LOG_QUADRATIC:
        out = -np.log((s + 1.0) * (s + 2.0))
    elif f.family is Family.TIE_TWO_LOOPS:
        out = np.where(s < 2, 0.0, -(s + 1.0))
    else:
        out = np.where(s == 0, -1.0, -s)
    return out + f.shift


def out_of_place_weighted_terms(sups, t):
    x = -t * np.minimum(sups, 0.0)
    return x * np.exp(-x)


def weighted_term(g, t):
    """The in-place term(sups, out) that check_summability_t hands its certificate."""
    terms = []
    with pytest.MonkeyPatch.context() as m:
        m.setattr(potential, "_certificate", lambda f, term, *args: terms.append(term))
        check_summability_t(g, t)
    return terms[0]


@st.composite
def straddling_blocks(draw):
    """(lo, top): at most _TERM_BLOCK symbols lo..top - 1 that straddle 2^15."""
    block = potential._TERM_BLOCK
    lo = draw(st.integers(1, block - 1))
    return lo, draw(st.integers(block + 1, lo + block))


class TestInPlaceTerms:
    """The certificate's in-place evaluation against the out-of-place one it replaced."""

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from(FAMILIES),
        st.sampled_from((0.0, -0.75, 1.3, None)),
        straddling_blocks(),
        st.sampled_from((1.5, 2.0, 10.0)),
    )
    def test_float_symbol_blocks_keep_the_bits(self, name, shift, block, t):
        model, f = bundled_pair(name)
        g = f.normalized() if shift is None else MarkovPotential(model, f.family, shift=shift)
        lo, top = block
        expected = out_of_place_sups(g, np.arange(lo, top, dtype=np.int64))
        terms = np.empty(top - lo)
        np.exp(g._ambient_sups(np.arange(lo, top, dtype=float)), out=terms)
        assert terms.tobytes() == np.exp(expected).tobytes()
        h = g.normalized()
        weighted = np.empty(top - lo)
        weighted_term(h, t)(h._ambient_sups(np.arange(lo, top, dtype=float)), weighted)
        assert weighted.tobytes() == out_of_place_weighted_terms(out_of_place_sups(h, np.arange(lo, top)), t).tobytes()

    def test_a_tail_met_early_stops_short_of_the_budget(self, log_quadratic):
        _, f = log_quadratic
        cert = check_summability(f, 1e-3)
        assert cert == reference_check_summability(f, 1e-3)
        assert cert.terms_used == 1025

    def test_a_default_certificate_allocates_one_buffer_and_blocks(self, log_quadratic):
        """At most one 2,000,000-term buffer and a few blocks live at once;
        the first round alone (`is_summable`) reserves nothing."""
        model, f = log_quadratic
        block_bytes = 8 * potential._TERM_BLOCK
        for verdict, bound in ((is_summable, 4 * block_bytes), (check_summability, 8 * potential._MAX_TERMS + 4 * block_bytes)):
            g = MarkovPotential(model, f.family)
            tracemalloc.start()
            try:
                verdict(g)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= bound, verdict.__name__


class TestSummabilityT:
    def test_log_quadratic_t2_converges(self, log_quadratic):
        _, f = log_quadratic
        cert = check_summability_t(f, 2.0)
        assert cert.converges
        # oracle: direct summation of the true normalized series over 10^6 terms
        i = np.arange(1_000_000, dtype=float)
        sups = -np.log((i + 1) * (i + 2)) + math.log(2.0)
        x = -2.0 * sups
        direct = float((x * np.exp(-x)).sum())
        assert cert.total_upper_bound >= direct - 1e-9

    def test_tail_shrinks_with_t(self, log_quadratic):
        _, f = log_quadratic
        tails = [check_summability_t(f, t).tail_bound for t in (2.0, 10.0)]
        assert tails[1] <= tails[0]

    def test_non_summable_cannot_be_certified(self):
        _, f = bundled_pair("non_summable_renewal")
        cert = check_summability_t(f, 2.0)
        assert not cert.converges

    def test_invalid_t(self, log_quadratic):
        _, f = log_quadratic
        with pytest.raises(InvalidT):
            check_summability_t(f, 1.0)


class TestVariation:
    def test_log_quadratic_rows_constant(self, log_quadratic):
        model, f = log_quadratic
        assert variation(f, build_truncation(model, 6)) == 0.0

    def test_truncated_v1_matches_row_scan(self, renewal_weighted):
        model, f = renewal_weighted
        tr = build_truncation(model, 4)
        v1 = variation(f, tr)
        # oracle: scan rows of the truncation by hand
        worst = 0.0
        for i in tr.alphabet.tolist():
            vals = [edge_value(f, i, j) for j in tr.alphabet.tolist() if model.has_edge(i, j)]
            worst = max(worst, max(vals) - min(vals))
        assert v1 == pytest.approx(worst, abs=1e-15)
        assert v1 == pytest.approx(4.0, abs=1e-15)  # row 0: -1 .. -5

    def test_renewal_truncated_v1_grows_without_bound(self, renewal_weighted):
        # row 0 runs -1 .. -(k + 1): the ambient first variation is infinite
        model, f = renewal_weighted
        for k in (1, 2, 8, 63):
            assert variation(f, build_truncation(model, k)) == float(k)

    def test_tie_two_loops_truncated_v1_grows_without_bound(self, tie_two_loops):
        # the zero block's rows are constant; row 0 reaches -(k + 1) from 0 once k >= 2
        model, f = tie_two_loops
        assert variation(f, build_truncation(model, 1)) == 0.0
        for k in (2, 8, 63):
            assert variation(f, build_truncation(model, k)) == float(k + 1)


class TestPressureMajorant:
    def test_log_total_bounds_truncated_pressure(self):
        for name in ("log_quadratic", "tie_two_loops", "renewal_weighted"):
            model, f = bundled_pair(name)
            g = f.normalized()
            cert = check_summability(g)
            for k in (1, 3, 5):
                tr = build_truncation(model, k)
                assert math.log(cert.total_upper_bound) >= pressure(tr, g, 1.0) - 1e-9


@st.composite
def table_potentials(draw):
    """A table potential on a finite custom model; entries on edges and off them."""
    n = draw(st.integers(min_value=1, max_value=6))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges = draw(st.sets(pairs, min_size=1, max_size=12))
    value = st.floats(min_value=-20, max_value=20)
    table = draw(st.lists(st.tuples(pairs, value), min_size=1, max_size=16))
    shift = draw(st.floats(min_value=-5, max_value=5))
    model = ShiftModel(ModelKind.CUSTOM, tuple(sorted(edges)))
    f = MarkovPotential(model, Family.TABLE, table=tuple((i, j, v) for (i, j), v in table), shift=shift)
    return f, n


def table_dict(f):
    return {(i, j): v for i, j, v in f.table}  # a repeated pair keeps its last value


class TestTableAgainstLoops:
    @settings(max_examples=100, deadline=None)
    @given(table_potentials(), st.data())
    def test_value_grid(self, fn, data):
        f, n = fn
        symbols = st.lists(st.integers(-1, n + 1), unique=True, max_size=n + 3)
        rows, cols = data.draw(symbols), data.draw(symbols)
        d = table_dict(f)
        expected = np.array([[d.get((i, j), np.nan) + f.shift for j in cols] for i in rows]).reshape(len(rows), len(cols))
        grid = f.value_grid(np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64))
        np.testing.assert_array_equal(grid, expected)

    @settings(max_examples=100, deadline=None)
    @given(table_potentials(), st.data())
    def test_ambient_sups(self, fn, data):
        f, n = fn
        symbols = data.draw(st.lists(st.integers(0, n), unique=True, min_size=1))
        d = table_dict(f)
        rows = [[v for (i, j), v in d.items() if i == s and f.model.has_edge(i, j)] for s in symbols]
        if not all(rows):
            with pytest.raises(DeadEndSymbol):
                f._ambient_sups(np.asarray(symbols, dtype=np.int64))
            return
        expected = np.array([max(r) for r in rows]) + f.shift
        np.testing.assert_array_equal(f._ambient_sups(np.asarray(symbols, dtype=np.int64)), expected)

    @settings(max_examples=100, deadline=None)
    @given(table_potentials())
    def test_first_variation_over_the_edges(self, fn):
        """The row oscillation `variation` takes on a truncation, over every
        edge of the model, against a scan of the table."""
        f, n = fn
        d = table_dict(f)
        symbols = np.arange(n, dtype=np.int64)
        mask = np.array([[f.model.has_edge(i, j) for j in range(n)] for i in range(n)])
        worst = 0.0
        for i in range(n):
            vals = [d[i, j] + f.shift for j in range(n) if f.model.has_edge(i, j) and (i, j) in d]
            if vals:
                worst = max(worst, max(vals) - min(vals))
        assert potential.oscillation(f.value_grid(symbols, symbols), mask) == worst


class TestValueErrors:
    def test_undefined_value_on_an_edge(self):
        model = ShiftModel(ModelKind.CUSTOM, ((0, 1), (1, 0), (1, 1)))
        f = MarkovPotential(model, Family.TABLE, table=((0, 1, -1.0), (1, 0, -2.0)))
        assert edge_value(f, 1, 0) == -2.0
        assert math.isnan(edge_value(f, 1, 1))
        tr = build_truncation(model, 1)
        with pytest.raises(ValidationError, match="undefined on an admissible edge"):
            transfer_matrix(tr, f, 1.0)

    def test_row_without_an_admissible_entry_is_a_dead_end(self):
        model = ShiftModel(ModelKind.CUSTOM, ((0, 1), (1, 0)))
        f = MarkovPotential(model, Family.TABLE, table=((0, 1, -1.0), (1, 0, -2.0), (2, 0, 0.0)))
        assert ambient_sup(f, 1) == -2.0
        with pytest.raises(DeadEndSymbol):
            ambient_sup(f, 2)
