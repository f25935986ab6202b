"""Markov potentials f(i, j) with tail majorants and summability certificates.

All values are in natural-log units. A potential is attached to an ambient
model (for edge admissibility) and carries a tail descriptor: a closed-form
upper bound on sup f|_[i] for symbols beyond the explicit range, which is
what certifies any statement about the full countable alphabet.

Each family's formula f(i, j) is stated once, in `MarkovPotential.value_grid`;
transfer matrices and row oscillations read from it, and edge
admissibility comes from `ShiftModel.has_edge`. `_ambient_sups` holds the
closed-form sups over the full countable rows.

One loop, `_rounds` run by `_certificate`, serves both summability series:
exp(sup f|_[i]) (`check_summability`) and the weighted
(-t sup f|_[i]) exp(t sup f|_[i]) (`check_summability_t`). They differ only
in the term, the tail closed forms and the tolerance rule: tail <= tol *
total unweighted, and tail <= tol * max(total, 1e-300) weighted. Whether
the unweighted series converges is settled by the first round alone
(`is_summable`), which is all that `detect_k0` and `integral_limit_check`
ask.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import cached_property

import numpy as np

from .errors import (
    DeadEndSymbol,
    InvalidT,
    NoTailDescriptor,
    ValidationError,
)
from .shift_model import ShiftModel, Truncation

_INF = float("inf")
# a built-in family's explicit range is 0.._EXPLICIT_HI; its tail descriptor
# takes over beyond it
_EXPLICIT_HI = 64


class Family(Enum):
    LOG_QUADRATIC = "log_quadratic"      # f(i, j) = -log((i+1)(i+2)), j-independent
    TIE_TWO_LOOPS = "tie_two_loops"      # 0 on {0,1}^2, else -(max(i,j)+1)
    RENEWAL_WEIGHTED = "renewal_weighted"  # f(0,j) = -(j+1), f(i,i-1) = -i
    TABLE = "table"


class TailKind(Enum):
    GEOMETRIC = "geometric"    # sup f|_[i] <= a - b*i
    POLYNOMIAL = "polynomial"  # sup f|_[i] <= a - p*log(i+1)
    NONE = "none"


@dataclass(frozen=True)
class TailDescriptor:
    """Closed-form majorant of the cylinder sups beyond the explicit range."""

    kind: TailKind
    a: float = 0.0
    b: float = 0.0
    p: float = 0.0

    def bound(self, i: np.ndarray | float) -> np.ndarray | float:
        if self.kind is TailKind.GEOMETRIC:
            return self.a - self.b * np.asarray(i, dtype=float)
        if self.kind is TailKind.POLYNOMIAL:
            return self.a - self.p * np.log(np.asarray(i, dtype=float) + 1.0)
        return np.full_like(np.asarray(i, dtype=float), _INF)


@dataclass(frozen=True)
class SummabilityCertificate:
    """Upper-bound certificate for a positive series over the 1-cylinders."""

    converges: bool
    partial_sum: float
    tail_bound: float
    total_upper_bound: float
    terms_used: int
    tol_met: bool


_FAMILY_TAILS = {
    Family.LOG_QUADRATIC: TailDescriptor(TailKind.POLYNOMIAL, a=0.0, p=2.0),
    Family.TIE_TWO_LOOPS: TailDescriptor(TailKind.GEOMETRIC, a=1.0, b=1.0),
    Family.RENEWAL_WEIGHTED: TailDescriptor(TailKind.GEOMETRIC, a=0.0, b=1.0),
}


@dataclass(frozen=True, eq=False)
class MarkovPotential:
    """Two-symbol potential over an ambient model, plus an additive shift.

    `table` maps (i, j) -> value for the TABLE family; built-in families
    compute values from their formulas. The explicit range is the table's
    rows, or the symbols 0..64 of a built-in family; the tail descriptor
    must majorize the sups there, and bounds them beyond it. `shift`
    carries normalization.
    """

    model: ShiftModel
    family: Family
    table: tuple[tuple[int, int, float], ...] = ()
    tail: TailDescriptor = TailDescriptor(TailKind.NONE)
    shift: float = 0.0
    # certificates of `check_summability`, keyed by tol
    _certificates: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        if self.family is Family.TABLE and not self.table:
            raise ValidationError("table potential requires explicit entries")
        if self.family is not Family.TABLE and self.table:
            raise ValidationError("table entries only apply to the table family")
        if self.family is not Family.TABLE and self.tail.kind is TailKind.NONE:
            object.__setattr__(self, "tail", _FAMILY_TAILS[self.family])
        self._validate_tail_majorizes()

    # -- raw values ---------------------------------------------------------

    @cached_property
    def _table_entries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Rows, columns and values of the table; a repeated (i, j) keeps its last value."""
        last = {(i, j): v for i, j, v in self.table}
        ij = np.asarray(list(last), dtype=np.int64).reshape(-1, 2)
        return ij[:, 0], ij[:, 1], np.asarray(list(last.values()), dtype=float)

    def value_grid(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Vectorized f over the grid rows x cols; NaN where undefined.

        rows and cols are lists of distinct symbols, such as alphabets. The
        grid is built in the one float array returned, which the caller
        may overwrite.
        """
        i = np.asarray(rows, dtype=np.int64)
        j = np.asarray(cols, dtype=np.int64)
        if self.family is Family.LOG_QUADRATIC:
            ii = i.astype(float)
            vals = np.empty((i.size, j.size))
            vals[...] = -np.log((ii + 1.0) * (ii + 2.0))[:, None]
        elif self.family is Family.TIE_TWO_LOOPS:
            vals = np.maximum(i[:, None], j, dtype=float)
            vals += 1.0
            np.negative(vals, out=vals)
            vals[np.ix_(i < 2, j < 2)] = 0.0
        elif self.family is Family.RENEWAL_WEIGHTED:
            vals = np.full((i.size, j.size), np.nan)
            np.copyto(vals, -i.astype(float)[:, None], where=j == i[:, None] - 1)
            vals[i == 0] = -(j + 1.0)
        else:
            ti, tj, tv = self._table_entries
            a = _positions(i, ti)
            b = _positions(j, tj)
            hit = (a >= 0) & (b >= 0)
            vals = np.full((i.size, j.size), np.nan)
            vals[a[hit], b[hit]] = tv[hit]
        vals += self.shift
        return vals

    @property
    def is_row_constant(self) -> bool:
        """True when f(i, j) does not depend on j (exact Gibbs, rank-one transfer)."""
        return self.family is Family.LOG_QUADRATIC

    # -- cylinder sups ------------------------------------------------------

    def _ambient_sups(self, symbols: np.ndarray) -> np.ndarray:
        """Closed-form sup f|_[i] over the full countable row of each symbol.

        A family's closed form is built in the one float array returned,
        which the caller may overwrite; float symbols are read as they are.
        """
        s = np.asarray(symbols, dtype=float)
        if self.family is Family.LOG_QUADRATIC:
            out = s + 1.0
            out *= s + 2.0
            np.log(out, out=out)
            np.negative(out, out=out)
        elif self.family is Family.TIE_TWO_LOOPS:
            out = s + 1.0
            np.negative(out, out=out)
            np.copyto(out, 0.0, where=s < 2)
        elif self.family is Family.RENEWAL_WEIGHTED:
            out = np.negative(s)
            np.copyto(out, -1.0, where=s == 0)
        else:
            ti, tj, tv = self._table_entries
            edge = self.model.has_edge(ti, tj)
            pos = _positions(np.asarray(symbols, dtype=np.int64), ti[edge])
            hit = pos >= 0
            out = np.full(s.shape, np.nan)
            np.fmax.at(out, pos[hit], tv[edge][hit])
            dead = np.flatnonzero(np.isnan(out))
            if dead.size:
                i = int(np.asarray(symbols)[dead[0]])
                raise DeadEndSymbol(f"symbol {i} has no admissible successor with a defined value")
        out += self.shift
        return out

    def _explicit_symbols(self) -> np.ndarray:
        if self.family is Family.TABLE:
            return np.unique(self._table_entries[0])
        return np.arange(_EXPLICIT_HI + 1, dtype=np.int64)

    def _validate_tail_majorizes(self):
        if self.tail.kind is TailKind.NONE:
            return
        syms = self._explicit_symbols()
        sups = self._ambient_sups(syms)
        bounds = np.asarray(self.tail.bound(syms), dtype=float) + self.shift
        bad = np.flatnonzero(bounds < sups - 1e-12)
        if bad.size:
            i = int(syms[bad[0]])
            raise ValidationError(
                f"tail descriptor fails to majorize sup f|_[{i}] "
                f"({bounds[bad[0]]:.6g} < {sups[bad[0]]:.6g})"
            )

    def _tail_bound_at(self, i: np.ndarray | float) -> np.ndarray | float:
        return self.tail.bound(i) + self.shift

    # -- normalization ------------------------------------------------------

    def global_sup(self) -> float:
        """sup over admissible edges of f; finite for coercive potentials."""
        syms = self._explicit_symbols()
        explicit = float(np.max(self._ambient_sups(syms)))
        if self.tail.kind is TailKind.NONE:
            if self.model.is_infinite_alphabet() and self.family is Family.TABLE:
                raise NoTailDescriptor("global sup over an infinite alphabet needs a tail descriptor")
            return explicit
        beyond = float(self._tail_bound_at(float(syms[-1]) + 1.0))
        return max(explicit, beyond)

    def normalized(self) -> "MarkovPotential":
        """f - sup f; idempotent, leaves cycle-mean argmax structure unchanged."""
        return replace(self, shift=self.shift - self.global_sup())


def _positions(symbols: np.ndarray, wanted: np.ndarray) -> np.ndarray:
    """Index in `symbols` (distinct, any order) of each wanted symbol; -1 where absent."""
    if symbols.size == 0:
        return np.full(wanted.shape, -1)
    order = np.argsort(symbols)
    pos = order[np.searchsorted(symbols, wanted, sorter=order).clip(max=symbols.size - 1)]
    return np.where(symbols[pos] == wanted, pos, -1)


# ---------------------------------------------------------------------------
# summability certificates


def _finite_alphabet_symbols(f: MarkovPotential) -> np.ndarray | None:
    """Symbols of a genuinely finite model, or None for infinite alphabets."""
    if f.model.is_infinite_alphabet():
        return None
    syms = sorted({s for e in f.model.custom_edges for s in e})
    return np.asarray(syms, dtype=np.int64)


def _closed_form(tail, *args) -> float:
    """A tail closed form evaluated; inf where its arithmetic overflows or
    degenerates (1 - q rounding to 0), so the tail is not certified."""
    try:
        value = tail(*args)
    except (OverflowError, ZeroDivisionError):
        return _INF
    return _INF if math.isnan(value) else value


def _geometric_tail(a: float, b: float, t: float, start: int) -> float:
    """sum_{i >= start} exp(t * (a - b i)), closed form; inf when b <= 0."""
    if b <= 0.0:
        return _INF
    q = math.exp(-t * b)
    return math.exp(t * (a - b * start)) / (1.0 - q)


def _polynomial_tail(a: float, p: float, t: float, start: int) -> float:
    """Integral bound on sum_{i >= start} exp(t*a) (i+1)^(-t p); inf when t*p <= 1."""
    s = t * p
    if s <= 1.0:
        return _INF
    return math.exp(t * a) * float(start) ** (1.0 - s) / (s - 1.0)


# the term budget of a certificate
_MAX_TERMS = 2_000_000
# certificate terms are evaluated this many symbols at a time, each block
# into its slice of the term buffer, so the temporaries of a 2,000,000-term
# series are a few block-sized arrays of 256 kB
_TERM_BLOCK = 1 << 15


def _rounds(f: MarkovPotential, term, tails, t: float, start_min: int):
    """The rounds of a certificate: (terms used, partial sum, tail majorant) each.

    A finite alphabet is one exact round with no tail. Otherwise a prefix is
    summed, from the explicit range (raised to `start_min` for family
    potentials, whose prefix doubles each round); majorant terms bridge up to
    `start_min`, and `tails` = (geometric, polynomial) closed forms at (a, b
    or p, t, start) bound the rest. The rounds end when a table cannot grow
    or _MAX_TERMS symbols are summed. term(sups, out) writes the terms of
    the sups into out and may overwrite sups.

    Each round evaluates only the symbols it adds, in blocks of _TERM_BLOCK
    (float symbols, exact below 2^53), each block's sups in one array and
    its terms straight into its slice of one buffer; the sum is taken afresh
    over the prefix, so it equals the sum over a newly built array bit for
    bit. The first round's buffer has its exact size; the first growth
    reserves all _MAX_TERMS terms at once. Pages past the evaluated prefix
    are never touched, so the budget a fast tail never reaches costs
    nothing.
    """
    finite_syms = _finite_alphabet_symbols(f)
    if finite_syms is not None:
        terms = np.empty(finite_syms.size)
        term(f._ambient_sups(finite_syms), terms)
        yield int(finite_syms.size), float(np.sum(terms)), 0.0
        return
    if f.tail.kind is TailKind.NONE:
        raise NoTailDescriptor("summability over an infinite alphabet needs a tail descriptor")

    closed, rate = (tails[0], f.tail.b) if f.tail.kind is TailKind.GEOMETRIC else (tails[1], f.tail.p)
    a_eff = f.tail.a + f.shift
    grow_ok = f.family is not Family.TABLE
    hi = int(f._explicit_symbols()[-1])
    hi = min(max(hi, start_min) if grow_ok else hi, _MAX_TERMS - 1)
    terms = np.empty(hi + 1)
    done = 0
    while True:
        for lo in range(done, hi + 1, _TERM_BLOCK):
            top = min(lo + _TERM_BLOCK, hi + 1)
            term(f._ambient_sups(np.arange(lo, top, dtype=float)), terms[lo:top])
        done = hi + 1
        partial = float(np.sum(terms[:done]))
        # bridge with majorant terms where the explicit table stops early
        mid = np.asarray(f._tail_bound_at(np.arange(hi + 1, start_min + 1, dtype=np.int64)), dtype=float)
        bridge = np.empty_like(mid)
        term(mid, bridge)
        yield done, partial, float(np.sum(bridge)) + _closed_form(closed, a_eff, rate, t, max(hi, start_min) + 1)
        if not grow_ok or done >= _MAX_TERMS:
            return
        hi = min(_MAX_TERMS - 1, max(2 * hi, 64))
        if hi >= terms.size:
            grown = np.empty(_MAX_TERMS)
            grown[:done] = terms[:done]
            terms = grown


def _certificate(
    f: MarkovPotential, term, tails, t: float, start_min: int, floor: float, tol: float
) -> SummabilityCertificate:
    """Certificate for the series of term(sup f|_[i]) over all 1-cylinders.

    Runs the `_rounds` of the series until tail <= tol * max(total, floor),
    the tail is infinite or the rounds end. `converges` is the finiteness of
    the last tail.
    """
    for used, partial, tail in _rounds(f, term, tails, t, start_min):
        total = partial + tail
        tol_met = math.isfinite(tail) and tail <= tol * max(total, floor)
        if tol_met or not math.isfinite(tail):
            break
    return SummabilityCertificate(math.isfinite(tail), partial, tail, total, used, tol_met)


_SUMMABILITY_TAILS = (_geometric_tail, _polynomial_tail)


def is_summable(f: MarkovPotential) -> bool:
    """check_summability(f).converges, from the certificate's first round alone.

    The certificate stops at its first infinite tail majorant, and a tail
    that is finite stays finite as the prefix grows: the closed forms only
    decrease with their start, and check_summability has no bridge terms.
    So the first round, over the explicit range, settles `converges`; the
    rounds after it (up to 2,000,000 terms) only sharpen the total. Raises
    what check_summability raises on that round (NoTailDescriptor without a
    tail on an infinite alphabet).
    """
    _used, _partial, tail = next(_rounds(f, np.exp, _SUMMABILITY_TAILS, 1.0, 0))
    return math.isfinite(tail)


def check_summability(f: MarkovPotential, tol: float = 1e-9) -> SummabilityCertificate:
    """Certificate for the series of exp(sup f|_[i]) over all 1-cylinders.

    The explicit range is grown geometrically until the tail majorant is
    at most tol * total or the term budget is hit; `converges` records tail
    finiteness, `tol_met` whether the requested resolution was reached.
    Certificates are kept on the potential, one per tol.
    """
    cert = f._certificates.get(tol)
    if cert is None:
        # the terms are positive, so a floor of 0 leaves tol * total as it is
        cert = f._certificates[tol] = _certificate(f, np.exp, _SUMMABILITY_TAILS, 1.0, 0, 0.0, tol)
    return cert


def check_summability_t(f: MarkovPotential, t: float, tol: float = 1e-9) -> SummabilityCertificate:
    """Certificate for the weighted series (-t sup f|_[i]) exp(t sup f|_[i]).

    Requires t > 1 and a normalized potential (applied automatically).
    Tails use the monotonicity of x exp(-x) for x >= 1: the certificate is
    an upper bound once the tail majorant has -t * bound >= 1; when the
    descriptor cannot reach that regime the series is reported divergent
    (convergence cannot be certified). The tolerance is met once
    tail <= tol * max(total, 1e-300), since the normalized series may sum
    to (nearly) 0.
    """
    if t <= 1.0:
        raise InvalidT(f"t must exceed 1, got {t}")
    g = f.normalized()

    def term(sups: np.ndarray, out: np.ndarray) -> None:
        # x exp(-x) with x = -t min(sups, 0), x in sups
        x = np.minimum(sups, 0.0, out=sups)
        x *= -t
        np.negative(x, out=out)
        np.exp(out, out=out)
        out *= x

    start_min = 0
    # a finite alphabet is summed exactly; an infinite one has a tail
    # descriptor here, since normalized() raises without one
    if g.model.is_infinite_alphabet():
        # first index with -t * bound >= 1; a regime that starts past the term
        # budget cannot be reached, like one that never starts
        a_eff = g.tail.a + g.shift
        if g.tail.kind is TailKind.GEOMETRIC:
            first = (a_eff + 1.0 / t) / g.tail.b if g.tail.b > 0.0 else _INF
        elif g.tail.p > 0.0 and t * g.tail.p > 1.0:
            first = math.exp((a_eff + 1.0 / t) / g.tail.p) - 1.0
        else:
            first = _INF
        if not first <= _MAX_TERMS - 1:
            return SummabilityCertificate(False, float("nan"), _INF, _INF, 0, False)
        start_min = max(0, math.ceil(first))
    tails = (_weighted_geometric_tail, _weighted_polynomial_tail)
    return _certificate(g, term, tails, t, start_min, 1e-300, tol)


def _weighted_geometric_tail(a: float, b: float, t: float, start: int) -> float:
    """sum_{i >= start} t (b i - a) exp(t (a - b i)), closed form (b > 0)."""
    q = math.exp(-t * b)
    # exp(t a) q^start in one exponent: apart, the first overflows at large t
    # while the product is tiny
    head = math.exp(t * (a - b * start))
    s0 = head / (1.0 - q)
    s1 = head * (start - (start - 1) * q) / (1.0 - q) ** 2
    return t * (b * s1 - a * s0)


def _weighted_polynomial_tail(a: float, p: float, t: float, start: int) -> float:
    """Integral bound on sum_{i >= start} t (p log(i+1) - a) exp(t a) (i+1)^(-t p)."""
    s = t * p
    c = float(start)  # integrand decreasing from here on (x e^{-x} regime)
    log_c = math.log(c)
    # exp(t a) c^(1 - s) in one exponent: apart, the first overflows at large
    # t while the second underflows and the product is tiny
    head = math.exp(t * a + (1.0 - s) * log_c)
    return t * head * (p * (log_c / (s - 1.0) + 1.0 / (s - 1.0) ** 2) - a / (s - 1.0))


# ---------------------------------------------------------------------------
# variations


def oscillation(vals: np.ndarray, mask: np.ndarray) -> float:
    """Largest max - min over the defined values of a row of `vals` inside `mask`.

    Rows without such a value are skipped; 0.0 when no row has one.
    """
    defined = mask & ~np.isnan(vals)
    hi = np.where(defined, vals, -np.inf).max(axis=1)
    lo = np.where(defined, vals, np.inf).min(axis=1)
    osc = (hi - lo)[defined.any(axis=1)]
    return float(osc.max()) if osc.size else 0.0


def variation(f: MarkovPotential, trunc: Truncation) -> float:
    """First variation of f on a truncation: its largest row oscillation.

    Every higher variation is 0, since the potential is Markov. The value is
    always finite and feeds the per-truncation Gibbs constants.
    """
    syms = trunc.alphabet
    return oscillation(f.value_grid(syms, syms), trunc.require_incidence())
