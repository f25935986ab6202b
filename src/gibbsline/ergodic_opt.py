"""Zero-temperature objects on finite truncations.

Maximum ergodic average beta as a max mean cycle and max-plus subactions
(both by Howard's policy iteration), the critical graph of tight edges with
its transitive components, the max-plus gauge that warm-starts
zero-temperature solves, and stabilization detection across the truncation
schedule. The max-plus routines themselves live in `maxplus`; this module
applies them to the weight matrix W = `transfer_matrix(trunc, f, 1)` of a
potential on a truncation, which rejects f undefined on an admissible edge.
A critical decomposition builds W once, and so does its gauge; a caller
that already holds W passes it to both instead. A zero-temperature sweep's
set-up (`_sweep_setup`) builds W once and reads its support and Howard's
tolerance once, for the decomposition, the gauge and the sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import maxplus
from .errors import (
    EmptyCriticalGraph,
    NotStabilized,
    ValidationError,
)
from .maxplus import MaxPlusGauge
from .potential import MarkovPotential, is_summable
from .rpf_finite import GaugedSweep, MarkovMeasure, equilibrium, perron, transfer_matrix
from .shift_model import ShiftModel, Truncation, build_truncation, graph_period, last_truncation

_NEG_INF = -np.inf

# detect_k0 builds the truncations k = 0.._K0_TOP
_K0_TOP = 9
_K0_BETA_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class Component:
    """One transitive component of the critical graph."""

    symbols: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]
    h_top: float
    pressure: float
    measure: MarkovMeasure


@dataclass(frozen=True, eq=False)
class CriticalDecomposition:
    """Max cycle mean, subaction and critical components."""

    beta: float
    subaction: np.ndarray
    components: tuple[Component, ...]
    maximal_components: tuple[int, ...]
    witness_cycle: tuple[int, ...]
    tie_tol_used: float
    cyclicity: int  # lcm of the component periods


@dataclass(frozen=True)
class K0Report:
    """Heuristic stabilization index of beta_k and the critical structure,
    with the ks that were built and their betas."""

    k0: int
    window: int
    heuristic: bool
    ks: tuple[int, ...]
    betas: tuple[float, ...]


def _witnessed_mean(trunc: Truncation, W: np.ndarray, finite: np.ndarray, tol: float) -> tuple[float, tuple[int, ...]]:
    # finite and tol are W's `maxplus._support`, as in every helper below
    mean, cycle = maxplus._max_cycle_mean(W, finite, tol)
    symbols = tuple(int(trunc.alphabet[v]) for v in cycle)
    # canonical rotation: start at the smallest symbol
    pivot = symbols.index(min(symbols))
    return mean, symbols[pivot:] + symbols[:pivot]


def _seeded_subaction(
    trunc: Truncation, W: np.ndarray, finite: np.ndarray, tol: float, beta: float, witness: tuple[int, ...]
) -> np.ndarray:
    v = maxplus._walks_into(W, beta, finite, [trunc.local_index()[min(witness)]], tol, np.empty_like(W))
    return v - v[0]


def max_mean_cycle(trunc: Truncation, f: MarkovPotential) -> tuple[float, tuple[int, ...]]:
    """Maximum cycle mean and a witness cycle (as a symbol tuple).

    Howard's policy iteration (see `maxplus.max_cycle_mean`); beta is
    returned as the exact mean of the witness cycle.
    """
    W = transfer_matrix(trunc, f, 1.0)
    return _witnessed_mean(trunc, W, *maxplus._support(W))


def subaction(
    trunc: Truncation, f: MarkovPotential, beta: float, witness: tuple[int, ...] | None = None
) -> np.ndarray:
    """Max-plus vector v with f(i,j) - beta + v_j - v_i <= 0, tight on a spanning set.

    v_i is the best reduced weight of a walk from i to the smallest witness
    symbol (`maxplus.subaction`), gauged to v[0] = 0. SolverError when beta
    is below the max cycle mean.
    """
    W = transfer_matrix(trunc, f, 1.0)
    finite, tol = maxplus._support(W)
    if witness is None:
        _, witness = _witnessed_mean(trunc, W, finite, tol)
    return _seeded_subaction(trunc, W, finite, tol, beta, witness)


def _symbol_pairs(symbols: np.ndarray, adj: np.ndarray) -> tuple[tuple[int, int], ...]:
    """The edges of adj, in row order, as pairs of symbols."""
    a, b = np.nonzero(adj)
    return tuple(zip(symbols[a].tolist(), symbols[b].tolist()))


def critical_graph(
    trunc: Truncation, W: np.ndarray, beta: float, v: np.ndarray, tie_tol: float, witness: tuple[int, ...]
) -> CriticalDecomposition:
    """Tight-edge graph of the weight matrix W = `transfer_matrix(trunc, f, 1)`
    and its transitive components. `critical_decomposition` builds W once
    (or takes the caller's) and passes it to every rung of its tie-tolerance
    ladder.

    Components are the strongly connected pieces of the tight graph that
    carry a cycle; every cycle made of tight edges has mean exactly beta,
    so their union is the maximizing subshift of the truncation.
    """
    _, comps = maxplus.critical_components(W, beta, v, tie_tol)
    if not comps:
        raise EmptyCriticalGraph(tie_tol)
    alphabet = trunc.alphabet

    components = []
    periods = []
    for comp, sub in comps:
        syms = tuple(alphabet[comp].tolist())
        edges = _symbol_pairs(alphabet[comp], sub)
        periods.append(graph_period(sub))
        # entropy of the component subshift: zero-potential pressure
        log_zero = np.where(sub, 0.0, _NEG_INF)
        h_top = perron(log_zero).log_lambda
        # restricted pressure of f: solve for f - beta, then shift back
        log_red = np.where(sub, W[np.ix_(comp, comp)] - beta, _NEG_INF)
        pd = perron(log_red)
        meas = equilibrium(pd, log_red, np.asarray(syms, dtype=np.int64))
        components.append(Component(syms, edges, float(h_top), float(beta + pd.log_lambda), meas))

    components.sort(key=lambda c: (-c.pressure, c.symbols[0]))
    p_max = max(c.pressure for c in components)
    maximal = tuple(j for j, c in enumerate(components) if c.pressure >= p_max - 1e-8)
    return CriticalDecomposition(
        beta=beta,
        subaction=v,
        components=tuple(components),
        maximal_components=maximal,
        witness_cycle=witness,
        tie_tol_used=tie_tol,
        cyclicity=math.lcm(*periods),
    )


def critical_decomposition(
    trunc: Truncation, f: MarkovPotential, tie_tol: float = 1e-9, W: np.ndarray | None = None
) -> CriticalDecomposition:
    """Full pipeline beta -> subaction -> critical graph on one weight matrix,
    with the tie-tolerance ladder: on an empty critical graph the tolerance is
    widened tenfold up to 1e-6.

    W is `transfer_matrix(trunc, f, 1.0)`: the caller's when it holds one,
    else built here, once for the whole ladder.
    """
    if W is None:
        W = transfer_matrix(trunc, f, 1.0)
    return _decomposition(trunc, W, *maxplus._support(W), tie_tol)


def _decomposition(
    trunc: Truncation, W: np.ndarray, finite: np.ndarray, tol: float, tie_tol: float
) -> CriticalDecomposition:
    """`critical_decomposition` of the weight matrix W."""
    beta, witness = _witnessed_mean(trunc, W, finite, tol)
    v = _seeded_subaction(trunc, W, finite, tol, beta, witness)
    while True:
        try:
            return critical_graph(trunc, W, beta, v, tie_tol, witness)
        except EmptyCriticalGraph:
            if tie_tol >= 1e-6:
                raise
            tie_tol *= 10.0


def max_plus_gauge(
    trunc: Truncation, f: MarkovPotential, dec: CriticalDecomposition, W: np.ndarray | None = None
) -> MaxPlusGauge:
    """Max-plus gauge of f on the truncation, from its critical decomposition.

    The subactions are seeded on the maximal components: as t grows, log h
    of exp(t f) is t v and log nu is t u up to o(t) when one component is
    maximal, because the Perron vector is carried by the walks into it.
    Costs two seeded policy iterations; no further max cycle mean. W is
    `transfer_matrix(trunc, f, 1.0)`, built here unless the caller passes it.
    """
    if W is None:
        W = transfer_matrix(trunc, f, 1.0)
    return _gauge(trunc, W, *maxplus._support(W), dec)


def _gauge(
    trunc: Truncation, W: np.ndarray, finite: np.ndarray, tol: float, dec: CriticalDecomposition
) -> MaxPlusGauge:
    """`max_plus_gauge` from the weight matrix W."""
    idx = trunc.local_index()
    seeds = [idx[dec.components[j].symbols[0]] for j in dec.maximal_components]
    return maxplus._gauge(W, finite, tol, dec.beta, seeds, dec.cyclicity)


def _sweep_setup(trunc: Truncation, f: MarkovPotential, tie_tol: float) -> tuple[CriticalDecomposition, GaugedSweep]:
    """The critical decomposition of f on the truncation and the state of a
    t-sweep there, from one weight matrix W and one reading of its support:
    the decomposition, the gauge and every t's solve share them."""
    W = transfer_matrix(trunc, f, 1.0)
    finite, tol = maxplus._support(W)
    dec = _decomposition(trunc, W, finite, tol, tie_tol)
    return dec, GaugedSweep._of(W, finite, _gauge(trunc, W, finite, tol, dec))


def _structure_key(dec: CriticalDecomposition) -> tuple:
    return tuple(sorted((c.symbols, tuple(sorted(c.edges))) for c in dec.components))


def detect_k0(
    model: ShiftModel,
    f: MarkovPotential,
    stability_window: int = 3,
    tie_tol: float = 1e-9,
) -> K0Report:
    """Smallest k whose beta and critical structure repeat over the window.

    The schedule is k = 0, ..., 9; a finite model runs it up to its last
    truncation. A k whose truncation has the previous k's alphabet reuses
    its decomposition. Betas agree within 1e-10. Purely heuristic:
    stabilization over finitely many truncations is necessary but not a
    certificate that the maximizing set has been found. A finite model that
    runs out of truncations ends on the whole compact shift, whose structure
    is final: k0 is then the first k of the run at the end that agrees with
    the last truncation, however short.
    """
    if not is_summable(f):
        raise ValidationError("stabilization detection requires a summable potential")
    last = last_truncation(model, _K0_TOP)
    if model.is_infinite_alphabet():
        ks = range(_K0_TOP + 1)
    else:  # a finite model has truncations at 0..last only
        ks = range(0 if last is None else last + 1)
    decs: list[CriticalDecomposition] = []
    alphabet = None
    for k in ks:
        trunc = build_truncation(model, k)
        # an augmented custom truncation can repeat the previous alphabet,
        # and with it the induced subgraph and the decomposition
        if alphabet is None or not np.array_equal(trunc.alphabet, alphabet):
            dec = critical_decomposition(trunc, f, tie_tol=tie_tol)
        decs.append(dec)
        alphabet = trunc.alphabet
    if not decs or stability_window < 1:
        raise NotStabilized(_K0_TOP)
    built = tuple(ks)
    betas = tuple(d.beta for d in decs)
    keys = [_structure_key(d) for d in decs]
    if last is not None and last < _K0_TOP:
        i = len(decs) - 1
        while i > 0 and keys[i - 1] == keys[-1] and abs(betas[i - 1] - betas[-1]) <= _K0_BETA_TOL:
            i -= 1
        return K0Report(k0=built[i], window=len(decs) - i, heuristic=True, ks=built, betas=betas)
    for i in range(len(decs) - stability_window + 1):
        window_betas = betas[i : i + stability_window]
        window_keys = keys[i : i + stability_window]
        if all(k == window_keys[0] for k in window_keys) and all(
            abs(b - window_betas[0]) <= _K0_BETA_TOL for b in window_betas
        ):
            return K0Report(k0=built[i], window=stability_window, heuristic=True, ks=built, betas=betas)
    raise NotStabilized(built[-1])


def max_entropy_over_maximizing(dec: CriticalDecomposition) -> float:
    """Largest entropy over maximizing measures: topological entropy of the
    maximal-pressure critical components (f - beta is a coboundary there)."""
    return max(dec.components[j].h_top for j in dec.maximal_components)
