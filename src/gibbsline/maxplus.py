"""Max-plus spectral data of a (-inf)-padded weight matrix.

Howard's policy iteration gives the maximum cycle mean with a witness
cycle and, with seeds that may stop, the max-plus eigenvectors
(subactions), hence the critical graph and the gauge that warm-starts
Perron solves at large inverse temperature. All routines take plain
matrices: ``ergodic_opt`` feeds them the potential on a truncation,
``rpf_finite`` a log transfer matrix. Each public routine reads W's finite
mask and its tolerance (`_support`); a set-up that runs several on one W
reads them once and calls the private forms, which take them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SolverError
from .shift_model import graph_period, strongly_connected_components

_NEG_INF = -np.inf
_EPS = float(np.finfo(np.float64).eps)
# Policy-iteration budget per vertex; Howard's rounds stay far below it
# in practice, and a run that reaches it raises instead of answering.
_ROUNDS_PER_VERTEX = 8
_BELOW = "a walk closes a cycle of positive mean: beta is below the max cycle mean"


@dataclass(frozen=True, eq=False)
class MaxPlusGauge:
    """Max-plus eigen-data of a weight matrix W (irreducible support).

    beta is the maximum cycle mean; v and u are right and left max-plus
    eigenvectors of W - beta (v_i = max_j W_ij - beta + v_j, and the same for
    u on W transposed); cyclicity is the lcm of the periods of the critical
    components. Everything is positively homogeneous in W, so the gauge of
    t*W is `scaled(t)`.
    """

    beta: float
    v: np.ndarray
    u: np.ndarray
    cyclicity: int

    def scaled(self, t: float) -> MaxPlusGauge:
        return MaxPlusGauge(t * self.beta, t * self.v, t * self.u, self.cyclicity)


def max_cycle_mean(W: np.ndarray) -> tuple[float, list[int]]:
    """Maximum cycle mean and a witness cycle (local indices), by Howard's policy iteration.

    A policy picks one out-edge per vertex; its functional graph gives every
    vertex the mean eta of the cycle it reaches and a bias x along the way
    (`_evaluate`). Each round improves the policy (`_improve`) until no edge
    beats it, after Cochet-Terrasson, Cohen, Gaubert, McGettrick and Quadrat
    (IFAC 1998). Every row of W needs a finite entry. The witness is the
    best cycle of the final policy (through the smallest local index when
    several tie), starting at that index; beta is its mean summed from there.
    """
    return _max_cycle_mean(W, *_support(W))


def _max_cycle_mean(W: np.ndarray, finite: np.ndarray, tol: float) -> tuple[float, list[int]]:
    """`max_cycle_mean` of W, given W's `_support`."""
    n = W.shape[0]
    empty = np.flatnonzero(~finite.any(axis=1))
    if empty.size:
        raise SolverError(f"vertex {int(empty[0])} has no out-edge, so not every walk reaches a cycle")
    policy = np.argmax(W, axis=1)
    scratch = np.empty_like(W)
    for _ in range(_ROUNDS_PER_VERTEX * n):
        eta, x, cycles = _evaluate(policy, W[np.arange(n), policy])
        improved = _improve(W, finite, policy, eta, x, tol, scratch)
        if improved is None:
            best = max(eta[c[0]] for c in cycles)
            return best, min(c for c in cycles if eta[c[0]] == best)
        policy = improved
    raise SolverError(f"policy iteration did not settle in {_ROUNDS_PER_VERTEX * n} rounds")


def _evaluate(policy: np.ndarray, weight: np.ndarray) -> tuple[np.ndarray, np.ndarray, list[list[int]]]:
    """Value determination: (eta, x, cycles) of a policy whose edges weigh `weight`.

    Each cycle starts at its smallest vertex, whose bias is 0 and whose eta
    is the mean weight summed from there; every other vertex takes eta from
    its successor and x_i = (w_i - eta_i) + x_p(i), the expression the
    improvement steps evaluate, so a current edge off the cycles ties exactly.
    """
    n = len(policy)
    succ = policy.tolist()
    weight = weight.tolist()
    eta = [0.0] * n
    x = [0.0] * n
    state = [0] * n  # 0 unseen, 1 on the current walk, 2 evaluated
    cycles = []
    for s in range(n):
        walk = []
        v = s
        while state[v] == 0:
            state[v] = 1
            walk.append(v)
            v = succ[v]
        if state[v] == 1:  # the walk closed a new cycle at v
            at = walk.index(v)
            cycle = walk[at:]
            pivot = cycle.index(min(cycle))
            cycle = cycle[pivot:] + cycle[:pivot]
            cycles.append(cycle)
            total = 0.0
            for u in cycle:
                total += weight[u]
            eta[cycle[0]] = total / len(cycle)
            state[cycle[0]] = 2
            walk = walk[:at] + cycle  # the cycle feeds back into its start
        for u in reversed(walk):
            if state[u] == 2:
                continue
            p = succ[u]
            eta[u] = eta[p]
            x[u] = (weight[u] - eta[u]) + x[p]
            state[u] = 2
    return np.asarray(eta), np.asarray(x), cycles


def _improve(
    W: np.ndarray,
    finite: np.ndarray,
    policy: np.ndarray,
    eta: np.ndarray,
    x: np.ndarray,
    tol: float,
    scratch: np.ndarray,
) -> np.ndarray | None:
    """Policy improvement, or None when no edge beats the policy by more than tol.

    First on eta: a vertex moves to a successor of larger eta. Only when
    none can, on the bias: among successors of equal eta, it moves to the
    largest W_ij - eta_i + x_j. A vertex whose current edge ties the best
    keeps it. Both steps build their n x n values in `scratch`. Where all
    eta are equal no successor has a larger one; where they spread by at
    most tol, every finite successor has equal eta, since rounded
    subtraction is monotone, and the values need no mask: W_ij is -inf off
    the finite cells.
    """
    lo, hi = eta.min(), eta.max()
    if lo != hi:
        np.copyto(scratch, _NEG_INF)
        np.copyto(scratch, eta, where=finite)
        best_eta = scratch.max(axis=1)
        move = best_eta > eta + tol
        if move.any():
            return np.where(move, np.argmax(scratch, axis=1), policy)
    value = np.subtract(W, eta[:, None], out=scratch)
    value += x
    if hi - lo > tol:
        same = np.abs(eta[None, :] - eta[:, None]) <= tol
        np.copyto(value, _NEG_INF, where=~same)
    move = value.max(axis=1) > value[np.arange(len(policy)), policy] + tol
    if not move.any():
        return None
    return np.where(move, np.argmax(value, axis=1), policy)


def _support(W: np.ndarray) -> tuple[np.ndarray, float]:
    """W's finite mask and policy iteration's tolerance on W, the two
    readings of W that Howard's routines take; a caller that runs several
    of them on one W reads them once."""
    finite = np.isfinite(W)
    return finite, _tolerance(W, finite)


def _tolerance(W: np.ndarray, finite: np.ndarray) -> float:
    """Policy iteration's tolerance on W: 16 n eps times its largest finite |W_ij| (at least 1).

    The smallest entry is the smallest finite one unless it is not finite;
    only then is the minimum taken under the mask, a slower reduction.
    """
    lo = float(np.min(W))
    if not math.isfinite(lo):
        lo = float(np.min(W, where=finite, initial=np.inf))
    return 16.0 * W.shape[0] * _EPS * max(1.0, float(np.max(W)), -lo)


def subaction(W: np.ndarray, beta: float, seeds: list[int]) -> np.ndarray:
    """Max-plus eigenvector v = max(G + v) of reduced weights G = W - beta, from the seeds.

    v_i is the best weight of a walk from i that stops at a seed: policy
    iteration where a seed may also stop (weight 0), from shortest walks into
    the seeds, moving every vertex whose best edge beats its bias, so that
    G_ij + v_j <= v_i holds in floats on every edge. A cycle closed by a move
    has positive mean: above `max_cycle_mean`'s tolerance SolverError is raised
    (beta is too small); below it, rounding closed it, and its moves are undone.
    A vertex that reaches no seed raises too.
    """
    finite, tol = _support(W)
    return _walks_into(W, beta, finite, seeds, tol, np.empty_like(W))


def _walks_into(
    W: np.ndarray, beta: float, finite: np.ndarray, seeds: list[int], tol: float, value: np.ndarray
) -> np.ndarray:
    """`subaction` of W and beta, given W's `_support` (finite, tol).

    Each round builds its values (W_ij - beta) + x_j in the n x n buffer
    `value`, laid out like W.
    """
    n = W.shape[0]
    rows = np.arange(n)
    if (np.diagonal(W) - beta > tol).any():
        raise SolverError(_BELOW)
    policy = np.full(n, -1)
    frontier = np.unique(seeds)
    policy[frontier] = frontier
    while frontier.size and (policy < 0).any():
        into = finite[:, frontier]
        new = np.flatnonzero(into.any(axis=1) & (policy < 0))
        policy[new] = frontier[np.argmax(into[new], axis=1)]
        frontier = new
    if (policy < 0).any():
        raise SolverError(f"vertex {int(np.argmin(policy))} reaches no seed")
    kept = x = None
    for _ in range(_ROUNDS_PER_VERTEX * n):
        stops = policy == rows
        eta, new_x, cycles = _evaluate(policy, np.where(stops, 0.0, W[rows, policy] - beta))
        closed = [c for c in cycles if len(c) > 1]
        if closed:
            if max(eta[c[0]] for c in closed) > tol:
                raise SolverError(_BELOW)
            for c in closed:
                policy[c] = kept[c]
            if (policy == kept).all():
                return x
            continue
        x = new_x
        np.subtract(W, beta, out=value)
        value += x
        np.fill_diagonal(value, _NEG_INF)  # a seed at itself stops; any other loop gains at most tol
        move = np.flatnonzero(value.max(axis=1) > x)
        if not move.size:
            return x
        kept = policy.copy()
        policy[move] = np.argmax(value[move], axis=1)
    raise SolverError(f"policy iteration did not settle in {_ROUNDS_PER_VERTEX * n} rounds")


def critical_components(
    W: np.ndarray, beta: float, v: np.ndarray, tie_tol: float
) -> tuple[np.ndarray, list[tuple[list[int], np.ndarray]]]:
    """Tight edges of W - beta + v_j - v_i, and the SCCs that carry a cycle.

    Returns the tight-edge mask and (vertices, tight sub-mask) per critical
    component, in the order of their smallest vertices; every cycle of
    tight edges has mean beta. The residue is built in one buffer; with
    beta, v and tie_tol finite it is -inf off the edges of W, so no cell off
    them is tight. A vertex without both a tight in-edge and a tight
    out-edge lies on no tight cycle, so the SCC walk starts without them.
    """
    residue = np.subtract(W, beta)
    residue += v
    residue -= v[:, None]
    tight = np.abs(residue, out=residue) <= tie_tol
    kept = np.flatnonzero(tight.any(axis=0) & tight.any(axis=1))
    sub = tight if kept.size == tight.shape[0] else tight[np.ix_(kept, kept)]
    comps = []
    for local in strongly_connected_components(sub):
        if len(local) == 1 and not sub[local[0], local[0]]:
            continue  # a vertex without a tight self-loop carries no cycle
        comps.append((kept[local].tolist(), sub[np.ix_(local, local)]))
    comps.sort(key=lambda c: c[0][0])
    return tight, comps


def gauge(W: np.ndarray, beta: float, seeds: list[int], cyclicity: int) -> MaxPlusGauge:
    """Gauge of W from its cycle mean, seed vertices on critical components and cyclicity.

    Both eigenvectors are walks into the seeds (`subaction`); the left one
    runs on W transposed.
    """
    return _gauge(W, *_support(W), beta, seeds, cyclicity)


def _gauge(
    W: np.ndarray, finite: np.ndarray, tol: float, beta: float, seeds: list[int], cyclicity: int
) -> MaxPlusGauge:
    """`gauge` of W, given W's `_support`."""
    value = np.empty_like(W)
    v = _walks_into(W, beta, finite, seeds, tol, value)
    u = _walks_into(W.T, beta, finite.T, seeds, tol, value.T)
    return MaxPlusGauge(float(beta), v, u, int(cyclicity))


def gauge_of(W: np.ndarray) -> MaxPlusGauge:
    """Gauge of an irreducible weight matrix from scratch: the max cycle mean, then the critical graph.

    Seeds one vertex of every critical component. The tie tolerance scales
    with the largest finite weight, so the gauge of t*W is found at any t.
    """
    finite, tol = _support(W)
    tie_tol = 1e-9 * max(1.0, float(np.max(np.abs(W[finite]))))
    beta, witness = _max_cycle_mean(W, finite, tol)
    v = _walks_into(W, beta, finite, [min(witness)], tol, np.empty_like(W))
    _, comps = critical_components(W, beta, v, tie_tol)
    seeds = [comp[0] for comp, _ in comps]
    cyclicity = math.lcm(*(graph_period(sub) for _, sub in comps))
    return _gauge(W, finite, tol, beta, seeds, cyclicity)
