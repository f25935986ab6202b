"""Max-plus spectral data of a (-inf)-padded weight matrix.

The maximum cycle mean with a witness cycle by Howard's policy iteration,
max-plus eigenvectors (subactions) by value iteration, the critical graph
of tight edges, and the gauge that warm-starts Perron solves at large
inverse temperature. All routines take plain matrices: ``ergodic_opt``
feeds them the potential on a truncation, ``rpf_finite`` a log transfer
matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence, SolverError
from .shift_model import graph_period, strongly_connected_components

_NEG_INF = -np.inf
_EPS = float(np.finfo(np.float64).eps)
# Policy-iteration budget per vertex; Howard's rounds stay far below it
# in practice, and a run that reaches it raises instead of answering.
_ROUNDS_PER_VERTEX = 8


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
    n = W.shape[0]
    finite = np.isfinite(W)
    empty = np.flatnonzero(~finite.any(axis=1))
    if empty.size:
        raise SolverError(f"vertex {int(empty[0])} has no out-edge, so not every walk reaches a cycle")
    tol = 16.0 * n * _EPS * max(1.0, float(np.max(np.abs(W[finite]))))
    policy = np.argmax(W, axis=1)
    for _ in range(_ROUNDS_PER_VERTEX * n):
        eta, x, cycles = _evaluate(W, policy)
        improved = _improve(W, finite, policy, eta, x, tol)
        if improved is None:
            best = max(eta[c[0]] for c in cycles)
            witness = min(c for c in cycles if eta[c[0]] == best)
            return _cycle_mean(W, witness), witness
        policy = improved
    raise SolverError(f"policy iteration did not settle in {_ROUNDS_PER_VERTEX * n} rounds")


def _evaluate(W: np.ndarray, policy: np.ndarray) -> tuple[np.ndarray, np.ndarray, list[list[int]]]:
    """Value determination: (eta, x, cycles) of a policy.

    Each cycle of the policy starts at its smallest vertex, whose bias is 0;
    every other vertex takes eta from its successor and x_i = (W_i,p(i) -
    eta_i) + x_p(i), the same expression `_improve` evaluates, so the
    current edge of a vertex off the references ties exactly.
    """
    n = len(policy)
    succ = policy.tolist()
    weight = W[np.arange(n), policy].tolist()
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
            eta[cycle[0]] = float(_cycle_mean(W, cycle))
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
    W: np.ndarray, finite: np.ndarray, policy: np.ndarray, eta: np.ndarray, x: np.ndarray, tol: float
) -> np.ndarray | None:
    """Policy improvement, or None when no edge beats the policy by more than tol.

    First on eta: a vertex moves to a successor of larger eta. Only when
    none can, on the bias: among successors of equal eta, it moves to the
    largest W_ij - eta_i + x_j. A vertex whose current edge ties the best
    keeps it.
    """
    succ_eta = np.where(finite, eta[None, :], _NEG_INF)
    best_eta = succ_eta.max(axis=1)
    move = best_eta > eta + tol
    if move.any():
        return np.where(move, np.argmax(succ_eta, axis=1), policy)
    same = finite & (np.abs(eta[None, :] - eta[:, None]) <= tol)
    value = np.where(same, W - eta[:, None] + x[None, :], _NEG_INF)
    move = value.max(axis=1) > value[np.arange(len(policy)), policy] + tol
    if not move.any():
        return None
    return np.where(move, np.argmax(value, axis=1), policy)


def _cycle_mean(W: np.ndarray, cycle: list[int]) -> float:
    total = 0.0
    L = len(cycle)
    for a in range(L):
        total += W[cycle[a], cycle[(a + 1) % L]]
    return total / L


def brute_force_cycles(W: np.ndarray, Lmax: int) -> tuple[float, list[int]]:
    """Best mean over all simple cycles of length at most Lmax, by enumeration."""
    n = W.shape[0]
    best = _NEG_INF
    best_cycle: list[int] = []

    def dfs(start: int, v: int, path: list[int], total: float):
        nonlocal best, best_cycle
        for w in range(n):
            weight = W[v, w]
            if not np.isfinite(weight):
                continue
            if w == start:
                mean = (total + weight) / len(path)
                if mean > best:
                    best, best_cycle = mean, path.copy()
            elif w > start and w not in path and len(path) < Lmax:
                path.append(w)
                dfs(start, w, path, total + weight)
                path.pop()

    for s in range(n):
        dfs(s, s, [s], 0.0)
    return best, best_cycle


def subaction(G: np.ndarray, seeds: list[int], tie_tol: float = 1e-9) -> np.ndarray:
    """Max-plus eigenvector v = max(G + v) of reduced weights G = W - beta.

    v_i is the best weight of a walk from i to a seed, computed by value
    iteration (at most n + 1 sweeps) from v = 0 on the seeds. The seeds must
    be critical vertices, which makes v a fixed point: f - beta + v_j - v_i
    <= 0 on every edge, with equality on a spanning set.
    """
    n = G.shape[0]
    v = np.full(n, _NEG_INF)
    v[seeds] = 0.0
    for _ in range(n + 1):
        with np.errstate(invalid="ignore"):
            candidate = np.max(G + v[None, :], axis=1)
        new = np.maximum(v, candidate)
        if np.allclose(new, v, rtol=0.0, atol=tie_tol / 100.0, equal_nan=True):
            v = new
            break
        v = new
    if not np.all(np.isfinite(v)):
        raise NoConvergence(n + 1, math.inf)
    with np.errstate(invalid="ignore"):
        resid = float(np.max(np.max(G + v[None, :], axis=1) - v))
    if resid > tie_tol / 10.0:
        raise NoConvergence(n + 1, resid)
    return v


def critical_components(
    W: np.ndarray, beta: float, v: np.ndarray, tie_tol: float
) -> tuple[np.ndarray, list[tuple[list[int], np.ndarray]]]:
    """Tight edges of W - beta + v_j - v_i, and the SCCs that carry a cycle.

    Returns the tight-edge mask and (vertices, tight sub-mask) per critical
    component; every cycle of tight edges has mean beta.
    """
    with np.errstate(invalid="ignore"):
        residue = W - beta + v[None, :] - v[:, None]
    tight = np.isfinite(W) & (np.abs(residue) <= tie_tol)
    comps = []
    for comp in strongly_connected_components(tight):
        sub = tight[np.ix_(comp, comp)]
        if len(comp) == 1 and not sub[0, 0]:
            continue
        comps.append((comp, sub))
    return tight, comps


def gauge(W: np.ndarray, beta: float, seeds: list[int], cyclicity: int, tie_tol: float = 1e-9) -> MaxPlusGauge:
    """Gauge of W from its cycle mean, seed vertices on critical components and cyclicity.

    Both eigenvectors are pinned to 0 on the seeds; the left one is the same
    value iteration on W transposed.
    """
    G = W - beta
    v = subaction(G, seeds, tie_tol)
    u = subaction(G.T, seeds, tie_tol)
    return MaxPlusGauge(float(beta), v, u, int(cyclicity))


def gauge_of(W: np.ndarray) -> MaxPlusGauge:
    """Gauge of an irreducible weight matrix from scratch: the max cycle mean, then the critical graph.

    Seeds one vertex of every critical component. Tolerances scale with the
    largest finite weight, so the gauge of t*W is found at any t.
    """
    finite = W[np.isfinite(W)]
    tie_tol = 1e-9 * max(1.0, float(np.max(np.abs(finite))))
    beta, witness = max_cycle_mean(W)
    v = subaction(W - beta, [min(witness)], tie_tol)
    _, comps = critical_components(W, beta, v, tie_tol)
    seeds = [comp[0] for comp, _ in comps]
    cyclicity = math.lcm(*(graph_period(sub) for _, sub in comps))
    return gauge(W, beta, seeds, cyclicity, tie_tol)
