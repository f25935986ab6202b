"""Max-plus spectral data of a (-inf)-padded weight matrix.

Karp's maximum cycle mean with a witness cycle, max-plus eigenvectors
(subactions) by value iteration, the critical graph of tight edges, and the
gauge that warm-starts Perron solves at large inverse temperature. All
routines take plain matrices: ``ergodic_opt`` feeds them the potential on a
truncation, ``rpf_finite`` a log transfer matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence, SolverError
from .shift_model import graph_period, strongly_connected_components

_NEG_INF = -np.inf


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
    """Maximum cycle mean and a witness cycle (local indices).

    Karp's dynamic program over walk lengths 0..n from vertex 0, so W must be
    irreducible; the witness is reconstructed from back-pointers and the
    returned mean is the exact mean of the witness cycle.
    """
    n = W.shape[0]
    D = np.full((n + 1, n), _NEG_INF)
    D[0, 0] = 0.0
    parent = np.full((n + 1, n), -1, dtype=np.int64)
    for r in range(1, n + 1):
        cand = D[r - 1][:, None] + W
        parent[r] = np.argmax(cand, axis=0)
        D[r] = cand[parent[r], np.arange(n)]
    # q_v = min over r with D[r, v] > -inf of (D[n, v] - D[r, v]) / (n - r);
    # beta is the largest q_v over the v that walks of length n reach
    with np.errstate(invalid="ignore"):
        ratios = (D[n] - D[:n]) / (n - np.arange(n))[:, None]
    q = np.where(np.isfinite(D[:n]), ratios, np.inf).min(axis=0)
    q[~np.isfinite(D[n])] = _NEG_INF
    best_v = int(np.argmax(q))  # the first maximizer
    best = q[best_v]
    if not np.isfinite(best):
        raise SolverError("no cycle reachable from symbol 0")
    cycle = _extract_cycle(W, parent, best_v, n, best)
    return _cycle_mean(W, cycle), cycle


def _cycle_mean(W: np.ndarray, cycle: list[int]) -> float:
    total = 0.0
    L = len(cycle)
    for a in range(L):
        total += W[cycle[a], cycle[(a + 1) % L]]
    return total / L


def _extract_cycle(W: np.ndarray, parent: np.ndarray, v: int, n: int, target: float) -> list[int]:
    path = [v]
    for r in range(n, 0, -1):
        v = int(parent[r, v])
        path.append(v)
    path.reverse()  # forward walk of length n from the source
    best_cycle: list[int] | None = None
    best_mean = _NEG_INF
    seen: dict[int, int] = {}
    for pos, u in enumerate(path):
        if u in seen:
            cyc = path[seen[u]:pos]
            mean = _cycle_mean(W, cyc)
            if mean > best_mean:
                best_mean, best_cycle = mean, cyc
        seen[u] = pos
    if best_cycle is None or abs(best_mean - target) > 1e-7 * max(1.0, abs(target)):
        # fall back to enumeration on small graphs
        if n <= 12:
            _, cyc = brute_force_cycles(W, n)
            return cyc
        raise SolverError("witness-cycle reconstruction failed")
    return best_cycle


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
    """Gauge of an irreducible weight matrix from scratch: Karp, then the critical graph.

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
