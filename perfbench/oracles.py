"""Independent numerical oracles for the result checker.

None of these call into gibbsline: each recomputes a value the CLI reports
by a different method, outside the timed region.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import brentq
from scipy.special import logsumexp


def renewal_pressure(n: int, t: float) -> float:
    """P_k(t) of ``renewal_weighted`` on n = k + 1 symbols.

    Every loop returns through 0 and the first-return loop of length L has
    weight -L - L(L-1)/2, so the pressure is the root P of
    sum_{L <= n} exp(t (-L - L(L-1)/2) - L P) = 1.
    """
    L = np.arange(1, n + 1, dtype=float)
    s = t * (-L - L * (L - 1.0) / 2.0)

    def g(p: float) -> float:
        return float(logsumexp(s - L * p))

    # g(-t) >= 0 from the L = 1 term; g(-t + log n + 1) <= -1
    return brentq(g, -t, -t + math.log(n) + 1.0, xtol=1e-15, rtol=4.0 * np.finfo(float).eps, maxiter=500)


def dense_pressure(W: np.ndarray, t: float) -> float:
    """log of the spectral radius of exp(t W), with exp(-inf) = 0."""
    B = np.exp(t * W)
    return float(math.log(np.max(np.abs(np.linalg.eigvals(B)))))


def _max_plus_closure(G: np.ndarray) -> np.ndarray:
    """Heaviest walk weights (Floyd-Warshall); G must have no positive cycle."""
    D = G.copy()
    for m in range(D.shape[0]):
        D = np.maximum(D, D[:, m : m + 1] + D[m : m + 1, :])
    return D


def max_cycle_mean(W: np.ndarray) -> float:
    """max over k <= n and i of (W^k)_ii / k in the max-plus algebra."""
    n = W.shape[0]
    P = W.copy()
    best = float(np.max(np.diag(P)))
    for k in range(2, n + 1):
        P = np.max(P[:, :, None] + W[None, :, :], axis=1)
        best = max(best, float(np.max(np.diag(P))) / k)
    return best


class EquilibriumOracle:
    """Equilibrium states of t*f on a small irreducible graph, for any t.

    The transfer matrix exp(t W) is conjugated by diag(exp(t v)), v a max-plus
    eigenvector of W - beta, so every entry is at most 1 and large t neither
    overflows nor loses the critical cycle. The stationary law nu*h is
    unchanged by the conjugation.
    """

    def __init__(self, W: np.ndarray):
        self.W = W
        self.beta = max_cycle_mean(W)
        G = W - self.beta
        D = _max_plus_closure(G)
        c = int(np.argmax(np.diag(D)))  # a vertex on a maximizing cycle
        v = D[:, c] - D[c, c]
        self.reduced = G + v[None, :] - v[:, None]

    def state(self, t: float) -> "EquilibriumState":
        """Equilibrium state at inverse temperature t."""
        B = np.exp(t * self.reduced)
        vals, right = np.linalg.eig(B)
        r = int(np.argmax(vals.real))
        lam = float(vals[r].real)
        h = np.abs(right[:, r].real)
        lvals, left = np.linalg.eig(B.T)
        nu = np.abs(left[:, int(np.argmax(lvals.real))].real)
        pi = nu * h
        pi /= pi.sum()
        return EquilibriumState(pi, B, lam, h)


class EquilibriumState:
    """Stationary vector pi and transitions P_ab = B_ab h_b / (lambda h_a)."""

    def __init__(self, pi: np.ndarray, B: np.ndarray, lam: float, h: np.ndarray):
        self.pi = pi
        self._B = B
        self._lam = lam
        self._h = h

    def mass(self, word: tuple[int, ...]) -> float:
        """mu[word] for symbols that are also matrix indices."""
        mass = float(self.pi[word[0]])
        for a, b in zip(word, word[1:]):
            if mass == 0.0:
                break
            mass *= float(self._B[a, b] * self._h[b] / (self._lam * self._h[a]))
        return mass


def finite_summability(W: np.ndarray, t: float) -> dict:
    """Expected ``summability.json`` of certify-summability on a finite table model."""
    sups = np.max(W, axis=1)
    partial = float(np.sum(np.exp(sups)))
    x = -t * np.minimum(sups - np.max(sups), 0.0)
    partial_t = float(np.sum(x * np.exp(-x)))
    n = int(W.shape[0])

    def cert(total: float) -> dict:
        return {
            "converges": True,
            "partial_sum": total,
            "tail_bound": 0.0,
            "total_upper_bound": total,
            "terms_used": n,
            "tol_met": True,
        }

    return {"per_truncation_only": False, "summability": cert(partial), "summability_t": cert(partial_t), "t": t}
