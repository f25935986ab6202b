"""Seeded random custom models for the ``large`` workload.

A model on symbols 0..n-1 is a random Hamiltonian cycle plus, for every
symbol, three further random successors (about four out-edges per symbol,
self-loops left out), with ``table`` weights drawn from -Exp(1) and
``tail_rule = none``. The Hamiltonian cycle makes the full alphabet
irreducible, so ``--k n-1`` never needs augmentation.

A planted model also gets a random cycle of PLANTED_LENGTH symbols whose
weights are -0.2 Exp(1), while every other weight is shifted down by 0.5, so
that cycle is the maximizing cycle. At large t the transfer matrix has as
many eigenvalues near its spectral circle as the maximizing cycle is long,
which stalls plain power iteration. Without planting, the length of the
maximizing cycle, and with it the solver's path, is left to the seed: one
n = 12 zerotemp sweep took anywhere from 0.2 s to 25 s. With it the slow
path is taken by construction, but where along the t grid it starts, and
which large t are lost, still varied with the seed, and with it the cost
(21 s to 32 s). `relabel` gives a seed-dependent model whose spectral
problem is a permutation of one fixed model's, so its cost does not depend
on the seed; the workload relabels one fixed model of each size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

EXTRA_SUCCESSORS = 3
PLANTED_LENGTH = 3
PLANTED_SCALE = 0.2
OFF_CYCLE_SHIFT = 0.5


@dataclass(frozen=True)
class CustomModel:
    n: int
    edges: tuple[tuple[int, int], ...]  # sorted (i, j) pairs
    weights: tuple[float, ...]  # f(i, j), aligned with edges

    def weight_matrix(self) -> np.ndarray:
        """f on edges and -inf elsewhere."""
        W = np.full((self.n, self.n), -np.inf)
        for (i, j), w in zip(self.edges, self.weights):
            W[i, j] = w
        return W

    def config_text(self) -> str:
        edges = ", ".join(f"{i} {j}" for i, j in self.edges)
        table = ", ".join(f"{i} {j} {w!r}" for (i, j), w in zip(self.edges, self.weights))
        return (
            "[model]\nkind = custom\n"
            f"edges = {edges}\ntail_rule = none\n\n"
            "[potential]\nfamily = table\n"
            f"table = {table}\n"
        )


def generate(seed: int, n: int, planted: bool) -> CustomModel:
    """The model for (seed, n, planted); equal arguments give an equal model."""
    rng = np.random.default_rng([seed, n])
    perm = rng.permutation(n)
    edges = {(int(perm[a]), int(perm[(a + 1) % n])) for a in range(n)}
    for i in range(n):
        for j in rng.choice(n, size=EXTRA_SUCCESSORS, replace=False):
            if int(j) != i:
                edges.add((i, int(j)))
    cycle = set()
    if planted:
        symbols = [int(s) for s in rng.choice(n, size=PLANTED_LENGTH, replace=False)]
        cycle = set(zip(symbols, symbols[1:] + symbols[:1]))
    ordered = tuple(sorted(edges | cycle))
    draws = rng.exponential(size=len(ordered))
    if planted:
        weights = tuple(float(-PLANTED_SCALE * x if e in cycle else -OFF_CYCLE_SHIFT - x) for e, x in zip(ordered, draws))
    else:
        weights = tuple(float(-x) for x in draws)
    return CustomModel(n, ordered, weights)


def relabel(model: CustomModel, seed: int) -> CustomModel:
    """The model with its symbols renamed by a seeded random permutation."""
    perm = np.random.default_rng([seed, model.n, 1]).permutation(model.n)
    renamed = sorted(((int(perm[i]), int(perm[j])), w) for (i, j), w in zip(model.edges, model.weights))
    return CustomModel(model.n, tuple(e for e, _ in renamed), tuple(w for _, w in renamed))
