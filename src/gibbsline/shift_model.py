"""Countable Markov shifts and their nested compact truncations.

A model describes a countable-alphabet incidence structure generatively
(built-in families or an explicit edge list with an optional tail rule).
`ShiftModel.has_edge` is the one statement of that edge rule; it works
elementwise on integer arrays, and every materialized incidence matrix is
read from it. Truncations are finite irreducible subshifts on prefix
alphabets, augmented with connecting symbols when the prefix alone is not
transitive.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .errors import (
    AlphabetTooLarge,
    NonTransitive,
    ValidationError,
)

# Largest alphabet for which the incidence matrix is materialized; beyond it
# only the structured built-in families are supported (pressure fast path).
DENSE_LIMIT = 4096

# Symbols live in int64 arrays, and truncations add successors of the
# largest one; below 2^62 that arithmetic cannot overflow.
SYMBOL_LIMIT = 2**62


class ModelKind(Enum):
    FULL = "full"
    RENEWAL = "renewal"
    CUSTOM = "custom"


class TailRule(Enum):
    NONE = "none"
    FULL_TAIL = "full_tail"
    RENEWAL_TAIL = "renewal_tail"


@dataclass(frozen=True)
class ShiftModel:
    """Incidence structure of a one-sided countable Markov shift.

    Symbols are the nonnegative integers.
    FULL: every pair (i, j) is an edge.
    RENEWAL: edges 0 -> j for all j and i -> i-1 for i >= 1.
    CUSTOM: the explicit edge list, extended to the tail symbols s > max
    listed symbol by the tail rule: none adds no edge; full_tail adds every
    pair that has a tail symbol; renewal_tail adds 0 -> s and s -> s-1.
    """

    kind: ModelKind
    custom_edges: tuple[tuple[int, int], ...] = ()
    custom_tail_rule: TailRule = TailRule.NONE

    def __post_init__(self):
        if self.kind is ModelKind.CUSTOM:
            if not self.custom_edges:
                raise ValidationError("custom model requires a non-empty edge list")
            for i, j in self.custom_edges:
                if not (isinstance(i, int) and isinstance(j, int)) or i < 0 or j < 0:
                    raise ValidationError(f"custom edge ({i}, {j}) is not a pair of nonnegative integers")
                if max(i, j) >= SYMBOL_LIMIT:
                    raise ValidationError(f"custom edge ({i}, {j}) has a symbol not below 2^62")
        elif self.custom_edges:
            raise ValidationError("edge lists are only meaningful for custom models")

    @cached_property
    def _listed_edges(self) -> tuple[np.ndarray, np.ndarray]:
        """Sorted explicit symbols, and the sorted codes a * n + b of the listed
        edges, where a, b are positions in the n explicit symbols."""
        edges = np.asarray(self.custom_edges, dtype=np.int64)
        symbols, pos = np.unique(edges, return_inverse=True)
        pos = pos.reshape(edges.shape)
        return symbols, np.unique(pos[:, 0] * symbols.size + pos[:, 1])

    @cached_property
    def _alphabet_memo(self) -> dict[bytes, tuple[np.ndarray, int] | None]:
        """The alphabets `_custom_truncation` has visited on this model (keyed
        by their int64 bytes): (read-only incidence, period) when the induced
        subgraph is irreducible, else None. It lives as long as the model, so
        a command's truncations, whose augmentations walk the same alphabets
        from k to k, read each incidence from `has_edge` once."""
        return {}

    @cached_property
    def _tail_start(self) -> int:
        """First symbol governed by the tail rule of a custom model."""
        return int(self._listed_edges[0][-1]) + 1

    def is_infinite_alphabet(self) -> bool:
        if self.kind in (ModelKind.FULL, ModelKind.RENEWAL):
            return True
        return self.custom_tail_rule is not TailRule.NONE

    def has_edge(self, i, j):
        """Whether (i, j) is an edge, elementwise over broadcast integer arrays.

        Scalars give a bool. This is the one statement of the edge rule:
        truncations and potentials take their incidence from it.
        """
        i = np.asarray(i, dtype=np.int64)
        j = np.asarray(j, dtype=np.int64)
        both = (i >= 0) & (j >= 0)
        if self.kind is ModelKind.FULL:
            edge = both
        elif self.kind is ModelKind.RENEWAL:
            edge = both & ((i == 0) | (j == i - 1))
        else:
            symbols, codes = self._listed_edges
            a = np.searchsorted(symbols, i).clip(max=symbols.size - 1)
            b = np.searchsorted(symbols, j).clip(max=symbols.size - 1)
            code = a * symbols.size + b
            c = np.searchsorted(codes, code).clip(max=codes.size - 1)
            edge = (symbols[a] == i) & (symbols[b] == j) & (codes[c] == code)
            ts = self._tail_start
            if self.custom_tail_rule is TailRule.FULL_TAIL:
                edge = edge | (both & ((i >= ts) | (j >= ts)))
            elif self.custom_tail_rule is TailRule.RENEWAL_TAIL:
                edge = edge | ((i == 0) & (j >= ts)) | ((i >= ts) & (j == i - 1))
        return bool(edge) if edge.ndim == 0 else edge


class AlphabetIndexed:
    """Mixin for objects whose symbol `alphabet` never changes."""

    @cached_property
    def _local_index(self) -> dict[int, int]:
        return {int(s): a for a, s in enumerate(self.alphabet)}

    def local_index(self) -> dict[int, int]:
        """Position of each symbol in the alphabet; built once, shared, read-only."""
        return self._local_index


@dataclass(frozen=True, eq=False)
class Truncation(AlphabetIndexed):
    """Finite irreducible subshift: sorted symbol alphabet plus 0/1 incidence.

    For very large built-in truncations the incidence is not materialized
    (`incidence is None`); only structured operations accept those.
    """

    k: int
    alphabet: np.ndarray
    incidence: np.ndarray | None
    period: int
    kind: ModelKind

    @property
    def n_symbols(self) -> int:
        return int(self.alphabet.size)

    def require_incidence(self) -> np.ndarray:
        if self.incidence is None:
            raise AlphabetTooLarge(
                f"operation needs a materialized incidence matrix; alphabet has "
                f"{self.n_symbols} symbols (limit {DENSE_LIMIT})"
            )
        return self.incidence

    def successor_lists(self) -> list[np.ndarray]:
        inc = self.require_incidence()
        return [np.flatnonzero(inc[a]) for a in range(self.n_symbols)]


# ---------------------------------------------------------------------------
# graph utilities


def strongly_connected_components(adj: np.ndarray) -> list[list[int]]:
    """Tarjan's algorithm, iterative; returns SCCs in reverse topological order.

    The successors of v are succ[starts[v]:ends[v]], read from one
    np.nonzero pass over adj in row order.
    """
    n = adj.shape[0]
    rows, cols = np.nonzero(adj)
    succ = cols.tolist()
    ends = np.cumsum(np.bincount(rows, minlength=n)).tolist()
    starts = [0] + ends[:-1]
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    sccs: list[list[int]] = []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, -1)]  # (vertex, position in succ to resume at; -1 on entry)
        while work:
            v, pos = work.pop()
            if pos < 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
                pos = starts[v]
            recurse = False
            for off in range(pos, ends[v]):
                w = succ[off]
                if index[w] == -1:
                    work.append((v, off + 1))
                    work.append((w, -1))
                    recurse = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if recurse:
                continue
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                sccs.append(sorted(comp))
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
    return sccs


def is_irreducible(adj: np.ndarray) -> bool:
    """True when the whole vertex set is one strongly connected component.

    A single vertex counts only with a self-loop (it must carry a cycle).
    """
    n = adj.shape[0]
    if n == 0:
        return False
    if n == 1:
        return bool(adj[0, 0])
    return bool((_bfs_depths(adj) >= 0).all() and (_bfs_depths(adj.T) >= 0).all())


def _bfs_depths(adj: np.ndarray) -> np.ndarray:
    """BFS distance of each vertex from vertex 0, taken level by level; -1 where unreached."""
    n = adj.shape[0]
    depth = np.full(n, -1, dtype=np.int64)
    unseen = np.ones(n, dtype=bool)
    frontier = np.zeros(1, dtype=np.int64)
    level = 0
    while frontier.size:
        depth[frontier] = level
        unseen[frontier] = False
        frontier = np.flatnonzero(adj[frontier].any(axis=0) & unseen)
        level += 1
    return depth


def graph_period(adj: np.ndarray) -> int:
    """gcd of all cycle lengths of an irreducible graph.

    Computed as the gcd of (depth[u] + 1 - depth[v]) over all edges (u, v),
    with depths the BFS distances from vertex 0.
    """
    if np.diagonal(adj).any():
        return 1  # a self-loop is a cycle of length 1
    depth = _bfs_depths(adj)
    us, vs = np.nonzero(adj)
    reached = depth[us] >= 0
    g = int(np.gcd.reduce(depth[us[reached]] + 1 - depth[vs[reached]]))
    return max(g, 1)


# ---------------------------------------------------------------------------
# truncation construction


def build_truncation(model: ShiftModel, k: int, dense_limit: int = DENSE_LIMIT) -> Truncation:
    """Truncation on the prefix alphabet {0, ..., k}.

    For custom models the prefix is augmented by the smallest additional
    symbols (explicit first, then tail symbols) until the induced subgraph
    is irreducible; raises NonTransitive when no finite augmentation works.
    The model keeps what each visited alphabet gave (`_alphabet_memo`), so
    the truncations of one model share their incidence, read-only.
    """
    if k < 0:
        raise ValidationError("truncation index must be nonnegative")
    m = k + 1
    if model.kind is ModelKind.CUSTOM:
        return _custom_truncation(model, k, m, dense_limit)
    alphabet = np.arange(m, dtype=np.int64)
    if m > dense_limit:
        return Truncation(k, alphabet, None, 1, model.kind)
    inc = model.has_edge(alphabet[:, None], alphabet[None, :])
    return Truncation(k, alphabet, inc, graph_period(inc), model.kind)


def last_truncation(model: ShiftModel, upto: int) -> int | None:
    """Largest k <= upto with a truncation, on a model with a finite alphabet.

    None on an infinite alphabet, or when no k <= upto has a truncation.
    On a finite alphabet the ks with a truncation are 0, ..., last: if the
    prefix {0..k} has none, then either k + 1 is a listed symbol, and the
    augmentation of {0..k + 1} runs through the same failed alphabets, or
    k + 1 lies on no edge and no alphabet holding it is irreducible. So the
    search starts at the largest listed symbol, past which no k has one.
    """
    if model.is_infinite_alphabet():
        return None
    for k in range(min(upto, int(model._listed_edges[0][-1])), -1, -1):
        try:
            build_truncation(model, k)
        except NonTransitive:
            continue
        return k
    return None


def is_whole_shift(model: ShiftModel, trunc: Truncation) -> bool:
    """Whether the truncation holds every symbol of a finite model: it is then
    the whole shift, and its values are the limits in k, not estimates."""
    if model.is_infinite_alphabet():
        return False
    return bool(np.isin(model._listed_edges[0], trunc.alphabet).all())


def _custom_truncation(model: ShiftModel, k: int, m: int, dense_limit: int) -> Truncation:
    explicit = model._listed_edges[0]
    tailed = model.custom_tail_rule is not TailRule.NONE
    cap = max(m, int(explicit[-1]) + 1) + 64
    alphabet = np.arange(m, dtype=np.int64)

    memo = model._alphabet_memo
    while True:
        if alphabet.size > dense_limit:
            raise AlphabetTooLarge("custom truncation exceeds the dense alphabet limit")
        key = alphabet.tobytes()
        if key not in memo:
            inc = model.has_edge(alphabet[:, None], alphabet[None, :])
            memo[key] = None
            if is_irreducible(inc):
                # shared by every truncation on this alphabet
                inc.flags.writeable = False
                memo[key] = (inc, graph_period(inc))
        if memo[key] is not None:
            return Truncation(k, alphabet, *memo[key], model.kind)
        missing = np.setdiff1d(explicit, alphabet)
        if missing.size:
            cand = int(missing[0])
        elif tailed:
            cand = int(alphabet[-1]) + 1
        else:
            cand = None
        if cand is None or cand > cap:
            raise NonTransitive(
                f"prefix alphabet {{0..{m - 1}}} has no irreducible finite augmentation"
            )
        alphabet = np.union1d(alphabet, [cand])
