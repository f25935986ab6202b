import contextlib
import dataclasses
import math
import weakref

import numpy as np
import pytest

from gibbsline import bundled_pair, ergodic_opt, rpf_finite
from gibbsline.errors import BudgetExceeded, ValidationError
from gibbsline.potential import MarkovPotential, oscillation
from gibbsline.rpf_finite import log_cylinder_mass, transfer_matrix


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden-digests",
        action="store_true",
        help="rewrite tests/golden_digests.json from this tree's results instead of comparing with it",
    )


@pytest.fixture
def log_quadratic():
    return bundled_pair("log_quadratic")


@pytest.fixture
def tie_two_loops():
    return bundled_pair("tie_two_loops")


@pytest.fixture
def renewal_weighted():
    return bundled_pair("renewal_weighted")


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)


@pytest.fixture
def value_grid_sizes(monkeypatch):
    """(len(rows), len(cols)) of every MarkovPotential.value_grid call the test makes from here on."""
    sizes = []
    real = MarkovPotential.value_grid

    def counted(self, rows, cols):
        sizes.append((len(rows), len(cols)))
        return real(self, rows, cols)

    monkeypatch.setattr(MarkovPotential, "value_grid", counted)
    return sizes


def brute_force_cycles(W: np.ndarray, Lmax: int) -> tuple[float, list[int]]:
    """Best mean over all simple cycles of length at most Lmax, by enumeration."""
    n = W.shape[0]
    best = -np.inf
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


def brute_force_max_mean(trunc, f, Lmax: int) -> float:
    """Max mean over all simple cycles up to length Lmax (independent oracle)."""
    if trunc.n_symbols > 10:
        raise BudgetExceeded("brute-force cycle enumeration limited to 10 symbols")
    if Lmax > trunc.n_symbols:
        raise BudgetExceeded("Lmax exceeds the alphabet size")
    best, _ = brute_force_cycles(transfer_matrix(trunc, f, 1.0), Lmax)
    return best


@contextlib.contextmanager
def step_budget(max_iter: int):
    """A context in which every solve gets the step budget max_iter."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(rpf_finite, "_step_budget", lambda n: max_iter)
        yield


def gauged_sweep(trunc, f):
    """The GaugedSweep of f on trunc, with the max-plus gauge of its critical
    decomposition, as a zero-temperature sweep's set-up builds it."""
    return ergodic_opt._sweep_setup(trunc, f)[1]


def power_perron(logB: np.ndarray, gauge=None, max_iter: int | None = None):
    """perron's power iteration, which it skips on first-return supports,
    on the step budget max_iter if given, with the chain perron builds from
    a right scaled kernel."""
    with contextlib.nullcontext() if max_iter is None else step_budget(max_iter):
        pd, (kernel, x) = rpf_finite._power_perron(logB, np.isfinite(logB), gauge)
    return pd if kernel is None else dataclasses.replace(pd, chain=(logB, kernel.chain(x)))


# the module's own, held here because tests patch rpf_finite._side
_side = rpf_finite._side


def log_domain_side(kernel, *args):
    """A side on the log-domain ladder alone, as solves ran before their
    linear runs on scaled kernels: `rpf_finite._side` without a kernel.
    Monkeypatch it over `rpf_finite._side` (gauged and ungauged sides alike)."""
    return _side(None, *args)


def random_stochastic(incidence: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Random stochastic matrix supported exactly on the incidence."""
    n = incidence.shape[0]
    P = np.zeros((n, n))
    for i in range(n):
        js = np.flatnonzero(incidence[i])
        P[i, js] = rng.dirichlet(np.ones(js.size))
    return P


def stationary_of(P: np.ndarray) -> np.ndarray:
    """Exact stationary distribution of an irreducible stochastic matrix."""
    n = P.shape[0]
    A = np.vstack([(P.T - np.eye(n))[:-1], np.ones(n)])
    b = np.zeros(n)
    b[-1] = 1.0
    pi = np.linalg.solve(A, b)
    pi = np.clip(pi, 0.0, None)
    return pi / pi.sum()


def tied_period_3() -> np.ndarray:
    """Weights on a period-3 support with two critical 3-cycles, 0 -> 2 -> 4
    -> 0 and 1 -> 3 -> 5 -> 1, tied at mean 7/3. The shifted run from the
    cyclic gauge stalls here at every t >= 4."""
    W = np.full((6, 6), -np.inf)
    edges = {
        (0, 2): 2.0, (1, 2): 2.0, (1, 3): 3.0, (2, 4): 2.0, (2, 5): 1.0,
        (3, 4): -3.0, (3, 5): 2.0, (4, 0): 3.0, (5, 0): -2.0, (5, 1): 2.0,
    }
    for (i, j), w in edges.items():
        W[i, j] = w
    return W


def sparse_aperiodic(n: int, rng: np.random.Generator) -> np.ndarray:
    """Weights from -Exp(1) on a Hamiltonian cycle on n symbols, one more
    successor each and a loop at 0 (-0.5): period 1, and at most 2n + 1
    edges in n^2 cells."""
    W = np.full((n, n), -np.inf)
    perm = rng.permutation(n)
    W[perm, np.roll(perm, -1)] = -rng.exponential(size=n)
    W[np.arange(n), rng.integers(n, size=n)] = -rng.exponential(size=n)
    W[0, 0] = -0.5
    return W


def karp_max_cycle_mean(W: np.ndarray) -> float:
    """The max cycle mean of W (-inf off the edges) by Karp's O(n^3) recurrence.

    D_k(v) is the heaviest walk of k edges that ends at v, from any start
    (D_0 = 0), and beta = max over v with D_n(v) > -inf of min over k < n
    of (D_n(v) - D_k(v)) / (n - k) (Karp, Discrete Math. 1978, with a
    source joined to every vertex). A term with D_k(v) = -inf is +inf.
    """
    n = W.shape[0]
    D = np.empty((n + 1, n))
    D[0] = 0.0
    for k in range(n):
        D[k + 1] = np.max(D[k][:, None] + W, axis=0)
    ends = np.isfinite(D[n])
    with np.errstate(invalid="ignore"):
        means = (D[n][None, ends] - D[:n, ends]) / (n - np.arange(n))[:, None]
    means[~np.isfinite(D[:n, ends])] = np.inf
    return float(np.max(np.min(means, axis=0), initial=-np.inf))


def dense_gauged_state(
    W: np.ndarray, t: float, beta: float | None = None
) -> tuple[float, np.ndarray, np.ndarray, float]:
    """(log lambda, pi, P, gap) of exp(t W) by a dense eigensolve, independent of the solver.

    W holds f on the edges of an irreducible graph and -inf elsewhere. The
    matrix is conjugated into exp(t (f - beta + v_j - v_i)), v a max-plus
    eigenvector of W - beta from Floyd-Warshall, so every entry is at most 1
    and each row keeps an entry equal to 1 at any t; v is taken from the
    critical vertex c whose right eigenvector entry h_c is largest against
    max h, since h_c bounds the others from below. gap is 1 - |mu + 1| /
    (rho + 1) for the next eigenvalue mu of this matrix: the contraction
    margin of the iteration shifted by exp(t beta); near 0, neither that
    iteration nor this eigensolve can separate the top two eigenvectors.
    beta, the max cycle mean of W, is found by `karp_max_cycle_mean` unless
    the caller knows it.
    """
    n = W.shape[0]
    if beta is None:
        beta = karp_max_cycle_mean(W)
    D = W - beta
    for m in range(n):
        D = np.maximum(D, D[:, m : m + 1] + D[m : m + 1, :])
    critical = np.flatnonzero(np.diag(D) >= np.max(np.diag(D)) - 1e-12)  # on maximizing cycles

    def gauged(c):
        v = D[:, c] - D[c, c]
        with np.errstate(invalid="ignore"):
            B = np.exp(t * (W - beta + v[None, :] - v[:, None]))
        B[~np.isfinite(W)] = 0.0
        return B

    def null_vector(B, lam):
        # h as a null vector of B - lam I by SVD: on these matrices, whose entries
        # reach the underflow limit, np.linalg.eig returned eigenvectors with
        # residuals of order 1
        return np.abs(np.linalg.svd(B - lam * np.eye(n))[2][-1])

    B = gauged(int(critical[0]))
    eigs = np.linalg.eigvals(B)
    lam = float(np.max(eigs.real))
    gap = 1.0 - float(np.sort(np.abs(eigs + 1.0))[-2]) / (lam + 1.0) if n > 1 else 1.0
    # Every vertex reaches c along entries equal to 1, so h_i >= h_c / lam^n:
    # h is bounded away from 0 once h_c is near its largest entry, as when c
    # lies in the critical component that dominates at this t. Gauged from
    # another one, h can fall far below the SVD's round-off (loops at 0 on
    # vertex 0 and on the cycle 1 2 3 1 put h_0 near 1e-28 at t = 16). The
    # largest h in one gauge does not name the dominant component: with loops
    # at 0 on vertices 0 and 2 and the 2-cycle 0 1 at 0, h gauged from 0 is
    # (1, 0.62, 1.62) at t = 64, but gauged from 2 it puts h_2 near 1e-28 h_0.
    # So gauge from one vertex of each critical component and keep the gauge
    # of largest h_c / max h; lam and the spectrum do not depend on the gauge.
    reps = []
    for i in critical:
        if all(D[i, r] + D[r, i] < -1e-12 for r in reps):  # i starts a new component
            reps.append(int(i))
    score = -1.0
    for r in reps:
        B_r = gauged(r)
        h_r = null_vector(B_r, lam)
        if h_r[r] / np.max(h_r) > score:
            score, c, B, h = h_r[r] / np.max(h_r), r, B_r, h_r
    with np.errstate(divide="ignore", invalid="ignore"):  # h is junk at gap ~ 0
        P = B * h[None, :] / (lam * h[:, None])
        # pi is the stationary law of P, by elimination rather than from a left
        # null vector nu: nu from the SVD carried an absolute error near 1e-12
        # where 1 - B_ii is small (edges (0, 0): 0, (1, 1): -6.1e-5 at t = 128
        # put 4.3e-12 on a state of mass 4.2e-52). Under this gauge h stays
        # within a bounded ratio of 1, so P is accurate entrywise.
        pi = gth_stationary(P, c)
    return t * beta + math.log(lam), pi, P, gap


def gth_stationary(P: np.ndarray, first: int) -> np.ndarray:
    """Stationary law of an irreducible stochastic matrix by Grassmann-Taksar-Heyman
    elimination, which subtracts nothing: each component keeps the relative accuracy
    of the entries of P, however far it lies below the round-off of the largest.

    States are eliminated towards `first`; every state must reach it along entries
    of P that did not underflow, or a censored exit rate is 0.
    """
    n = P.shape[0]
    order = [first] + [i for i in range(n) if i != first]
    A = P[np.ix_(order, order)]
    for k in range(n - 1, 0, -1):
        A[:k, k] /= np.sum(A[k, :k])
        A[:k, :k] += np.outer(A[:k, k], A[k, :k])
    x = np.zeros(n)
    x[0] = 1.0
    for k in range(1, n):
        x[k] = x[:k] @ A[:k, k]
    pi = np.empty(n)
    pi[order] = x / np.sum(x)
    return pi


def admissible_words(trunc, n: int, budget: int = 500_000) -> list[tuple[int, ...]]:
    """All admissible words of length n, in lexicographic symbol order."""
    if n < 1:
        raise ValidationError("word length must be at least 1")
    succ = trunc.successor_lists()
    alphabet = trunc.alphabet
    words: list[tuple[int, ...]] = []
    # iterative DFS in lexicographic order
    stack: list[tuple[tuple[int, ...], int]] = [((), a) for a in range(trunc.n_symbols - 1, -1, -1)]
    while stack:
        prefix, a = stack.pop()
        word = prefix + (a,)
        if len(word) == n:
            words.append(tuple(int(alphabet[b]) for b in word))
            if len(words) > budget:
                raise BudgetExceeded(f"more than {budget} admissible words of length {n}")
            continue
        for b in succ[a][::-1]:
            stack.append((word, int(b)))
    return words


def edge_value(f, i: int, j: int) -> float:
    """f(i, j) from the potential's formula; NaN where it is undefined."""
    return float(f.value_grid([i], [j])[0, 0])


def truncated_sups(f, trunc) -> np.ndarray:
    """sup of f over the edges out of each symbol of the truncation, in alphabet order."""
    vals = f.value_grid(trunc.alphabet, trunc.alphabet)
    return np.where(trunc.require_incidence(), vals, -np.inf).max(axis=1)


def ambient_sup(f, i: int) -> float:
    """Closed-form sup f|_[i] over the full countable row of symbol i."""
    return float(f._ambient_sups(np.asarray([i]))[0])


# V_1 of each potential on the support of a measure, per measure
_FIRST_VARIATION: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def support_first_variation(m, f) -> float:
    """Row oscillation of f over the support of the chain (per-truncation V_1),
    computed once per measure and potential."""
    cache = _FIRST_VARIATION.setdefault(m, {})
    v1 = cache.get(f)
    if v1 is None:
        v1 = cache[f] = oscillation(f.value_grid(m.alphabet, m.alphabet), m.stochastic > 0.0)
    return v1


def gibbs_ratio(m, word: tuple[int, ...], f, t: float, pressure_value: float) -> tuple[float, bool]:
    """Cylinder mass against exp(S_n(t f) - n P) on the periodic continuation.

    The evaluation point repeats the word; when the wrap-around edge is not
    in the support the smallest admissible successor is used instead. The
    bound constant is exp(4 t V_1) with V_1 taken on the support.
    """
    n = len(word)
    idx = m.local_index()
    logmass = log_cylinder_mass(m, word)
    last = word[-1]
    cont = word[0]
    if last in idx:
        row = m.stochastic[idx[last]]
        if cont not in idx or row[idx[cont]] <= 0.0:
            options = [int(m.alphabet[j]) for j in np.flatnonzero(row > 0.0)]
            if not options:
                return 0.0, False
            cont = min(options)
    # f on the word's pairs and the wrap-around pair, from one grid
    tails = tuple(word[1:]) + (cont,)
    syms = sorted({*word, cont})
    pos = {s: a for a, s in enumerate(syms)}
    vals = f.value_grid(syms, syms)[[pos[a] for a in word], [pos[b] for b in tails]]
    off = np.flatnonzero(~f.model.has_edge(word, tails) | np.isnan(vals))
    if off.size:
        raise ValidationError(f"({word[off[0]]}, {tails[off[0]]}) is not an edge with a value of f")
    s_n = 0.0
    for v in vals.tolist():
        s_n += t * v
    log_ratio = logmass - (s_n - n * pressure_value)
    ratio = float(np.exp(log_ratio))
    v1 = support_first_variation(m, f)
    log_c = 4.0 * t * v1
    ok = bool(-log_c - 1e-9 <= log_ratio <= log_c + 1e-9)
    return ratio, ok


def one_cylinder_gibbs_check(m, trunc, f, t: float, pressure_value: float) -> list[tuple[int, float, bool]]:
    """Gibbs bound on every 1-cylinder: mass / exp(t sup f|_[i] - P) in [1/C, C]."""
    v1 = support_first_variation(m, f)
    log_c = 4.0 * t * v1
    out = []
    idx = m.local_index()
    sups = truncated_sups(f, trunc)
    for sym, sup_i in zip(trunc.alphabet.tolist(), sups.tolist()):
        with np.errstate(divide="ignore"):
            log_ratio = float(np.log(m.stationary[idx[sym]])) - (t * sup_i - pressure_value)
        ok = bool(-log_c - 1e-9 <= log_ratio <= log_c + 1e-9)
        out.append((sym, float(np.exp(log_ratio)), ok))
    return out
