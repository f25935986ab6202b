"""Gauged reduced kernels hold normal floats and exact zeros only.

A side's kernel at t keeps the cells whose exp is a normal float, t E >=
-_NORMAL_SPREAD, on both storages (n x n and edge list) and at every n; the
cells below, whose exp would be subnormal or +0.0, are exact zeros. Every
row reaches 1 up to the rounding of its exponents, so dropping entries
below 2^-1022 moves log rho by about n 2^-1022 max x / min x at most, x the
reduced Perron vector. Checked by recording every kernel a side builds, against what
exp(t E) holds on the same cells, and against the old rule (live where t E
>= _EXP_ZERO, the cells whose exp is not +0.0) on the sweeps that pass most
cells through the subnormal band.
"""

from pathlib import Path

import numpy as np
import pytest

from gibbsline import rpf_finite
from gibbsline.bundled import bundled_pair
from gibbsline.config import parse_model_config
from gibbsline.ergodic_opt import _sweep_setup
from gibbsline.limits import ZT_TS_DEFAULT
from gibbsline.rpf_finite import cylinder_mass, equilibrium_measure, perron
from gibbsline.shift_model import build_truncation

HERE = Path(__file__).resolve().parent
CONFIGS = HERE.parent / "configs"
_TINY = float(np.finfo(np.float64).tiny)


def record_kernel_entries(monkeypatch):
    """(kind, n, entries, subnormal cells of exp(t E)) of every kernel a side
    builds from here on: kind is "n x n" or "edge list", entries its stored
    values, and the count is what exp(t E) holds in (0, tiny) on the side's
    finite cells, the band the old rule kept."""
    built = []
    real = rpf_finite._ReducedSide.kernel

    def kernel(side, t, *args):
        with np.errstate(under="ignore"):
            full = np.exp(t * side.E)
        band = int(np.count_nonzero((full > 0.0) & (full < _TINY)))
        K = real(side, t, *args)
        if isinstance(K, rpf_finite._LiveKernel):
            built.append(("edge list", side.E.shape[0], K.vals.copy(), band))
        else:
            built.append(("n x n", side.E.shape[0], K.K.copy(), band))
        return K

    monkeypatch.setattr(rpf_finite._ReducedSide, "kernel", kernel)
    return built


def sweep(trunc, f, words=()):
    """(t, pressure, pi, P, cylinder masses of the words) of the zero-temperature
    sweep of f on trunc at every t of ZT_TS_DEFAULT."""
    _, state = _sweep_setup(trunc, f, 1e-9)
    out = []
    for t in ZT_TS_DEFAULT:
        p, meas = equilibrium_measure(trunc, f, t, sweep=state)
        # the measure is valid until the sweep's next t
        masses = [cylinder_mass(meas, w) for w in words]
        out.append((t, p, meas.stationary.copy(), meas.stochastic.copy(), masses))
    return out


def pair(name):
    """(model, f) of a bundled config or of a config file of the tests."""
    if name.startswith("custom"):
        cfg = parse_model_config((HERE / f"{name}.cfg").read_text())
        return cfg.model, cfg.potential
    return bundled_pair(name)


# (model, k), each visiting the subnormal band at some t: below _LIVE_FILL
# symbols (no count of the live cells), from _LIVE_FILL to _MASK_MIN cells
# (a count, then exp on every cell), and above (a masked exp, n x n up to t
# = 16 and edge lists from t = 32 on); the sparse custom model steps on edge
# lists at every t
CASES = [("custom_n12", 11), ("tie_two_loops", 19), ("tie_two_loops", 510), ("custom_n512", 511)]


@pytest.mark.parametrize("name, k", CASES)
def test_no_gauged_kernel_holds_a_subnormal(monkeypatch, name, k):
    """Every kernel of the sweep over ZT_TS_DEFAULT and of the lone gauged
    `perron` at each t holds only normal floats and exact zeros, and is
    exp(t E) on its normal cells bit for bit; the band the old rule kept is
    visited on every case (thousands of cells a t at n = 511)."""
    model, f = pair(name)
    trunc = build_truncation(model, k)
    built = record_kernel_entries(monkeypatch)
    sweep(trunc, f)
    _, state = _sweep_setup(trunc, f, 1e-9)
    for t in ZT_TS_DEFAULT:
        perron(t * state.W, gauge=state.gauge.scaled(t))
    assert len(built) == 2 * 2 * len(ZT_TS_DEFAULT)
    for kind, n, K, _ in built:
        assert n == trunc.n_symbols
        stored = K[K != 0.0]
        assert np.all(stored >= _TINY), kind
        if kind == "edge list":
            assert stored.size == K.size
    assert sum(band for *_, band in built) > 0
    kinds = {kind for kind, *_ in built}
    if name == "custom_n512":
        assert kinds == {"edge list"}
    elif k == 510:
        assert kinds == {"n x n", "edge list"}
    else:
        assert "n x n" in kinds


def test_a_kernel_is_exp_of_t_e_on_its_normal_cells(monkeypatch):
    """tie_two_loops at n = 511: at every t each side's kernel equals np.exp(t
    E) bit for bit where that is a normal float, and 0 elsewhere (an edge
    list on exactly those cells)."""
    model, f = bundled_pair("tie_two_loops")
    trunc = build_truncation(model, 510)
    _, state = _sweep_setup(trunc, f, 1e-9)
    seen = []
    real = rpf_finite._ReducedSide.kernel

    def kernel(side, t, *args):
        with np.errstate(under="ignore"):
            want = np.exp(t * side.E)
        want[want < _TINY] = 0.0
        K = real(side, t, *args)
        if isinstance(K, rpf_finite._LiveKernel):
            got = np.zeros_like(want)
            got[K.rows, K.cols] = K.vals
            assert np.count_nonzero(want) == K.vals.size, t
        else:
            got = K.K
        assert np.array_equal(got, want), t
        seen.append(type(K).__name__)
        return K

    monkeypatch.setattr(rpf_finite._ReducedSide, "kernel", kernel)
    for t in ZT_TS_DEFAULT:
        equilibrium_measure(trunc, f, t, sweep=state)
    assert set(seen) == {"_ReducedKernel", "_LiveKernel"}


@pytest.mark.parametrize("name, k", [("tie_two_loops", 510), ("custom_n512", 511)])
def test_the_normal_rule_matches_the_old_rule(monkeypatch, name, k):
    """The sweep over ZT_TS_DEFAULT with live cells t E >= -_NORMAL_SPREAD
    against the same sweep with the old rule, t E >= _EXP_ZERO: log lambda,
    pi and the chain agree within n 2^-1022, and every cylinder mass of the
    configs' words (tie_two_loops: 0, 1, 00; the custom model, which has no
    words: every symbol) is equal."""
    model, f = pair(name)
    trunc = build_truncation(model, k)
    bound = trunc.n_symbols * 2.0**-1022
    if name == "tie_two_loops":
        words = parse_model_config((CONFIGS / "tie_two_loops.cfg").read_text()).sweep.words
    else:
        words = tuple((int(a),) for a in trunc.alphabet)
    new = sweep(trunc, f, words)
    with monkeypatch.context() as m:
        # the old rule: live where exp(t E) is not +0.0
        m.setattr(rpf_finite, "_NORMAL_SPREAD", -rpf_finite._EXP_ZERO)
        band = record_kernel_entries(m)
        old = sweep(trunc, f, words)
    assert sum(b for *_, b in band) > 100
    for (t, p, pi, P, masses), (_, p_old, pi_old, P_old, masses_old) in zip(new, old):
        assert abs(p - p_old) <= bound, t
        assert np.max(np.abs(pi - pi_old)) <= bound, t
        assert np.max(np.abs(P - P_old)) <= bound, t
        assert not P[P_old == 0.0].any(), t
        assert masses == masses_old, t


@pytest.mark.parametrize("name, k", [("custom_n256", 255), ("custom_n512", 511)])
def test_gauged_exponents_are_at_most_rounding_above_zero(name, k):
    """Each side's exponent E = (logA + b_j) - (b_i + beta) is 0 up to the
    rounding of its sums: E <= 2 eps s on every edge, and each row's best
    cell has E >= -2 eps s, with s = |logA_ij| + |b_i| + |b_j| + |beta| and
    eps = 2^-52. Not E <= 0 with 0 reached on every row: both models have
    edges with E > 0 (up to 8.9e-16) and rows whose best E is below 0."""
    model, f = pair(name)
    _, state = _sweep_setup(build_truncation(model, k), f, 1e-9)
    gauge = state.gauge
    eps = float(np.finfo(np.float64).eps)
    for side, b in zip(state.sides, (gauge.u, gauge.v)):
        E = np.where(side.finite, side.E, -np.inf)
        s = np.abs(side.logA) + np.abs(b) + np.abs(b)[:, None] + abs(gauge.beta)
        assert np.all(E[side.finite] <= 2.0 * eps * s[side.finite])
        rows, best = np.arange(b.size), np.argmax(E, axis=1)
        assert np.all(E[rows, best] >= -2.0 * eps * s[rows, best])
