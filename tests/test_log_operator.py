"""The log-domain transfer operators against scipy, and the solver built on them.

The reference kernel is the dense, row-chunked scipy log-sum-exp that the
operators replaced; it stays here as an oracle only.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq
from scipy.special import logsumexp

from gibbsline import rpf_finite
from gibbsline.bundled import bundled_pair
from gibbsline.ergodic_opt import critical_decomposition, max_plus_gauge
from gibbsline.limits import ZT_TS_DEFAULT
from gibbsline.rpf_finite import (
    _CsrLogOperator,
    _DenseLogOperator,
    _log_operator,
    cylinder_mass,
    equilibrium_measure,
    perron,
    pressure,
    transfer_matrix,
)
from gibbsline.shift_model import build_truncation

NEG_INF = -np.inf
SRC = Path(__file__).resolve().parent.parent / "src"


def reference_log_matvec(logA: np.ndarray, logv: np.ndarray, chunk: int = 1024) -> np.ndarray:
    n = logA.shape[0]
    out = np.empty(n, dtype=np.float64)
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        with np.errstate(invalid="ignore"):
            out[lo:hi] = logsumexp(logA[lo:hi] + logv[None, :], axis=1)
    return out


class ReferenceOperator:
    def __init__(self, logA):
        self.logA = logA
        self.n = logA.shape[0]

    def __call__(self, logv):
        return reference_log_matvec(self.logA, logv)


def assert_close_to_reference(got: np.ndarray, ref: np.ndarray) -> None:
    assert np.array_equal(np.isneginf(got), np.isneginf(ref))
    finite = np.isfinite(ref)
    assert np.all(np.isfinite(got[finite]))
    # a different summation order moves the log by a few ulp of the row maximum
    assert np.all(np.abs(got[finite] - ref[finite]) <= 1e-14 * np.maximum(1.0, np.abs(ref[finite])))


@st.composite
def supports_and_vectors(draw):
    n = draw(st.integers(min_value=1, max_value=40))
    density = draw(st.sampled_from((0.05, 0.3, 0.7, 1.0)))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    spread = draw(st.sampled_from((1.0, 1e3)))
    finite = rng.random((n, n)) < density
    finite[np.arange(n), (np.arange(n) + 1) % n] = True  # no empty row
    logA = np.where(finite, rng.uniform(-spread, spread, (n, n)), NEG_INF)
    # ties between the largest terms of a row exercise the counted maxima
    if draw(st.booleans()):
        logA = np.where(finite, np.round(logA / spread * 3.0), NEG_INF)
    logv = rng.uniform(-spread, spread, n)
    logv[rng.random(n) < draw(st.sampled_from((0.0, 0.3, 0.9)))] = NEG_INF
    transpose = draw(st.booleans())
    return (logA.T if transpose else logA), logv


@settings(max_examples=150, deadline=None)
@given(supports_and_vectors())
def test_kernels_match_scipy_reference(case):
    logA, logv = case
    ref = reference_log_matvec(logA, logv)
    assert_close_to_reference(_CsrLogOperator(logA, np.isfinite(logA))(logv), ref)
    # the dense kernel reduces each row exactly as scipy does
    assert np.array_equal(_DenseLogOperator(logA)(logv), ref)


def test_dense_kernel_blocks_rows():
    rng = np.random.default_rng(5)
    n = 1100  # more than one block of 2^20 cells
    logA = rng.uniform(-50.0, 50.0, (n, n))
    logv = rng.uniform(-50.0, 50.0, n)
    for M in (logA, logA.T):
        op = _DenseLogOperator(M)
        assert op.block < n
        assert np.array_equal(op(logv), reference_log_matvec(M, logv))


def test_kernel_follows_the_support(renewal_weighted, tie_two_loops):
    for (model, f), kind in ((renewal_weighted, _CsrLogOperator), (tie_two_loops, _DenseLogOperator)):
        logB = transfer_matrix(build_truncation(model, 63), f, 2.0)
        assert isinstance(_log_operator(logB), kind)
        assert isinstance(_log_operator(logB.T), kind)
    # an empty row goes to the dense kernel, which returns -inf there
    logA = np.full((4, 4), NEG_INF)
    logA[0, 1] = logA[1, 2] = logA[2, 0] = 0.0
    op = _log_operator(logA)
    assert isinstance(op, _DenseLogOperator)
    assert op(np.zeros(4))[3] == NEG_INF


@pytest.mark.parametrize("name", ["log_quadratic", "tie_two_loops", "renewal_weighted"])
def test_log_lambda_matches_scipy_reference_on_bundled_models(name, monkeypatch):
    """The solves the zero-temperature sweeps make, against the same solves
    run on the scipy kernel and scipy's reductions, to 1e-12."""
    model, f = bundled_pair(name)
    for n in (7, 127, 511):
        tr = build_truncation(model, n - 1)
        assert tr.n_symbols == n
        gauge = max_plus_gauge(tr, f, critical_decomposition(tr, f))
        for t in ZT_TS_DEFAULT:
            logB = transfer_matrix(tr, f, t)
            new = perron(logB, period=tr.period, gauge=gauge.scaled(t))
            with monkeypatch.context() as m:
                m.setattr(rpf_finite, "_log_operator", ReferenceOperator)
                m.setattr(rpf_finite, "_logsumexp", lambda a, axis=None, out=None: logsumexp(a, axis=axis))
                ref = perron(logB, period=tr.period, gauge=gauge.scaled(t))
            assert abs(new.log_lambda - ref.log_lambda) <= 1e-12, (n, t)


def test_renewal_pressure_at_511_symbols_solves_the_first_return_equation(renewal_weighted):
    """Every loop of the renewal truncation returns through 0: the loop of
    length L weighs t (-L - L (L - 1) / 2), and P is the root of
    sum_{L <= n} exp(t w_L - L P) = 1."""
    model, f = renewal_weighted
    n, t = 511, 2.0
    tr = build_truncation(model, n - 1)
    assert tr.n_symbols == n
    L = np.arange(1, n + 1, dtype=np.float64)
    loops = t * (-L - L * (L - 1) / 2)
    root = brentq(lambda p: logsumexp(loops - L * p), -10.0, 10.0, xtol=1e-15, rtol=1e-15)
    assert pressure(tr, f, t) == pytest.approx(root, abs=1e-12)


def count_applications(monkeypatch):
    """Wrap every operator perron builds; returns the running list of call counts."""
    counts = []

    def counting(logA):
        op = _log_operator(logA)
        slot = len(counts)
        counts.append(0)

        def apply(logv):
            counts[slot] += 1
            return op(logv)

        apply.n = op.n
        return apply

    monkeypatch.setattr(rpf_finite, "_log_operator", counting)
    return counts


class TestApplicationsPerIteration:
    """On period-1 supports the residual of each iterate is read from the
    application that computes the next one: a run of the iteration applies
    its operator iterations + 1 times, one application per side beyond the
    reported steps, instead of one more per residual check."""

    def test_plain_solve(self, monkeypatch, renewal_weighted):
        model, f = renewal_weighted
        tr = build_truncation(model, 255)
        counts = count_applications(monkeypatch)
        pd = perron(transfer_matrix(tr, f, 2.0), period=tr.period)
        assert pd.path == "plain"
        assert len(counts) == 2
        assert sum(counts) == pd.iterations + 2

    def test_gauged_sweep(self, monkeypatch, tie_two_loops):
        model, f = tie_two_loops
        tr = build_truncation(model, 11)
        gauge = max_plus_gauge(tr, f, critical_decomposition(tr, f))
        counts = count_applications(monkeypatch)
        for t in ZT_TS_DEFAULT:
            before = len(counts), sum(counts)
            pd = perron(transfer_matrix(tr, f, t), period=tr.period, gauge=gauge.scaled(t))
            assert len(counts) - before[0] == 2
            assert sum(counts) - before[1] == pd.iterations + 2, t

    def test_fallback_and_best_iterate(self, monkeypatch):
        # plain, then shifted, on both sides; each run ends at its budget
        logB = np.log(np.array([[1.0, 0.1], [0.1, 0.9]]))
        counts = count_applications(monkeypatch)
        pd = perron(logB, max_iter=96)
        assert pd.path == "best-iterate"
        assert sum(counts) == pd.iterations + 4

    def test_period_two_pays_for_its_window_checks(self, monkeypatch):
        logB = np.array([[NEG_INF, -0.7], [-2.3, NEG_INF]])
        counts = count_applications(monkeypatch)
        pd = perron(logB, period=2)
        assert pd.path == "period-averaged"
        assert sum(counts) > pd.iterations


def test_log_cylinder_mass_reads_the_word_only(renewal_weighted):
    model, f = renewal_weighted
    tr = build_truncation(model, 63)
    _, meas = equilibrium_measure(tr, f, 2.0)
    with np.errstate(divide="ignore"):
        logP, logpi = np.log(meas.stochastic), np.log(meas.stationary)
    for word in ((0,), (0, 5, 4, 3), (0, 0, 1, 0), (7, 6, 5, 4, 3, 2, 1, 0, 63), (3, 3)):
        total = logpi[word[0]]
        for a, b in zip(word, word[1:]):
            total += logP[a, b]
        expected = math.exp(total) if total > -math.inf else 0.0
        assert cylinder_mass(meas, word) == expected, word


def test_cli_import_loads_no_scipy():
    code = "import sys, gibbsline.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
