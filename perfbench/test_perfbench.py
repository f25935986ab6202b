"""Tests of the benchmark's own parts.

Tracing, the custom-model generator, the workloads, the speed sampler and the checker.

Run from the root of a checkout: PYTHONPATH=src python -m pytest perfbench
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import numpy as np
import pytest

from gibbsline import cli, limits, rpf_finite
from gibbsline.config import parse_model_config
from gibbsline.shift_model import build_truncation, is_irreducible

import checker
import oracles
import speed
import workloads
from gen_custom import generate, relabel
from tracer import Tracer, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
REFERENCES = json.loads((Path(__file__).parent / "references.json").read_text(encoding="utf-8"))


def test_traced_diagnose_reaches_from_imported_bindings(tmp_path):
    tracer = Tracer()
    with tracer.installed():
        tracer.invocation = "diagnose"
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.run_command(["diagnose", "--config", str(ROOT / "configs/renewal_weighted.cfg"), "--out", str(tmp_path)])
    assert code == 0
    m = layer_metrics(tracer.spans)
    # perron is called through rpf_finite and ergodic_opt, the solves through limits
    assert m["rpf_finite.perron.calls"] == 81
    assert m["limits.solve_requests"] == 60
    assert m["limits.distinct_kt"] == 36
    assert not hasattr(limits.equilibrium_measure, "__wrapped__")
    assert limits.equilibrium_measure is rpf_finite.equilibrium_measure


def _check_model(model, n):
    cfg = parse_model_config(model.config_text())
    assert len(cfg.potential.table) == len(model.edges)
    adj = np.isfinite(model.weight_matrix())
    assert not adj.diagonal().any()
    assert is_irreducible(adj)
    if n == workloads.CUSTOM_SMALL_N:
        assert build_truncation(cfg.model, n - 1).n_symbols == n


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("n, planted", [(workloads.CUSTOM_SMALL_N, True), (workloads.CUSTOM_LARGE_N, False)])
def test_generated_custom_models(seed, n, planted):
    model = generate(seed, n, planted)
    assert model.config_text() == generate(seed, n, planted).config_text()
    assert model.config_text() != generate(seed + 1, n, planted).config_text()
    _check_model(model, n)


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("n, planted", [(workloads.CUSTOM_SMALL_N, True), (workloads.CUSTOM_LARGE_N, False)])
def test_relabelled_custom_models(seed, n, planted):
    base = generate(0, n, planted)
    model = relabel(base, seed)
    assert model.config_text() == relabel(base, seed).config_text()
    assert model.config_text() != relabel(base, seed + 1).config_text()
    assert sorted(model.weights) == sorted(base.weights)
    _check_model(model, n)


def test_workloads_are_seeded(tmp_path):
    def build(name, seed):
        config_dir = tmp_path / str(len(list(tmp_path.iterdir())))
        config_dir.mkdir()
        wl = workloads.build(name, seed, ROOT, config_dir, REFERENCES)
        configs = {p.name: p.read_bytes() for p in config_dir.iterdir()}
        return [inv.key for inv in wl.invocations], configs

    for name in ("configs_small", "large"):
        keys, configs = build(name, 5)
        assert build(name, 5)[0] == keys
        assert build(name, 5)[1] == configs
        assert sorted(build(name, 6)[0]) == sorted(keys)
    assert build("large", 7)[1] != configs


def test_speed_factor_takes_the_samples_around_an_interval():
    sampler = speed.Sampler()
    sampler.at = [1.0, 2.0, 3.0, 10.0]
    sampler.cost = [2e-4, 2e-4, 5e-4, 8e-4]
    ref = speed.REF_KERNEL_S
    assert sampler.factor(1.2, 2.6) == pytest.approx(ref / 3e-4)  # padded by PAD_S to 0.7 .. 3.1
    assert sampler.factor(10.0, 10.0) == pytest.approx(ref / 8e-4)
    assert sampler.factor(20.0, 21.0) == pytest.approx(ref / 4.25e-4)  # no sample: the whole run
    assert sampler.factor() == pytest.approx(ref / 4.25e-4)


def test_sampler_samples_while_the_process_computes():
    sampler = speed.Sampler()
    sampler.start()
    try:
        x = 0
        for i in range(3_000_000):
            x += i % 7
    finally:
        sampler.stop()
    assert len(sampler.cost) > 5
    assert all(c > 0 for c in sampler.cost)
    assert sampler.at == sorted(sampler.at)


def test_renewal_oracle_matches_recorded_pressure():
    ref = REFERENCES["renewal_weighted pressure --k 255 --t 2"]["files"]["pressure.csv"]
    value = checker.csv_rows(ref)[("255", "2", "pressure")][0]
    assert checker.close(value, oracles.renewal_pressure(256, 2.0))
    assert abs(float(value) - oracles.renewal_pressure(256, 2.0)) < 1e-14


def test_checker_counts_lost_and_wrong_points():
    inv = workloads._shipped_invocation(ROOT, "renewal_weighted", ("zerotemp", "--k", "127"), REFERENCES)
    ref = REFERENCES[inv.key]
    files = dict(ref["files"])
    assert checker.check(inv, 0, files, {}, ref).failed == 0
    assert checker.check(inv, 3, files, {}, ref).failed == len(inv.points)

    rows = files["trajectories.csv"].splitlines()
    lost = [r for r in rows if ",1024," not in r]
    result = checker.check(inv, 0, {**files, "trajectories.csv": "\n".join(lost) + "\n"}, {}, ref)
    assert (result.failed, result.wrong) == (1, 0)

    # the gap of mass[0] at t = 16 is 3.35e-4: a relative change of 1e-6 is
    # wrong, a drift of 5e-13 (within the solver gates' 1e-12) is not
    i = next(i for i, r in enumerate(rows) if r.startswith("127,16,mass[0],"))
    k, t, quantity, value, gap, flag = rows[i].split(",")
    for new_gap, wrong in ((float(gap) * (1 + 1e-6), 1), (float(gap) + 5e-13, 0)):
        changed = ",".join([k, t, quantity, value, repr(new_gap), flag])
        text = "\n".join(rows[:i] + [changed] + rows[i + 1 :]) + "\n"
        result = checker.check(inv, 0, {**files, "trajectories.csv": text}, {}, ref)
        assert (result.failed, result.wrong) == (wrong, wrong)


def test_close_is_relative_down_to_the_drift_floor():
    for x in (0.5, 3e-4, 2e-6):
        assert not checker.close(x, x * (1 + 1e-6))
        assert checker.close(x, x * (1 + 1e-10))
    assert checker.close(0.0, 5e-13)
    assert not checker.close(0.0, 5e-12)
    assert checker.close(1e3, 1e3 * (1 + 5e-10))
