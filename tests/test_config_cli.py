import json
import math

import numpy as np
import pytest

from gibbsline.cli import _json_dumps, mu_infty_jsonable, run_command, sweep_csv, sweep_jsonable
from gibbsline.config import parse_model_config, str_to_word, word_to_str
from gibbsline.errors import ParseError
from gibbsline.limits import GridPoint, SweepResult, pressure_sweep, zero_temp_sweep
from gibbsline.bundled import bundled_pair

MINIMAL = """
[model]
kind = full

[potential]
family = log_quadratic

[sweep]
ks = 1,2,3
ts = 2,8
words = 0,00
"""

TIE = """
[model]
kind = full

[potential]
family = tie_two_loops

[sweep]
ks = 1,2,3,4
ts = 2,4
words = 0,1
"""

BAD = """
[model]
kind = renewal

[potential]
family = table
table = 0 0 0.0, 0 1 0.0, 1 0 0.0, 2 1 0.0, 3 2 0.0
tail_type = geometric
tail_a = 0.0
tail_b = 0.0
"""

FINITE = """
[model]
kind = custom
edges = 0 1, 1 0, 1 2, 2 0
tail_rule = none

[potential]
family = table
table = 0 1 -0.3, 1 0 -0.1, 1 2 -0.2, 2 0 -0.05
"""

HUGE_WEIGHTS = """
[model]
kind = custom
edges = 0 1, 1 0, 1 2, 2 0
tail_rule = none

[potential]
family = table
table = 0 1 1000000000000.3, 1 0 999999999999.9, 1 2 1000000000000.1, 2 0 999999999999.95
"""

TAIL_TABLE = """
[model]
kind = renewal

[potential]
family = table
table = 0 0 -1.0, 0 1 -2.0, 1 0 -2.0
tail_type = {tail}

[sweep]
ks = 1
ts = 2,4
"""


class TestConfigParsing:
    def test_minimal_parses_with_defaults(self):
        cfg = parse_model_config(MINIMAL)
        assert cfg.sweep.ks == (1, 2, 3)
        assert cfg.sweep.ts == (2.0, 8.0)
        assert cfg.sweep.words == ((0,), (0, 0))
        assert cfg.sweep.tol == 1e-6
        assert cfg.output.directory == "runs"
        assert not cfg.per_truncation_only

    def test_canonical_emission_is_fixed_point(self):
        cfg = parse_model_config(MINIMAL)
        text = cfg.canonical_text()
        cfg2 = parse_model_config(text)
        assert cfg2.canonical_text() == text
        assert cfg2.config_hash() == cfg.config_hash()

    def test_unknown_key_rejected_with_line(self):
        bad = "[model]\nkind = full\nwibble = 3\n"
        with pytest.raises(ParseError) as err:
            parse_model_config(bad)
        assert err.value.line == 3

    def test_unknown_section_rejected(self):
        with pytest.raises(ParseError):
            parse_model_config("[models]\nkind = full\n")

    def test_missing_custom_edges(self):
        with pytest.raises(ParseError):
            parse_model_config("[model]\nkind = custom\n")

    def test_edges_on_builtin_rejected(self):
        with pytest.raises(ParseError):
            parse_model_config("[model]\nkind = full\nedges = 0 1\n")

    def test_low_t_rejected(self):
        with pytest.raises(ParseError):
            parse_model_config(MINIMAL.replace("ts = 2,8", "ts = 1,2"))

    def test_table_without_tail_is_per_truncation_only(self):
        text = """
[model]
kind = full

[potential]
family = table
table = 0 0 -1.0, 0 1 -1.0, 1 0 -1.0, 1 1 -1.0
"""
        cfg = parse_model_config(text)
        assert cfg.per_truncation_only

    def test_custom_model_round_trip(self):
        text = """
[model]
kind = custom
edges = 0 1, 1 0
tail_rule = none

[potential]
family = table
table = 0 1 -1.0, 1 0 -2.0
"""
        cfg = parse_model_config(text)
        assert cfg.canonical_text() == parse_model_config(cfg.canonical_text()).canonical_text()

    @pytest.mark.parametrize(
        "old,new",
        [
            ("ts = 2,8", "ts = 2,inf"),
            ("words = 0,00", "zt_ts = 2,nan"),
            ("words = 0,00", "tol = nan"),
            ("words = 0,00", "tie_tol = -inf"),
        ],
    )
    def test_non_finite_numbers_rejected(self, old, new):
        with pytest.raises(ParseError, match="finite"):
            parse_model_config(MINIMAL.replace(old, new))

    def test_non_finite_table_value_rejected(self):
        with pytest.raises(ParseError, match="finite"):
            parse_model_config(BAD.replace("0 0 0.0", "0 0 inf"))

    def test_words_syntax(self):
        assert str_to_word("010") == (0, 1, 0)
        assert str_to_word("10-2-0") == (10, 2, 0)
        assert word_to_str((0, 1, 0)) == "010"
        assert word_to_str((10, 2)) == "10-2"


class TestEmit:
    def test_empty_sweep_header_only(self):
        empty = SweepResult(grid=(), reference={"s_ref": 0.0, "witness_cycle": (0,), "certificate": None}, diagnostics={"monotone_in_k": {}, "p_estimate": {}, "certified_summable": True})
        assert sweep_csv(empty) == "k,t,quantity,value,gap,flag\n"

    def test_single_quantity_single_row(self):
        point = GridPoint(k=3, t=2.0, n_symbols=4, pressure=-1.25, entropy=math.nan, integral=math.nan, masses={}, wall_time=0.1)
        res = SweepResult(grid=(point,), reference={"s_ref": 0.0, "witness_cycle": (0,), "certificate": None}, diagnostics={"monotone_in_k": {}, "p_estimate": {}, "certified_summable": True})
        lines = sweep_csv(res).strip().split("\n")
        assert len(lines) == 2
        assert lines[1] == "3,2,pressure,-1.25,,"

    def test_sweep_json_round_trip(self, log_quadratic):
        model, f = log_quadratic
        res = pressure_sweep(model, f, ks=(1, 2, 3), ts=(2.0,), words=((0,),))
        back = json.loads(_json_dumps(sweep_jsonable(res)))
        assert len(back["grid"]) == len(res.grid)
        for a, b in zip(res.grid, back["grid"]):
            assert a.k == b["k"] and a.t == b["t"]
            assert a.pressure == b["pressure"]  # exact float round trip
            assert a.entropy == b["entropy"]
            assert a.masses == {str_to_word(w): v for w, v in b["masses"].items()}
        assert back["reference"]["s_ref"] == res.reference["s_ref"]
        assert back["diagnostics"]["certified_summable"] == res.diagnostics["certified_summable"]

    def test_mu_infty_round_trip(self, tie_two_loops):
        model, f = tie_two_loops
        res = zero_temp_sweep(model, f, k=2, words=((0,),))
        est = res.estimate
        back = json.loads(_json_dumps(mu_infty_jsonable(est)))
        assert back["weights"] == list(est.weights)
        assert back["residual"] == est.residual
        assert [tuple(c["symbols"]) for c in back["components"]] == list(est.component_symbols)
        for a, b in zip(est.components, back["components"]):
            assert np.array_equal(a.stationary, b["stationary"])
            assert np.array_equal(a.stochastic, b["stochastic"])

    def test_csv_fifteen_digits(self, log_quadratic):
        model, f = log_quadratic
        res = pressure_sweep(model, f, ks=(4,), ts=(2.0,))
        text = sweep_csv(res)
        row = [l for l in text.splitlines() if l.startswith("4,2,pressure")][0]
        value = row.split(",")[3]
        assert value == format(res.grid[0].pressure, ".15g")
        assert "," in text and "." in value


def write_cfg(tmp_path, text, name="m.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


class TestRunCommand:
    def test_pressure_single_point(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, MINIMAL)
        code = run_command(["pressure", "--config", cfg, "--out", str(tmp_path / "runs"), "--k", "8", "--t", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "pressure k=8" in out
        runs = list((tmp_path / "runs").iterdir())
        assert len(runs) == 1
        csv_text = (runs[0] / "pressure.csv").read_text()
        lines = csv_text.strip().split("\n")
        assert lines[0] == "k,t,quantity,value,gap,flag"
        assert len(lines) == 2

    def test_pressure_sweep_deterministic(self, tmp_path):
        cfg = write_cfg(tmp_path, MINIMAL)
        assert run_command(["pressure", "--config", cfg, "--out", str(tmp_path / "r1")]) == 0
        assert run_command(["pressure", "--config", cfg, "--out", str(tmp_path / "r2")]) == 0
        f1 = next((tmp_path / "r1").iterdir())
        f2 = next((tmp_path / "r2").iterdir())
        assert (f1 / "pressure.csv").read_bytes() == (f2 / "pressure.csv").read_bytes()
        assert (f1 / "pressure.json").read_bytes() == (f2 / "pressure.json").read_bytes()

    def test_certify_good(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, MINIMAL)
        code = run_command(["certify-summability", "--config", cfg, "--out", str(tmp_path / "runs")])
        assert code == 0
        assert "summable" in capsys.readouterr().out

    def test_certify_bad_exits_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, BAD, "bad.cfg")
        code = run_command(["certify-summability", "--config", cfg, "--out", str(tmp_path / "runs")])
        assert code == 2
        assert "diverges" in capsys.readouterr().err
        payload = json.loads((next((tmp_path / "runs").iterdir()) / "summability.json").read_text())
        assert payload["summability"]["converges"] is False

    @pytest.mark.parametrize(
        "tail, summable, weighted",
        [
            ("geometric\ntail_a = 800\ntail_b = 1", False, True),  # exp(a - b i) overflows
            ("geometric\ntail_b = 1e-300", False, False),  # 1 - exp(-b) rounds to 0
            ("geometric\ntail_b = 1e-12", True, False),  # x e^-x regime from about 5e11 on
            ("polynomial\ntail_a = 800\ntail_p = 2", False, True),  # exp(a) overflows
        ],
        ids=["geometric-a800", "geometric-b1e-300", "geometric-b1e-12", "polynomial-a800"],
    )
    def test_tail_closed_form_out_of_float_range(self, tmp_path, capsys, tail, summable, weighted):
        cfg = write_cfg(tmp_path, TAIL_TABLE.format(tail=tail))
        code = run_command(["certify-summability", "--config", cfg, "--out", str(tmp_path / "cert")])
        assert code == (0 if summable else 2)
        payload = json.loads((next((tmp_path / "cert").iterdir()) / "summability.json").read_text())
        assert payload["summability"]["converges"] is summable
        assert payload["summability_t"]["converges"] is weighted
        if not summable:
            assert payload["summability"]["tail_bound"] == math.inf
        if not weighted:
            assert payload["summability_t"]["terms_used"] == 0
        capsys.readouterr()
        assert run_command(["pressure", "--config", cfg, "--out", str(tmp_path / "pressure")]) == 0
        assert ("per-truncation only" in capsys.readouterr().out) is not summable

    def test_weighted_tail_at_large_t_is_certified(self, tmp_path):
        # exp(t a) alone overflows at these t, and on the polynomial tail
        # (log_quadratic) c^(1 - t p) underflows; each weighted closed form
        # takes the head of its tail in one exponent, and the tail is tiny
        for name, text, t in (("tie", TIE, "1000"), ("log_quadratic", MINIMAL, "1024")):
            cfg = write_cfg(tmp_path, text, f"{name}.cfg")
            out = tmp_path / name
            assert run_command(["certify-summability", "--config", cfg, "--out", str(out), "--t", t]) == 0
            payload = json.loads((next(out.iterdir()) / "summability.json").read_text())
            assert payload["summability"]["converges"] is True
            assert payload["summability_t"]["converges"] is True
            assert payload["summability_t"]["tol_met"] is True
            assert 0.0 <= payload["summability_t"]["tail_bound"] < math.inf

    @pytest.mark.parametrize("argv", [["zerotemp"], ["zerotemp", "--k", "1"], ["entropy-limit"]])
    def test_finite_model_that_runs_out_of_truncations(self, tmp_path, argv):
        # k = 0 has the loop at 0; k = 1, the whole shift, the 2-cycle; k = 2
        # cannot be built, so k0 = 1 and the default k (k0 + 1) is capped at 1
        text = (
            "[model]\nkind = custom\nedges = 0 0, 0 1, 1 0, 1 1\ntail_rule = none\n"
            "[potential]\nfamily = table\ntable = 0 0 -2.0, 0 1 -1.0, 1 0 -1.0, 1 1 -3.0\n"
        )
        cfg = write_cfg(tmp_path, text)
        assert run_command(argv + ["--config", cfg, "--out", str(tmp_path / "runs")]) == 0
        run_dir = next((tmp_path / "runs").iterdir())
        if argv[0] == "zerotemp":
            payload = json.loads((run_dir / "mu_infty.json").read_text())
            assert (payload["k0"], payload["k"], payload["weights"]) == (1, 1, [1.0])
            assert [c["symbols"] for c in payload["components"]] == [[0, 1]]
        else:
            payload = json.loads((run_dir / "entropy_limit.json").read_text())
            assert payload["h_infinity"] == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("command", ["pressure", "equilibrium", "diagnose"])
    def test_default_ks_of_a_finite_model_are_capped_at_its_last_truncation(self, tmp_path, capsys, command):
        # the symbols are 0, 1, 2: k = 2 is the whole shift and k = 3 has no
        # truncation, so the default ks 1..6 run as 1, 2
        cfg = write_cfg(tmp_path, FINITE)
        assert run_command([command, "--config", cfg, "--out", str(tmp_path / "runs")]) == 0
        out = capsys.readouterr().out
        run_dir = next((tmp_path / "runs").iterdir())
        if command == "pressure":
            rows = (run_dir / "pressure.csv").read_text().splitlines()[1:]
            assert [int(r.split(",")[0]) for r in rows] == sorted(int(r.split(",")[0]) for r in rows)
            assert {int(r.split(",")[0]) for r in rows} == {1, 2}
            estimate = json.loads((run_dir / "pressure.json").read_text())["diagnostics"]["p_estimate"]
            assert estimate and all(e["k"] == 2 and e["cauchy_gap"] > 0.0 for e in estimate.values())
            assert "exact: k=2 is the whole shift of the finite model" in out
        elif command == "equilibrium":
            payload = json.loads((run_dir / "equilibrium.json").read_text())
            assert payload["ks"] == [1, 2] and payload["converged"] and payload["final_gap"] > 0.0
            rows = (run_dir / "equilibrium.csv").read_text().splitlines()[1:]
            assert {r.split(",")[-1] for r in rows if r.startswith("2,")} == {"exact"}
            assert {r.split(",")[-1] for r in rows if r.startswith("1,")} == {""}
            assert "exact: k=2 is the whole shift of the finite model" in out
        else:
            report = json.loads((run_dir / "diagnostics.json").read_text())
            assert report["solver_errors"] == [] and report["k0"]["value"] == 2
        if command != "diagnose":  # an explicit k past the last truncation is not capped
            assert run_command([command, "--config", cfg, "--out", str(tmp_path / "explicit"), "--k", "3"]) == 2
            assert "prefix alphabet {0..3} has no irreducible finite augmentation" in capsys.readouterr().err

    def test_a_reused_parser_carries_nothing_between_invocations(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, TIE)
        invocations = [
            ["zerotemp", "--config", cfg],  # no --k: after the one below, k must still default
            ["zerotemp", "--config", cfg, "--k", "3", "--format", "json"],
            ["pressure", "--config", cfg, "--k", "x"],  # argparse rejects it
            ["equilibrium", "--config", cfg, "--tol", "-1"],
        ]

        def run(i, argv):
            out = tmp_path / f"run{i}"
            try:
                code = run_command(argv + ["--out", str(out)])
            except SystemExit as exc:
                code = exc.code
            std = capsys.readouterr()
            files = {}
            for run_dir in out.iterdir() if out.exists() else ():
                files.update({p.name: p.read_bytes() for p in run_dir.iterdir() if p.name != "manifest.json"})
            return code, files, std.err, std.out.rsplit("run directory:", 1)[0]

        first = [run(i, argv) for i, argv in enumerate(invocations)]
        second = [run(i + len(invocations), argv) for i, argv in enumerate(invocations)]
        assert [r[0] for r in first] == [0, 0, 2, 2]
        assert second == first

    def test_pressure_exits_3_when_the_solve_stalls(self, tmp_path, capsys):
        # two tied critical loops: at t = 8 both runs spend their budgets
        text = (
            "[model]\nkind = custom\nedges = 0 0, 0 1, 1 1, 1 2, 2 0\ntail_rule = none\n"
            "[potential]\nfamily = table\ntable = 0 0 0.0, 0 1 0.0, 1 1 0.0, 1 2 0.0, 2 0 -1.4375\n"
        )
        cfg = write_cfg(tmp_path, text)
        assert run_command(["pressure", "--config", cfg, "--out", str(tmp_path / "runs"), "--k", "2", "--t", "8"]) == 3
        assert "no convergence" in capsys.readouterr().err
        assert run_command(["pressure", "--config", cfg, "--out", str(tmp_path / "runs"), "--k", "2", "--t", "4"]) == 0

    @pytest.mark.parametrize("command", ["zerotemp", "entropy-limit"])
    def test_empty_critical_graph_exits_3(self, tmp_path, capsys, command):
        # at weights near 1e12 the subaction's rounding, about 1e-4, is above
        # the widest tie tolerance of the ladder (1e-6): no tight cycle is left
        cfg = write_cfg(tmp_path, HUGE_WEIGHTS)
        assert run_command([command, "--config", cfg, "--out", str(tmp_path / "runs")]) == 3
        assert "solver failure: no tight cycle within tie_tol=1e-06" in capsys.readouterr().err.splitlines()
        manifest = json.loads((next((tmp_path / "runs").iterdir()) / "manifest.json").read_text())
        assert manifest["commands"][0]["status"] == "solver-error"

    def test_diagnose_reports_an_empty_critical_graph_under_k0(self, tmp_path):
        cfg = write_cfg(tmp_path, HUGE_WEIGHTS + "\n[sweep]\nks = 1, 2\nts = 2\n")
        assert run_command(["diagnose", "--config", cfg, "--out", str(tmp_path / "runs")]) == 0
        report = json.loads((next((tmp_path / "runs").iterdir()) / "diagnostics.json").read_text())
        assert report["k0"] == {"error": "no tight cycle within tie_tol=1e-06"}

    def test_zerotemp_outputs(self, tmp_path):
        cfg = write_cfg(tmp_path, TIE, "tie.cfg")
        code = run_command(["zerotemp", "--config", cfg, "--out", str(tmp_path / "runs")])
        assert code == 0
        run_dir = next((tmp_path / "runs").iterdir())
        assert (run_dir / "trajectories.csv").exists()
        payload = json.loads((run_dir / "mu_infty.json").read_text())
        assert payload["weights"] == [pytest.approx(1.0, abs=1e-6)]
        assert payload["k0"] == 1
        comp = payload["components"][0]
        assert comp["symbols"] == [0, 1]
        assert comp["stationary"] == [pytest.approx(0.5, abs=1e-9)] * 2

    def test_zerotemp_reports_each_lost_point_on_stderr(self, tmp_path, capsys, monkeypatch):
        import gibbsline.limits as limits_mod
        from gibbsline.errors import NoConvergence

        cfg = write_cfg(tmp_path, TIE, "tie.cfg")
        assert run_command(["zerotemp", "--config", cfg, "--out", str(tmp_path / "clean")]) == 0
        assert capsys.readouterr().err == ""
        real = limits_mod.equilibrium_measure

        def flaky(trunc, pot, t, **kw):
            if t in (512.0, 1024.0):
                raise NoConvergence(3000, 1e-3)
            return real(trunc, pot, t, **kw)

        monkeypatch.setattr(limits_mod, "equilibrium_measure", flaky)
        code = run_command(["zerotemp", "--config", cfg, "--out", str(tmp_path / "lossy")])
        assert code == 0
        assert capsys.readouterr().err.splitlines() == [
            f"solver failure at t={t}: no convergence after 3000 iterations (residual 1.000e-03)" for t in (512, 1024)
        ]
        clean = (next((tmp_path / "clean").iterdir()) / "trajectories.csv").read_text().splitlines()
        lossy = (next((tmp_path / "lossy").iterdir()) / "trajectories.csv").read_text().splitlines()
        assert lossy == [row for row in clean if row.split(",")[1] not in ("512", "1024")]

    def test_entropy_limit_outputs(self, tmp_path):
        cfg = write_cfg(tmp_path, TIE, "tie.cfg")
        code = run_command(["entropy-limit", "--config", cfg, "--out", str(tmp_path / "runs")])
        assert code == 0
        run_dir = next((tmp_path / "runs").iterdir())
        payload = json.loads((run_dir / "entropy_limit.json").read_text())
        assert payload["h_infinity"] == pytest.approx(math.log(2), abs=1e-3)
        assert payload["sup_over_maximizing"] == pytest.approx(math.log(2), abs=1e-12)

    def test_equilibrium_not_converged_exit_3(self, tmp_path, capsys):
        text = """
[model]
kind = full

[potential]
family = table
table = {}
tail_type = geometric
tail_a = 0.0
tail_b = 0.0

[sweep]
ks = 1,2,3,4,5
ts = 2
words = 0
""".format(", ".join(f"{i} {j} 0.0" for i in range(8) for j in range(8)))
        cfg = write_cfg(tmp_path, text, "flat.cfg")
        code = run_command(["equilibrium", "--config", cfg, "--out", str(tmp_path / "runs")])
        assert code == 3
        assert "not converged" in capsys.readouterr().err

    def test_equilibrium_happy_path(self, tmp_path):
        cfg = write_cfg(tmp_path, MINIMAL.replace("ks = 1,2,3", "ks = 16,32,64,128"))
        code = run_command(
            ["equilibrium", "--config", cfg, "--out", str(tmp_path / "runs"), "--t", "2", "--tol", "1e-4"]
        )
        assert code == 0
        run_dir = next((tmp_path / "runs").iterdir())
        payload = json.loads((run_dir / "equilibrium.json").read_text())
        assert payload["converged"] is True
        assert 0.85 < payload["limits"]["0"] < 0.88

    @pytest.mark.parametrize("family", ["log_quadratic", "tie_two_loops"])
    def test_equilibrium_past_the_dense_limit_fails_before_solving(self, tmp_path, capsys, monkeypatch, family):
        import gibbsline.limits as limits_mod

        real = limits_mod.equilibrium_measure
        calls = []

        def counting(*args, **kw):
            calls.append(args)
            return real(*args, **kw)

        monkeypatch.setattr(limits_mod, "equilibrium_measure", counting)
        cfg = write_cfg(tmp_path, MINIMAL.replace("log_quadratic", family))
        code = run_command(["equilibrium", "--config", cfg, "--out", str(tmp_path / "runs"), "--k", "5000"])
        assert code == 2
        assert "limit 4096" in capsys.readouterr().err
        assert calls == []

    def test_diagnose(self, tmp_path):
        cfg = write_cfg(tmp_path, TIE, "tie.cfg")
        code = run_command(["diagnose", "--config", cfg, "--out", str(tmp_path / "runs")])
        assert code == 0
        run_dir = next((tmp_path / "runs").iterdir())
        payload = json.loads((run_dir / "diagnostics.json").read_text())
        assert payload["max_variational_residual"] <= 1e-9
        assert all(payload["monotone_in_k"].values())
        assert payload["gurevich_decreasing"] is True
        assert payload["k0"]["value"] == 1
        assert all(v["violations"] == 0 for v in payload["tightness"].values())

    def test_diagnose_reads_the_budget(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, TIE + "budget = 10\n", "tie.cfg")
        assert run_command(["diagnose", "--config", cfg, "--out", str(tmp_path / "runs")]) == 2
        assert "cylinders exceed the budget 10" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["pressure", "--t", "nan"],
            ["pressure", "--t", "inf"],
            ["pressure", "--k", "3", "--t=-inf"],
            ["equilibrium", "--tol", "nan"],
        ],
    )
    def test_non_finite_option_exit_2(self, tmp_path, capsys, argv):
        cfg = write_cfg(tmp_path, MINIMAL)
        code = run_command([argv[0], "--config", cfg, "--out", str(tmp_path / "runs"), *argv[1:]])
        assert code == 2
        assert "finite" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["equilibrium", "--tol", "-1"],
            ["equilibrium", "--tol", "0"],
            ["certify-summability", "--tol", "-1"],
        ],
    )
    def test_non_positive_tol_option_exit_2(self, tmp_path, capsys, argv):
        cfg = write_cfg(tmp_path, MINIMAL)
        code = run_command([argv[0], "--config", cfg, "--out", str(tmp_path / "runs"), *argv[1:]])
        assert code == 2
        assert "--tol must be positive" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("line", ["tol = 0", "tol = -1e-9", "tie_tol = 0", "tie_tol = -1e-9", "k0_window = 0"])
    def test_sweep_setting_out_of_range_exit_2(self, tmp_path, capsys, line):
        cfg = write_cfg(tmp_path, TIE + line + "\n", "tie.cfg")
        assert run_command(["zerotemp", "--config", cfg, "--out", str(tmp_path / "runs")]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and line.split()[0] in err
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("key", ["ks", "ts", "zt_ts"])
    @pytest.mark.parametrize(
        "command", ["pressure", "equilibrium", "zerotemp", "entropy-limit", "certify-summability", "diagnose"]
    )
    def test_empty_sweep_list_exit_2(self, tmp_path, capsys, command, key):
        lines = [line for line in MINIMAL.splitlines() if not line.startswith(f"{key} =")] + [f"{key} = ,"]
        cfg = write_cfg(tmp_path, "\n".join(lines) + "\n")
        assert run_command([command, "--config", cfg, "--out", str(tmp_path / "runs")]) == 2
        err = capsys.readouterr().err
        assert f"line {len(lines)}: {key} must list at least one value" in err
        assert "Traceback" not in err
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("token", ["a", "0-x", "-1"])
    def test_malformed_words_option_exit_2(self, tmp_path, capsys, token):
        cfg = write_cfg(tmp_path, MINIMAL)
        assert run_command(["pressure", "--config", cfg, "--out", str(tmp_path / "runs"), "--words", f"0,{token}"]) == 2
        err = capsys.readouterr().err
        assert "validation error" in err and "--words" in err
        assert "Traceback" not in err

    def test_non_finite_config_exit_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, MINIMAL.replace("ts = 2,8", "ts = 2,inf"))
        assert run_command(["pressure", "--config", cfg, "--out", str(tmp_path / "runs")]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["edges", "table"])
    @pytest.mark.parametrize("symbol", [2**62, 2**63, 99999999999999999999])
    def test_oversized_symbol_exit_2(self, tmp_path, capsys, key, symbol):
        big = 2**62 - 1 if key == "table" else symbol  # the table's edge must exist
        text = (
            "[model]\nkind = custom\n"
            f"edges = 0 1, 1 {big}, {big} 0\n"
            "[potential]\nfamily = table\n"
            f"table = 0 1 -1.0, 1 {big} -1.0, {big} 0 -1.0, {symbol} 0 -1.0\n"
        )
        cfg = write_cfg(tmp_path, text)
        assert run_command(["pressure", "--config", cfg, "--out", str(tmp_path / "runs"), "--k", "1", "--t", "2"]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and f"{key}: symbol" in err
        assert not (tmp_path / "runs").exists()

    def test_largest_symbol_is_accepted(self, tmp_path):
        big = 2**62 - 1
        text = (
            "[model]\nkind = custom\n"
            f"edges = 0 1, 1 {big}, {big} 0\n"
            "[potential]\nfamily = table\n"
            f"table = 0 1 -1.0, 1 {big} -2.0, {big} 0 -3.0\n"
        )
        cfg = write_cfg(tmp_path, text)
        assert run_command(["pressure", "--config", cfg, "--out", str(tmp_path / "runs"), "--k", "1", "--t", "2"]) == 0
        run_dir = next((tmp_path / "runs").iterdir())
        assert json.loads((run_dir / "pressure.json").read_text())["pressure"] == pytest.approx(-4.0)

    def test_bad_config_exit_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "[model]\nkind = nosuch\n")
        assert run_command(["pressure", "--config", cfg, "--out", str(tmp_path / "runs")]) == 2
        assert "config error" in capsys.readouterr().err

    def test_env_output_override(self, tmp_path, monkeypatch):
        cfg = write_cfg(tmp_path, MINIMAL)
        monkeypatch.setenv("GIBBSLINE_OUT", str(tmp_path / "env_runs"))
        assert run_command(["pressure", "--config", cfg, "--k", "3", "--t", "2"]) == 0
        assert (tmp_path / "env_runs").is_dir()

    def test_json_format_restriction(self, tmp_path):
        cfg = write_cfg(tmp_path, MINIMAL)
        assert run_command(["pressure", "--config", cfg, "--out", str(tmp_path / "runs"), "--format", "json"]) == 0
        run_dir = next((tmp_path / "runs").iterdir())
        assert (run_dir / "pressure.json").exists()
        assert not (run_dir / "pressure.csv").exists()
