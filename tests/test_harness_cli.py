import json
import re
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import torusdpa.cli as cli
import torusdpa.harness as H
import torusdpa.pde_local as PL
import torusdpa.pde_nonlocal as PN
from torusdpa.cli import invariant_breaches, main as cli_main
from torusdpa.fields import GridField, save_gridfield
from torusdpa.harness import (
    PRESETS,
    Scenario,
    contraction_test,
    initial_density,
    load_scenario,
    run_scenario,
)
from torusdpa.kernels import KernelResolutionError, KernelTable


def small_scenario(**over):
    raw = {
        "name": "tiny",
        "dimension": 1,
        "N": 64,
        "T": 5e-4,
        "seed": 7,
        "engines": ["particles", "nl-grid", "local-grid"],
        "grid": {"n": 128},
        "schedule": {"epsilon": 0.1, "epsilon_tilde": 0.25, "epsilon_star": 0.3,
                     "alpha": 0.08},
        "kernels": {"table_points": 1024},
        "pde_local": {"dt": 1e-6},
        "output": {"snapshot_every": 2.5e-4, "energy_every": 1e-4},
    }
    raw.update(over)
    return Scenario.from_dict(raw)


class TestScenario:
    def test_presets_load_and_validate(self):
        for name in PRESETS:
            sc = load_scenario(name)
            assert sc.config["name"] == name

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            Scenario.from_dict({"engines": ["spectral-magic"]})

    def test_dimension_validated(self):
        with pytest.raises(ValueError):
            Scenario.from_dict({"dimension": 3})

    def test_preset_config_hashes_are_pinned(self):
        assert {name: load_scenario(name).hash() for name in PRESETS} == {
            "default-1d": "fdefaba7094f46ba632b46ef12f0bd302cdaa12170e75f6907bd2e8ae63c3c78",
            "contraction-1d": "a1b7233cd33c6a6d9346942045513b1d454cd4484d3e1762de814128bdefe319",
            "fig1-2d": "af7edaea327271249920ac6427034e16918658664099233710f45bb9bfc04b45",
        }

    def test_docs_list_every_scenario_key(self):
        text = (Path(__file__).parents[1] / "docs" / "formats.md").read_text()
        section = text.split("## Scenario config")[1].split("\n## ")[0]
        documented = re.findall(r"^\s*- `([\w.]+)`", section, flags=re.M)
        assert sorted(documented) == sorted(H.SCENARIO_KEYS)

    def test_config_is_the_merged_input_uncoerced(self):
        sc = Scenario.from_dict({"m": 2, "grid": {"n": 64}, "pde_local": {"C0": 3}})
        assert sc.config["m"] == 2 and type(sc.config["m"]) is int
        assert sc.config["grid"] == {"n": 64} and sc.config["pde_local"]["C0"] == 3
        assert sc.config["kernels"] == {k.split(".")[1]: v[0] for k, v in H.SCENARIO_KEYS.items()
                                        if k.startswith("kernels.")}
        assert "epsilon_tilde" not in sc.config["schedule"]
        # a key absent unless given may be null, the same as absent
        sc = Scenario.from_dict({"schedule": {"epsilon": 0.1, "epsilon_tilde": None, "c": None}})
        assert sc.config["schedule"]["epsilon_tilde"] is None
        assert sc.schedule().epsilon_tilde == pytest.approx(0.1 ** (1 / 7))

    @pytest.mark.parametrize("raw", [
        {"N": 1.0}, {"N": True}, {"T": True}, {"appendix_a_mode": 1}, {"seed": "1"},
        {"initial": {"amplitudes": 0.5}}, {"kernels": {"table_points": 512.0}},
    ])
    def test_wrong_types_rejected(self, raw):
        with pytest.raises(ValueError, match="must be"):
            Scenario.from_dict(raw)

    def test_initial_takes_the_union_of_its_type_keys(self, tmp_path):
        save_gridfield(GridField(np.ones(16)), tmp_path / "flat.gf")
        spec = {"type": "file", "path": str(tmp_path / "flat.gf"), "kmax": 2, "amplitude": 0.35}
        rho = initial_density(Scenario.from_dict({"initial": spec}))
        assert np.array_equal(rho.values, np.ones(16))

    def test_yaml_and_json_files(self, tmp_path):
        raw = {"name": "filetest", "N": 10}
        jpath = tmp_path / "s.json"
        jpath.write_text(json.dumps(raw))
        assert load_scenario(jpath).config["name"] == "filetest"
        ypath = tmp_path / "s.yaml"
        ypath.write_text("name: filetest\nN: 10\n")
        assert load_scenario(ypath).config["name"] == "filetest"

    def test_initial_densities(self):
        for spec in (
            {"type": "uniform-plus-modes", "amplitudes": [0.5, 0.1]},
            {"type": "random-fourier", "kmax": 3, "amplitude": 0.4},
        ):
            sc = small_scenario(initial=spec)
            rho = initial_density(sc)
            assert rho.values.min() >= 0.0
            assert rho.mass() == pytest.approx(1.0, abs=1e-12)

    def test_initial_density_seeded(self):
        a = initial_density(small_scenario(initial={"type": "random-fourier"}, seed=3))
        b = initial_density(small_scenario(initial={"type": "random-fourier"}, seed=3))
        c = initial_density(small_scenario(initial={"type": "random-fourier"}, seed=4))
        assert np.array_equal(a.values, b.values)
        assert not np.array_equal(a.values, c.values)


class TestRunScenario:
    def test_deterministic_manifests(self, tmp_path):
        sc = small_scenario()
        a = run_scenario(sc, tmp_path / "a")
        b = run_scenario(sc, tmp_path / "b")
        ma = json.loads((a.out_dir / "manifest.json").read_text())
        mb = json.loads((b.out_dir / "manifest.json").read_text())
        assert ma == mb
        hashes = {e["path"]: e.get("sha256") for e in ma["files"]}
        assert hashes["particles.csv"] is not None

    def test_empty_engine_list_manifest_only(self, tmp_path):
        sc = small_scenario(engines=[])
        art = run_scenario(sc, tmp_path / "e")
        assert art.manifest_path.exists()
        listed = {e["path"] for e in json.loads(art.manifest_path.read_text())["files"]}
        assert "particles.csv" not in listed

    def test_manifest_lists_every_artifact(self, tmp_path):
        sc = small_scenario()
        art = run_scenario(sc, tmp_path / "m")
        listed = {e["path"] for e in json.loads(art.manifest_path.read_text())["files"]}
        on_disk = {
            p.name for p in art.out_dir.iterdir() if p.name != "manifest.json"
        }
        assert listed == on_disk

    def test_clustering_report_reuses_the_run_kernels(self, tmp_path, monkeypatch):
        sc = small_scenario(engines=["particles"])
        art = run_scenario(sc, tmp_path / "c")

        def build_again(*args, **kwargs):
            raise AssertionError("clustering_report rebuilt the kernel set")

        monkeypatch.setattr(H, "build_kernel_set", build_again)
        rep = H.clustering_report(sc, art, kde_n=32)
        assert rep["particles_initial_moment"] > 0.0

    def test_particle_run_builds_no_W_or_smooth2_table(self, tmp_path, monkeypatch):
        # the step bound reads Hessians off the spectra, and the velocity and
        # energy read U; W, ot*ot and the viscosity tables stay unbuilt
        spectra = []
        build = KernelTable.from_spectrum.__func__
        monkeypatch.setattr(KernelTable, "from_spectrum", classmethod(
            lambda cls, spec, n: spectra.append(spec) or build(cls, spec, n)))
        art = run_scenario(small_scenario(engines=["particles"]), tmp_path / "p")
        kset = art.results["kernels"]
        for unbuilt in (kset.multiplier(W=1.0), kset.multiplier(smooth2=1.0),
                        kset.viscosity.spectrum, np.sqrt(kset.viscosity.spectrum)):
            assert not any(np.array_equal(spec, unbuilt) for spec in spectra)
        assert spectra  # the U table, read by the particle mesh
        assert "table" not in vars(kset.viscosity)

    def test_default_1d_nl_grid_on_a_coarse_grid(self, tmp_path):
        # grid.n = 64 has 5.1 samples across alpha = 0.08: the cropped
        # viscosity spectrum serves the grid all the same
        raw = dict(PRESETS["default-1d"], engines=["nl-grid"], grid={"n": 64}, T=0.002)
        art = run_scenario(Scenario.from_dict(raw), tmp_path / "nl")
        trace = art.results["nl_run"].traces[0]
        assert trace.final.n == 64
        assert trace.mass_drift <= 1e-10 and trace.min_value >= -1e-12

    def test_clustering_report_on_a_1d_local_run(self, tmp_path):
        sc = small_scenario(engines=["local-grid"], T=2e-5)
        rep = H.clustering_report(sc, run_scenario(sc, tmp_path / "c1"))
        assert rep["local_initial_moment"] > 0.0 and rep["local_final_peaks"] >= 1
        assert np.isfinite(rep["local_drop"])

    def test_local_energy_monotone_flagged(self, tmp_path):
        sc = small_scenario(engines=["local-grid"])
        art = run_scenario(sc, tmp_path / "l")
        assert art.results["local_flags"]["energy_increases"] == 0


class TestContraction:
    def test_delta_zero_degenerate_pass(self):
        sc = small_scenario(T=2e-4)
        rep = contraction_test(sc, 0.0, samples=2)
        assert rep["pass"] and rep["degenerate"]

    def test_small_delta_envelope(self):
        sc = small_scenario(T=1e-3)
        rep = contraction_test(sc, 1e-3, samples=3)
        assert rep["pass"]
        assert rep["w2_initial"] == pytest.approx(1e-3, rel=0.05)
        # continuity: early ratio near 1
        assert rep["samples"][1]["ratio"] == pytest.approx(1.0, abs=0.1)

    def test_dt_safety_above_one_silences_dt_warning(self):
        sc = small_scenario(T=3e-3, integrator={"method": "heun", "dt": "auto",
                                                "dt_safety": 2.0})
        with warnings.catch_warnings():
            warnings.filterwarnings("error", message="dt=.*exceeds stable_dt")
            rep = contraction_test(sc, 1e-3, samples=2)
        assert rep["pass"]

    def test_requires_m2_and_alpha(self):
        with pytest.raises(ValueError):
            contraction_test(small_scenario(m=3.0), 1e-3)
        with pytest.raises(ValueError):
            contraction_test(
                small_scenario(schedule={"epsilon": 0.1, "epsilon_tilde": 0.25,
                                         "epsilon_star": 0.3, "alpha": 0.0}),
                1e-3,
            )


class TestCli:
    def test_w2_on_gridfields(self, tmp_path, capsys):
        x = np.arange(256) / 256
        a = GridField(np.ones(256))
        vals = 1.0 + 0.4 * np.sin(2 * np.pi * x)
        b = GridField(vals / (vals.sum() / 256))
        save_gridfield(a, tmp_path / "a.gf")
        save_gridfield(b, tmp_path / "b.gf")
        rc = cli_main(["w2", str(tmp_path / "a.gf"), str(tmp_path / "b.gf")])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("W2=")
        assert float(out.strip().split("=")[1]) > 0

    def test_w2_on_2d_gridfields(self, tmp_path, capsys):
        # 128^2 fields coarsen to 16^2 atoms with unequal weights
        for k, name in ((1, "a.gf"), (2, "b.gf")):
            fld = GridField.from_function(
                lambda x, y, k=k: 1.0 + 0.5 * np.sin(2 * np.pi * (x + k * y)), 128, 2)
            save_gridfield(fld, tmp_path / name)
        files = [str(tmp_path / "a.gf"), str(tmp_path / "b.gf")]
        assert cli_main(["w2", *files, "--max-atoms", "256"]) == 0
        assert float(capsys.readouterr().out.strip().split("=")[1]) > 0

    def test_w2_dimension_mismatch_exits_1(self, tmp_path, capsys):
        save_gridfield(GridField(np.ones((16, 16))), tmp_path / "a2.gf")
        save_gridfield(GridField(np.ones(16)), tmp_path / "b1.gf")
        for pair in (["a2.gf", "b1.gf"], ["b1.gf", "a2.gf"]):
            rc = cli_main(["w2", *(str(tmp_path / f) for f in pair), "--max-atoms", "256"])
            captured = capsys.readouterr()
            assert rc == 1
            assert captured.out == ""
            assert "different dimensions" in captured.err

    def test_simulate_and_kernels_inspect(self, tmp_path, capsys):
        cfg = tmp_path / "tiny.json"
        cfg.write_text(json.dumps({
            "name": "cli-tiny", "N": 16, "T": 1e-4,
            "engines": ["particles"],
            "grid": {"n": 128},
            "schedule": {"epsilon": 0.1, "epsilon_tilde": 0.25,
                         "epsilon_star": 0.3, "alpha": 0.08},
            "kernels": {"table_points": 1024},
        }))
        rc = cli_main(["simulate", str(cfg), "--out", str(tmp_path / "run")])
        assert rc == 0
        assert (tmp_path / "run" / "manifest.json").exists()
        rc = cli_main(["kernels", "inspect", str(cfg), "--out", str(tmp_path / "k")])
        assert rc == 0
        assert (tmp_path / "k" / "omega.csv").exists()
        out = capsys.readouterr().out
        assert "lambda convexity constant" in out

    def test_invariant_breaches_on_synthetic_results(self, monkeypatch, capsys):
        local = {"energy_increases": 0, "worst_increase": 0.0, "mass_drift": 1e-12}

        def nl(**over):
            ok = {"nu": 0.0, "min_value": 0.0, "mass_drift": 1e-12}
            return SimpleNamespace(traces=[SimpleNamespace(**ok),
                                           SimpleNamespace(**{**ok, **over})])

        assert invariant_breaches({}) == []
        assert invariant_breaches({"local_flags": local, "nl_run": nl()}) == []
        breached = [
            {"local_flags": {**local, "energy_increases": 2, "worst_increase": 1e-9}},
            {"local_flags": {**local, "mass_drift": 2e-10}},
            {"local_flags": {**local, "mass_drift": float("nan")}},
            {"nl_run": nl(min_value=-2e-12)},
            {"nl_run": nl(mass_drift=2e-10)},
        ]
        for results in breached:
            assert len(invariant_breaches(results)) == 1, results
        monkeypatch.setattr(cli, "run_scenario", lambda sc, out: SimpleNamespace(
            manifest_path=out, results={"nl_run": nl(min_value=-1e-3)}))
        assert cli_main(["simulate", "default-1d", "--out", "unused"]) == 2
        assert "min value" in capsys.readouterr().out

    def test_null_engine_block_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "null.json"
        cfg.write_text(json.dumps({"engines": ["particles"], "integrator": None}))
        assert cli_main(["simulate", str(cfg), "--out", str(tmp_path / "run")]) == 1
        err = capsys.readouterr().err
        assert "integrator" in err and "Traceback" not in err

    @pytest.mark.parametrize("raw, key", [
        ({"grid": 5}, "grid"),
        ({"schedule": 0.1}, "schedule"),
        ({"T": -1}, "T"),
        ({"integrator": {"method": "rk5"}}, "rk5"),
        ({"engine": ["nl-grid"]}, "'engines'"),
        ({"schedule": {"epsilon": 0.1, "epsilon_tidle": 0.25}}, "'schedule.epsilon_tilde'"),
        ({"epsilon_tidle": 0.25}, "'schedule.epsilon_tilde'"),
        ({"N": True}, "N must be"),
        ({"dimension": 2.0}, "dimension must be"),
        ({"kernels": {"omega_moment": "targte"}}, "kernels.omega_moment"),
        ({"output": {"snapshot_every": -1}}, "output.snapshot_every"),
        ({"grid": {"n": 0}}, "grid.n"),
        ({"m": "2"}, "m must be"),
        ({"N": 0}, "N must be"),
        ({"seed": -1, "initial": {"type": "random-fourier"}}, "seed must be"),
        ({"grid": {"n": 2}, "engines": ["nl-grid", "local-grid"]}, "grid.n must be"),
        ({"schedule": {"epsilon": 0.1, "epsilon_tilde": 0.25}, "appendix_a_mode": True,
          "engines": ["local-grid"], "grid": {"n": 64}, "pde_local": {"C0": -100.0}},
         "C0=-100"),
    ], ids=["grid-not-a-mapping", "schedule-not-a-mapping", "negative-T", "unknown-method",
            "misspelt-engines", "misspelt-schedule-key", "misplaced-schedule-key", "bool-N",
            "float-dimension", "unknown-omega-moment", "negative-snapshot-cadence",
            "zero-grid", "string-m", "zero-N", "negative-seed", "two-node-grid",
            "C0-below-E_m"])
    def test_bad_scenario_exits_1_before_any_file(self, tmp_path, capsys, raw, key):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(raw))
        out = tmp_path / "run"
        assert cli_main(["simulate", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and key in err and "Traceback" not in err
        assert not out.exists() or not any(out.iterdir())

    def test_unparsable_scenario_file_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "cut.json"
        cfg.write_text('{"T": [1,')
        out = tmp_path / "run"
        assert cli_main(["simulate", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and str(cfg) in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("cut", [9, 20, -8], ids=["magic-only", "short-header", "short-body"])
    def test_truncated_gridfield_exits_1(self, tmp_path, capsys, cut):
        good = tmp_path / "good.gf"
        save_gridfield(GridField(np.ones(16)), good)
        bad = tmp_path / "bad.gf"
        bad.write_bytes(good.read_bytes()[:cut])
        assert cli_main(["w2", str(bad), str(good)]) == 1
        err = capsys.readouterr().err
        assert "error:" in err and str(bad) in err and "Traceback" not in err
        cfg = tmp_path / "from_file.json"
        cfg.write_text(json.dumps({"schedule": {"epsilon": 0.1, "epsilon_tilde": 0.25},
                                   "initial": {"type": "file", "path": str(bad)}}))
        out = tmp_path / "run"
        assert cli_main(["simulate", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "error:" in err and str(bad) in err and "Traceback" not in err
        assert not out.exists()

    def test_yaml_list_config_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "list.yaml"
        cfg.write_text("- engines\n- particles\n")
        assert cli_main(["simulate", str(cfg), "--out", str(tmp_path / "run")]) == 1
        err = capsys.readouterr().err
        assert "error:" in err and str(cfg) in err and "Traceback" not in err

    @pytest.mark.parametrize("text", [
        "particle_id,t,x_0\n",  # a header and no rows
        "particle_id,x_0\n0,0.5\n",  # no t column
        "",  # no header
        "particle_id,t,x_0\n0,0.0\n",  # a short row
        "particle_id,t,x_0\n0,0.0,half\n",  # a value that is not a number
    ], ids=["no-rows", "no-t", "empty", "short-row", "not-a-number"])
    def test_w2_malformed_particle_csv_exits_1(self, tmp_path, capsys, text):
        bad = tmp_path / "bad.csv"
        bad.write_text(text)
        save_gridfield(GridField(np.ones(16)), tmp_path / "ok.gf")
        assert cli_main(["w2", str(bad), str(tmp_path / "ok.gf")]) == 1
        err = capsys.readouterr().err
        assert "error:" in err and str(bad) in err and "Traceback" not in err

    def test_default_schedule_names_the_derivation(self, tmp_path, capsys):
        # epsilon = 0.1 alone derives epsilon_tilde = 0.1^(1/7) = 0.72
        cfg = tmp_path / "eps.json"
        cfg.write_text(json.dumps({"schedule": {"epsilon": 0.1}}))
        assert cli_main(["simulate", str(cfg), "--out", str(tmp_path / "run")]) == 1
        err = capsys.readouterr().err
        assert "epsilon^(1/(d+6))" in err and "0.7197" in err
        # epsilon = 0.005 alone derives alpha = exp(-1/0.005) = 1.4e-87, unresolvable
        cfg.write_text(json.dumps({"schedule": {"epsilon": 0.005}}))
        assert cli_main(["simulate", str(cfg), "--out", str(tmp_path / "run")]) == 1
        err = capsys.readouterr().err
        assert "exp(-c/epsilon)" in err and "derived from epsilon = 0.005" in err
        assert "schedule.alpha" in err and "appendix_a_mode" in err

    def test_error_exit_code(self, capsys):
        rc = cli_main(["simulate", "no-such-file.json"])
        assert rc == 1

    def test_w2_particles_csv(self, tmp_path, capsys):
        sc = small_scenario(engines=["particles"])
        art = run_scenario(sc, tmp_path / "p")
        rc = cli_main(
            ["w2", str(art.out_dir / "particles.csv"), str(art.out_dir / "particles.csv")]
        )
        assert rc == 0
        assert float(capsys.readouterr().out.strip().split("=")[1]) <= 1e-12


class TestCliSweeps:
    def _sweep_config(self, tmp_path):
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps({
            "name": "cli-sweep", "dimension": 1, "N": 128, "T": 1e-3, "seed": 3,
            "engines": [],
            "grid": {"n": 256},
            "schedule": {"epsilon": 0.1, "epsilon_tilde": 0.25,
                         "epsilon_star": 0.3, "alpha": 0.08},
            "kernels": {"kind": "truncated-gaussian", "moment_coefficient": 1.5,
                        "table_points": 1024},
            "pde_local": {"dt": 2e-6},
        }))
        return cfg

    def test_eps_sweep_cli(self, tmp_path, capsys):
        cfg = self._sweep_config(tmp_path)
        rc = cli_main(["sweep", str(cfg), "--eps", "0.2", "0.15", "0.1",
                       "--out", str(tmp_path / "out")])
        assert rc == 0
        assert (tmp_path / "out" / "sweep_eps.csv").exists()
        assert "W2(nl,local)" in capsys.readouterr().out

    def test_n_sweep_cli(self, tmp_path, capsys):
        cfg = self._sweep_config(tmp_path)
        rc = cli_main(["sweep", str(cfg), "--n-particles", "32", "64",
                       "--out", str(tmp_path / "outn")])
        assert rc == 0
        assert (tmp_path / "outn" / "sweep_n.csv").exists()

    def test_sweep_exits_2_on_grid_breach(self, tmp_path, monkeypatch, capsys):
        cfg = self._sweep_config(tmp_path)
        run_nonlocal, run_local = PN.run_nonlocal, PL.run_local

        def breached_nonlocal(*args, **kwargs):
            run = run_nonlocal(*args, **kwargs)
            run.traces[0].min_value = -1e-3
            return run

        def breached_local(*args, **kwargs):
            run = run_local(*args, **kwargs)
            run.flags.update(energy_increases=1, worst_increase=1e-9)
            return run

        monkeypatch.setattr(PL, "run_local", breached_local)
        rc = cli_main(["sweep", str(cfg), "--eps", "0.2", "0.15", "0.1",
                       "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "modified-energy increases" in capsys.readouterr().out
        header = (tmp_path / "out" / "sweep_eps.csv").read_text().splitlines()[0]
        assert header == "epsilon,w2_nl_local,w2_particle_local,w2_particle_nl"
        monkeypatch.setattr(PN, "run_nonlocal", breached_nonlocal)
        rc = cli_main(["sweep", str(cfg), "--n-particles", "32", "64",
                       "--out", str(tmp_path / "outn")])
        assert rc == 2
        assert "min value" in capsys.readouterr().out
        header = (tmp_path / "outn" / "sweep_n.csv").read_text().splitlines()[0]
        assert header == "N,w2_particle_nl,w2_kde_nl"

    def test_2d_eps_sweep_cli(self, tmp_path, capsys):
        cfg = tmp_path / "sweep2d.json"
        cfg.write_text(json.dumps({**PRESETS["fig1-2d"], "N": 64, "T": 2e-3,
                                   "grid": {"n": 16}, "pde_local": {"dt": 1e-4, "C0": 300.0}}))
        rc = cli_main(["sweep", str(cfg), "--eps", "0.1", "0.08", "0.07",
                       "--out", str(tmp_path / "out")])
        assert rc in (0, 2)
        rows = (tmp_path / "out" / "sweep_eps.csv").read_text().splitlines()
        assert len(rows) == 4
        assert all(float(w) > 0 for row in rows[1:] for w in row.split(",")[1:])

    @pytest.mark.parametrize("mode", [["--eps", "0.2", "0.15", "0.1"],
                                      ["--n-particles", "32", "64", "128"]])
    def test_sweep_checks_kde_grid_before_any_run(self, tmp_path, monkeypatch, capsys, mode):
        # grid.n = 384 does not divide the 1024-point kernel tables
        def engine(*args, **kwargs):
            raise AssertionError("an engine ran")

        for owner, name in ((H, "_particles_to_T"), (PL, "run_local"), (PN, "run_nonlocal")):
            monkeypatch.setattr(owner, name, engine)
        cfg = self._sweep_config(tmp_path)
        raw = json.loads(cfg.read_text())
        raw["grid"] = {"n": 384}
        cfg.write_text(json.dumps(raw))
        assert cli_main(["sweep", str(cfg), *mode, "--out", str(tmp_path / "out")]) == 1
        assert ("kde grid n = 384 does not divide the kernel table size 1024"
                in capsys.readouterr().err)

    def test_eps_sweep_builds_every_kernel_set_before_any_run(self, monkeypatch):
        # fig1's 512-point tables resolve omega at eps = 0.08 but not at 0.06
        def engine(*args, **kwargs):
            raise AssertionError("an engine ran")

        for owner, name in ((H, "_particles_to_T"), (PL, "run_local"), (PN, "run_nonlocal")):
            monkeypatch.setattr(owner, name, engine)
        sc = Scenario.from_dict({**PRESETS["fig1-2d"], "grid": {"n": 16}})
        with pytest.raises(KernelResolutionError, match="samples across scale"):
            H.convergence_sweep(sc, [0.1, 0.08, 0.06])

    def test_sweep_needs_mode(self, tmp_path, capsys):
        cfg = self._sweep_config(tmp_path)
        assert cli_main(["sweep", str(cfg)]) == 1

    def test_contraction_cli_appendix_a_mode(self, tmp_path, capsys):
        # lambda comes from the pair potential the twins integrate: no R_alpha here
        rc = cli_main(["contraction", "contraction-1d", "--appendix-a-mode",
                       "--out", str(tmp_path / "con")])
        assert rc == 0
        assert "pass=True" in capsys.readouterr().out

    def test_contraction_cli(self, tmp_path, capsys):
        cfg = self._sweep_config(tmp_path)
        raw = json.loads(cfg.read_text())
        raw["engines"] = ["particles"]
        cfg.write_text(json.dumps(raw))
        rc = cli_main(["contraction", str(cfg), "--delta", "1e-3",
                       "--out", str(tmp_path / "con")])
        assert rc == 0
        assert (tmp_path / "con" / "contraction.csv").exists()
        assert "pass=True" in capsys.readouterr().out
