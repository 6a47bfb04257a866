import json
import math
import re
import time
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import torusdpa.cli as cli
import torusdpa.harness as H
import torusdpa.particles as P
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
from torusdpa.kernels import KernelError, KernelResolutionError, KernelTable
from torusdpa.particles import stable_dt


@pytest.fixture
def engines_fail(monkeypatch):
    """Every engine entry point raises, for checks that must come before any run."""
    def engine(*args, **kwargs):
        raise AssertionError("an engine ran")

    for owner, name in ((H, "_run_particles"), (PL, "run_local"), (PN, "run_nonlocal")):
        monkeypatch.setattr(owner, name, engine)


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

    def test_file_initial_needs_a_path(self):
        with pytest.raises(ValueError, match="initial.type file needs initial.path"):
            Scenario.from_dict({"initial": {"type": "file"}})

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
        rho = initial_density(Scenario.from_dict({"initial": spec, "grid": {"n": 16}}))
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

    def test_uniform_plus_modes_2d_is_the_product_of_axis_sines(self):
        X, Y = np.meshgrid(np.arange(16) / 16, np.arange(16) / 16, indexing="ij")
        want = np.ones((16, 16))
        for k, a in ((1, 0.5), (2, 0.2)):
            want += a * np.sin(2 * np.pi * k * X) * np.sin(2 * np.pi * k * Y)
        want /= want.sum() / 16**2
        rho = initial_density(small_scenario(dimension=2, grid={"n": 16}, initial={
            "type": "uniform-plus-modes", "amplitudes": [0.5, 0.2]}))
        assert np.array_equal(rho.values, want)

    def test_density_peaks_compare_every_neighbour(self):
        v = np.zeros(12)
        v[[2, 7]] = 1.0
        v[[1, 3, 6]] = 0.9
        assert np.array_equal(H.density_peaks(GridField(v)), [[2 / 12], [7 / 12]])
        w = np.zeros((8, 8))
        w[2, 5], w[6, 1], w[3, 4] = 1.0, 0.8, 0.9  # (3, 4) is (2, 5)'s diagonal neighbour
        assert np.array_equal(H.density_peaks(GridField(w)), [[2 / 8, 5 / 8], [6 / 8, 1 / 8]])

    def test_density_peaks_count_a_plateau_once(self):
        v = np.zeros(16)
        v[[4, 5]] = 1.0
        assert len(H.density_peaks(GridField(v))) == 1
        w = np.zeros((8, 8))
        w[2:4, 5:7] = 1.0
        assert len(H.density_peaks(GridField(w))) == 1
        assert np.array_equal(H.density_peaks(GridField(np.ones((16, 16)))), [[0.0, 0.0]])

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

    def test_empty_engine_list_refused_before_any_file(self, tmp_path):
        # a run of no engine would leave a plausible artifact of nothing
        with pytest.raises(ValueError, match="engines is empty"):
            run_scenario(small_scenario(engines=[]), tmp_path / "e")
        assert not (tmp_path / "e").exists()

    def test_particle_snapshots_follow_the_sampling_rule(self, tmp_path, sampled_times):
        # 8 steps of 6.25e-4 to T = 5e-3 and a cadence of 2.4 steps: the
        # snapshots are the first steps at or past 1.5e-3, 3e-3 and 4.5e-3
        sc = small_scenario(engines=["particles"], T=5e-3, integrator={"dt": 6.25e-4},
                            output={"snapshot_every": 1.5e-3})
        art = run_scenario(sc, tmp_path / "s")
        rows = (art.out_dir / "particles.csv").read_text().splitlines()[1:]
        times = sorted({float(row.split(",")[0]) for row in rows})
        want = sampled_times([k * 6.25e-4 for k in range(1, 9)], 1.5e-3)
        assert times == pytest.approx(want, abs=1e-15)

    def test_particle_snapshot_times_are_step_times(self, tmp_path):
        # 10 steps of 1e-4: the snapshots hold t = k dt, as the grid engines'
        # records do, where a running sum of the steps ends at
        # 0.0010000000000000002
        sc = small_scenario(engines=["particles"], T=1e-3, integrator={"dt": 1e-4},
                            output={"snapshot_every": 2.5e-4})
        art = run_scenario(sc, tmp_path / "t")
        dt = 1e-3 / 10
        want = [format(k * dt, ".17g") for k in (0, 3, 5, 8, 10)]
        for name in ("particles.csv", "particle_energy.csv"):
            rows = (art.out_dir / name).read_text().splitlines()[1:]
            assert sorted({row.split(",")[0] for row in rows}, key=float) == want
        assert want[-1] == "0.001"

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
            raise AssertionError("clustering_report rebuilt the kernel set, rho0 or the "
                                 "initial particles")

        monkeypatch.setattr(H, "build_kernel_set", build_again)
        monkeypatch.setattr(H, "initial_density", build_again)
        monkeypatch.setattr(P, "init_quantile", build_again)
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
        ot_hat = kset.spectra[1]
        for unbuilt in (kset.w_hat, ot_hat * ot_hat,
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

    def test_nu_continuation_writes_the_cauchy_table(self, tmp_path):
        sc = small_scenario(engines=["nl-grid"], T=2e-4, pde_nonlocal={"nu": [1e-2, 1e-3]})
        art = run_scenario(sc, tmp_path / "nu")
        names = {f"nl_final_{i}.gf" for i in (0, 1)} | {f"nl_energy_{i}.csv" for i in (0, 1)}
        names.add("nl_nu_cauchy.csv")
        listed = {e["path"] for e in json.loads(art.manifest_path.read_text())["files"]}
        assert names <= listed and all((art.out_dir / name).exists() for name in names)
        header, row = (art.out_dir / "nl_nu_cauchy.csv").read_text().splitlines()
        assert header == "nu_high,nu_low,l2_difference"
        l2 = art.results["nl_run"].l2_differences
        assert [float(v) for v in row.split(",")] == [1e-2, 1e-3, l2[0]] and len(l2) == 1
        energy = (art.out_dir / "nl_energy_1.csv").read_text().splitlines()[0]
        assert energy == "t,F_eps_alpha,D_eps,E_m,entropy,mean_x1,step_dissipation"

    def test_clustering_report_on_a_1d_local_run(self, tmp_path):
        sc = small_scenario(engines=["local-grid"], T=2e-5)
        rep = H.clustering_report(sc, run_scenario(sc, tmp_path / "c1"))
        assert rep["local_initial_moment"] > 0.0 and rep["local_final_peaks"] >= 1
        assert np.isfinite(rep["local_drop"])

    def test_local_energy_monotone_flagged(self, tmp_path):
        sc = small_scenario(engines=["local-grid"])
        art = run_scenario(sc, tmp_path / "l")
        assert art.results["local_flags"]["energy_increases"] == 0

    def test_batch_snapshots_equal_lone_runs(self):
        # a batch of two systems through the one particle loop: each
        # system's snapshots are its lone run's, bit for bit, at the same times
        sc = small_scenario(engines=["particles"], integrator={"method": "rk4", "dt": "auto"})
        rho0 = initial_density(sc)
        kernels, steps, _, _ = H._plan(sc, rho0)
        lone = [P.init_quantile(rho0, 64), P.init_quantile(GridField(rho0.values[::-1]), 64)]
        assert not np.array_equal(lone[0].positions, lone[1].positions)
        batch = P.ParticleState(np.stack([st.positions for st in lone]))
        every = sc.config["output"]["snapshot_every"]
        got = H._run_particles(sc, kernels, batch, steps["particles"], every)
        for b, st in enumerate(lone):
            want = H._run_particles(sc, kernels, st, steps["particles"], every)
            assert [s.time for s in got] == [s.time for s in want]
            assert all(np.array_equal(g.positions[b], w.positions) for g, w in zip(got, want))

    def test_runinfo_reports_the_planned_steps(self, tmp_path):
        # simulate's volatile runinfo.json carries the plan's count per engine
        assert cli_main(["simulate", "default-1d", "--out", str(tmp_path)]) == 0
        sc = load_scenario("default-1d")
        _, steps, _, _ = H._plan(sc, initial_density(sc))
        info = json.loads((tmp_path / "runinfo.json").read_text())
        assert info["planned_steps"] == steps
        assert set(steps) == set(sc.config["engines"]) and all(v > 0 for v in steps.values())
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert {"path": "runinfo.json", "schema": "json", "volatile": True} in manifest["files"]


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

    def test_breach_names_the_first_worst_sample(self, monkeypatch):
        # ratios 1, 5, 2, 5 at the four samples: the envelope grows with t,
        # so the first 5 breaches most
        w2 = iter([1e-3, 1e-3, 5e-3, 2e-3, 5e-3])
        monkeypatch.setattr(H.T, "w2", lambda mu, nu: next(w2))
        rep = contraction_test(small_scenario(T=1e-3), 1e-3, samples=4)
        worst = rep["samples"][2]
        assert not rep["pass"] and rep["offending_time"] == worst["t"]
        assert rep["max_envelope_fraction"] == pytest.approx(5.0 / worst["envelope"], rel=1e-12)

    def test_nan_w2_fails_with_a_finite_fraction(self, monkeypatch, tmp_path):
        # ratios 1, nan, 1, 1: the nan sample fails, and the report stays
        # standard JSON with the largest finite fraction
        w2 = iter([1e-3, 1e-3, math.nan, 1e-3, 1e-3])
        monkeypatch.setattr(H.T, "w2", lambda mu, nu: next(w2))
        rep = contraction_test(small_scenario(T=1e-3), 1e-3, samples=4, out_dir=tmp_path)
        assert not rep["pass"] and rep["offending_time"] is None
        assert rep["max_envelope_fraction"] == pytest.approx(
            1.0 / rep["samples"][1]["envelope"], rel=1e-12)

        def refuse(const):
            raise ValueError(const)

        report = json.loads((tmp_path / "contraction_report.json").read_text(),
                            parse_constant=refuse)
        assert report["max_envelope_fraction"] == rep["max_envelope_fraction"]

    def test_twins_step_as_one_batch(self, monkeypatch):
        # one particle loop for both twins, and at delta = 0 they stay
        # bit-identical through every snapshot
        runs, run_particles = [], H._run_particles
        monkeypatch.setattr(H, "_run_particles",
                            lambda *args: runs.append(run_particles(*args)) or runs[-1])
        rep = contraction_test(small_scenario(T=2e-4), 0.0, samples=2)
        assert len(runs) == 1 and len(runs[0]) == 3
        assert all(st.positions.shape == (2, 64, 1) for st in runs[0])
        assert all(np.array_equal(st.positions[0], st.positions[1]) for st in runs[0])
        assert [r["w2"] for r in rep["samples"]] == [0.0] * 3

    def test_dt_safety_above_one_silences_dt_warning(self):
        sc = small_scenario(T=3e-3, integrator={"method": "heun", "dt": "auto",
                                                "dt_safety": 2.0})
        with warnings.catch_warnings():
            warnings.filterwarnings("error", message="dt=.*exceeds stable_dt")
            rep = contraction_test(sc, 1e-3, samples=2)
        assert rep["pass"]

    def test_dt_safety_leaves_an_explicit_dt_warned(self, tmp_path):
        # dt_safety scales dt "auto" only: an explicit dt past the bound warns
        dt = 4.0 * stable_dt(H.build_scenario_kernels(small_scenario()))
        sc = small_scenario(engines=["particles"], T=2 * dt,
                            integrator={"method": "heun", "dt": dt, "dt_safety": 2.0})
        with pytest.warns(RuntimeWarning, match="exceeds stable_dt"):
            run_scenario(sc, tmp_path / "dt")

    def test_requires_m2_and_alpha(self):
        with pytest.raises(ValueError):
            contraction_test(small_scenario(m=3.0), 1e-3)
        with pytest.raises(ValueError):
            contraction_test(
                small_scenario(schedule={"epsilon": 0.1, "epsilon_tilde": 0.25,
                                         "epsilon_star": 0.3, "alpha": 0.0}),
                1e-3,
            )


class TestDtWarning:
    """The run plan compares an explicit integrator.dt with stable_dt once
    per planned particle run; dt "auto" never warns."""

    RAW = {"name": "tiny-dt", "dimension": 1, "N": 16, "T": 0.01, "seed": 7,
           "engines": ["particles"], "grid": {"n": 32},
           "schedule": {"epsilon": 0.1, "epsilon_tilde": 0.25, "epsilon_star": 0.3,
                        "alpha": 0.08},
           "kernels": {"table_points": 256}, "pde_local": {"dt": 1e-4},
           # at least 10 times stable_dt at each epsilon below
           "integrator": {"method": "heun", "dt": 0.01}}

    @staticmethod
    def _dt_warnings(fn, *args):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = fn(*args)
        return result, [str(w.message) for w in caught
                        if w.category is RuntimeWarning and "exceeds stable_dt" in str(w.message)]

    @pytest.mark.parametrize("command, runs", [
        (["simulate"], 1),
        (["sweep", "--eps", "0.14", "0.12", "0.1"], 3),
        (["sweep", "--n-particles", "16", "32"], 1),
        (["contraction"], 1),
    ], ids=["simulate", "sweep-eps", "sweep-n", "contraction"])
    def test_an_explicit_dt_past_the_bound_warns_once_per_planned_run(self, tmp_path, command,
                                                                      runs):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(self.RAW))
        rc, msgs = self._dt_warnings(cli_main, [command[0], str(cfg), *command[1:],
                                                "--out", str(tmp_path / "out")])
        assert rc == 0 and len(msgs) == runs, msgs
        assert all(re.match(r"dt=\S+ \(integrator\.dt\) exceeds stable_dt=", m) for m in msgs)

    @pytest.mark.parametrize("dt_safety", [0.5, 1.0, 2.0, 8.0])
    def test_dt_auto_never_warns(self, dt_safety):
        sc = Scenario.from_dict({**self.RAW, "integrator": {"method": "heun", "dt": "auto",
                                                           "dt_safety": dt_safety}})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert H._plan(sc, H.initial_density(sc))[1]["particles"] >= 1

    def test_a_plan_past_the_step_cap_refuses_without_warning(self):
        # 1e7 steps of the explicit dt: refused before the comparison
        sc = Scenario.from_dict({**self.RAW, "T": 1e5})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError, match="integrator.dt sets a step"):
                H._plan(sc, H.initial_density(sc))
        assert caught == []

    def test_the_stepping_loop_never_warns(self):
        # the comparison is the plan's alone: the loop steps past the bound silently
        sc = Scenario.from_dict(self.RAW)
        rho0 = H.initial_density(sc)
        with pytest.warns(RuntimeWarning, match="exceeds stable_dt"):
            kernels, steps = H._plan(sc, rho0)[:2]
        _, msgs = self._dt_warnings(H._run_particles, sc, kernels, P.init_quantile(rho0, 16),
                                    steps["particles"], None)
        assert msgs == []


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
        ({"engines": ["nl-grid"], "pde_nonlocal": {"nu": []}}, "pde_nonlocal.nu"),
        ({"schedule": {"epsilon": 0.1, "epsilon_tilde": 0.25}, "N": 16, "T": 1e-4,
          "engines": []}, "engines is empty"),
        ({"schedule": {"epsilon": 0.1, "epsilon_tilde": 0.25, "alpha": 0.08, "c": 2.0},
          "N": 16, "T": 1e-4}, "schedule.c and schedule.alpha"),
        ({"schedule": {"epsilon": 0.1, "epsilon_tilde": 0.25}, "appendix_a_mode": True,
          "engines": ["local-grid"], "grid": {"n": 64}, "pde_local": {"C0": -100.0}},
         "C0=-100"),
    ], ids=["grid-not-a-mapping", "schedule-not-a-mapping", "negative-T", "unknown-method",
            "misspelt-engines", "misspelt-schedule-key", "misplaced-schedule-key", "bool-N",
            "float-dimension", "unknown-omega-moment", "negative-snapshot-cadence",
            "zero-grid", "string-m", "zero-N", "negative-seed", "two-node-grid",
            "empty-nu-list", "no-engines", "c-and-alpha", "C0-below-E_m"])
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

    @pytest.mark.parametrize("values, raw, keys", [
        (np.ones((16, 16)), {"engines": ["particles"], "grid": {"n": 16}}, "dimension 1"),
        (np.ones(64), {"engines": ["nl-grid"], "grid": {"n": 128}}, "grid.n 128"),
    ], ids=["2d-file-in-1d", "64-points-on-128"])
    def test_initial_file_off_the_scenario_grid_exits_1(self, tmp_path, capsys, values, raw,
                                                       keys):
        path = tmp_path / "rho.gf"
        fld = GridField(values)
        save_gridfield(fld, path)
        cfg = tmp_path / "from_file.json"
        cfg.write_text(json.dumps(dict(
            raw, T=1e-4, kernels={"table_points": 1024},
            schedule={"epsilon": 0.1, "epsilon_tilde": 0.25, "epsilon_star": 0.3,
                      "alpha": 0.08},
            initial={"type": "file", "path": str(path)})))
        out = tmp_path / "run"
        assert cli_main(["simulate", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and "Traceback" not in err
        assert str(path) in err and f"d = {fld.d}, n = {fld.n}" in err and keys in err
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

    @pytest.mark.parametrize("schedule", [
        {"epsilon": 0.1, "epsilon_tilde": 0.25, "epsilon_star": 0.3, "alpha": 0.0},
        {"epsilon": 0.001, "epsilon_tilde": 0.25, "epsilon_star": 0.3},
    ], ids=["given", "derived"])
    def test_particles_at_alpha_zero_exit_1_before_any_run(self, tmp_path, capsys,
                                                          monkeypatch, schedule):
        # at alpha = 0, given or derived as exp(-c/epsilon), the set carries
        # no R_alpha for the particles' viscosity term: simulate and both
        # sweeps fail before any file is written or any engine runs, naming
        # the scenario key that drops the term
        runs = []
        monkeypatch.setattr(PL, "run_local", lambda *a, **k: runs.append("local"))
        monkeypatch.setattr(PN, "run_nonlocal", lambda *a, **k: runs.append("nl"))
        cfg = tmp_path / "alpha0.json"
        cfg.write_text(json.dumps({"schedule": schedule, "engines": ["particles"],
                                   "grid": {"n": 64}}))
        out = tmp_path / "run"
        out.mkdir()
        for args in (["simulate"], ["sweep", "--n-particles", "8", "16"],
                     ["sweep", "--eps", "0.0012", "0.0011", "0.001"]):
            assert cli_main([args[0], str(cfg), *args[1:], "--out", str(out)]) == 1
            err = capsys.readouterr().err
            assert err.count("error:") == 1 and "Traceback" not in err
            assert "alpha = 0" in err and "appendix_a_mode" in err
            assert list(out.iterdir()) == [] and runs == []

    @pytest.mark.parametrize("over, key, commands", [
        ({"schedule": {"epsilon": 0.1, "epsilon_tilde": 0.25, "epsilon_star": 1e9,
                       "alpha": 0.08}},
         "schedule's stable step", ("simulate", "sweep-eps", "sweep-n", "contraction")),
        ({"integrator": {"dt_safety": 1e-300}},
         "integrator.dt_safety = 1e-300", ("simulate", "sweep-eps", "sweep-n", "contraction")),
        ({"pde_local": {"dt": 1e-300}}, "pde_local.dt", ("simulate", "sweep-eps")),
        # a step that underflows to 0 once raised ZeroDivisionError past the CLI
        ({"integrator": {"dt_safety": 5e-324}}, "integrator.dt_safety = 4.94066e-324",
         ("simulate", "sweep-eps", "sweep-n", "contraction")),
        # appendix-A particles drop the epsilon_star term, so the sweeps' own
        # particle plans pass and their nonlocal first step is refused
        ({"engines": ["nl-grid"], "appendix_a_mode": True,
          "schedule": {"epsilon": 0.1, "epsilon_tilde": 0.25, "epsilon_star": 1e9,
                       "alpha": 0.08}},
         "nonlocal engine's first CFL step on rho0, at epsilon_star = 1e+09",
         ("simulate", "sweep-eps", "sweep-n")),
    ], ids=["epsilon-star-1e9", "dt-safety-1e-300", "local-dt-1e-300", "dt-safety-5e-324",
         "nl-epsilon-star-1e9"])
    def test_plans_past_the_step_cap_exit_1_before_any_file(self, tmp_path, capsys,
                                                            monkeypatch, over, key, commands):
        # configs whose fixed step counts run to 1e8 and more once hung without
        # a word; every command that plans them refuses before any file is
        # written or any engine runs, naming the count and the key
        runs = []
        for owner, name in ((H, "_run_particles"), (PL, "run_local"), (PN, "run_nonlocal")):
            monkeypatch.setattr(owner, name, lambda *a, _n=name, **k: runs.append(_n))
        raw = {"dimension": 1, "N": 64, "T": 5e-4, "seed": 7,
               "engines": ["particles", "nl-grid", "local-grid"], "grid": {"n": 128},
               "schedule": {"epsilon": 0.1, "epsilon_tilde": 0.25, "epsilon_star": 0.3,
                            "alpha": 0.08},
               "kernels": {"moment_coefficient": 1.5, "table_points": 1024},
               "pde_local": {"dt": 1e-6}}
        cfg = tmp_path / "cap.json"
        cfg.write_text(json.dumps({**raw, **over}))
        out = tmp_path / "run"
        args = {"simulate": ["simulate"], "sweep-eps": ["sweep", "--eps", "0.2", "0.15", "0.1"],
                "sweep-n": ["sweep", "--n-particles", "32", "64"],
                "contraction": ["contraction"]}
        for command in commands:
            argv = args[command]
            start = time.perf_counter()
            assert cli_main([argv[0], str(cfg), *argv[1:], "--out", str(out)]) == 1
            assert time.perf_counter() - start < 1.0
            err = capsys.readouterr().err
            assert err.count("error:") == 1 and "Traceback" not in err
            assert key in err and "steps, more than the cap of 1e+06" in err
            assert not out.exists() and runs == []

    def test_a_particle_count_past_memory_exits_1(self, tmp_path, capsys, monkeypatch):
        # 2^40 particles fail in numpy's allocator, here faked so that
        # nothing is allocated: one error line, no traceback, no directory
        def no_memory(rho0, N):
            raise MemoryError(f"Unable to allocate 8.00 TiB for an array with shape ({N},)")
        monkeypatch.setattr(P, "init_quantile", no_memory)
        cfg, out = tmp_path / "cfg.json", tmp_path / "run"
        cfg.write_text(json.dumps({
            "dimension": 1, "N": 16, "T": 1e-4, "grid": {"n": 32},
            "schedule": {"epsilon": 0.1, "epsilon_tilde": 0.25, "epsilon_star": 0.3,
                         "alpha": 0.08},
            "kernels": {"table_points": 256}}))
        argv = ["sweep", str(cfg), "--n-particles", str(2**40), "--out", str(out)]
        assert cli_main(argv) == 1
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and "Traceback" not in err
        assert "Unable to allocate" in err and not out.exists()

    def test_step_cap_clears_every_preset_20_fold(self):
        # fig1-2d's 17 500 local steps are the largest plan of the presets;
        # each preset is planned for its engines and the nonlocal one, whose
        # first-step floor every sweep of it plans
        for name, preset in PRESETS.items():
            sc = Scenario.from_dict(preset)
            engines = {*sc.config["engines"], "nl-grid"}
            steps = H._plan(sc, initial_density(sc), engines)[1]
            assert set(steps) == engines, name
            assert 20 * max(steps.values()) <= P.MAX_STEPS, name

    def test_grid_only_run_at_alpha_zero_runs(self, tmp_path):
        # without particles alpha = 0 means R_alpha * rho = rho
        sc = small_scenario(engines=["nl-grid"], appendix_a_mode=False,
                            schedule={"epsilon": 0.1, "epsilon_tilde": 0.25,
                                      "epsilon_star": 0.3, "alpha": 0.0})
        art = run_scenario(sc, tmp_path / "nl")
        assert "nl_final_0.gf" in art.files

    def test_seed_option_reaches_config_and_manifest(self, tmp_path):
        cfg = tmp_path / "seed.json"
        cfg.write_text(json.dumps(small_scenario(seed=3, engines=["particles"]).config))
        out = tmp_path / "run"
        assert cli_main(["simulate", str(cfg), "--seed", "7", "--out", str(out)]) == 0
        for name in ("config.json", "manifest.json"):
            assert json.loads((out / name).read_text())["seed"] == 7

    def test_error_exit_code(self, capsys):
        rc = cli_main(["simulate", "no-such-file.json"])
        assert rc == 1

    @pytest.mark.parametrize("argv, cause", [
        (["sweep", "default-1d", "--eps", "abc"], "invalid float value: 'abc'"),
        (["simulat", "x"], "invalid choice: 'simulat'"),
    ], ids=["not-a-float", "unknown-command"])
    def test_usage_errors_exit_1_before_any_file(self, tmp_path, monkeypatch, capsys, argv,
                                                 cause):
        # argparse exits 2 on a usage error; 2 is an invariant breach here
        monkeypatch.chdir(tmp_path)
        assert cli_main(argv) == 1
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and cause in err and "Traceback" not in err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [["--help"], ["--version"], ["sweep", "--help"]])
    def test_help_and_version_exit_0(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli_main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out

    def test_empty_scenario_loads_but_is_refused_before_any_file(self, tmp_path, capsys):
        # the defaults derive epsilon_tilde = epsilon^(1/7) >= 1/2 at epsilon = 0.01
        sc = Scenario.from_dict({})
        with pytest.raises(KernelError, match="epsilon_tilde and epsilon_star"):
            run_scenario(sc, tmp_path / "direct")
        cfg = tmp_path / "empty.json"
        cfg.write_text("{}")
        out = tmp_path / "run"
        assert cli_main(["simulate", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and "epsilon_tilde and epsilon_star" in err
        assert "Traceback" not in err
        assert not out.exists() and not (tmp_path / "direct").exists()

    @pytest.mark.parametrize("values", [np.zeros(16), -np.ones(16)],
                             ids=["all-zero", "all-negative"])
    def test_w2_gridfield_without_positive_mass_exits_1(self, tmp_path, capsys, values):
        bad = tmp_path / "bad.gf"
        save_gridfield(GridField(values), bad)
        save_gridfield(GridField(np.ones(16)), tmp_path / "ok.gf")
        assert cli_main(["w2", str(tmp_path / "ok.gf"), str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and f"{bad}: no positive mass" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("x", ["1e300", "-1000000.5", "nan", "inf"])
    def test_w2_particle_coordinate_past_the_bound_exits_1(self, tmp_path, capsys, x):
        bad = tmp_path / "bad.csv"
        bad.write_text(f"particle_id,t,x_1\n0,0.0,0.25\n1,0.0,{x}\n")
        assert cli_main(["w2", str(bad), str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and f"{bad}: line 3: coordinate outside" in err
        assert "1e+06" in err and "Traceback" not in err

    def test_w2_particle_coordinate_on_the_bound_wraps(self, tmp_path, capsys):
        far = tmp_path / "far.csv"
        far.write_text("particle_id,t,x_1\n0,0.0,-999999.75\n1,0.0,1000000\n")
        near = tmp_path / "near.csv"
        near.write_text("particle_id,t,x_1\n0,0.0,0.25\n1,0.0,0.0\n")
        assert cli_main(["w2", str(far), str(near)]) == 0
        assert capsys.readouterr().out == "W2=0\n"

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

    def test_sweep_nl_runs_report_energy_at_0_and_T_only(self, tmp_path):
        # neither the sweep tables nor the breach check read a sweep's
        # intermediate nl energies, so none is computed
        sc = H.load_scenario(self._sweep_config(tmp_path))
        rows = H.convergence_sweep(sc, [0.2, 0.15, 0.1]) + H.particle_count_sweep(sc, [32, 64])
        for row in rows:
            times = [rep.t for rep in row["nl_run"].traces[0].reports]
            assert times == pytest.approx([0.0, sc.config["T"]], abs=1e-15)

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
    def test_sweep_checks_kde_grid_before_any_run(self, tmp_path, engines_fail, capsys, mode):
        # grid.n = 384 does not divide the 1024-point kernel tables
        cfg = self._sweep_config(tmp_path)
        raw = json.loads(cfg.read_text())
        raw["grid"] = {"n": 384}
        cfg.write_text(json.dumps(raw))
        assert cli_main(["sweep", str(cfg), *mode, "--out", str(tmp_path / "out")]) == 1
        assert ("kde grid n = 384 does not divide the kernel table size 1024"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("over, mode, message", [
        ({"dimension": 2, "grid": {"n": 75}, "kernels": {"table_points": 450}},
         ["--eps", "0.1", "0.098", "0.096"], "grid size 75 not divisible by coarsening factor 2"),
        ({"dimension": 2, "grid": {"n": 75}, "kernels": {"table_points": 450}},
         ["--n-particles", "32", "64"], "grid size 75 not divisible by coarsening factor 2"),
        ({}, ["--n-particles", "32", "0"], "N must be an integer >= 1, got 0"),
    ], ids=["w2-grid-eps", "w2-grid-n", "n-zero"])
    def test_sweep_checks_w2_grid_and_counts_before_any_run(self, tmp_path, engines_fail,
                                                            capsys, over, mode, message):
        # 75^2 cells coarsen to 4096 W2 atoms only by blocks of 2, which do
        # not divide 75; both once failed only after the shared grid runs
        cfg = self._sweep_config(tmp_path)
        cfg.write_text(json.dumps({**json.loads(cfg.read_text()), **over}))
        out = tmp_path / "out"
        assert cli_main(["sweep", str(cfg), *mode, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and message in err and not out.exists()

    @pytest.mark.parametrize("eps, message", [
        (["0.1", "0.08"], "need at least 3 epsilon values"),
        (["0.1", "0.12", "0.08"], "epsilon list must be strictly decreasing"),
    ], ids=["two", "not-decreasing"])
    def test_eps_sweep_refuses_a_bad_list_before_any_run(self, tmp_path, engines_fail, capsys,
                                                        eps, message):
        out = tmp_path / "out"
        cfg = self._sweep_config(tmp_path)
        assert cli_main(["sweep", str(cfg), "--eps", *eps, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and message in err and not out.exists()

    def test_eps_sweep_builds_every_kernel_set_before_any_run(self, engines_fail):
        # fig1's 512-point tables resolve omega at eps = 0.08 but not at 0.06
        sc = Scenario.from_dict({**PRESETS["fig1-2d"], "grid": {"n": 16}})
        with pytest.raises(KernelResolutionError, match="samples across scale"):
            H.convergence_sweep(sc, [0.1, 0.08, 0.06])

    def test_sweep_needs_mode(self, tmp_path, capsys):
        # exactly one of --eps and --n-particles: both ran the eps sweep alone
        cfg = self._sweep_config(tmp_path)
        out = tmp_path / "sweep"
        for modes, cause in (
                ([], "one of the arguments --eps --n-particles is required"),
                (["--eps", "0.2", "0.1", "--n-particles", "10", "20"],
                 "argument --n-particles: not allowed with argument --eps")):
            assert cli_main(["sweep", str(cfg), *modes, "--out", str(out)]) == 1
            err = capsys.readouterr().err
            assert err.count("error:") == 1 and cause in err and "Traceback" not in err
            assert not out.exists()

    def test_contraction_cli_appendix_a_mode(self, tmp_path, capsys):
        # lambda comes from the pair potential the twins integrate: no R_alpha here
        rc = cli_main(["contraction", "contraction-1d", "--appendix-a-mode",
                       "--out", str(tmp_path / "con")])
        assert rc == 0
        assert "pass=True" in capsys.readouterr().out

    @pytest.mark.parametrize("delta", ["-1e-3", "nan", "inf"])
    def test_contraction_refuses_a_bad_delta_before_any_run(self, tmp_path, monkeypatch,
                                                             capsys, delta):
        # a negative delta once moved no particle and reported pass=True
        monkeypatch.setattr(H, "_run_particles", lambda *a, **k: pytest.fail("twins ran"))
        out = tmp_path / "con"
        assert cli_main(["contraction", "contraction-1d", f"--delta={delta}",
                         "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and "--delta" in err and not out.exists()

    def test_contraction_cli_exits_2_on_a_breach(self, tmp_path, monkeypatch, capsys):
        # every twin distance after t = 0 is 1000 W2(0), past any envelope here
        w2 = iter([1e-3] + [1.0] * 8)
        monkeypatch.setattr(H.T, "w2", lambda mu, nu: next(w2))
        cfg = self._sweep_config(tmp_path)
        out = tmp_path / "con"
        assert cli_main(["contraction", str(cfg), "--out", str(out)]) == 2
        first_t = float((out / "contraction.csv").read_text().splitlines()[2].split(",")[0])
        report = json.loads((out / "contraction_report.json").read_text())
        assert not report["pass"] and report["offending_time"] == first_t
        captured = capsys.readouterr()
        assert "pass=False" in captured.out
        assert f"envelope violated at t={first_t}" in captured.err

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
