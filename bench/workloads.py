"""The benchmark workloads: inputs made from a seed, one execution, and the
invariant checks run on what the execution produced.

Every workload calls the package through module attributes
(``H.run_scenario``, ...), so the tracer's patches see the calls.  Checks are
invariants that hold for any seed, never bitwise references, so a legitimate
roundoff change does not count as a failure.
"""

from __future__ import annotations

import copy
import csv
import hashlib
from pathlib import Path

import numpy as np

import torusdpa.fields as F
import torusdpa.harness as H
import torusdpa.particles as P

# The acceptance-sweep base of criteria 9 and 10 in tests/test_acceptance.py.
SWEEP_BASE = {
    "name": "acceptance-sweep",
    "dimension": 1,
    "m": 2.0,
    "N": 1000,
    "T": 0.005,
    "seed": 11,
    "initial": {"type": "uniform-plus-modes", "amplitudes": [0.5]},
    "schedule": {"epsilon": 0.1, "epsilon_tilde": 0.25, "epsilon_star": 0.3,
                 "alpha": 0.08},
    "kernels": {"kind": "truncated-gaussian", "omega_moment": "target",
                "moment_coefficient": 1.5, "tilde_moment": "natural"},
    "engines": [],
    "grid": {"n": 512},
    "pde_local": {"dt": 1e-6, "biharmonic_coeff": "auto"},
}

# The untimed warm-up runs each execution with its final times scaled by this
# factor: the same array sizes and code paths, a few steps each.
WARM_UP_SCALE = 0.05


def _scenario(raw: dict, seed: int, T: float, **changes) -> H.Scenario:
    cfg = copy.deepcopy(raw)
    cfg.update(seed=seed, T=T)
    for key, value in changes.items():
        if isinstance(value, dict):
            cfg[key] = {**cfg.get(key, {}), **value}
        else:
            cfg[key] = value
    return H.Scenario.from_dict(cfg)


def artifact_digests(out_dir: Path) -> dict:
    """sha256 and size of every file an execution wrote, except the volatile
    runinfo.json (wall-clock time)."""
    out = {}
    for path in sorted(Path(out_dir).rglob("*")):
        if path.is_file() and path.name != "runinfo.json":
            data = path.read_bytes()
            out[str(path.relative_to(out_dir))] = (hashlib.sha256(data).hexdigest(), len(data))
    return out


def _column(path: Path, name: str) -> list:
    with open(path, newline="") as fh:
        return [float(row[name]) for row in csv.DictReader(fh)]


def _strictly_decreasing(values) -> bool:
    return all(a > b for a, b in zip(values, values[1:]))


class Particles2D:
    """fig1-2d with the particle engine only, then the clustering report.

    The O(N^2) Catmull-Rom pair sums do most of the work; no grid solver runs.
    """

    name = "particles-2d"
    T = 0.01

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed

    def execute(self, out_dir: Path, scale: float = 1.0) -> dict:
        T = self.T * scale
        preset = H.PRESETS["fig1-2d"]
        # the preset's snapshot cadence, scaled with T so the energy file
        # keeps several samples to check
        cadence = preset["output"]["snapshot_every"] * T / preset["T"]
        sc = _scenario(preset, self.seed, T, engines=["particles"],
                       output={"snapshot_every": cadence})
        art = H.run_scenario(sc, out_dir)
        report = H.clustering_report(sc, art, kde_n=64)
        return {"scenario": sc, "artifacts": art, "report": report}

    def check(self, out: dict) -> list:
        art = out["artifacts"]
        kernels = H.build_scenario_kernels(out["scenario"])
        forces = P.compute_forces(art.results["particle_state"], kernels, appendix_a=True)
        mom = float(abs(P.momentum(forces)).max())
        energy = _column(art.out_dir / "particle_energy.csv", "interaction_energy")
        failures = []
        if not mom <= 1e-12:
            failures.append(f"momentum {mom:.3e} > 1e-12")
        if len(energy) < 2 or any(b > a for a, b in zip(energy, energy[1:])):
            failures.append(f"particle energy not nonincreasing: {energy}")
        return failures


class Grid2D:
    """fig1-2d on the local (SAV) and nonlocal (finite-volume) grid engines.

    Grid solvers and field diagnostics do the work; no particle moves.  The
    nonlocal step is CFL-adaptive, so its step count follows the initial
    field's peak velocity, which varies twofold between random-fourier draws.
    The seed therefore translates the preset's own initial field on the
    torus: a different input with the same amount of work.  Energy samples
    are taken at t = 0 and t = T only, because each nonlocal sample costs one
    dissipation_D_eps.
    """

    name = "grid-2d"
    T = 0.01

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        preset = H.PRESETS["fig1-2d"]
        rho0 = H.initial_density(H.Scenario.from_dict(preset))
        shift = np.random.default_rng(seed).integers(0, rho0.n, size=rho0.d)
        self.initial = Path(work_dir) / f"{self.name}-seed{seed}-initial.gf"
        F.save_gridfield(F.GridField(np.roll(rho0.values, tuple(shift), axis=(0, 1))),
                         self.initial)

    def execute(self, out_dir: Path, scale: float = 1.0) -> dict:
        T = self.T * scale
        sc = _scenario(H.PRESETS["fig1-2d"], self.seed, T,
                       initial={"type": "file", "path": str(self.initial)},
                       engines=["local-grid", "nl-grid"],
                       output={"energy_every": T})
        return {"artifacts": H.run_scenario(sc, out_dir)}

    def check(self, out: dict) -> list:
        res = out["artifacts"].results
        local = res["local_flags"]
        nl = res["nl_run"].traces[0]
        failures = []
        if not local["mass_drift"] <= 1e-10:
            failures.append(f"local mass drift {local['mass_drift']:.3e}")
        if local["energy_increases"] != 0:
            failures.append(f"local modified energy rose {local['energy_increases']} times")
        if not nl.mass_drift <= 1e-10:
            failures.append(f"nonlocal mass drift {nl.mass_drift:.3e}")
        if not nl.min_value >= 0.0:
            failures.append(f"nonlocal density went negative ({nl.min_value:.3e})")
        return failures


class Pipeline1D:
    """default-1d through run_scenario, the acceptance sweeps, and the
    contraction test: the same layers at small size, where fixed per-call
    cost dominates, plus the transport solvers and the artifact writing."""

    name = "pipeline-1d"
    T_DEFAULT = 0.001
    T_SWEEP = 0.0005

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed

    def execute(self, out_dir: Path, scale: float = 1.0) -> dict:
        out_dir = Path(out_dir)
        d1 = _scenario(H.PRESETS["default-1d"], self.seed, self.T_DEFAULT * scale)
        art = H.run_scenario(d1, out_dir / "default-1d")
        sweep = _scenario(SWEEP_BASE, self.seed, self.T_SWEEP * scale)
        eps_rows = H.convergence_sweep(sweep, [0.2, 0.1, 0.05], out_dir=out_dir / "sweep")
        n_rows = H.particle_count_sweep(sweep, [250, 500, 1000], out_dir=out_dir / "sweep")
        contraction = H.PRESETS["contraction-1d"]
        csc = _scenario(contraction, self.seed, contraction["T"] * scale)
        report = H.contraction_test(csc, delta=1e-3, out_dir=out_dir / "contraction")
        return {"artifacts": art, "eps_rows": eps_rows, "n_rows": n_rows,
                "contraction": report}

    def check(self, out: dict) -> list:
        failures = []
        if not out["contraction"]["pass"]:
            failures.append("contraction envelope violated")
        w2_eps = [r["w2_nl_local"] for r in out["eps_rows"]]
        if not _strictly_decreasing(w2_eps):
            failures.append(f"w2_nl_local not decreasing over epsilon: {w2_eps}")
        w2_n = [r["w2_particle_nl"] for r in out["n_rows"]]
        if not _strictly_decreasing(w2_n):
            failures.append(f"w2_particle_nl not decreasing over N: {w2_n}")
        return failures


WORKLOADS = {w.name: w for w in (Particles2D, Grid2D, Pipeline1D)}
