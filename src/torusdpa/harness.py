"""Scenario configuration, run orchestration, and reproducible artifacts.

A Scenario is a plain dict-backed description (JSON or YAML on disk) of one
experiment: initial density, parameter schedule, kernel construction, which
engines to run (particles / nl-grid / local-grid), and output cadence.
run_scenario executes it into a directory of CSV/binary artifacts plus a
manifest whose hashes are byte-reproducible for a fixed seed; wall-clock
data goes to a separate volatile file so the manifest stays deterministic.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import time
import warnings
from dataclasses import dataclass, field as dc_field
from pathlib import Path

import numpy as np
import yaml

from . import fields as F
from . import particles as P
from . import pde_local as PL
from . import pde_nonlocal as PN
from . import transport as T
from .kernels import (
    KernelSet,
    ParameterSchedule,
    build_kernel_set,
    lambda_convexity_constant,
    schedule_from_epsilon,
)

__all__ = [
    "Scenario",
    "RunArtifacts",
    "run_scenario",
    "convergence_sweep",
    "particle_count_sweep",
    "contraction_test",
    "clustering_report",
    "density_peaks",
    "second_moment_about_peaks",
    "load_scenario",
    "PRESETS",
    "SCHEMA_VERSION",
    "initial_density",
    "build_scenario_kernels",
]

SCHEMA_VERSION = "1"

_DEFAULTS = {
    "name": "unnamed",
    "dimension": 1,
    "m": 2.0,
    "N": 1000,
    "T": 0.01,
    "seed": 1234,
    "appendix_a_mode": False,
    "initial": {"type": "uniform-plus-modes", "amplitudes": [0.5]},
    "schedule": {"epsilon": 0.1},
    "kernels": {
        "kind": "truncated-gaussian",
        "omega_moment": "target",
        "moment_coefficient": 2.0,
        "tilde_moment": "natural",
        "table_points": None,
        "viscosity_k": 4.0,
    },
    "integrator": {"method": "rk4", "dt": "auto", "dt_safety": 1.0},
    "engines": ["particles"],
    "grid": {"n": 512},
    "pde_local": {"dt": 1e-6, "biharmonic_coeff": "auto", "kappa": None, "C0": None},
    "pde_nonlocal": {"nu": [0.0]},
    "output": {"snapshot_every": None, "energy_every": None},
}


def _merge(base: dict, override: dict) -> dict:
    out = dict(base)
    for k, v in (override or {}).items():
        if isinstance(v, dict) and isinstance(out.get(k), dict):
            out[k] = _merge(out[k], v)
        else:
            out[k] = v
    return out


@dataclass
class Scenario:
    config: dict

    @classmethod
    def from_dict(cls, raw: dict) -> "Scenario":
        cfg = _merge(_DEFAULTS, raw)
        sc = cls(config=cfg)
        sc.validate()
        return sc

    def validate(self):
        c = self.config
        if c["dimension"] not in (1, 2):
            raise ValueError("dimension must be 1 or 2")
        if c["m"] <= 1:
            raise ValueError("m must exceed 1")
        for eng in c["engines"]:
            if eng not in ("particles", "nl-grid", "local-grid"):
                raise ValueError(f"unknown engine {eng!r}")
            block = {"particles": "integrator", "nl-grid": "pde_nonlocal",
                     "local-grid": "pde_local"}[eng]
            if not isinstance(c[block], dict):
                raise ValueError(f"engine {eng} needs a mapping under {block!r}, "
                                 f"got {c[block]!r}")
        if "epsilon" not in c["schedule"]:
            raise ValueError("schedule needs at least epsilon")

    def __getitem__(self, key):
        return self.config[key]

    def canonical_json(self) -> str:
        return json.dumps(self.config, sort_keys=True, indent=1)

    def hash(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()

    def schedule(self) -> ParameterSchedule:
        s = dict(self.config["schedule"])
        eps = s.pop("epsilon")
        s.pop("c", None)
        return schedule_from_epsilon(
            eps,
            d=self.config["dimension"],
            m=self.config["m"],
            c=self.config["schedule"].get("c", 1.0),
            epsilon_tilde=s.get("epsilon_tilde"),
            epsilon_star=s.get("epsilon_star"),
            alpha=s.get("alpha"),
        )


def load_scenario(path_or_name) -> Scenario:
    """Load a scenario from a preset name or a JSON/YAML file."""
    if str(path_or_name) in PRESETS:
        return Scenario.from_dict(PRESETS[str(path_or_name)])
    text = Path(path_or_name).read_text()
    try:
        raw = json.loads(text)
    except json.JSONDecodeError:
        raw = yaml.safe_load(text)
    return Scenario.from_dict(raw)


# ---------------------------------------------------------------------------
# scenario ingredients


def initial_density(scenario: Scenario) -> F.GridField:
    """Build the seeded nonnegative unit-mass initial density on the grid."""
    c = scenario.config
    n = c["grid"]["n"]
    d = c["dimension"]
    spec = c["initial"]
    kind = spec["type"]
    x = np.arange(n) / n
    if kind == "uniform-plus-modes":
        amps = spec.get("amplitudes", [0.5])
        if d == 1:
            vals = np.ones(n)
            for k, a in enumerate(amps, start=1):
                vals += a * np.sin(2 * np.pi * k * x)
        else:
            X, Y = np.meshgrid(x, x, indexing="ij")
            vals = np.ones((n, n))
            for k, a in enumerate(amps, start=1):
                vals += a * np.sin(2 * np.pi * k * X) * np.sin(2 * np.pi * k * Y)
    elif kind == "random-fourier":
        rng = np.random.default_rng(c["seed"])
        kmax = int(spec.get("kmax", 4))
        amp = float(spec.get("amplitude", 0.4))
        if d == 1:
            vals = np.zeros(n)
            for k in range(1, kmax + 1):
                a, b = rng.standard_normal(2) / k
                vals += a * np.cos(2 * np.pi * k * x) + b * np.sin(2 * np.pi * k * x)
            scale = np.max(np.abs(vals)) or 1.0
            vals = 1.0 + amp * vals / scale
        else:
            X, Y = np.meshgrid(x, x, indexing="ij")
            vals = np.zeros((n, n))
            for kx in range(0, kmax + 1):
                for ky in range(0, kmax + 1):
                    if kx == 0 and ky == 0:
                        continue
                    a, b, cc, dd2 = rng.standard_normal(4) / (kx + ky)
                    vals += (
                        a * np.cos(2 * np.pi * (kx * X + ky * Y))
                        + b * np.sin(2 * np.pi * (kx * X + ky * Y))
                        + cc * np.cos(2 * np.pi * (kx * X - ky * Y))
                        + dd2 * np.sin(2 * np.pi * (kx * X - ky * Y))
                    )
            scale = np.max(np.abs(vals)) or 1.0
            vals = 1.0 + amp * vals / scale
    elif kind == "file":
        return F.load_gridfield(spec["path"])
    else:
        raise ValueError(f"unknown initial type {kind!r}")
    vals = np.maximum(vals, 0.0)
    vals = vals / (vals.sum() * (1.0 / n) ** d)
    return F.GridField(vals)


def build_scenario_kernels(scenario: Scenario, schedule=None) -> KernelSet:
    c = scenario.config
    kc = c["kernels"]
    schedule = schedule or scenario.schedule()
    coeff = float(kc.get("moment_coefficient", 2.0))
    omega_target = None
    normalize_omega = kc.get("omega_moment", "target") == "target"
    if normalize_omega:
        omega_target = coeff * schedule.epsilon**2
    normalize_tilde = kc.get("tilde_moment", "natural") == "target"
    tilde_target = coeff * schedule.epsilon_tilde**2 if normalize_tilde else None
    need_visc = (not c["appendix_a_mode"]) and schedule.alpha > 0.0
    return build_kernel_set(
        schedule,
        kind=kc["kind"],
        table_points=kc.get("table_points"),
        omega_moment=omega_target,
        normalize_omega=normalize_omega,
        normalize_tilde=normalize_tilde,
        tilde_moment=tilde_target,
        viscosity_k=float(kc.get("viscosity_k", 4.0)),
        with_viscosity=need_visc,
    )


def _local_config(scenario: Scenario, kernels: KernelSet) -> PL.LocalSolverConfig:
    """The local solver settings of a scenario; the biharmonic coefficient
    "auto" is matched to the omega moment convention."""
    c = scenario.config
    lc = c["pde_local"]
    coeff = lc.get("biharmonic_coeff", "auto")
    if coeff == "auto":
        coeff = 0.5 * float(kernels.omega.second_moment_target) / kernels.schedule.epsilon**2
    return PL.LocalSolverConfig(
        dt=float(lc["dt"]),
        m=c["m"],
        T=c["T"],
        kappa=lc.get("kappa"),
        C0=lc.get("C0"),
        biharmonic_coeff=float(coeff),
        energy_every=c["output"]["energy_every"],
    )


# ---------------------------------------------------------------------------
# artifacts


@dataclass
class RunArtifacts:
    out_dir: Path
    manifest_path: Path
    files: dict = dc_field(default_factory=dict)
    results: dict = dc_field(default_factory=dict)


class _Writer:
    def __init__(self, out_dir: Path):
        self.out_dir = Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.entries = []

    def register(self, name: str, schema: str, volatile: bool = False):
        path = self.out_dir / name
        entry = {"path": name, "schema": schema, "volatile": volatile}
        if not volatile:
            # content hash and size are deterministic for a fixed seed;
            # volatile files (timings) are listed but never hashed
            data = path.read_bytes()
            entry["bytes"] = len(data)
            entry["sha256"] = hashlib.sha256(data).hexdigest()
        self.entries.append(entry)
        return path

    def csv(self, name: str, header, rows, schema: str):
        path = self.out_dir / name
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            for row in rows:
                w.writerow([_fmt(v) for v in row])
        return self.register(name, schema)

    def gridfield(self, name: str, fld: F.GridField):
        F.save_gridfield(fld, self.out_dir / name)
        return self.register(name, "gridfield-binary-v1")

    def json(self, name: str, obj, volatile: bool = False):
        path = self.out_dir / name
        path.write_text(json.dumps(obj, sort_keys=True, indent=1))
        return self.register(name, "json", volatile=volatile)


def _fmt(v):
    if isinstance(v, float):
        return format(v, ".17g")
    return v


def _energy_rows(reports):
    for rep in reports:
        yield rep.row()


_ENERGY_HEADER = [
    "t", "F_eps_alpha", "D_eps", "E_m", "entropy", "mean_x1", "step_dissipation"
]


def _energy_header(d):
    if d == 1:
        return _ENERGY_HEADER
    return _ENERGY_HEADER[:5] + ["mean_x1", "mean_x2"] + _ENERGY_HEADER[6:]


# ---------------------------------------------------------------------------
# engines


def _particle_dt(scenario, state, kernels):
    integ = scenario.config["integrator"]
    if integ["dt"] == "auto":
        return P.stable_dt(
            state, kernels, appendix_a=scenario.config["appendix_a_mode"]
        ) * float(integ.get("dt_safety", 1.0))
    return float(integ["dt"])


def _run_particles(scenario: Scenario, kernels: KernelSet, state, nsteps: int, stride: int):
    """The particle stepping loop: nsteps equal steps from `state` to the
    scenario's T.  Returns the states at step 0, every `stride` steps and the
    last step."""
    c = scenario.config
    dt = c["T"] / nsteps if nsteps else 0.0
    method = c["integrator"]["method"]
    appendix_a = c["appendix_a_mode"]
    states = [state]
    with warnings.catch_warnings():
        # a dt_safety above 1 opts into exceeding the conservative step bound
        # (heun/rk4 stability reaches beyond it); silence the per-step warning
        if float(c["integrator"].get("dt_safety", 1.0)) > 1.0:
            warnings.filterwarnings("ignore", message="dt=.*exceeds stable_dt")
        for k in range(1, nsteps + 1):
            state = P.step(state, kernels, dt, method=method, appendix_a=appendix_a)
            if k % stride == 0 or k == nsteps:
                states.append(state)
    return states


def _particles_to_T(scenario: Scenario, kernels: KernelSet, rho0: F.GridField, cadence=None):
    """Quantile particles of rho0 stepped to the scenario's T.  Returns the
    states at t = 0, about every `cadence` (None: none between) and at T, and
    the step size."""
    state = P.init_quantile(rho0, scenario.config["N"], schedule=kernels.schedule)
    nsteps, dt = P.fixed_steps(scenario.config["T"], _particle_dt(scenario, state, kernels))
    stride = max(1, int(round(cadence / dt))) if cadence else nsteps
    return _run_particles(scenario, kernels, state, nsteps, stride), dt


def run_scenario(scenario: Scenario, out_dir) -> RunArtifacts:
    """Execute every configured engine; write artifacts and the manifest."""
    t_start = time.time()
    c = scenario.config
    writer = _Writer(out_dir)
    writer.json("config.json", c)
    results = {}
    d = c["dimension"]
    rho0 = initial_density(scenario)
    writer.gridfield("initial.gf", rho0)
    sched = scenario.schedule()
    kernels = build_scenario_kernels(scenario, sched)
    results["kernels"] = kernels

    if "particles" in c["engines"]:
        states, dt = _particles_to_T(scenario, kernels, rho0, c["output"]["snapshot_every"])
        state = states[-1]
        writer.csv(
            "particles.csv",
            ["t", "particle_id"] + [f"x_{ax + 1}" for ax in range(d)],
            ([st.time, i, *st.positions[i]] for st in states for i in range(st.N)),
            "particle-snapshots-v1",
        )
        if sched.m == 2.0:
            appendix_a = c["appendix_a_mode"]
            writer.csv(
                "particle_energy.csv",
                ["t", "interaction_energy"],
                ([st.time, P.discrete_energy(st, kernels, appendix_a=appendix_a)]
                 for st in states),
                "particle-energy-v1",
            )
        results["particles"] = {"final_time": state.time, "dt": dt, "N": state.N}
        results["particle_state"] = state

    if "nl-grid" in c["engines"]:
        nus = c["pde_nonlocal"].get("nu", [0.0])
        kgrid = kernels.at_resolution(rho0.n)
        run = PN.run_nonlocal(
            rho0,
            sched,
            kgrid,
            T=c["T"],
            nu_sequence=nus,
            energy_every=c["output"]["energy_every"],
        )
        for idx, tr in enumerate(run.traces):
            writer.gridfield(f"nl_final_{idx}.gf", tr.final)
            writer.csv(
                f"nl_energy_{idx}.csv",
                _energy_header(d),
                _energy_rows(tr.reports),
                "energy-report-v1",
            )
        if run.l2_differences:
            writer.csv(
                "nl_nu_cauchy.csv",
                ["nu_high", "nu_low", "l2_difference"],
                [
                    [nus[i], nus[i + 1], run.l2_differences[i]]
                    for i in range(len(run.l2_differences))
                ],
                "nu-continuation-v1",
            )
        results["nl_run"] = run

    if "local-grid" in c["engines"]:
        run = PL.run_local(rho0, _local_config(scenario, kernels))
        writer.gridfield("local_final.gf", run.final)
        writer.csv(
            "local_energy.csv",
            ["t", "free_energy", "modified_energy", "sav_r", "mass", "min"],
            [
                [r["t"], r["free_energy"], r["modified_energy"], r["sav_r"], r["mass"], r["min"]]
                for r in run.records
            ],
            "local-energy-v1",
        )
        results["local_run"] = run
        results["local_flags"] = run.flags

    manifest = {
        "schema_version": SCHEMA_VERSION,
        "package": "torusdpa",
        "scenario": c["name"],
        "config_hash": scenario.hash(),
        "seed": c["seed"],
    }
    writer.json("runinfo.json", {"wall_seconds": time.time() - t_start}, volatile=True)
    manifest["files"] = sorted(writer.entries, key=lambda e: e["path"])
    (writer.out_dir / "manifest.json").write_text(json.dumps(manifest, sort_keys=True, indent=1))
    return RunArtifacts(
        out_dir=writer.out_dir,
        manifest_path=writer.out_dir / "manifest.json",
        files={e["path"]: e for e in writer.entries},
        results=results,
    )


# ---------------------------------------------------------------------------
# sweeps


# grid fields enter the sweeps' W2 as measures of at most this many atoms
_SWEEP_ATOMS = 4096


def _field_measure(fld: F.GridField, max_atoms=None, smooth_with=None):
    """Grid field as a measure; optionally smoothed by the same kernel as the
    particle kde so the comparison carries identical smoothing on both sides
    (convolution with a probability kernel is W2-nonexpansive)."""
    if smooth_with is not None:
        fld = F.periodic_convolve(fld, smooth_with)
    return T.grid_to_measure(F.GridField(np.maximum(fld.values, 0.0)), max_atoms=max_atoms)


def _w2(mu, nu, d):
    if d == 1:
        return T.w2_circle_exact(mu, nu)[0]
    return T.w2_exact_lp(mu, nu)[0]


def _check_sweep_w2(c, particle_counts=()):
    """Fail before any run when a sweep's exact W2 would refuse its measures:
    in 2-d each grid measure has up to the coarsened atom count, and the
    particle measures have the given counts."""
    n, d = c["grid"]["n"], c["dimension"]
    if d == 1:
        return
    atoms = (n // T.coarsening_factor(n, d, _SWEEP_ATOMS)) ** d
    for size in (atoms, *particle_counts):
        T.check_lp_size(size, atoms)


def convergence_sweep(base_scenario: Scenario, eps_list, out_dir=None):
    """Shared local run vs particle and nl-grid runs across decreasing eps.

    Each row also carries the grid runs it compares, under the run_scenario
    result keys "local_flags" and "nl_run" (for cli.invariant_breaches)."""
    if len(eps_list) < 3:
        raise ValueError("need at least 3 epsilon values")
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise ValueError("epsilon list must be strictly decreasing")
    c = base_scenario.config
    _check_sweep_w2(c)
    d = c["dimension"]
    rho0 = initial_density(base_scenario)
    kernels0 = build_scenario_kernels(base_scenario)
    local = PL.run_local(rho0, _local_config(base_scenario, kernels0))
    local_measure = _field_measure(local.final, max_atoms=_SWEEP_ATOMS)
    rows = []
    for eps in eps_list:
        sc = Scenario.from_dict(
            _merge(c, {"schedule": {**c["schedule"], "epsilon": eps}, "engines": []})
        )
        sched = sc.schedule()
        kset = build_scenario_kernels(sc, sched)
        kgrid = kset.at_resolution(rho0.n)
        nl = PN.run_nonlocal(rho0, sched, kgrid, T=c["T"], nu_sequence=(0.0,))
        nl_measure = _field_measure(nl.traces[0].final, max_atoms=_SWEEP_ATOMS)
        state = _particles_to_T(sc, kset, rho0)[0][-1]
        kde = F.kde_density(state, kset.omega_tilde, rho0.n)
        kde_measure = _field_measure(kde, max_atoms=_SWEEP_ATOMS)
        smooth = kgrid.omega_tilde
        rows.append(
            {
                "epsilon": eps,
                "w2_nl_local": _w2(nl_measure, local_measure, d),
                "w2_particle_local": _w2(
                    kde_measure, _field_measure(local.final, max_atoms=_SWEEP_ATOMS,
                                                smooth_with=smooth), d
                ),
                "w2_particle_nl": _w2(
                    kde_measure, _field_measure(nl.traces[0].final, max_atoms=_SWEEP_ATOMS,
                                                smooth_with=smooth), d
                ),
                "local_flags": local.flags,
                "nl_run": nl,
            }
        )
    if out_dir is not None:
        writer = _Writer(out_dir)
        writer.csv(
            "sweep_eps.csv",
            ["epsilon", "w2_nl_local", "w2_particle_local", "w2_particle_nl"],
            [[r["epsilon"], r["w2_nl_local"], r["w2_particle_local"], r["w2_particle_nl"]]
             for r in rows],
            "sweep-eps-v1",
        )
    return rows


def particle_count_sweep(base_scenario: Scenario, n_list, out_dir=None):
    """Fixed schedule, growing N: distance of the particle kde to the nl run.

    Each row also carries that nl run under the run_scenario key "nl_run"."""
    c = base_scenario.config
    _check_sweep_w2(c, [int(N) for N in n_list])
    d = c["dimension"]
    rho0 = initial_density(base_scenario)
    sched = base_scenario.schedule()
    kset = build_scenario_kernels(base_scenario, sched)
    kgrid = kset.at_resolution(rho0.n)
    nl = PN.run_nonlocal(rho0, sched, kgrid, T=c["T"], nu_sequence=(0.0,))
    # the asserted trend uses the raw empirical measure: any fixed smoothing
    # either annihilates the N-dependent granularity (smoothing both sides)
    # or buries it under an N-independent bias (smoothing one side)
    nl_measure = _field_measure(nl.traces[0].final, max_atoms=_SWEEP_ATOMS)
    nl_smoothed = _field_measure(nl.traces[0].final, max_atoms=_SWEEP_ATOMS,
                                 smooth_with=kgrid.omega_tilde)
    rows = []
    for N in n_list:
        sc = Scenario.from_dict(_merge(c, {"N": int(N), "engines": []}))
        state = _particles_to_T(sc, kset, rho0)[0][-1]
        emp = T.DiscreteMeasure(state.positions)
        kde = F.kde_density(state, kset.omega_tilde, rho0.n)
        kde_measure = _field_measure(kde, max_atoms=_SWEEP_ATOMS)
        rows.append(
            {
                "N": int(N),
                "w2_particle_nl": _w2(emp, nl_measure, d),
                "w2_kde_nl": _w2(kde_measure, nl_smoothed, d),
                "nl_run": nl,
            }
        )
    if out_dir is not None:
        writer = _Writer(out_dir)
        writer.csv(
            "sweep_n.csv",
            ["N", "w2_particle_nl", "w2_kde_nl"],
            [[r["N"], r["w2_particle_nl"], r["w2_kde_nl"]] for r in rows],
            "sweep-n-v1",
        )
    return rows


# ---------------------------------------------------------------------------
# contraction


def contraction_test(scenario: Scenario, delta: float, samples: int = 8, out_dir=None):
    """Twin particle runs; check W2(t) <= exp(|lambda| t) W2(0) (1 + 1%)."""
    c = scenario.config
    if c["m"] != 2.0:
        raise ValueError("contraction test requires m = 2")
    sched = scenario.schedule()
    if sched.alpha <= 0.0:
        raise ValueError("contraction test requires alpha > 0")
    d = c["dimension"]
    kernels = build_scenario_kernels(scenario, sched)
    lam = lambda_convexity_constant(kernels)
    rho0 = initial_density(scenario)
    state_a = P.init_quantile(rho0, c["N"], schedule=sched)
    rng = np.random.default_rng(c["seed"])
    if delta > 0:
        direction = rng.standard_normal(state_a.positions.shape)
        norms = np.linalg.norm(direction, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        shift = delta * direction / norms
    else:
        shift = np.zeros_like(state_a.positions)
    state_b = P.ParticleState(state_a.positions + shift, schedule=sched)

    def measure(sa, sb):
        mu = T.DiscreteMeasure(sa.positions)
        nu = T.DiscreteMeasure(sb.positions)
        return _w2(mu, nu, d)

    w0 = measure(state_a, state_b)
    # equal steps in `samples` equal legs, so every sample ends a step
    per_leg, _ = P.fixed_steps(c["T"] / samples, _particle_dt(scenario, state_a, kernels))
    nsteps = samples * per_leg
    twin_a = _run_particles(scenario, kernels, state_a, nsteps, per_leg)
    twin_b = _run_particles(scenario, kernels, state_b, nsteps, per_leg)
    rows = [{"t": 0.0, "w2": w0, "ratio": 1.0 if w0 > 0 else 0.0, "envelope": 1.0}]
    ok = True
    worst = 0.0
    offending = None
    for a, b in zip(twin_a[1:], twin_b[1:]):
        t = a.time
        w = measure(a, b)
        if w0 == 0.0:
            ratio = 0.0 if w == 0.0 else math.inf
        else:
            ratio = w / w0
        # |lambda| t can overflow exp; compare in log space
        log_env = abs(lam) * t + math.log(1.01)
        envelope = math.exp(log_env) if log_env < 700.0 else math.inf
        rows.append({"t": t, "w2": w, "ratio": ratio, "envelope": envelope})
        inside = ratio == 0.0 or math.log(max(ratio, 1e-300)) <= log_env
        frac = math.exp(math.log(max(ratio, 1e-300)) - log_env) if ratio > 0 else 0.0
        if frac > worst:
            worst = frac
            if not inside:
                offending = t
        ok = ok and inside
    report = {
        "lambda": lam,
        "delta": delta,
        "w2_initial": w0,
        "samples": rows,
        "max_envelope_fraction": worst,
        "pass": bool(ok),
        "offending_time": offending,
        "degenerate": bool(delta == 0.0),
    }
    if out_dir is not None:
        writer = _Writer(out_dir)
        writer.csv(
            "contraction.csv",
            ["t", "w2", "ratio", "envelope"],
            [[r["t"], r["w2"], r["ratio"], r["envelope"]] for r in rows],
            "contraction-v1",
        )
        writer.json("contraction_report.json",
                    {k: v for k, v in report.items() if k != "samples"})
    return report


# ---------------------------------------------------------------------------
# cluster diagnostics (qualitative pattern-formation metric)


def density_peaks(fld: F.GridField, rel_threshold: float = 0.5) -> np.ndarray:
    """Grid cells that are strict local maxima above a relative threshold."""
    v = fld.values
    mask = v >= v.min() + rel_threshold * (v.max() - v.min())
    if fld.d == 1:
        for s in (-1, 1):
            mask &= v >= np.roll(v, s)
    else:
        for s1 in (-1, 0, 1):
            for s2 in (-1, 0, 1):
                if s1 == 0 and s2 == 0:
                    continue
                mask &= v >= np.roll(np.roll(v, s1, axis=0), s2, axis=1)
    idx = np.argwhere(mask)
    if idx.size == 0:
        idx = np.argwhere(v == v.max())[:1]
    return idx / fld.n


def second_moment_about_peaks(points: np.ndarray, weights, centers: np.ndarray) -> float:
    """Weighted mean squared minimum-image distance to the nearest center."""
    from .geometry import min_image as _mi

    pts = np.atleast_2d(points)
    diff = _mi(pts[:, None, :], centers[None, :, :])
    dist2 = np.min(np.sum(diff * diff, axis=-1), axis=1)
    w = np.asarray(weights, dtype=float)
    return float(np.sum(w * dist2) / np.sum(w))


def clustering_report(scenario: Scenario, artifacts: RunArtifacts, kde_n: int = 64) -> dict:
    """Second-moment-about-clusters drop between t=0 and T for both engines,
    with the kernel set that run_scenario built for the artifacts."""
    c = scenario.config
    kernels = artifacts.results["kernels"]
    rho0 = initial_density(scenario)
    out = {}
    if "particle_state" in artifacts.results:
        state = artifacts.results["particle_state"]
        init = P.init_quantile(rho0, c["N"], schedule=kernels.schedule)
        for label, st in (("initial", init), ("final", state)):
            kde = F.kde_density(st, kernels.omega_tilde, kde_n)
            centers = density_peaks(kde)
            out[f"particles_{label}_moment"] = second_moment_about_peaks(
                st.positions, np.full(st.N, 1.0 / st.N), centers
            )
            out[f"particles_{label}_peaks"] = len(centers)
        out["particles_drop"] = 1.0 - out["particles_final_moment"] / out[
            "particles_initial_moment"
        ]
    if "local_run" in artifacts.results:
        run = artifacts.results["local_run"]
        for label, fld in (("initial", rho0), ("final", run.final)):
            centers = density_peaks(fld)
            x = np.arange(fld.n) / fld.n
            X, Y = np.meshgrid(x, x, indexing="ij")
            pts = np.column_stack([X.ravel(), Y.ravel()])
            w = np.maximum(fld.values.ravel(), 0.0)
            out[f"local_{label}_moment"] = second_moment_about_peaks(pts, w, centers)
            out[f"local_{label}_peaks"] = len(centers)
        out["local_drop"] = 1.0 - out["local_final_moment"] / out["local_initial_moment"]
    return out


# ---------------------------------------------------------------------------
# presets


PRESETS = {
    "default-1d": {
        "name": "default-1d",
        "dimension": 1,
        "m": 2.0,
        "N": 1000,
        "T": 0.01,
        "seed": 1234,
        "initial": {"type": "uniform-plus-modes", "amplitudes": [0.5]},
        "schedule": {"epsilon": 0.1, "epsilon_tilde": 0.25, "epsilon_star": 0.3,
                      "alpha": 0.08},
        "kernels": {"kind": "truncated-gaussian", "omega_moment": "target",
                     "moment_coefficient": 2.0, "tilde_moment": "natural"},
        "engines": ["particles", "nl-grid", "local-grid"],
        "grid": {"n": 512},
        "output": {"snapshot_every": 0.002, "energy_every": 0.0005},
    },
    "contraction-1d": {
        "name": "contraction-1d",
        "dimension": 1,
        "m": 2.0,
        "N": 128,
        "T": 0.1,
        "seed": 77,
        "initial": {"type": "uniform-plus-modes", "amplitudes": [0.5]},
        "schedule": {"epsilon": 0.1, "epsilon_tilde": 0.25, "epsilon_star": 0.3,
                      "alpha": 0.1},
        "kernels": {"kind": "truncated-gaussian", "omega_moment": "target",
                     "moment_coefficient": 2.0, "tilde_moment": "natural"},
        "integrator": {"method": "heun", "dt": "auto", "dt_safety": 1.0},
        "engines": ["particles"],
        "grid": {"n": 512},
    },
    "fig1-2d": {
        "name": "fig1-2d",
        "dimension": 2,
        "m": 2.0,
        "N": 750,
        "T": 0.35,
        "seed": 2024,
        "appendix_a_mode": True,
        "initial": {"type": "random-fourier", "kmax": 2, "amplitude": 0.35},
        "schedule": {"epsilon": 0.1, "epsilon_tilde": 0.12, "epsilon_star": 0.3,
                      "alpha": 0.0},
        "kernels": {"kind": "truncated-gaussian", "omega_moment": "target",
                     "moment_coefficient": 0.05, "tilde_moment": "natural",
                     "table_points": 512},
        "integrator": {"method": "heun", "dt": "auto", "dt_safety": 2.0},
        "engines": ["particles", "local-grid"],
        "grid": {"n": 128},
        "pde_local": {"dt": 2e-5, "biharmonic_coeff": "auto", "kappa": None, "C0": 300.0},
        "output": {"snapshot_every": 0.125, "energy_every": 0.05},
    },
}
