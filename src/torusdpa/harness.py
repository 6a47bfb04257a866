"""Scenario configuration, run orchestration, and reproducible artifacts.

A Scenario is a plain dict-backed description (JSON or YAML on disk) of one
experiment: initial density, parameter schedule, kernel construction, which
engines to run (particles / nl-grid / local-grid), and output cadence.
run_scenario executes it into a directory of CSV/binary artifacts plus a
manifest whose hashes are byte-reproducible for a fixed seed; wall-clock
data goes to a separate volatile file so the manifest stays deterministic.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import time
import warnings
from dataclasses import dataclass, field as dc_field
from pathlib import Path

import numpy as np

from . import fields as F
from . import particles as P
from . import pde_local as PL
from . import pde_nonlocal as PN
from . import transport as T
from .kernels import (
    DEFAULT_TABLE_POINTS,
    MOLLIFIER_KINDS,
    KernelResolutionError,
    KernelSet,
    ParameterSchedule,
    build_kernel_set,
    lambda_convexity_constant,
    schedule_from_epsilon,
)

__all__ = [
    "Scenario",
    "SCENARIO_KEYS",
    "ENGINES",
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

ENGINES = ("particles", "nl-grid", "local-grid")

# Every scenario key, once: dotted key -> (default, type, range or choices).
# A default of ... marks a key that is absent unless given (null is the same as
# absent).  A key accepts its default, or a value of its type (float: any
# number; bool is not a number; [t]: a list of t) within the range ("> x",
# ">= x") or among the choices; nothing is coerced.  Ranges the library checks
# itself (epsilon, m, alpha and the schedule ordering) are left to it.
SCENARIO_KEYS = {
    "name": ("unnamed", str, None),
    "dimension": (1, int, (1, 2)),
    "m": (2.0, float, None),
    "N": (1000, int, ">= 1"),
    "T": (0.01, float, ">= 0"),
    "seed": (1234, int, ">= 0"),
    "appendix_a_mode": (False, bool, None),
    "initial.type": ("uniform-plus-modes", str, ("uniform-plus-modes", "random-fourier", "file")),
    "initial.amplitudes": ([0.5], [float], None),
    "initial.kmax": (..., int, ">= 0"),
    "initial.amplitude": (..., float, None),
    "initial.path": (..., str, None),
    "schedule.epsilon": (0.1, float, None),
    "schedule.epsilon_tilde": (..., float, None),
    "schedule.epsilon_star": (..., float, None),
    "schedule.alpha": (..., float, None),
    "schedule.c": (..., float, None),
    "kernels.kind": ("truncated-gaussian", str, MOLLIFIER_KINDS),
    "kernels.omega_moment": ("target", str, ("target", "natural")),
    "kernels.moment_coefficient": (2.0, float, "> 0"),
    "kernels.tilde_moment": ("natural", str, ("target", "natural")),
    "kernels.table_points": (None, int, ">= 1"),
    "kernels.viscosity_k": (4.0, float, None),
    "integrator.method": ("rk4", str, P.METHODS),
    "integrator.dt": ("auto", float, "> 0"),
    "integrator.dt_safety": (1.0, float, "> 0"),
    "engines": (["particles"], [str], ENGINES),
    "grid.n": (512, int, ">= 3"),
    "pde_local.dt": (1e-6, float, "> 0"),
    "pde_local.biharmonic_coeff": ("auto", float, ">= 0"),
    "pde_local.kappa": (None, float, ">= 0"),
    "pde_local.C0": (None, float, None),
    "pde_nonlocal.nu": ([0.0], [float], ">= 0"),
    "output.snapshot_every": (None, float, "> 0"),
    "output.energy_every": (None, float, "> 0"),
}
_BLOCKS = {key.split(".")[0] for key in SCENARIO_KEYS if "." in key}
_NOUNS = {bool: "true or false", int: "an integer", float: "a number", str: "a string"}


def _defaults() -> dict:
    out = {}
    for key, (default, _, _) in SCENARIO_KEYS.items():
        if default is not ...:
            *block, leaf = key.split(".")
            (out.setdefault(block[0], {}) if block else out)[leaf] = default
    return out


_DEFAULTS = _defaults()


def _fits(value, kind, rule) -> bool:
    if isinstance(kind, list):
        return isinstance(value, list) and all(_fits(v, kind[0], rule) for v in value)
    if kind is float:
        ok = isinstance(value, (int, float)) and math.isfinite(value)
    else:
        ok = isinstance(value, kind)
    if not ok or isinstance(value, bool) != (kind is bool):
        return False
    if isinstance(rule, str):
        op, bound = rule.split()
        return value > float(bound) if op == ">" else value >= float(bound)
    return rule is None or value in rule


def _expected(default, kind, rule) -> str:
    item = kind[0] if isinstance(kind, list) else kind
    text = (f"one of {', '.join(map(str, rule))}" if isinstance(rule, tuple)
            else _NOUNS[item] + (f" {rule}" if rule else ""))
    if isinstance(kind, list):
        return "a list, each item " + text
    default = None if default is ... else default
    return text if isinstance(default, kind) else f"{text} or {json.dumps(default)}"


def _check_keys(cfg: dict, prefix: str = ""):
    """Walk a merged config against SCENARIO_KEYS; raise on the first key that
    is unknown, or whose value is not its default and not of its type and range."""
    for key, value in cfg.items():
        dotted = prefix + key
        if dotted in _BLOCKS:
            if not isinstance(value, dict):
                raise ValueError(f"{dotted!r} needs a mapping, got {value!r}")
            _check_keys(value, dotted + ".")
        elif dotted not in SCENARIO_KEYS:
            from difflib import get_close_matches

            names = {name: name for name in [*SCENARIO_KEYS, *_BLOCKS]}
            names.update((name.split(".")[-1], name) for name in SCENARIO_KEYS)
            close = get_close_matches(dotted, names, n=1)
            hint = f"; did you mean {names[close[0]]!r}?" if close else ""
            raise ValueError(f"unknown scenario key {dotted!r}{hint}")
        else:
            default, kind, rule = SCENARIO_KEYS[dotted]
            same = type(value) is type(default) and value == default
            if not (same or (default is ... and value is None) or _fits(value, kind, rule)):
                raise ValueError(f"{dotted} must be {_expected(default, kind, rule)}, "
                                 f"got {value!r}")


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
        """The defaults merged with raw, every key checked against
        SCENARIO_KEYS and the schedule built, so a bad config fails here."""
        cfg = _merge(_DEFAULTS, raw)
        _check_keys(cfg)
        if cfg["initial"]["type"] == "file" and cfg["initial"].get("path") is None:
            raise ValueError("initial.type file needs initial.path")
        if "nl-grid" in cfg["engines"] and not cfg["pde_nonlocal"]["nu"]:
            raise ValueError("the nl-grid engine needs at least one pde_nonlocal.nu")
        if cfg["schedule"].get("c") is not None and cfg["schedule"].get("alpha") is not None:
            raise ValueError("schedule.c and schedule.alpha are both given, but c only derives "
                             "alpha = exp(-c/epsilon); give one of them")
        sc = cls(config=cfg)
        sc.schedule()
        return sc

    def hash(self) -> str:
        """sha256 of the canonical config.json (the merged config)."""
        text = json.dumps(self.config, sort_keys=True, indent=1)
        return hashlib.sha256(text.encode()).hexdigest()

    def schedule(self) -> ParameterSchedule:
        c = self.config
        given = {k: v for k, v in c["schedule"].items() if v is not None}
        return schedule_from_epsilon(d=c["dimension"], m=c["m"], **given)


def load_scenario(path_or_name) -> Scenario:
    """Load a scenario from a preset name or a JSON/YAML file.  pyyaml is
    imported only for a file that is not JSON."""
    if str(path_or_name) in PRESETS:
        return Scenario.from_dict(PRESETS[str(path_or_name)])
    text = Path(path_or_name).read_text()
    try:
        raw = json.loads(text)
    except json.JSONDecodeError:
        import yaml

        try:
            raw = yaml.safe_load(text)
        except yaml.YAMLError as exc:
            mark = getattr(exc, "problem_mark", None)
            where = f" (line {mark.line + 1}, column {mark.column + 1})" if mark else ""
            raise ValueError(f"{path_or_name}: neither JSON nor YAML{where}") from None
    if not isinstance(raw, dict):
        raise ValueError(f"{path_or_name}: a scenario file holds a mapping, "
                         f"got {type(raw).__name__}")
    return Scenario.from_dict(raw)


# ---------------------------------------------------------------------------
# scenario ingredients


def _random_fourier(x, d, rng, kmax=4, amplitude=0.4):
    """Seeded random Fourier modes up to kmax per axis, scaled to the given
    relative amplitude around 1."""
    if d == 1:
        vals = np.zeros(x.size)
        for k in range(1, kmax + 1):
            a, b = rng.standard_normal(2) / k
            vals += a * np.cos(2 * np.pi * k * x) + b * np.sin(2 * np.pi * k * x)
    else:
        X, Y = np.meshgrid(x, x, indexing="ij")
        vals = np.zeros((x.size, x.size))
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
    return 1.0 + amplitude * vals / scale


def initial_density(scenario: Scenario) -> F.GridField:
    """Build the seeded nonnegative unit-mass initial density on the grid."""
    c = scenario.config
    n = c["grid"]["n"]
    d = c["dimension"]
    spec = c["initial"]
    x = np.arange(n) / n
    if spec["type"] == "file":
        fld = F.load_gridfield(spec["path"])
        if (fld.d, fld.n) != (d, n):
            raise ValueError(f"initial.path {spec['path']} holds a field with d = {fld.d}, "
                             f"n = {fld.n}, but the scenario has dimension {d} and grid.n {n}")
        return fld
    if spec["type"] == "random-fourier":
        # the function's own defaults fill a kmax or amplitude not given
        given = {k: spec[k] for k in ("kmax", "amplitude") if spec.get(k) is not None}
        vals = _random_fourier(x, d, np.random.default_rng(c["seed"]), **given)
    else:
        # a_k sin(2 pi k x_1) ... sin(2 pi k x_d), multiplied in axis order
        axes = np.meshgrid(*(x,) * d, indexing="ij", sparse=True)
        vals = np.ones((n,) * d)
        for k, a in enumerate(spec["amplitudes"], start=1):
            mode = a
            for xi in axes:
                mode = mode * np.sin(2 * np.pi * k * xi)
            vals += mode
    vals = np.maximum(vals, 0.0)
    vals = vals / (vals.sum() * (1.0 / n) ** d)
    return F.GridField(vals)


def build_scenario_kernels(scenario: Scenario) -> KernelSet:
    """The kernel set of a scenario's schedule and kernel keys; the set
    carries the schedule every engine reads."""
    c = scenario.config
    kc = c["kernels"]
    schedule = scenario.schedule()
    coeff = float(kc["moment_coefficient"])
    try:
        return build_kernel_set(
            schedule,
            kind=kc["kind"],
            table_points=kc["table_points"],
            omega_moment=(coeff * schedule.epsilon**2
                          if kc["omega_moment"] == "target" else None),
            tilde_moment=(coeff * schedule.epsilon_tilde**2
                          if kc["tilde_moment"] == "target" else None),
            viscosity_k=float(kc["viscosity_k"]),
            appendix_a=c["appendix_a_mode"],
        )
    except KernelResolutionError as exc:
        if c["appendix_a_mode"] or schedule.alpha == 0.0 or c["schedule"].get("alpha") is not None:
            raise
        raise KernelResolutionError(
            f"{exc}; alpha = exp(-c/epsilon) = {schedule.alpha:.3g} was derived from "
            f"epsilon = {schedule.epsilon:g}, so set schedule.alpha, or appendix_a_mode "
            f"to drop the viscosity term") from None


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

    def csv(self, name: str, header, table, schema: str):
        with open(self.out_dir / name, "w", newline="") as fh:
            np.savetxt(fh, table, fmt="%.17g", delimiter=",", newline="\r\n",
                       header=",".join(header), comments="")
        return self.register(name, schema)

    def gridfield(self, name: str, fld: F.GridField):
        F.save_gridfield(fld, self.out_dir / name)
        return self.register(name, "gridfield-binary-v1")

    def json(self, name: str, obj, volatile: bool = False):
        path = self.out_dir / name
        path.write_text(json.dumps(obj, sort_keys=True, indent=1))
        return self.register(name, "json", volatile=volatile)


# ---------------------------------------------------------------------------
# engines


def _particle_steps(scenario: Scenario, kernels: KernelSet, T: float) -> int:
    """fixed_steps' count of the particle steps to T; a count past
    particles.MAX_STEPS raises ValueError, naming the keys that set the step.
    A count that passes warns (RuntimeWarning) when an explicit integrator.dt
    steps above stable_dt; dt "auto" is dt_safety times stable_dt, so a
    dt_safety above 1 opts in and never warns."""
    integ = scenario.config["integrator"]
    stable = P.stable_dt(kernels)
    if integ["dt"] == "auto":
        dt = stable * float(integ["dt_safety"])
        source = (f"integrator.dt_safety = {float(integ['dt_safety']):g} times the "
                  f"schedule's stable step {stable:.3g}")
    else:
        dt, source = float(integ["dt"]), "integrator.dt"
    nsteps, dt = P.fixed_steps(T, dt, source)
    if integ["dt"] != "auto" and dt > stable:
        warnings.warn(f"dt={dt:.3e} (integrator.dt) exceeds stable_dt={stable:.3e}",
                      RuntimeWarning)
    return nsteps


def _plan(scenario: Scenario, rho0: F.GridField, engines=None, T=None) -> tuple:
    """Every check a run of `engines` to T (default: the scenario's) needs
    before it starts or writes a file.  Returns (kernel set, step count per
    engine, local solver settings, the nl-grid kernel set at rho0's
    resolution), the last two None for an engine not run.  A count past
    particles.MAX_STEPS raises ValueError.  The nonlocal step is adaptive, so
    its count is T over the first CFL step on rho0: a floor where velocities
    grow as mass gathers, as they do in the presets."""
    c = scenario.config
    engines = c["engines"] if engines is None else engines
    T = c["T"] if T is None else T
    if not engines:
        raise ValueError(f"engines is empty, so the scenario runs nothing; list at least one "
                         f"of {', '.join(ENGINES)}")
    # at alpha = 0 the set carries no R_alpha for the particles' viscosity
    # term; checked first, since a kernel resolution error would hide it
    if "particles" in engines and not c["appendix_a_mode"] and scenario.schedule().alpha == 0.0:
        how = "given" if c["schedule"].get("alpha") is not None else "from exp(-c/epsilon)"
        raise ValueError(f"the particles' viscosity term needs alpha > 0, and alpha = 0 "
                         f"({how}); set schedule.alpha > 0, or appendix_a_mode to drop it")
    kernels = build_scenario_kernels(scenario)
    steps, local_cfg, kgrid = {}, None, None
    if "particles" in engines:
        steps["particles"] = _particle_steps(scenario, kernels, T)
    if "local-grid" in engines:
        lc = c["pde_local"]
        coeff = lc["biharmonic_coeff"]
        if coeff == "auto":  # matched to the omega moment convention
            coeff = 0.5 * float(kernels.omega.second_moment_target) / kernels.schedule.epsilon**2
        steps["local-grid"] = P.fixed_steps(T, float(lc["dt"]), "pde_local.dt")[0]
        local_cfg = PL.LocalSolverConfig(dt=float(lc["dt"]), m=c["m"], T=T, kappa=lc["kappa"],
                                         C0=lc["C0"], biharmonic_coeff=float(coeff),
                                         energy_every=c["output"]["energy_every"])
        local_cfg.initial_shift(rho0)  # C0 must exceed E_m[rho0]
    if "nl-grid" in engines:
        kgrid = kernels.at_resolution(rho0.n)
        dt0 = PN.cfl_step(rho0, F.velocity_field_nl(rho0, kgrid, at_faces=True))
        what = (f"the nonlocal engine's first CFL step on rho0, at epsilon_star = "
                f"{kernels.schedule.epsilon_star:g},")
        steps["nl-grid"] = P.fixed_steps(T, dt0, what)[0]
    return kernels, steps, local_cfg, kgrid


def _run_particles(scenario: Scenario, kernels: KernelSet, state, nsteps: int, every):
    """The particle stepping loop: nsteps equal steps from `state`, one
    system or a batch of them (particles.ParticleState), to the scenario's T.
    Returns the states at step 0, at the first step at or past
    each multiple of the time cadence `every` (None: none) and at the last
    step; the state after step k holds the time k dt, the rule of the grid
    engines' records, not a sum of steps."""
    c = scenario.config
    dt = c["T"] / nsteps if nsteps else 0.0
    method = c["integrator"]["method"]
    due = every = every or math.inf
    states = [state]
    for k in range(1, nsteps + 1):
        state = P.step(state, kernels, dt, method=method)
        state.time = k * dt
        if state.time >= due - P.SAMPLE_TOL or k == nsteps:
            states.append(state)
            due += every
    return states


def run_scenario(scenario: Scenario, out_dir) -> RunArtifacts:
    """Plan, run every configured engine, then write the artifacts and the
    manifest: a run that raises writes no file.  The results keep rho0 and,
    for a particle run, the initial particles."""
    t_start = time.time()
    c = scenario.config
    d = c["dimension"]
    engines, nus = c["engines"], c["pde_nonlocal"]["nu"]
    rho0 = initial_density(scenario)
    kernels, steps, local_cfg, kgrid = _plan(scenario, rho0)
    results = {"kernels": kernels, "rho0": rho0}
    if "particles" in engines:
        states = _run_particles(scenario, kernels, P.init_quantile(rho0, c["N"]),
                                steps["particles"], c["output"]["snapshot_every"])
        times = [st.time for st in states]
        energies = [P.discrete_energy(st, kernels) for st in states] if c["m"] == 2.0 else None
        results["particle_initial_state"], results["particle_state"] = states[0], states[-1]
    if "nl-grid" in engines:
        nl = results["nl_run"] = PN.run_nonlocal(rho0, kgrid, T=c["T"], nu_sequence=nus,
                                                 energy_every=c["output"]["energy_every"])
    if "local-grid" in engines:
        local = results["local_run"] = PL.run_local(rho0, local_cfg)
        results["local_flags"] = local.flags

    # every engine has returned: only now is a file written
    writer = _Writer(out_dir)
    writer.json("config.json", c)
    writer.gridfield("initial.gf", rho0)
    if "particles" in engines:
        table = np.column_stack([np.repeat(times, c["N"]), np.tile(np.arange(c["N"]), len(states)),
                                 np.concatenate([st.positions for st in states])])
        writer.csv("particles.csv", ["t", "particle_id"] + [f"x_{ax + 1}" for ax in range(d)],
                   table, "particle-snapshots-v1")
        if energies is not None:
            writer.csv("particle_energy.csv", ["t", "interaction_energy"],
                       np.column_stack([times, energies]), "particle-energy-v1")
    if "nl-grid" in engines:
        for idx, tr in enumerate(nl.traces):
            writer.gridfield(f"nl_final_{idx}.gf", tr.final)
            writer.csv(f"nl_energy_{idx}.csv", F.EnergyReport.header(d),
                       [rep.row() for rep in tr.reports], "energy-report-v1")
        if nl.l2_differences:
            writer.csv("nl_nu_cauchy.csv", ["nu_high", "nu_low", "l2_difference"],
                       np.column_stack([nus[:-1], nus[1:], nl.l2_differences]),
                       "nu-continuation-v1")
    if "local-grid" in engines:
        writer.gridfield("local_final.gf", local.final)
        cols = ["t", "free_energy", "modified_energy", "sav_r", "mass", "min"]
        writer.csv("local_energy.csv", cols, [[r[k] for k in cols] for r in local.records],
                   "local-energy-v1")

    manifest = {
        "schema_version": SCHEMA_VERSION,
        "package": "torusdpa",
        "scenario": c["name"],
        "config_hash": scenario.hash(),
        "seed": c["seed"],
    }
    writer.json("runinfo.json", {"wall_seconds": time.time() - t_start, "planned_steps": steps},
                volatile=True)
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


# grid fields enter the sweeps' W2, and torusdpa w2's by default, as measures
# of at most this many atoms
_SWEEP_ATOMS = 4096


def _field_measure(fld: F.GridField, smooth_with=None):
    """Grid field as a measure of at most _SWEEP_ATOMS atoms; optionally
    smoothed by the same kernel as the particle kde so the comparison carries
    identical smoothing on both sides (convolution with a probability kernel
    is W2-nonexpansive)."""
    if smooth_with is not None:
        fld = F.periodic_convolve(fld, smooth_with)
    return T.grid_to_measure(F.GridField(np.maximum(fld.values, 0.0)), max_atoms=_SWEEP_ATOMS)


def _check_sweep(c, rho0: F.GridField, n_list=()):
    """Fail before any run when the sweep's kde grid (the initial field's)
    does not divide the kernel table size (fields.check_kde_size), when the
    coarsening of its fields to _SWEEP_ATOMS does not divide it, or when a
    particle count of n_list is not a valid N."""
    F.check_kde_size(rho0.n, c["kernels"]["table_points"] or
                     DEFAULT_TABLE_POINTS[c["dimension"]])
    T.coarsening_factor(rho0.n, rho0.d, _SWEEP_ATOMS)
    for N in n_list:
        _check_keys({"N": int(N)})


def convergence_sweep(base_scenario: Scenario, eps_list, out_dir=None):
    """Shared local run vs particle and nl-grid runs across decreasing eps.

    Each row also carries the grid runs it compares, under the run_scenario
    result keys "local_flags" and "nl_run" (for cli.invariant_breaches); the
    nl_run carries its energy reports at t = 0 and T only."""
    if len(eps_list) < 3:
        raise ValueError("need at least 3 epsilon values")
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise ValueError("epsilon list must be strictly decreasing")
    c = base_scenario.config
    rho0 = initial_density(base_scenario)
    _check_sweep(c, rho0)
    # every eps's plan, and the shared local run's, passes before any run, so
    # an eps the particles, the tables or the step cap cannot take fails at
    # entry; each set, with the mesh caches its particle run fills, is
    # dropped as the next eps starts
    plan = []
    for eps in eps_list:
        sc = Scenario.from_dict(_merge(c, {"schedule": {"epsilon": eps}}))
        plan.append((eps, sc, *_plan(sc, rho0, ("particles", "nl-grid"))))
    _, _, local_cfg, _ = _plan(base_scenario, rho0, ("local-grid",))
    local = PL.run_local(rho0, local_cfg)
    local_measure = _field_measure(local.final)
    rows = []
    while plan:
        eps, sc, kset, steps, _, kgrid = plan.pop(0)
        nl = PN.run_nonlocal(rho0, kgrid, T=c["T"], nu_sequence=(0.0,), energy_every=c["T"])
        nl_measure = _field_measure(nl.traces[0].final)
        state = _run_particles(sc, kset, P.init_quantile(rho0, c["N"]), steps["particles"],
                               None)[-1]
        kde = F.kde_density(state, kset.omega_tilde, rho0.n)
        kde_measure = _field_measure(kde)
        smooth = kgrid.omega_tilde
        rows.append({
            "epsilon": eps,
            "w2_nl_local": T.w2(nl_measure, local_measure),
            "w2_particle_local": T.w2(
                kde_measure, _field_measure(local.final, smooth)),
            "w2_particle_nl": T.w2(
                kde_measure, _field_measure(nl.traces[0].final, smooth)),
            "local_flags": local.flags,
            "nl_run": nl,
        })
    if out_dir is not None:
        cols = ["epsilon", "w2_nl_local", "w2_particle_local", "w2_particle_nl"]
        _Writer(out_dir).csv("sweep_eps.csv", cols, [[r[k] for k in cols] for r in rows],
                             "sweep-eps-v1")
    return rows


def particle_count_sweep(base_scenario: Scenario, n_list, out_dir=None):
    """Fixed schedule, growing N: distance of the particle kde to the nl run.

    Each row also carries that nl run under the run_scenario key "nl_run",
    with its energy reports at t = 0 and T only."""
    c = base_scenario.config
    rho0 = initial_density(base_scenario)
    _check_sweep(c, rho0, n_list)
    # the particle step does not depend on N
    kset, steps, _, kgrid = _plan(base_scenario, rho0, ("particles", "nl-grid"))
    nl = PN.run_nonlocal(rho0, kgrid, T=c["T"], nu_sequence=(0.0,), energy_every=c["T"])
    # the asserted trend uses the raw empirical measure: any fixed smoothing
    # either annihilates the N-dependent granularity (smoothing both sides)
    # or buries it under an N-independent bias (smoothing one side)
    nl_measure = _field_measure(nl.traces[0].final)
    nl_smoothed = _field_measure(nl.traces[0].final, smooth_with=kgrid.omega_tilde)
    rows = []
    for N in n_list:
        state = _run_particles(base_scenario, kset, P.init_quantile(rho0, int(N)),
                               steps["particles"], None)[-1]
        emp = T.DiscreteMeasure(state.positions)
        kde = F.kde_density(state, kset.omega_tilde, rho0.n)
        kde_measure = _field_measure(kde)
        rows.append({"N": int(N), "w2_particle_nl": T.w2(emp, nl_measure),
                     "w2_kde_nl": T.w2(kde_measure, nl_smoothed), "nl_run": nl})
    if out_dir is not None:
        cols = ["N", "w2_particle_nl", "w2_kde_nl"]
        _Writer(out_dir).csv("sweep_n.csv", cols, [[r[k] for k in cols] for r in rows],
                             "sweep-n-v1")
    return rows


# ---------------------------------------------------------------------------
# contraction


def contraction_test(scenario: Scenario, delta: float, samples: int = 8, out_dir=None):
    """Twin particle runs, stepped as one batch of two systems (one
    _run_particles); check W2(t) <= exp(|lambda| t) W2(0) (1 + 1%)."""
    c = scenario.config
    if c["m"] != 2.0:
        raise ValueError("contraction test requires m = 2")
    if scenario.schedule().alpha <= 0.0:
        raise ValueError("contraction test requires alpha > 0")
    if not 0.0 <= delta <= 0.5:
        raise ValueError(f"--delta, the twins' initial offset, must be a number in [0, 1/2], "
                         f"past which the torus wraps it, got {delta!r}")
    rho0 = initial_density(scenario)
    # equal steps in `samples` equal legs, so every sample ends a step
    kernels, steps, _, _ = _plan(scenario, rho0, ("particles",), c["T"] / samples)
    nsteps = P.check_steps(samples * steps["particles"], f"each twin run of {samples} legs")
    lam = lambda_convexity_constant(kernels)
    state_a = P.init_quantile(rho0, c["N"])
    # at delta = 0 the shift is +-0.0 and the twins stay bit-identical
    direction = np.random.default_rng(c["seed"]).standard_normal(state_a.positions.shape)
    norms = np.linalg.norm(direction, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    # the twins step as one batch of two systems, each bit for bit as alone
    twins = P.ParticleState(np.stack([state_a.positions,
                                      state_a.positions + delta * direction / norms]))

    def measure(st):
        return T.w2(T.DiscreteMeasure(st.positions[0]), T.DiscreteMeasure(st.positions[1]))

    w0 = measure(twins)
    snapshots = _run_particles(scenario, kernels, twins, nsteps, c["T"] / samples)
    rows = [{"t": 0.0, "w2": w0, "ratio": 1.0 if w0 > 0 else 0.0, "envelope": 1.0}]
    # log(ratio / envelope) per sample, -inf at ratio 0: |lambda| t can overflow exp
    fracs = []
    for st in snapshots[1:]:
        w = measure(st)
        ratio = w / w0 if w0 != 0.0 else (0.0 if w == 0.0 else math.inf)
        log_env = abs(lam) * st.time + math.log(1.01)
        rows.append({"t": st.time, "w2": w, "ratio": ratio,
                     "envelope": math.exp(log_env) if log_env < 700.0 else math.inf})
        fracs.append(-math.inf if ratio == 0.0 else math.log(max(ratio, 1e-300)) - log_env)
    # a nan W2 fails the test but stays out of the reported maximum
    worst = max((f for f in fracs if not math.isnan(f)), default=-math.inf)
    report = {
        "lambda": lam,
        "delta": delta,
        "w2_initial": w0,
        "samples": rows,
        "max_envelope_fraction": math.exp(worst),
        "pass": all(f <= 0.0 for f in fracs),
        "offending_time": rows[1 + fracs.index(worst)]["t"] if worst > 0.0 else None,
        "degenerate": bool(delta == 0.0),
    }
    if out_dir is not None:
        writer = _Writer(out_dir)
        cols = ["t", "w2", "ratio", "envelope"]
        writer.csv("contraction.csv", cols, [[r[k] for k in cols] for r in rows],
                   "contraction-v1")
        writer.json("contraction_report.json",
                    {k: v for k, v in report.items() if k != "samples"})
    return report


# ---------------------------------------------------------------------------
# cluster diagnostics (qualitative pattern-formation metric)

# density_peaks keeps the maxima above this share of the field's range
_PEAK_LEVEL = 0.5


def density_peaks(fld: F.GridField) -> np.ndarray:
    """Grid cells in the upper half of the field's range (_PEAK_LEVEL) that
    are local maxima, above their neighbours at half of the 3^d - 1 offsets
    and not below the rest: a run of equal cells on a line, or a 2 x 2 block,
    counts once, a bent plateau may count more than once, and a flat field
    falls back to its first maximum."""
    v = fld.values
    mask = v >= v.min() + _PEAK_LEVEL * (v.max() - v.min())
    axes = tuple(range(fld.d))
    shifts = [s for s in itertools.product((-1, 0, 1), repeat=fld.d) if any(s)]
    for i, shift in enumerate(shifts):
        rolled = np.roll(v, shift, axis=axes)
        mask &= v > rolled if i < len(shifts) // 2 else v >= rolled
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
    with the kernel set, rho0 and initial particles of the artifacts' run."""
    results = artifacts.results
    kernels = results["kernels"]
    out = {}
    if "particle_state" in results:
        for label, st in (("initial", results["particle_initial_state"]),
                          ("final", results["particle_state"])):
            kde = F.kde_density(st, kernels.omega_tilde, kde_n)
            centers = density_peaks(kde)
            out[f"particles_{label}_moment"] = second_moment_about_peaks(
                st.positions, np.full(st.N, 1.0 / st.N), centers)
            out[f"particles_{label}_peaks"] = len(centers)
        initial, final = out["particles_initial_moment"], out["particles_final_moment"]
        out["particles_drop"] = 1.0 - final / initial
    if "local_run" in results:
        for label, fld in (("initial", results["rho0"]), ("final", results["local_run"].final)):
            centers = density_peaks(fld)
            axes = np.meshgrid(*[np.arange(fld.n) / fld.n] * fld.d, indexing="ij")
            pts = np.stack(axes, axis=-1).reshape(-1, fld.d)
            w = np.maximum(fld.values.ravel(), 0.0)
            out[f"local_{label}_moment"] = second_moment_about_peaks(pts, w, centers)
            out[f"local_{label}_peaks"] = len(centers)
        out["local_drop"] = 1.0 - out["local_final_moment"] / out["local_initial_moment"]
    return out


# ---------------------------------------------------------------------------
# presets


# Entries equal to the SCENARIO_KEYS defaults are left out.
PRESETS = {
    "default-1d": {
        "name": "default-1d",
        "schedule": {"epsilon": 0.1, "epsilon_tilde": 0.25, "epsilon_star": 0.3,
                      "alpha": 0.08},
        "engines": ["particles", "nl-grid", "local-grid"],
        "output": {"snapshot_every": 0.002, "energy_every": 0.0005},
    },
    "contraction-1d": {
        "name": "contraction-1d",
        "N": 128,
        "T": 0.1,
        "seed": 77,
        "schedule": {"epsilon": 0.1, "epsilon_tilde": 0.25, "epsilon_star": 0.3,
                      "alpha": 0.1},
        "integrator": {"method": "heun"},
    },
    "fig1-2d": {
        "name": "fig1-2d",
        "dimension": 2,
        "N": 750,
        "T": 0.35,
        "seed": 2024,
        "appendix_a_mode": True,
        "initial": {"type": "random-fourier", "kmax": 2, "amplitude": 0.35},
        "schedule": {"epsilon": 0.1, "epsilon_tilde": 0.12, "epsilon_star": 0.3,
                      "alpha": 0.0},
        "kernels": {"moment_coefficient": 0.05, "table_points": 512},
        "integrator": {"method": "heun", "dt_safety": 2.0},
        "engines": ["particles", "local-grid"],
        "grid": {"n": 128},
        "pde_local": {"dt": 2e-5, "C0": 300.0},
        "output": {"snapshot_every": 0.125, "energy_every": 0.05},
    },
}
