"""Command-line entry points.

Exit codes: 0 success, 2 invariant violation, 1 any other error, usage
errors included (argparse's own code for them is 2).  The
invariants are the contraction envelope (contraction), kernel admissibility
(kernels inspect) and, for simulate and every grid run inside a sweep, the
grid invariants of invariant_breaches: no local modified-energy increase,
local mass drift <= 1e-10, and per nonlocal run min value >= -1e-12 and mass
drift <= 1e-10.
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .fields import GridField, load_gridfield
from .harness import (
    _SWEEP_ATOMS,
    PRESETS,
    Scenario,
    contraction_test,
    convergence_sweep,
    load_scenario,
    particle_count_sweep,
    run_scenario,
)
from .kernels import export_kernel_csv, lambda_convexity_constant
from .transport import DiscreteMeasure, grid_to_measure, w2

# the largest particle coordinate `w2` reads: wrapping a larger one into
# [0, 1) keeps no digit of the position
_COORD_BOUND = 1e6


class _Parser(argparse.ArgumentParser):
    """argparse whose usage errors are main's errors, which return 1:
    argparse's own exit code, 2, is an invariant breach here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ValueError(f"{self.prog}: {message}")


def _load(path_or_preset, seed=None, appendix_a_mode=False):
    sc = load_scenario(path_or_preset)
    raw = dict(sc.config)
    if seed is not None:
        raw["seed"] = seed
    if appendix_a_mode:
        raw["appendix_a_mode"] = True
    return Scenario.from_dict(raw)


def _measure_from_file(path: str, max_atoms):
    p = Path(path)
    if p.suffix == ".gf":
        fld = load_gridfield(p)
        try:
            return grid_to_measure(GridField(np.maximum(fld.values, 0.0)), max_atoms=max_atoms)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
    with open(p) as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        cols = {name: i for i, name in enumerate(header)}
        axes = [c for c in header if c.startswith("x_")]
        if "particle_id" not in cols or "t" not in cols or not axes:
            raise ValueError(f"{path}: expected a particle snapshot CSV (columns particle_id, "
                             "t, x_1, ...) or a .gf field")
        rows = list(reader)
    if not rows:
        raise ValueError(f"{path}: particle snapshot CSV has no rows")
    try:
        last = max(float(r[cols["t"]]) for r in rows)
        pts = [(line, [float(r[cols[ax]]) for ax in axes])
               for line, r in enumerate(rows, start=2) if float(r[cols["t"]]) == last]
    except (ValueError, IndexError) as exc:
        raise ValueError(f"{path}: malformed particle row ({exc})") from None
    for line, x in pts:
        if not all(abs(v) <= _COORD_BOUND for v in x):
            raise ValueError(f"{path}: line {line}: coordinate outside |x| <= {_COORD_BOUND:g}")
    return DiscreteMeasure(np.array([x for _, x in pts]))


def invariant_breaches(results: dict) -> list:
    """One message per grid invariant that run_scenario results breach."""
    out = []
    flags = results.get("local_flags")
    if flags is not None:
        if flags["energy_increases"] > 0:
            out.append(f"local-grid: {flags['energy_increases']} modified-energy increases "
                       f"(worst {flags['worst_increase']:.3e})")
        if not flags["mass_drift"] <= 1e-10:
            out.append(f"local-grid: mass drift {flags['mass_drift']:.3e} > 1e-10")
    if "nl_run" in results:
        for tr in results["nl_run"].traces:
            if not tr.min_value >= -1e-12:
                out.append(f"nl-grid nu={tr.nu}: min value {tr.min_value:.3e} < -1e-12")
            if not tr.mass_drift <= 1e-10:
                out.append(f"nl-grid nu={tr.nu}: mass drift {tr.mass_drift:.3e} > 1e-10")
    return out


def _breach_exit(results_list) -> int:
    """Print each distinct grid-invariant breach of the results; 2 if any."""
    breaches = list(dict.fromkeys(msg for res in results_list for msg in invariant_breaches(res)))
    for msg in breaches:
        print(f"warning: {msg}")
    return 2 if breaches else 0


def main(argv=None) -> int:
    parser = _Parser(
        prog="torusdpa",
        description="Deterministic particle approximation toolkit on the torus",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--out", default="runs/out", help="output directory")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--appendix-a-mode", action="store_true",
                       help="drop the viscosity particle term; the kernel set then "
                       "carries no R_alpha, so the grid engines take R_alpha * rho = rho")

    p_sim = sub.add_parser("simulate", help="run a scenario")
    p_sim.add_argument("config", help="scenario file (JSON/YAML) or preset name: "
                       + ", ".join(sorted(PRESETS)))
    add_common(p_sim)

    p_sweep = sub.add_parser("sweep", help="epsilon or particle-count sweep")
    p_sweep.add_argument("config")
    mode = p_sweep.add_mutually_exclusive_group(required=True)
    mode.add_argument("--eps", type=float, nargs="+")
    mode.add_argument("--n-particles", type=int, nargs="+")
    add_common(p_sweep)

    p_con = sub.add_parser("contraction", help="twin-run lambda-contraction test")
    p_con.add_argument("config")
    p_con.add_argument("--delta", type=float, default=1e-3)
    add_common(p_con)

    p_w2 = sub.add_parser("w2", help="W2 distance between two artifacts")
    p_w2.add_argument("fileA")
    p_w2.add_argument("fileB")
    p_w2.add_argument("--max-atoms", type=int, default=_SWEEP_ATOMS,
                      help="coarsen .gf fields to at most this many atoms "
                      f"(default {_SWEEP_ATOMS})")

    p_k = sub.add_parser("kernels", help="kernel tooling")
    k_sub = p_k.add_subparsers(dest="kernels_command", required=True)
    p_ki = k_sub.add_parser("inspect", help="build and validate scenario kernels")
    p_ki.add_argument("config")
    add_common(p_ki)

    try:
        return _dispatch(parser.parse_args(argv))
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _dispatch(args) -> int:
    if args.command == "simulate":
        sc = _load(args.config, args.seed, args.appendix_a_mode)
        art = run_scenario(sc, args.out)
        print(f"wrote {art.manifest_path}")
        return _breach_exit([art.results])

    if args.command == "sweep":
        sc = _load(args.config, args.seed, args.appendix_a_mode)
        if args.eps:
            rows = convergence_sweep(sc, args.eps, out_dir=args.out)
            for r in rows:
                print(f"eps={r['epsilon']}: W2(nl,local)={r['w2_nl_local']:.6f} "
                      f"W2(particles,local)={r['w2_particle_local']:.6f}")
        else:
            rows = particle_count_sweep(sc, args.n_particles, out_dir=args.out)
            for r in rows:
                print(f"N={r['N']}: W2(particles,nl)={r['w2_particle_nl']:.6f}")
        return _breach_exit(rows)

    if args.command == "contraction":
        sc = _load(args.config, args.seed, args.appendix_a_mode)
        report = contraction_test(sc, args.delta, out_dir=args.out)
        print(f"lambda={report['lambda']:.6g} W2(0)={report['w2_initial']:.6g} "
              f"max envelope fraction={report['max_envelope_fraction']:.3g} "
              f"pass={report['pass']}")
        if not report["pass"]:
            print(f"envelope violated at t={report['offending_time']}", file=sys.stderr)
            return 2
        return 0

    if args.command == "w2":
        mu = _measure_from_file(args.fileA, args.max_atoms)
        nu = _measure_from_file(args.fileB, args.max_atoms)
        print(f"W2={w2(mu, nu):.10g}")
        return 0

    if args.command == "kernels" and args.kernels_command == "inspect":
        sc = _load(args.config, args.seed, args.appendix_a_mode)
        from .harness import build_scenario_kernels

        kset = build_scenario_kernels(sc)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        ok = True
        for label, fam in (("omega", kset.omega), ("omega_tilde", kset.omega_tilde)):
            rep = fam.validate()
            ok = ok and rep["ok"]
            print(f"{label}: scale={fam.scale} width={fam.profile_width:.4g} "
                  f"moment={fam.second_moment_target:.4g} ok={rep['ok']}")
            export_kernel_csv(fam, out / f"{label}.csv")
        if kset.viscosity is not None:
            rep = kset.viscosity.verify_bounds()
            ok = ok and rep["ok"]
            print(f"viscosity: alpha={kset.viscosity.alpha} k={kset.viscosity.k} {rep}")
            export_kernel_csv(kset.viscosity.table, out / "viscosity.csv")
            lam = lambda_convexity_constant(kset)
            print(f"lambda convexity constant: {lam:.6g}")
        export_kernel_csv(kset.W, out / "W_eps.csv")
        print(f"tables exported to {out}")
        return 0 if ok else 2

    return 1


if __name__ == "__main__":
    sys.exit(main())
