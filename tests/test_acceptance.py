"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and measured values.  The expensive shared artifacts (the 2-d
clustering scenario, the epsilon and N sweeps) are module-scoped fixtures.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from torusdpa.fields import GridField, dissipation_D_eps
from torusdpa.harness import (
    Scenario,
    clustering_report,
    contraction_test,
    convergence_sweep,
    load_scenario,
    particle_count_sweep,
    run_scenario,
)
from torusdpa.kernels import (
    KernelEmbedError,
    build_kernel_set,
    make_mollifier,
    make_viscosity_kernel,
    schedule_from_epsilon,
)
from torusdpa.oracles import brute_w2, fd_gradient
from torusdpa.particles import (
    ParticleState,
    compute_forces,
    discrete_energy,
    init_quantile,
    momentum,
    stable_dt,
    step,
)
from torusdpa.pde_local import LocalSolverConfig, ch_operator, run_local
from torusdpa.pde_nonlocal import run_nonlocal
from torusdpa.transport import DiscreteMeasure, w2_circle_exact, w2_exact_lp

DATA = Path(__file__).parent / "data"

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


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:02d} [{status}] {name}: {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


@pytest.fixture(scope="module")
def fig1(tmp_path_factory):
    sc = load_scenario("fig1-2d")
    t0 = time.time()
    art = run_scenario(sc, tmp_path_factory.mktemp("fig1"))
    rep = clustering_report(sc, art, kde_n=64)
    rep["wall_seconds"] = time.time() - t0
    rep["local_flags"] = art.results["local_flags"]
    return rep


@pytest.fixture(scope="module")
def sweeps():
    sc = Scenario.from_dict(SWEEP_BASE)
    t0 = time.time()
    eps_rows = convergence_sweep(sc, [0.2, 0.1, 0.05])
    t_eps = time.time() - t0
    t0 = time.time()
    n_rows = particle_count_sweep(sc, [250, 500, 1000])
    t_n = time.time() - t0
    return {"eps": eps_rows, "n": n_rows, "t_eps": t_eps, "t_n": t_n}


def test_criterion_01_kernel_admissibility():
    t0 = time.time()
    failures = []
    for d, n in ((1, 4096), (2, 512)):
        for eps in (0.2, 0.1, 0.05):
            for kind in ("compact-bump", "truncated-gaussian"):
                fam = make_mollifier(kind, eps, d=d, table_points=n)
                rep = fam.validate()
                if not rep["ok"]:
                    failures.append((kind, d, eps, rep))
        for alpha in (0.2, 0.1, 0.05):
            v = make_viscosity_kernel(alpha, k=4, d=d, table_points=n)
            b = v.verify_bounds()
            if not (b["positive"] and b["lower_ok"] and b["upper_ok"]
                    and b["half_reconstruction"] <= 1e-8):
                failures.append(("viscosity", d, alpha, b))
    # moment-targeted constructions where the torus admits them
    for d, n, eps_ok in ((1, 4096, (0.1, 0.05)), (2, 512, (0.1, 0.05))):
        for eps in eps_ok:
            fam = make_mollifier("truncated-gaussian", eps, d=d,
                                 second_moment_target=2 * eps**2, table_points=n)
            if not fam.validate()["ok"]:
                failures.append(("targeted", d, eps, fam.validate()))
    # infeasible targets raise the documented error
    with pytest.raises(KernelEmbedError):
        make_mollifier("compact-bump", 0.2, d=1, second_moment_target=0.08)
    elapsed = time.time() - t0
    report(1, "kernel admissibility", not failures and elapsed < 30.0,
           f"{len(failures)} failures, {elapsed:.1f}s")


def test_criterion_02_B_eps_consistency():
    t0 = time.time()
    n = 4096
    x = np.arange(n) / n
    f = GridField(np.sin(2 * np.pi * x))
    target = (2 * np.pi) ** 2 * np.sin(2 * np.pi * x)
    from torusdpa.fields import B_eps

    errs = []
    for eps in (0.04, 0.02, 0.01):
        om = make_mollifier("compact-bump", eps, d=1, second_moment_target=2 * eps**2,
                            table_points=n)
        out = B_eps(f, om, eps)
        errs.append(float(np.max(np.abs(out.values - target))))
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    elapsed = time.time() - t0
    report(2, "B_eps consistency order", min(orders) >= 1.5 and elapsed < 10.0,
           f"errors={[f'{e:.3e}' for e in errs]} orders={[f'{o:.2f}' for o in orders]} "
           f"{elapsed:.1f}s")


def test_criterion_03_D_eps_limit():
    n = 4096
    x = np.arange(n) / n
    f = GridField(np.sin(2 * np.pi * x))
    om = make_mollifier("compact-bump", 0.01, d=1, second_moment_target=2 * 0.01**2,
                        table_points=n)
    d = dissipation_D_eps(f, om, 0.01)
    target = (2 * np.pi) ** 2  # 2 * int |f'|^2 with int |f'|^2 = (2 pi)^2 / 2
    rel = abs(d - target) / target
    report(3, "D_eps limit", rel <= 0.02, f"D={d:.6f} target={target:.6f} rel={rel:.2e}")


def test_criterion_04_gradient_structure():
    t0 = time.time()
    worst = 0.0
    count = 0
    rng = np.random.default_rng(99)
    setups = []
    sched1 = schedule_from_epsilon(0.1, d=1, epsilon_tilde=0.25, epsilon_star=0.3,
                                   alpha=0.08)
    setups.append((sched1, build_kernel_set(sched1, kind="truncated-gaussian",
                                            omega_moment=2 * sched1.epsilon**2)))
    sched2 = schedule_from_epsilon(0.12, d=2, epsilon_tilde=0.3, epsilon_star=0.45,
                                   alpha=0.1)
    setups.append((sched2, build_kernel_set(sched2, kind="truncated-gaussian",
                                            table_points=1024,
                                            omega_moment=2 * sched2.epsilon**2)))
    for sched, kset in setups:
        d = sched.d
        for N in (2, 5, 20):
            trials = 4 if d == 1 else 3
            for _ in range(trials):
                pos = rng.random((N, d))
                st = ParticleState(pos, schedule=sched)
                force = compute_forces(st, kset).velocities

                def energy_at(p):
                    return discrete_energy(
                        ParticleState(p.reshape(N, d), schedule=sched), kset
                    )

                grad = fd_gradient(energy_at, pos.ravel(), h=1e-6).reshape(N, d)
                rel = float(np.max(np.abs(force + N * grad)) / np.max(np.abs(force)))
                worst = max(worst, rel)
                count += 1
    elapsed = time.time() - t0
    report(4, "gradient structure", worst < 1e-5 and elapsed < 60.0,
           f"{count} configs, worst rel={worst:.2e}, {elapsed:.1f}s")


def test_criterion_05_conservation():
    sc = load_scenario("default-1d")
    sched = sc.schedule()
    kset = build_kernel_set(sched, kind="truncated-gaussian",
                            omega_moment=2 * sched.epsilon**2)
    rho0 = GridField.constant(1.0, 4096)
    st = init_quantile(rho0, 1000, sched)
    dt = stable_dt(st, kset)
    worst_momentum = 0.0
    for _ in range(10):
        ff = compute_forces(st, kset)
        worst_momentum = max(worst_momentum, float(np.max(np.abs(momentum(ff)))))
        st = step(st, kset, dt, "euler")
    count_ok = st.N == 1000
    weights_ok = abs(math.fsum([st.weight] * st.N) - 1.0) < 1e-12
    # PDE mass over full runs
    x = np.arange(512) / 512
    rho = GridField(1.0 + 0.5 * np.sin(2 * np.pi * x))
    nl = run_nonlocal(rho, sched, kset.at_resolution(512), T=0.005)
    cfg = LocalSolverConfig(dt=1e-6, m=2.0, T=5e-4)
    loc = run_local(rho, cfg)
    nl_drift = nl.traces[0].mass_drift
    loc_drift = loc.flags["mass_drift"]
    ok = (worst_momentum <= 1e-12 and count_ok and weights_ok
          and nl_drift <= 1e-10 and loc_drift <= 1e-10)
    report(5, "conservation",
           ok,
           f"momentum={worst_momentum:.2e} nl_drift={nl_drift:.2e} "
           f"local_drift={loc_drift:.2e}")


def test_criterion_06_energy_dissipation():
    sched = schedule_from_epsilon(0.1, d=1, epsilon_tilde=0.25, epsilon_star=0.3,
                                  alpha=0.08)
    kset = build_kernel_set(sched, kind="truncated-gaussian",
                            omega_moment=2 * sched.epsilon**2)
    rng = np.random.default_rng(6)
    st = ParticleState(rng.random((64, 1)), schedule=sched)
    dt = stable_dt(st, kset) / 10.0
    prev = discrete_energy(st, kset)
    particle_ok = True
    for _ in range(30):
        st = step(st, kset, dt, "rk4")
        cur = discrete_energy(st, kset)
        particle_ok = particle_ok and cur <= prev + 10.0 * dt**2
        prev = cur
    x = np.arange(512) / 512
    rho = GridField(1.0 + 0.5 * np.sin(2 * np.pi * x))
    nl = run_nonlocal(rho, sched, kset.at_resolution(512), T=0.01)
    F = [rep.F_eps_alpha for rep in nl.traces[0].reports]
    grid_ok = all(b <= a + 1e-8 for a, b in zip(F, F[1:]))
    report(6, "energy dissipation", particle_ok and grid_ok,
           f"particle rk4 monotone={particle_ok}, grid F monotone={grid_ok} "
           f"(F {F[0]:.6f} -> {F[-1]:.6f})")


def test_criterion_07_lambda_contraction():
    t0 = time.time()
    sc = load_scenario("contraction-1d")
    rep = contraction_test(sc, 1e-3, samples=8)
    elapsed = time.time() - t0
    report(7, "lambda-contraction envelope",
           rep["pass"] and elapsed < 120.0,
           f"lambda={rep['lambda']:.4g} max_ratio="
           f"{max(r['ratio'] for r in rep['samples']):.4f} "
           f"envelope_fraction={rep['max_envelope_fraction']:.2e} {elapsed:.1f}s")


def test_criterion_08_transport_correctness():
    rng = np.random.default_rng(8)
    worst_lp = 0.0
    for _ in range(50):
        n_atoms = int(rng.integers(4, 30))
        m_atoms = int(rng.integers(4, 30))
        X, Y = rng.random((n_atoms, 1)), rng.random((m_atoms, 1))
        if rng.random() < 0.5:
            mu, nu = DiscreteMeasure(X), DiscreteMeasure(Y)
        else:
            a, b = rng.random(n_atoms), rng.random(m_atoms)
            mu = DiscreteMeasure(X, a / a.sum())
            nu = DiscreteMeasure(Y, b / b.sum())
        wc, _ = w2_circle_exact(mu, nu)
        wl, _ = w2_exact_lp(mu, nu)
        worst_lp = max(worst_lp, abs(wc - wl))
    worst_brute = 0.0
    for _ in range(15):
        k = int(rng.integers(2, 9))
        X, Y = rng.random((k, 1)), rng.random((k, 1))
        wc, _ = w2_circle_exact(DiscreteMeasure(X), DiscreteMeasure(Y))
        wl, _ = w2_exact_lp(DiscreteMeasure(X), DiscreteMeasure(Y))
        wb = brute_w2(X, Y)
        worst_brute = max(worst_brute, abs(wc - wb), abs(wl - wb))
    axioms_ok = True
    for _ in range(6):
        ms = [DiscreteMeasure(rng.random((int(rng.integers(5, 30)), 1)))
              for _ in range(3)]
        d01 = w2_exact_lp(ms[0], ms[1])[0]
        d10 = w2_exact_lp(ms[1], ms[0])[0]
        d12 = w2_exact_lp(ms[1], ms[2])[0]
        d02 = w2_exact_lp(ms[0], ms[2])[0]
        axioms_ok = axioms_ok and abs(d01 - d10) <= 1e-10 and d02 <= d01 + d12 + 1e-9
    ok = worst_lp <= 1e-8 and worst_brute <= 1e-10 and axioms_ok
    report(8, "transport correctness", ok,
           f"|circle-lp|={worst_lp:.2e} |vs brute|={worst_brute:.2e} axioms={axioms_ok}")


def test_criterion_09_nonlocal_to_local_trend(sweeps):
    rows = sweeps["eps"]
    vals = [r["w2_nl_local"] for r in rows]
    ok = vals[0] > vals[1] > vals[2] and sweeps["t_eps"] < 600.0
    report(9, "nonlocal-to-local trend", ok,
           f"W2(nl,local) over eps {[r['epsilon'] for r in rows]} = "
           f"{[f'{v:.5f}' for v in vals]} ({sweeps['t_eps']:.0f}s)")


def test_criterion_10_dpa_trend(sweeps):
    rows = sweeps["n"]
    vals = [r["w2_particle_nl"] for r in rows]
    ok = vals[0] > vals[1] > vals[2] and sweeps["t_n"] < 600.0
    report(10, "deterministic particle approximation trend", ok,
           f"W2(empirical,nl) over N {[r['N'] for r in rows]} = "
           f"{[f'{v:.5f}' for v in vals]} ({sweeps['t_n']:.0f}s)")


def test_criterion_11_qualitative_clustering(fig1):
    baseline_path = DATA / "fig1_baseline.json"
    drops_ok = fig1["particles_drop"] >= 0.5 and fig1["local_drop"] >= 0.5
    # the committed baseline is the reference: a missing one fails the test
    base = json.loads(baseline_path.read_text())
    regression_ok = (
        abs(fig1["particles_drop"] - base["particles_drop"]) <= 0.05
        and abs(fig1["local_drop"] - base["local_drop"]) <= 0.05
    )
    sav_ok = fig1["local_flags"]["energy_increases"] == 0
    report(11, "qualitative 2-d clustering", drops_ok and regression_ok and sav_ok,
           f"particle drop={fig1['particles_drop']:.3f} local drop="
           f"{fig1['local_drop']:.3f} peaks=({fig1['particles_final_peaks']},"
           f"{fig1['local_final_peaks']}) {fig1['wall_seconds']:.0f}s")


def test_criterion_12_local_solver_structure():
    rng = np.random.default_rng(12)
    x = np.arange(256) / 256
    vals = np.ones(256)
    for k in range(1, 7):
        a, b = rng.standard_normal(2) * 0.2 / k
        vals += a * np.cos(2 * np.pi * k * x) + b * np.sin(2 * np.pi * k * x)
    vals = np.maximum(vals, 0.05)
    rho = GridField(vals / (vals.sum() / 256))
    run = run_local(rho, LocalSolverConfig(dt=1e-6, m=2.0, T=3e-4))
    sav_ok = run.flags["energy_increases"] == 0

    # spectral accuracy of the discrete operator (coefficient-space oracle)
    decay, amp, kmax = 0.22, 0.1, 240
    ks = np.arange(1, kmax + 1)
    a = amp * np.exp(-decay * ks)
    size = 2 * kmax + 1
    c = np.zeros(size, dtype=complex)
    c[kmax] = 1.0
    c[kmax + 1:] = a / 2.0
    c[:kmax][::-1] = a / 2.0
    idx = np.arange(-kmax, kmax + 1)
    q = 2j * np.pi * idx * (-((2 * np.pi * idx) ** 2)) * c
    prod = np.convolve(c, q)
    rho_sq = np.convolve(c, c)
    jdx = np.arange(-2 * kmax, 2 * kmax + 1)
    op_hat = 2j * np.pi * jdx * prod + (-((2 * np.pi * jdx) ** 2)) * rho_sq

    def ev(co, ind, xx):
        return np.real(np.sum(co[None, :] * np.exp(2j * np.pi * np.outer(xx, ind)),
                              axis=1))

    errs = []
    for n in (64, 128, 256):
        xx = np.arange(n) / n
        got = ch_operator(GridField(ev(c, idx, xx)), m=2).values
        exact = ev(op_hat, jdx, xx)
        errs.append(np.max(np.abs(got - exact)) / np.max(np.abs(exact)))
    orders = [math.log2(errs[0] / errs[1]), math.log2(errs[1] / errs[2])]
    spectral_ok = min(orders) > 4.0
    report(12, "local solver structure", sav_ok and spectral_ok,
           f"SAV monotone={sav_ok}, spectral orders={[f'{o:.1f}' for o in orders]}")
