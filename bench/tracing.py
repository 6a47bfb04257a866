"""Layer tracing from outside the package.

The tracer swaps the public functions of each torusdpa module for wrappers
that record a span (name, parent, start, end) and the numpy FFT calls made
inside it.  Several modules bind their callees with ``from .x import name``,
so a function is patched in every namespace a caller looks it up in, not only
in its home module.  Spans stay in memory; the benchmark writes them out once
at the end.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import time
from collections import defaultdict

import numpy as np

# span name -> the (module, attribute) bindings its callers resolve at call
# time.  geometry.min_image sits in hot loops and oracles is test-only, so
# neither is traced.
SPAN_TARGETS = {
    "particles.step": [("torusdpa.particles", "step")],
    "particles.discrete_energy": [("torusdpa.particles", "discrete_energy")],
    "particles.init_quantile": [("torusdpa.particles", "init_quantile")],
    "pde_local.run_local": [("torusdpa.pde_local", "run_local")],
    "pde_local.step": [("torusdpa.pde_local", "LocalSolver.step")],
    "pde_local.modified_energy": [("torusdpa.pde_local", "LocalSolver.modified_energy")],
    "pde_nonlocal.run_nonlocal": [("torusdpa.pde_nonlocal", "run_nonlocal")],
    "fields.velocity_field_nl": [("torusdpa.fields", "velocity_field_nl"),
                                 ("torusdpa.pde_nonlocal", "velocity_field_nl")],
    "fields.free_energy": [("torusdpa.fields", "free_energy"),
                           ("torusdpa.pde_nonlocal", "free_energy")],
    "fields.dissipation_D_eps": [("torusdpa.fields", "dissipation_D_eps")],
    "fields.kde_density": [("torusdpa.fields", "kde_density")],
    "kernels.build_kernel_set": [("torusdpa.kernels", "build_kernel_set"),
                                 ("torusdpa.harness", "build_kernel_set")],
    "kernels.at_resolution": [("torusdpa.kernels", "KernelSet.at_resolution")],
    "kernels.pair_kernel": [("torusdpa.kernels", "KernelSet.pair_kernel")],
    "transport.w2_circle_exact": [("torusdpa.transport", "w2_circle_exact")],
    "transport.grid_to_measure": [("torusdpa.transport", "grid_to_measure")],
    "harness.run_scenario": [("torusdpa.harness", "run_scenario")],
    "harness.convergence_sweep": [("torusdpa.harness", "convergence_sweep")],
    "harness.particle_count_sweep": [("torusdpa.harness", "particle_count_sweep")],
    "harness.contraction_test": [("torusdpa.harness", "contraction_test")],
    "harness.clustering_report": [("torusdpa.harness", "clustering_report")],
}

FFT_ENTRY_POINTS = (
    "fft", "ifft", "rfft", "irfft", "hfft", "ihfft",
    "fft2", "ifft2", "rfft2", "irfft2",
    "fftn", "ifftn", "rfftn", "irfftn",
)

_STAGES = {"euler": 1, "heun": 2, "rk4": 4}


def _pair_evals(fn):
    """Work of one particles.step call: N^2 pair evaluations per stage."""
    sig = inspect.signature(fn)

    def work(args, kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments["state"].N ** 2 * _STAGES[bound.arguments["method"]]

    return work


class Tracer:
    """Spans and FFT counts of whatever runs while ``installed()`` is active.

    A span is the list [name, parent, start, end, ffts_start, ffts_end,
    fft_bytes_start, fft_bytes_end, work]; parent is the index of the
    enclosing span or -1.  FFT bytes are computed from the array sizes
    (input plus output), not measured.
    """

    def __init__(self):
        self.spans = []
        self.ffts = 0
        self.fft_bytes = 0
        self._stack = []

    def _span(self, name, fn, work=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, clock(), 0.0,
                   self.ffts, 0, self.fft_bytes, 0,
                   work(args, kwargs) if work else 0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[3] = clock()
                rec[5] = self.ffts
                rec[7] = self.fft_bytes

        return wrapper

    def _counted_fft(self, fn):
        @functools.wraps(fn)
        def wrapper(a, *args, **kwargs):
            out = fn(a, *args, **kwargs)
            self.ffts += 1
            self.fft_bytes += np.asarray(a).nbytes + out.nbytes
            return out

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Patch every target for the duration of the block, then restore."""
        saved = []
        try:
            for name, bindings in SPAN_TARGETS.items():
                for module_name, attr in bindings:
                    owner = importlib.import_module(module_name)
                    *path, leaf = attr.split(".")
                    for part in path:
                        owner = getattr(owner, part)
                    fn = getattr(owner, leaf)
                    work = _pair_evals(fn) if name == "particles.step" else None
                    saved.append((owner, leaf, fn))
                    setattr(owner, leaf, self._span(name, fn, work))
            for leaf in FFT_ENTRY_POINTS:
                fn = getattr(np.fft, leaf)
                saved.append((np.fft, leaf, fn))
                setattr(np.fft, leaf, self._counted_fft(fn))
            yield self
        finally:
            for owner, leaf, fn in reversed(saved):
                setattr(owner, leaf, fn)


def span_stats(spans):
    """Per span name: calls, inclusive and self seconds, FFTs, bytes, work."""
    dur = [s[3] - s[2] for s in spans]
    covered = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[1] >= 0:
            covered[s[1]] += dur[i]
    stats = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "ffts": 0,
                                 "fft_bytes": 0, "work": 0})
    for i, s in enumerate(spans):
        st = stats[s[0]]
        st["calls"] += 1
        st["s"] += dur[i]
        st["self_s"] += dur[i] - covered[i]
        st["ffts"] += s[5] - s[4]
        st["fft_bytes"] += s[7] - s[6]
        st["work"] += s[8]
    return stats


def _per_call(total, calls):
    return total / calls if calls else 0.0


def layer_metrics(tracer: Tracer) -> dict:
    """The per-layer metrics of one traced execution ('.s' is self time)."""
    spans = tracer.spans
    st = span_stats(spans)

    def child_of(name, parent):
        return [i for i, s in enumerate(spans)
                if s[0] == name and s[1] >= 0 and spans[s[1]][0] == parent]

    nl_steps = len(child_of("fields.velocity_field_nl", "pde_nonlocal.run_nonlocal"))
    nl_diag_s = sum(spans[i][3] - spans[i][2]
                    for i in child_of("fields.free_energy", "pde_nonlocal.run_nonlocal"))
    pstep, lstep, lmod = st["particles.step"], st["pde_local.step"], st["pde_local.modified_energy"]
    return {
        "particles.step.calls": pstep["calls"],
        "particles.step.s": pstep["self_s"],
        "particles.step.ms_per_call": 1e3 * _per_call(pstep["self_s"], pstep["calls"]),
        "particles.pair_evals": pstep["work"],
        "particles.discrete_energy.s": st["particles.discrete_energy"]["self_s"],
        "particles.init_quantile.s": st["particles.init_quantile"]["self_s"],
        "pde_local.step.calls": lstep["calls"],
        "pde_local.step.s": lstep["self_s"],
        "pde_local.step.ms_per_call": 1e3 * _per_call(lstep["self_s"], lstep["calls"]),
        "pde_local.modified_energy.s": lmod["self_s"],
        "pde_local.ffts_per_step": (_per_call(lstep["ffts"], lstep["calls"])
                                    + _per_call(lmod["ffts"], lmod["calls"])),
        "pde_local.fft_bytes_per_step": (_per_call(lstep["fft_bytes"], lstep["calls"])
                                         + _per_call(lmod["fft_bytes"], lmod["calls"])),
        "pde_nonlocal.steps": nl_steps,
        "pde_nonlocal.run_nonlocal.self_s": st["pde_nonlocal.run_nonlocal"]["self_s"],
        "pde_nonlocal.step.ms_per_call": 1e3 * _per_call(
            st["pde_nonlocal.run_nonlocal"]["s"] - nl_diag_s, nl_steps),
        "fields.velocity_field_nl.calls": st["fields.velocity_field_nl"]["calls"],
        "fields.velocity_field_nl.s": st["fields.velocity_field_nl"]["self_s"],
        "fields.free_energy.calls": st["fields.free_energy"]["calls"],
        "fields.free_energy.s": st["fields.free_energy"]["self_s"],
        "fields.dissipation_D_eps.s": st["fields.dissipation_D_eps"]["self_s"],
        "fields.kde_density.calls": st["fields.kde_density"]["calls"],
        "fields.kde_density.s": st["fields.kde_density"]["self_s"],
        "kernels.build_kernel_set.calls": st["kernels.build_kernel_set"]["calls"],
        "kernels.build_kernel_set.s": st["kernels.build_kernel_set"]["self_s"],
        "kernels.at_resolution.s": st["kernels.at_resolution"]["self_s"],
        "kernels.pair_kernel.s": st["kernels.pair_kernel"]["self_s"],
        "transport.w2_circle_exact.calls": st["transport.w2_circle_exact"]["calls"],
        "transport.w2_circle_exact.s": st["transport.w2_circle_exact"]["self_s"],
        "transport.grid_to_measure.s": st["transport.grid_to_measure"]["self_s"],
        "harness.self_s": sum(v["self_s"] for k, v in st.items() if k.startswith("harness.")),
        "spectral.transforms": tracer.ffts,
    }


# metrics that count work; they must repeat exactly between traced runs
COUNT_METRICS = (
    "particles.step.calls", "particles.pair_evals", "pde_local.step.calls",
    "pde_local.ffts_per_step", "pde_local.fft_bytes_per_step", "pde_nonlocal.steps",
    "fields.velocity_field_nl.calls", "fields.free_energy.calls",
    "fields.kde_density.calls", "kernels.build_kernel_set.calls",
    "transport.w2_circle_exact.calls", "spectral.transforms", "harness.artifact_bytes",
)
