"""Self-test of the benchmark's layer tracing.

    python3 -m pytest bench/test_spans.py -q

A refactor that moves a call behind a new binding would silently zero a layer
metric; these tests fail instead.  They run each workload at the warm-up
scale (same sizes and code paths, a few steps).
"""

from __future__ import annotations

import contextlib
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

from tracing import COUNT_METRICS, SPAN_TARGETS, Tracer, layer_metrics, span_stats  # noqa: E402
from workloads import WARM_UP_SCALE, WORKLOADS, artifact_digests  # noqa: E402

# the spans each workload must record at least one call of
EXPECTED_SPANS = {
    "particles-2d": [
        "particles.step", "particles.discrete_energy", "particles.init_quantile",
        "fields.kde_density", "kernels.build_kernel_set", "kernels.pair_kernel",
        "harness.run_scenario", "harness.clustering_report",
    ],
    "grid-2d": [
        "pde_local.run_local", "pde_local.step", "pde_local.modified_energy",
        "pde_nonlocal.run_nonlocal", "fields.velocity_field_nl", "fields.free_energy",
        "fields.dissipation_D_eps", "kernels.build_kernel_set", "kernels.at_resolution",
        "harness.run_scenario",
    ],
    "pipeline-1d": [
        name for name in SPAN_TARGETS if name != "harness.clustering_report"
    ],
}


def _execute(workload, out_dir: Path, tracer=None) -> dict:
    with tracer.installed() if tracer else contextlib.nullcontext():
        workload.execute(out_dir, scale=WARM_UP_SCALE)
    return artifact_digests(out_dir)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_spans_fire_and_leave_artifacts_unchanged(name, tmp_path):
    workload = WORKLOADS[name](1, tmp_path)
    plain = _execute(workload, tmp_path / "plain")
    traced = [Tracer(), Tracer()]
    digests = [_execute(workload, tmp_path / f"traced{i}", t) for i, t in enumerate(traced)]

    stats = span_stats(traced[0].spans)
    silent = [s for s in EXPECTED_SPANS[name] if stats[s]["calls"] == 0]
    assert not silent, f"{name}: spans with zero calls: {silent}"
    metrics = layer_metrics(traced[0])
    assert metrics["spectral.transforms"] > 0
    if "pde_nonlocal.run_nonlocal" in EXPECTED_SPANS[name]:
        # velocity_field_nl is reached through two bindings: the stepping loop
        # in pde_nonlocal and free_energy in fields
        assert 0 < metrics["pde_nonlocal.steps"] < metrics["fields.velocity_field_nl.calls"]

    assert digests[0] == plain, "tracing changed the artifacts"
    assert digests[1] == plain
    again = layer_metrics(traced[1])
    assert {k: metrics[k] for k in COUNT_METRICS if k in metrics} == \
        {k: again[k] for k in COUNT_METRICS if k in again}


def test_tracer_restores_every_binding():
    import numpy as np

    import torusdpa.harness as H
    import torusdpa.pde_local as PL

    before = (H.run_scenario, H.build_kernel_set, PL.LocalSolver.step, np.fft.fftn)
    with Tracer().installed():
        assert H.run_scenario is not before[0]
        assert np.fft.fftn is not before[3]
    assert (H.run_scenario, H.build_kernel_set, PL.LocalSolver.step, np.fft.fftn) == before

