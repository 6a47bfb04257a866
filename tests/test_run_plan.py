"""Property test of the run plan: any config drawn from the scenario schema is
either refused with one ValueError before a run, or planned under the step cap.
A few drawn configs also go through the CLI, where a run that exits 1 writes
no file and any other run writes a manifest."""

import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import torusdpa.harness as H
import torusdpa.particles as P
from torusdpa.cli import main as cli_main

# a cheap valid 1-d run of every engine: one particle step, ten local steps
BASE = {
    "name": "fuzz", "dimension": 1, "N": 16, "T": 1e-4, "seed": 7,
    "engines": ["particles", "nl-grid", "local-grid"], "grid": {"n": 32},
    "schedule": {"epsilon": 0.1, "epsilon_tilde": 0.25, "epsilon_star": 0.3, "alpha": 0.08},
    "kernels": {"table_points": 256},
    "pde_local": {"dt": 1e-5},
    "output": {"snapshot_every": 5e-5, "energy_every": 5e-5},
}
EDGES = (0, -1, 1e300, -1e300, 1e-300, -1e-300, [])
# keys that size an array or a loop draw from small sets, valid and not
SIZED = {
    "grid.n": (-1, 0, 2, 3, 16, 32, 48),
    "kernels.table_points": (0, 64, 256),
    "N": (-1, 0, 1, 5, 16),
    "initial.kmax": (-1, 0, 1, 3),
}
# a run of the CLI takes place only for a plan this small
CLI_STEPS = 50


def _value(key):
    """Values of one scenario key: its type, range or choices, and the edges."""
    if key in SIZED:
        return st.sampled_from(SIZED[key])
    default, kind, rule = H.SCENARIO_KEYS[key]
    item = kind[0] if isinstance(kind, list) else kind
    if isinstance(rule, tuple):
        typed = st.one_of(st.sampled_from(rule), st.text(max_size=4))
    elif item is bool:
        typed = st.booleans()
    elif item is int:
        typed = st.integers(-3, 2**40)
    elif item is float:
        typed = st.one_of(st.floats(1e-4, 2.0), st.floats())
    else:
        typed = st.text(max_size=4)
    if isinstance(kind, list):
        typed = st.lists(typed, max_size=3)
    known = () if default is ... else (default,)
    return st.one_of(typed, st.sampled_from(EDGES + known + (None,)))


@st.composite
def configs(draw):
    raw = json.loads(json.dumps(BASE))
    for key in draw(st.lists(st.sampled_from(sorted(H.SCENARIO_KEYS)), min_size=1,
                             max_size=2, unique=True)):
        *block, leaf = key.split(".")
        (raw.setdefault(block[0], {}) if block else raw)[leaf] = draw(_value(key))
    return raw


def _plan(raw):
    """The plan's step counts, or None when the config is refused."""
    try:
        sc = H.Scenario.from_dict(raw)
        return H._plan(sc, H.initial_density(sc))[1]
    except (ValueError, OSError):  # OSError: an initial.path that is no file
        return None


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(raw=configs(), skip_cli=st.integers(0, 5))
def test_every_config_is_refused_or_planned_under_the_cap(raw, skip_cli):
    steps = _plan(raw)
    if steps is not None:
        assert all(0 <= n <= P.MAX_STEPS for n in steps.values()), steps
    if skip_cli or (steps is not None and max(steps.values()) > CLI_STEPS):
        return
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = Path(tmp) / "cfg.json", Path(tmp) / "out"
        cfg.write_text(json.dumps(raw))
        rc = cli_main(["simulate", str(cfg), "--out", str(out)])
        assert rc == 1 or steps is not None
        # a refusal, or a run that fails as it goes (an exhausted SAV shift),
        # writes no file
        if rc == 1:
            assert not out.exists()
        else:
            assert (out / "manifest.json").exists()


def test_a_run_that_fails_as_it_goes_writes_no_file(tmp_path, capsys):
    # the SAV shift runs out in the local engine, the last to run; the
    # particle and nonlocal files once stayed behind without a manifest
    raw = json.loads(json.dumps(BASE))
    raw["pde_local"]["kappa"] = 0.03125
    cfg, out = tmp_path / "cfg.json", tmp_path / "out"
    cfg.write_text(json.dumps(raw))
    assert cli_main(["simulate", str(cfg), "--out", str(out)]) == 1
    assert "SAV shift exhausted" in capsys.readouterr().err
    assert not out.exists()
