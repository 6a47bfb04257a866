"""Property tests of the run plan and the CLI: any config drawn from the
scenario schema is either refused with one ValueError before a run, or
planned under the step cap.  Drawn configs, option values and input files also
go through every command, where an exit 1 prints one error line and no
traceback and writes no file, and any other run writes its artifacts."""

import io
import json
import math
import struct
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import torusdpa.harness as H
import torusdpa.particles as P
from torusdpa.cli import main as cli_main
from torusdpa.fields import _MAGIC, GridField, save_gridfield

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


# a drawn explicit integrator.dt above the schedule's stable_dt warns once
# from the plan, which is the warning's purpose and not a failure here
@pytest.mark.filterwarnings("ignore:dt=.*exceeds stable_dt:RuntimeWarning")
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


# ---------------------------------------------------------------------------
# every other command: drawn options and input files through cli.main

# 50 examples a command keep the four tests below 5 s together (about 1.6 s on
# a 2-core Intel Xeon)
CLI_SETTINGS = settings(max_examples=50, deadline=None, derandomize=True, database=None,
                        suppress_health_check=[HealthCheck.too_slow])
# floats as the options take them, the edges the refusals guard included
OPTION_FLOATS = st.one_of(st.floats(), st.sampled_from(
    (0.0, -0.0, -1e-3, 1e-3, math.nan, math.inf, -math.inf, 1e300, -1e300)))


def _cli(argv, out=None):
    """cli.main's exit code, after checking it: an exit 1 prints one error
    line and no traceback, and leaves no `out` directory."""
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        rc = cli_main([str(a) for a in argv])
    text = err.getvalue()
    assert rc in (0, 1, 2), rc
    if rc == 1:
        assert [line.startswith("error:") for line in text.splitlines()].count(True) == 1, text
        assert "Traceback" not in text
        assert out is None or not out.exists()
    return rc


def _run(command, raw, *options):
    """cli.main on a config file of raw, writing into a fresh directory;
    returns the exit code and the files written."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = Path(tmp) / "cfg.json", Path(tmp) / "out"
        cfg.write_text(json.dumps(raw))
        rc = _cli([*command, cfg, *options, "--out", out], out)
        return rc, sorted(p.name for p in out.iterdir()) if out.exists() else []


@CLI_SETTINGS
@given(mode=st.sampled_from(["--eps", "--n-particles"]), data=st.data())
def test_sweep_lists_are_refused_or_swept(mode, data):
    if mode == "--eps":
        # strictly decreasing lists the schedule takes, and any other list
        good = st.lists(st.floats(0.06, 0.15), min_size=3, max_size=3, unique=True).map(
            lambda xs: sorted(xs, reverse=True))
        values = data.draw(st.one_of(good, st.lists(OPTION_FLOATS, max_size=4)))
    else:
        values = data.draw(st.lists(st.sampled_from(SIZED["N"]), max_size=3))
    # argparse reads "-1e-05" and "-inf" as options: an exit 1 all the same
    rc, files = _run(["sweep"], BASE, mode, *map(repr, values))
    if rc != 1:
        assert files == ["sweep_eps.csv" if mode == "--eps" else "sweep_n.csv"]


@CLI_SETTINGS
@given(delta=OPTION_FLOATS)
def test_contraction_deltas_are_refused_or_tested(delta):
    rc, files = _run(["contraction"], BASE, f"--delta={delta!r}")
    # a finite delta near the float limit is refused too: its twin's
    # coordinates overflow
    assert rc == 1 or 0.0 <= delta < math.inf
    if rc != 1:
        assert files == ["contraction.csv", "contraction_report.json"]


def _gridfield_bytes(d, n, values):
    """A save_gridfield file of the field, as bytes."""
    with tempfile.TemporaryDirectory() as tmp:
        save_gridfield(GridField(np.reshape(values, (n,) * d)), Path(tmp) / "f.gf")
        return (Path(tmp) / "f.gf").read_bytes()


@st.composite
def gridfield_files(draw):
    """A .gf file, valid or with one fault: cut short, a bad magic, a header
    of another dimension or mass, or no positive mass."""
    d, n = draw(st.sampled_from([1, 2])), draw(st.sampled_from([1, 4, 6, 8]))
    cell = st.floats(0.0, 2.0)
    values = draw(st.lists(cell, min_size=n**d, max_size=n**d))
    fault = draw(st.sampled_from(["none", "cut", "magic", "dimension", "mass", "no-mass"]))
    if fault == "no-mass":
        values = [-v for v in values]
    data = _gridfield_bytes(d, n, values)
    at = len(_MAGIC)
    if fault == "cut":
        data = data[:draw(st.integers(0, len(data) - 1))]
    elif fault == "magic":
        data = b"XX" + data[2:]
    elif fault == "dimension":
        data = data[:at] + struct.pack("<i", draw(st.sampled_from([-1, 0, 3]))) + data[at + 4:]
    elif fault == "mass":
        mass = struct.unpack_from("<d", data, at + 8)[0] + draw(st.sampled_from([1e-6, 1.0]))
        data = data[:at + 8] + struct.pack("<d", mass) + data[at + 16:]
    return ".gf", data


@st.composite
def particle_files(draw):
    """A particle snapshot CSV: drawn columns, drawn cells (numbers past the
    coordinate bound, non-finite and non-numeric text) and zero or more rows."""
    header = draw(st.lists(st.sampled_from(["particle_id", "t", "x_1", "x_2", "junk"]),
                           min_size=0, max_size=4, unique=True))
    cell = st.one_of(st.floats(0.0, 1.0), st.sampled_from([1e6, 1.000001e6, -2e6, math.nan,
                                                           math.inf]), st.just("x"))
    rows = draw(st.lists(st.lists(cell, min_size=len(header), max_size=len(header)),
                         max_size=3))
    text = "\r\n".join(",".join(map(str, row)) for row in [header] + rows)
    return ".csv", text.encode()


@CLI_SETTINGS
@given(a=st.one_of(gridfield_files(), particle_files()), b=gridfield_files(),
       max_atoms=st.one_of(st.none(), st.sampled_from([0, -3, 1, 3, 16])))
def test_w2_inputs_are_refused_or_measured(a, b, max_atoms):
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for i, (suffix, data) in enumerate((a, b)):
            paths.append(Path(tmp) / f"{i}{suffix}")
            paths[-1].write_bytes(data)
        options = [] if max_atoms is None else [f"--max-atoms={max_atoms}"]
        assert _cli(["w2", *paths, *options]) in (0, 1)


@CLI_SETTINGS
@given(raw=configs())
def test_kernels_inspect_configs_are_refused_or_exported(raw):
    rc, files = _run(["kernels", "inspect"], raw)
    if rc != 1:
        assert {"omega.csv", "omega_tilde.csv", "W_eps.csv"} <= set(files)
