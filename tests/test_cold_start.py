"""A fresh interpreter that imports the package loads numpy and the standard
library only: scipy loads on the first exact 2-d W2 and pyyaml on the first
YAML scenario file, and both first calls give the same results as calls in
a warm process."""

import json
import os
import subprocess
import sys
from pathlib import Path

import torusdpa

SRC = Path(torusdpa.__file__).resolve().parents[1]

HEAVY = """
import sys
def heavy():
    return sorted(m for m in sys.modules if m.split(".")[0] in ("scipy", "yaml"))
"""

# the first calls: an equal-size uniform 2-d pair (the assignment solver), an
# unequal weighted pair (the sparse LP) and a YAML scenario file
CALLS = """
import numpy as np
from torusdpa.harness import load_scenario
from torusdpa.transport import DiscreteMeasure, w2_exact_lp

def calls(yaml_path):
    rng = np.random.default_rng(15)
    out = []
    for n, m, weighted in ((20, 20, False), (14, 9, True)):
        w = rng.random(m) if weighted else None
        mu = DiscreteMeasure(rng.random((n, 2)))
        nu = DiscreteMeasure(rng.random((m, 2)), None if w is None else w / w.sum())
        dist, plan = w2_exact_lp(mu, nu)
        out.append(repr((dist, plan.rows.tolist(), plan.cols.tolist(), plan.weights.tolist())))
    out.append(repr(load_scenario(yaml_path).config))
    return out
"""


def run_fresh(code):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return json.loads(done.stdout)


def test_import_and_presets_load_neither_scipy_nor_yaml(tmp_path):
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"name": "cold", "N": 10}))
    loaded = run_fresh(HEAVY + f"""
import json
import torusdpa, torusdpa.harness, torusdpa.cli
from torusdpa.harness import load_scenario
load_scenario("default-1d")
load_scenario({str(path)!r})
print(json.dumps(heavy()))
""")
    assert loaded == []


def test_first_calls_in_a_cold_process_match_a_warm_one(tmp_path):
    path = tmp_path / "s.yaml"
    path.write_text("name: cold\nN: 10\nschedule:\n  epsilon: 0.08\n")
    child = run_fresh(HEAVY + CALLS + f"""
import json
before = heavy()
out = calls({str(path)!r})
print(json.dumps({{"before": before, "calls": out, "after": heavy()}}))
""")
    assert child["before"] == []
    assert {"scipy.optimize", "scipy.sparse", "yaml"} <= set(child["after"])
    warm = {}
    exec(CALLS, warm)
    assert child["calls"] == warm["calls"](path)
