"""The experiment scripts run end to end and reach their verdict lines.

pin_chain_rule.py is the only place that sweeps every candidate action
rule over the randomized corpus, so it doubles as a regression check of
the rule landscape.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_script(*argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("argv, verdict", [
    (("pin_chain_rule.py",), "verdict: rules pinned"),
    (("run_comparison_suite.py",), "all comparison verdicts hold"),
    (("run_free_conjecture.py", "1", "4"), "verdict: PASS"),
], ids=["pin_chain_rule", "comparison_suite", "free_conjecture"])
def test_script_reaches_its_verdict(argv, verdict):
    proc = run_script(*argv)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert verdict in proc.stdout.splitlines()[-1]


# the digests recorded before the structure tables became sparse integer
# matrices: a change of storage must leave every computed value as it was
PINNED_DIGESTS = {
    2: "4d3db45160b4d44de15a4bd28ea82098b1b3a6b12d05c40c793c05bd3fd14603",
    3: "6892a9f1f1131c2a85e64a2fd289b3a308ac9dd40df6090f7ead58a5754b157a",
}


@pytest.mark.parametrize("max_degree", list(PINNED_DIGESTS))
def test_result_digest_is_pinned(max_degree):
    proc = run_script("result_digest.py", "--max-degree", str(max_degree))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert re.fullmatch(r"[0-9a-f]{64}\n", proc.stdout)
    assert proc.stdout.strip() == PINNED_DIGESTS[max_degree]


def test_ladder_writes_one_rung(tmp_path):
    proc = run_script("ladder.py", "--label", "smoke", "--rung", "heis3 <= 6",
                      "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    doc = json.loads((tmp_path / "BENCH_smoke.json").read_text())
    assert doc["label"] == "smoke"
    sources = (ROOT / "src" / "leibhom").glob("*.py")
    assert doc["src_lines"] == sum(len(p.read_text().splitlines()) for p in sources)
    [rung] = doc["rungs"]
    assert rung["name"] == "heis3 <= 6"
    assert rung["result"] == [1, 2, 5, 10, 22, 47, 101]
    assert rung["wall_s"] >= 0 and rung["peak_rss_mb"] > 0


def test_ladder_runs_a_cli_rung(tmp_path):
    name = "leibhom homology --max-degree 3 heis3"
    proc = run_script("ladder.py", "--label", "smoke", "--rung", name, "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    [rung] = json.loads((tmp_path / "BENCH_smoke.json").read_text())["rungs"]
    assert rung["name"] == name
    assert rung["result"]["exit"] == 0
    assert rung["result"]["tables"]["betti"] == {"0": 1, "1": 2, "2": 5, "3": 10}
    assert rung["result"]["verdicts"] == {}
    assert rung["wall_s"] > 0 and rung["peak_rss_mb"] > 0
