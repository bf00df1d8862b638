"""The experiment scripts run end to end and reach their verdict lines.

pin_chain_rule.py is the only place that sweeps every candidate action
rule over the randomized corpus, so it doubles as a regression check of
the rule landscape.
"""

import json
import os
import re
import shutil
import statistics
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
    (("run_comparison_suite.py", "1"), "all comparison verdicts hold"),
    (("run_free_conjecture.py", "1", "4"), "verdict: PASS"),
], ids=["pin_chain_rule", "comparison_suite", "comparison_suite_degree_1", "free_conjecture"])
def test_script_reaches_its_verdict(argv, verdict):
    proc = run_script(*argv)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert verdict in proc.stdout.splitlines()[-1]


def test_free_conjecture_script_names_its_budget():
    proc = run_script("run_free_conjecture.py", "3")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[0].endswith("(budget 6)")


# the digests recorded when complexes stopped reporting their top stored
# degree; they equal the earlier digests with that degree left out of
# every complex's Betti numbers and spaces
PINNED_DIGESTS = {
    2: "3e2dcd957f48d03895cf2dba6b147fa4bfcb4f8d7fd26e151982de3d62dbe541",
    3: "9ab1d541501bf4175f67e277f73cfa14f8d1b87a206922e39186e09e4a8b0257",
}


@pytest.mark.parametrize("max_degree", list(PINNED_DIGESTS))
def test_result_digest_is_pinned(max_degree):
    proc = run_script("result_digest.py", "--max-degree", str(max_degree))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert re.fullmatch(r"[0-9a-f]{64}\n", proc.stdout)
    assert proc.stdout.strip() == PINNED_DIGESTS[max_degree]


# the CLI's output on the job matrix of scripts/cli_digest.py, recorded when
# the complexes stopped reporting their top stored degree, at which the
# output did not move
CLI_DIGEST = "00e5f8402935eb92b94c5485a7b0383042ef02e4406d68d908f4dcfeed913cab"


def test_cli_digest_is_pinned():
    proc = run_script("cli_digest.py")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout == CLI_DIGEST + "\n"


def test_ladder_writes_one_rung(tmp_path):
    proc = run_script("ladder.py", "--label", "smoke", "--rung", "heis3 <= 6",
                      "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    doc = json.loads((tmp_path / "BENCH_smoke.json").read_text())
    assert doc["label"] == "smoke"
    sources = (ROOT / "src" / "leibhom").glob("*.py")
    lines = {p.name: len(p.read_text().splitlines()) for p in sources}
    assert doc["src_lines"] == sum(lines.values())
    # every module but the library-only dgcat.py is what `import leibhom.cli` compiles
    assert doc["cli_lines"] == doc["src_lines"] - lines["dgcat.py"]
    [rung] = doc["rungs"]
    assert rung["name"] == "heis3 <= 6"
    assert rung["result"] == [1, 2, 5, 10, 22, 47, 101]
    assert len(rung["wall_samples"]) == 3
    assert rung["wall_s"] == statistics.median(rung["wall_samples"])
    assert rung["wall_s"] >= 0 and rung["peak_rss_mb"] > 0
    # the bare import child loads neither site nor the homology run of a rung
    assert isinstance(doc["cli_rss_mb"], float)
    assert 0 < doc["cli_rss_mb"] <= rung["peak_rss_mb"]
    assert len(rung["import_samples"]) == 3
    assert rung["import_s"] == statistics.median(rung["import_samples"])
    assert rung["import_s"] > 0


def test_ladder_runs_a_cochain_rung(tmp_path):
    proc = run_script("ladder.py", "--label", "smoke", "--rung", "heis3 cochains <= 8",
                      "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    [rung] = json.loads((tmp_path / "BENCH_smoke.json").read_text())["rungs"]
    assert rung["name"] == "heis3 cochains <= 8"
    assert rung["result"] == [1, 2, 5, 10, 22, 47, 101, 217, 466]


def test_ladder_runs_a_cli_rung(tmp_path):
    # the dense lie: rung, built in the sparse bases of the algebra and of
    # the module, gives the tables of the canonical one
    names = ["leibhom homology --max-degree 3 heis3",
             "leibhom compare --max-degree 5 --coefficients lie:adjoint.json heis3",
             "leibhom compare --max-degree 5 --coefficients lie:adjoint-lie.json heis3 dense"]
    argv = [arg for name in names for arg in ("--rung", name)]
    proc = run_script("ladder.py", "--label", "smoke", *argv, "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    homology, compare, dense = json.loads((tmp_path / "BENCH_smoke.json").read_text())["rungs"]
    assert [homology["name"], compare["name"], dense["name"]] == names
    assert dense["result"] == compare["result"]
    assert homology["result"]["exit"] == compare["result"]["exit"] == 0
    assert homology["result"]["tables"]["betti"] == {"0": 1, "1": 2, "2": 5, "3": 10}
    assert homology["result"]["verdicts"] == {}
    # the adjoint module acts, so the cochain half differs from the chain half
    assert compare["result"]["tables"] == {
        "degrees": [0, 1, 2, 3, 4],
        "tensor_homology": [2, 5, 10, 22, 47], "ce_homology": [2, 5, 4, 1, 0],
        "tensor_cohomology": [1, 4, 8, 17, 37], "ce_cohomology": [1, 4, 5, 2, 0],
        "chain_map_ranks": [2, 5, 4, 1, 0], "cochain_map_ranks": [1, 4, 5, 2, 0]}
    assert compare["result"]["verdicts"] == {
        "chain_map": True, "h0_iso": True, "h1_iso": True, "hl2_to_h2_surjective": True,
        "h2_to_hl2_injective": True}
    for rung in (homology, compare, dense):
        assert rung["wall_s"] > 0 and rung["peak_rss_mb"] > 0


def test_ladder_runs_the_dense_cli_rungs(tmp_path):
    # the CLI builds these in a sparse basis; the numbers are the canonical
    # bases' (heis3: the betti rungs above, sl2: acyclic, the rep: rung:
    # the adjoint module of heis3)
    names = ["leibhom homology --max-degree 7 heis3 dense",
             "leibhom homology --max-degree 6 sl2 dense",
             "leibhom homology --max-degree 5 --coefficients rep:adjoint-rep.json heis3 dense"]
    argv = [arg for name in names for arg in ("--rung", name)]
    proc = run_script("ladder.py", "--label", "smoke", *argv, "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    rungs = json.loads((tmp_path / "BENCH_smoke.json").read_text())["rungs"]
    assert [rung["name"] for rung in rungs] == names
    betti = [[1, 2, 5, 10, 22, 47, 101, 217], [1, 0, 0, 0, 0, 0, 0], [3, 4, 11, 22, 48, 103]]
    for rung, expected, m in zip(rungs, betti, (1, 1, 3)):
        assert rung["result"]["exit"] == 0
        assert rung["result"]["verdicts"] == {}
        tables = rung["result"]["tables"]
        assert tables["betti"] == {str(k): b for k, b in enumerate(expected)}
        assert tables["dims"] == {str(k): m * 3 ** k for k in range(len(expected))}
        assert rung["wall_s"] > 0 and rung["peak_rss_mb"] > 0


def test_ladder_runs_the_fg_rung(tmp_path):
    proc = run_script("ladder.py", "--label", "smoke", "--rung", "leibhom fg --max-degree 7 heis3",
                      "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    [rung] = json.loads((tmp_path / "BENCH_smoke.json").read_text())["rungs"]
    assert rung["result"]["exit"] == 0
    betti = [1, 3, 3, 3, 4, 9, 17, 30]
    assert rung["result"]["tables"]["betti"] == {str(k): b for k, b in enumerate(betti)}


def copy_of_src(dest: Path) -> Path:
    """A checkout holding a copy of this tree's src/ only, which is all a
    ladder child imports."""
    shutil.copytree(ROOT / "src", dest / "src", ignore=shutil.ignore_patterns("__pycache__"))
    return dest


def test_ladder_pairs_a_rung_against_a_copy(tmp_path):
    copy = copy_of_src(tmp_path / "copy")
    proc = run_script("ladder.py", "--label", "pair", "--rung", "heis3 <= 6",
                      "--against", str(copy), "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    mine = json.loads((tmp_path / "BENCH_pair.json").read_text())
    theirs = json.loads((tmp_path / "BENCH_pair-against.json").read_text())
    assert (mine["paired_with"], theirs["paired_with"]) == ("pair-against", "pair")
    assert (mine["src_lines"], mine["cli_lines"]) == (theirs["src_lines"], theirs["cli_lines"])
    assert mine["cli_rss_mb"] > 0 and theirs["cli_rss_mb"] > 0
    [a], [b] = mine["rungs"], theirs["rungs"]
    assert a["result"] == b["result"] == [1, 2, 5, 10, 22, 47, 101]
    assert len(a["wall_samples"]) == len(b["wall_samples"]) == 6
    ratios = [x / y for x, y in zip(a["wall_samples"], b["wall_samples"])]
    assert a["against_ratio"] == round(statistics.median(ratios), 4)
    assert a["against_rss_ratio"] > 0
    assert a["against_wins"] == sum(x < y for x, y in zip(a["wall_samples"], b["wall_samples"]))
    imports = [x / y for x, y in zip(a["import_samples"], b["import_samples"])]
    assert a["against_import_ratio"] == round(statistics.median(imports), 4)
    assert a["against_import_wins"] == sum(
        x < y for x, y in zip(a["import_samples"], b["import_samples"]))
    assert not {"against_ratio", "against_import_ratio", "against_import_wins"} & set(b)
    # ABBA: this tree runs first in odd rounds, the copy in even ones
    order = [line.split()[1] for line in proc.stdout.splitlines() if "heis3 <= 6" in line]
    assert order == ["A", "B", "B", "A"] * 3


def test_ladder_refuses_trees_that_disagree(tmp_path):
    copy = copy_of_src(tmp_path / "copy")
    homology = copy / "src" / "leibhom" / "homology.py"
    homology.write_text(homology.read_text() + "\nChainComplex.betti = lambda self: ()\n")
    proc = run_script("ladder.py", "--label", "pair", "--rung", "heis3 <= 6",
                      "--against", str(copy), "--out", str(tmp_path))
    assert proc.returncode == 1
    assert "the trees disagree on the result of heis3 <= 6" in proc.stderr
    assert not list(tmp_path.glob("BENCH_*.json"))
