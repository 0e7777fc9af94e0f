import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_limiter_sweep_prints_one_row_per_alpha():
    out = run_script("limiter_sweep.py", "--nodes", "200", "--alphas", "0.3,0.5")
    rows = [line.split() for line in out.splitlines()
            if line.split() and line.split()[0] in ("0.30", "0.50")]
    assert [row[0] for row in rows] == ["0.30", "0.50"]
    # alpha, sample size, KS, label drift, distortion before and after, swaps
    assert all(len(row) == 7 for row in rows)
    assert [int(row[1]) for row in rows] == [60, 100]


def test_demo_synthesis_runs_to_the_end():
    out = run_script("demo_synthesis.py")
    assert "[run_start]" in out and "[run_end]" in out


def test_partition_digests_prints_one_deterministic_row_per_setting():
    args = ("--sizes", "60", "--degrees", "4", "--seeds", "1,2")
    first, second = (run_script("partition_digests.py", *args) for _ in range(2))
    rows = [line.split("\t") for line in first.splitlines()]
    # nodes, degree, seed, gamma, term, communities, digest, seconds
    assert [row[:5] for row in rows] == [
        ["60", "4.0", seed, gamma, term] for seed in ("1", "2") for gamma, term in
        [("0.5", "similarity"), ("0.5", "distance"), ("1.0", "similarity")]]
    assert all(len(row) == 8 and len(row[6]) == 64 and int(row[5]) > 0 for row in rows)
    assert [row[:7] for row in rows] == [line.split("\t")[:7] for line in second.splitlines()]


def test_repair_digests_prints_one_deterministic_row_per_setting():
    args = ("--sizes", "300", "--degrees", "1.6", "--seeds", "1",
            "--alphas", "0.3,0.5", "--epsilons", "0,0.05")
    first, second = (run_script("repair_digests.py", *args) for _ in range(2))
    rows = [line.split("\t") for line in first.splitlines()]
    # nodes, degree, seed, alpha, epsilon, swaps, digest, seconds
    assert [row[:5] for row in rows] == [
        ["300", "1.6", "1", alpha, epsilon]
        for alpha in ("0.3", "0.5") for epsilon in ("0.0", "0.05")]
    assert all(len(row) == 8 and len(row[6]) == 64 and int(row[5]) >= 0 for row in rows)
    assert any(int(row[5]) > 0 for row in rows)
    assert [row[:7] for row in rows] == [line.split("\t")[:7] for line in second.splitlines()]


def test_synthesis_digests_prints_one_deterministic_row_per_run():
    args = ("--sizes", "60", "--gammas", "0.5,1", "--seeds", "1", "--parts", "0",
            "--iterations", "2")
    first, second = (run_script("synthesis_digests.py", *args) for _ in range(2))
    rows = [line.split("\t") for line in first.splitlines()]
    # nodes, degree, gamma, seed, part, audit and graph digests, prompt
    # characters per role, seconds
    assert [row[:5] for row in rows] == [
        ["60", "4.0", gamma, "1", "0"] for gamma in ("0.5", "1.0")]
    assert all(len(row) == 12 and len(row[5]) == len(row[6]) == 64 for row in rows)
    assert all(int(chars) > 0 for row in rows for chars in row[7:11])
    assert [row[:11] for row in rows] == [line.split("\t")[:11] for line in second.splitlines()]


def test_spectrum_digests_prints_one_deterministic_row_per_graph():
    args = ("--sizes", "300", "--degrees", "1.6,4", "--seeds", "1")
    first, second = (run_script("spectrum_digests.py", *args) for _ in range(2))
    rows = [line.split("\t") for line in first.splitlines()]
    # nodes, degree, seed, graph, largest component, digest, gap from the
    # dense solve, seconds
    assert [row[:4] for row in rows] == [
        ["300", degree, "1", kind] for degree in ("1.6", "4.0") for kind in ("original", "sample")]
    assert all(len(row) == 8 and len(row[5]) == 64 and int(row[4]) > 11 for row in rows)
    assert all(re.fullmatch(r"\d\.\de[+-]\d\d", row[6]) and float(row[6]) <= 1e-12
               for row in rows)
    assert [row[:7] for row in rows] == [line.split("\t")[:7] for line in second.splitlines()]
    # above 4,000 nodes the dense solve is skipped
    rows = [line.split("\t") for line in run_script(
        "spectrum_digests.py", "--sizes", "5000", "--degrees", "4", "--seeds", "1").splitlines()]
    assert [(int(row[4]) > 4000, row[6] == "-") for row in rows] == [(True, True), (False, False)]
