"""Smoke test of the benchmark harness at reduced sizes (X = 10**4,
P = 10**3, level 2).  It runs in seconds:

    python3 -m pytest benchmarks/tests -q
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())

# Call counts the traced run must show at any size: which layers each
# workload exercises and which it bypasses.
PREDICTED_CALLS = {
    "campaign-coupled": {"dirichlet.euler_F.calls": 0,
                         "growth.weighted_partial_sums.calls": 0,
                         "sieve.mobius_sieve.calls": 1},
    "campaign-weighted": {"sieve.distinct_prime_counts.calls": 1,
                          "sieve.mobius_sieve.calls": 1},
    "identity-n6": {"sieve.mobius_sieve.calls": 0,
                    "growth.run_seed.calls": 0},
}


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_every_metric_emitted(workload, trace):
    record = run.run_benchmark(workload, seed=1, seconds=0, trace=trace,
                               smoke=True)
    result = record["result"]
    section = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in section}
    assert result["attempted"] > 0
    assert result["failed"] == 0 and result["correct"], record["errors"]
    if trace:
        values = {k: m["value"] for k, m in result["metrics"].items()}
        assert values["ops_failed_frac"] == 0
        for name, calls in PREDICTED_CALLS[workload].items():
            assert values[name] == calls, name
        assert values["trace.coverage_frac"] >= 0.9


def test_reference_mismatches_fail_their_items():
    workload = "campaign-coupled"
    spec = workloads.spec_for(workload, smoke=True)
    recorded = run.Run(workload, 1, spec, {}, "references-recorded")
    recorded.iterate()
    assert recorded.failed == 0, recorded.errors
    references = {beta: {"rows": [list(row) for row in got["rows"]],
                         "summary_sha256": got["summary_sha256"]}
                  for beta, (got, _) in recorded.first.items()}
    matching = run.Run(workload, 1, spec, references, "references-matching")
    matching.iterate()
    assert matching.failed == 0, matching.errors

    # one cell of one row at beta 3/4, and the summary checksum at beta 1/2
    references["3/4"]["rows"][1][1] += "1"
    references["1/2"]["summary_sha256"] = "0" * 64
    changed = run.Run(workload, 1, spec, references, "references-changed")
    changed.iterate()
    assert changed.attempted == 2 * spec["n_seeds"]
    assert changed.failed == 1 + spec["n_seeds"]
    for bench in (recorded, matching, changed):
        shutil.rmtree(bench.dir)


def test_oracle_rejects_a_row_one_ulp_off():
    X = 10**4
    seed = workloads.master_seeds("campaign-coupled", 1, 1)[0]
    grid = oracle.checkpoint_grid(X)
    fs, _ = oracle.sign_functions(X, seed, ["3/4"])
    row = oracle.expected_row(seed, "3/4", False,
                              oracle.partial_sums(fs[0], grid), grid,
                              (X / 100, X))
    cells = ["" if v == "" else f"{v:.17g}" if isinstance(v, float)
             else str(v) for v in row]
    assert oracle.check_seed(seed, ["3/4"], False, X, (X / 100, X),
                             {"3/4": cells}) == []
    cells[1] = f"{math.nextafter(row[1], math.inf):.17g}"
    assert oracle.check_seed(seed, ["3/4"], False, X, (X / 100, X),
                             {"3/4": cells}) != []


def test_refuses_to_run_without_the_sources():
    bare = run.OUT / "no-sources"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "benchmarks",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "identity-n6",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60)
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout == ""
