"""Every workload that BENCHMARK.json gates still runs and passes its checks.

`bench/job.py` calls the package by name (`CertificateCache(path)`,
`compute_atlas(6, cache=...)`, `search_C_n`, `witness_pair`,
`run_lemma_suite`, ...) and checks each result against values frozen from
the seed commit.  A refactor that breaks one of those calls or values
would fail the benchmark, so this runs each gated workload once,
untraced, as `bench/run.py` does: `bench/job.py`, unchanged, in a fresh
interpreter per job.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# the inputs bench/run.py would draw, fixed: doubling-search's w0 and a lemma seed
INPUTS = {
    "atlas-nocache": {},
    "doubling-search": {"w0": "1"},
    "witness-k10": {},
    "lemma-suite": {"seed": 2671},
}


def run_job(workload: str, workdir: Path, **inputs) -> dict:
    spec = {"workload": workload, "inputs": inputs, "workdir": str(workdir)}
    proc = subprocess.run([sys.executable, str(ROOT / "bench" / "job.py"), json.dumps(spec)],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["attempted"] > 0
    assert result["failed"] == 0, result["problems"]
    return result


def test_every_gated_workload_is_run_here():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {w["name"] for w in declared["workloads"]} == set(INPUTS) | {"atlas-warm"}


@pytest.mark.parametrize("workload", sorted(INPUTS))
def test_bench_job_passes(tmp_path, workload):
    run_job(workload, tmp_path, **INPUTS[workload])


def test_bench_atlas_warm_job_passes_after_a_cold_one(tmp_path):
    # as bench/run.py prepares atlas-warm: a cold job writes the cache first
    cold = run_job("atlas-cold", tmp_path)
    warm = run_job("atlas-warm", tmp_path, cold_csv=cold["info"]["csv"])
    assert (cold["info"]["searches"], warm["info"]["searches"]) == (2, 0)
