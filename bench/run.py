"""The sepwords benchmark: five workloads shaped like the documented CLI commands.

Usage (from the repository root):

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 bench/run.py --workload all --seed <n> --seconds <s>

Load shape: a closed loop with one client.  One job runs at a time, each
in a fresh interpreter (bench/job.py), because the package keeps memo
state per process (lru_cache'd language handles, the `_can_accept` memo,
the unary-formula validation flag); a second job in the same interpreter
would measure a different program.  Jobs repeat until --seconds have
passed, each with inputs drawn from --seed.

Workloads (why each was chosen is in WORKLOADS):

    atlas-nocache    compute_atlas(6) without a cache
    atlas-warm       compute_atlas(6) on a cache file an earlier process wrote
    atlas-cold       compute_atlas(6) on an empty cache file (by hand only)
    doubling-search  search_C_n(2, w0), w0 drawn from {"1", "2"}
    witness-k10      verify_witness(witness_pair(10, 1))
    lemma-suite      run_lemma_suite(seed=<drawn>)

With --trace 0 the last stdout line reports the end-to-end metrics, the
medians over the run's jobs: job_s (the timed call with its output
consumed and checked), setup_s (import sepwords plus building the job's
inputs; fixtures such as the warm cache file are excluded) and
peak_rss_mb.  Both times are seconds at a fixed reference speed of the
host, which a speed probe samples in each job (bench/job.py).  With
--trace 1 untraced and traced jobs alternate; the traced ones wrap each
layer's public functions (bench/tracer.py) and the last line reports the
per-layer metrics, medians over traced jobs, plus the tracing overhead
(traced minus untraced wall time of the job).  `attempted` and `failed`
count the checked items of all jobs (atlas certificates and table,
doubling word, witness statuses, lemma statuses), so failed / attempted
is the failed fraction.

The machine is shared: CPUs cannot be pinned nor caches dropped, so
figures are medians over jobs.  Each run writes its full record (machine,
seed, every job's inputs and samples) to bench/out/results/, and traced
jobs write their spans to bench/out/spans/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracer

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
OUT = BENCH / "out"

WORKLOADS = {
    "atlas-nocache": "8 001 tiny exact searches and no cache (sepwords atlas): "
                     "the solver's many-small-calls path",
    "atlas-warm": "zero searches, only cache load, lookups and certificate "
                  "decoding: the cache read path, which bypasses the solver",
    "doubling-search": "about 400 deep p=5 no_separator_up_to refutations: "
                       "the solver's deep-search path",
    "witness-k10": "lsep_lower_check over H_10 plus determinize/minimize/reverse "
                   "of G_10: the language and automaton layers",
    "lemma-suite": "21 desk-scale checks: the only workload that runs lemmas, "
                   "enumerate_canonical and zpath",
    # By hand only, not in BENCHMARK.json: its 8 001 fsyncs wait on a shared
    # disk, and its run medians spread too widely to gate on.
    "atlas-cold": "the atlas-nocache searches plus 8 001 fsynced cache appends: "
                  "the cache write path",
}

END_TO_END = [("job_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB")]
MIN_SETUP_SAMPLES = 21
# Jobs import from byte-code caches, as an installed package does; the
# caches live in the checkout whatever the caller's environment says.
CHILD_ENV = {k: v for k, v in os.environ.items()
             if k not in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")}
CHILD_ENV["PYTHONPYCACHEPREFIX"] = str(OUT / "pycache")
RUN_LIMIT_S = 170.0  # every run ends well within the 180 s a run may take


def draw_inputs(workload: str, rng: random.Random) -> dict:
    """Inputs of one job; the atlas and witness inputs are fixed by definition."""
    if workload == "doubling-search":
        return {"w0": rng.choice("12")}
    if workload == "lemma-suite":
        return {"seed": rng.randrange(2**31)}
    return {}


def spawn(spec: dict, deadline: float) -> dict:
    """Run one job to completion; a crash or timeout becomes a failed result."""
    timeout = max(1.0, deadline - time.monotonic())
    cmd = [sys.executable, str(BENCH / "job.py"), json.dumps(spec)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=CHILD_ENV, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {timeout:.0f} s"}
    if proc.returncode != 0 or not proc.stdout.strip():
        tail = proc.stderr.strip().splitlines()[-3:]
        return {"error": f"exit {proc.returncode}: {' | '.join(tail)}"}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def machine_info(cache_dir: Path) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        fs = subprocess.run(["stat", "-f", "-c", "%T", str(cache_dir)],
                            capture_output=True, text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        fs = ""
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cache_fs": fs or "unknown",
        "limits": "shared machine; CPUs not pinned, caches not dropped; "
                  "figures are medians over jobs",
    }


class Run:
    """One benchmark run of one workload."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.rng = random.Random(seed)
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.jobs: list[dict] = []
        self.setups: list[float] = []
        self.attempted = self.failed = 0
        self.problems: list[str] = []

    def job(self, work_dir: Path, traced: bool, fixture: dict) -> dict:
        index = len(self.jobs)
        job_dir = work_dir / f"job{index}"
        job_dir.mkdir()
        inputs = dict(draw_inputs(self.workload, self.rng), **fixture.get("inputs", {}))
        spec = {"workload": self.workload, "inputs": inputs, "workdir": str(job_dir),
                "trace": traced, "job": f"{index}"}
        if traced:
            # each traced run replaces the spans of the previous one
            spans = OUT / "spans" / f"{self.workload}-job{index}.jsonl"
            spans.parent.mkdir(parents=True, exist_ok=True)
            spec["spans"] = str(spans)
        for name, src in fixture.get("files", {}).items():
            shutil.copyfile(src, job_dir / name)
        result = spawn(spec, self.deadline)
        shutil.rmtree(job_dir)
        result.update(inputs=inputs, traced=traced)
        self.jobs.append(result)
        self.count(result)
        return result

    def count(self, result: dict) -> None:
        if "error" in result:
            self.attempted += 1
            self.failed += 1
            self.problems.append(result["error"])
            return
        self.attempted += result["attempted"]
        self.failed += result["failed"]
        self.problems += result["problems"]
        self.setups.append(result["setup_s"])

    def execute(self, work_dir: Path) -> None:
        fixture = {}
        if self.workload == "atlas-warm":
            # the warm cache is written by an earlier, separate process
            fixture_dir = work_dir / "fixture"
            fixture_dir.mkdir()
            spec = {"workload": "atlas-cold", "inputs": {}, "workdir": str(fixture_dir)}
            cold = spawn(spec, self.deadline)
            self.count(cold)
            if "error" in cold:
                return
            fixture = {"inputs": {"cold_csv": cold["info"]["csv"]},
                       "files": {"cache.jsonl": fixture_dir / "cache.jsonl"}}
        # one untimed import first, so byte-compilation is not measured
        spawn({"workload": self.workload, "inputs": {}, "workdir": str(work_dir),
               "setup_only": True}, self.deadline)
        start = time.monotonic()
        min_jobs = 4 if self.trace else 3
        while True:
            t0 = time.monotonic()
            traced = self.trace and len(self.jobs) % 2 == 1
            result = self.job(work_dir, traced, fixture)
            if "error" in result:
                break
            now = time.monotonic()
            if len(self.jobs) >= min_jobs and now - start + (now - t0) > self.seconds:
                break
        while len(self.setups) < MIN_SETUP_SAMPLES and time.monotonic() < self.deadline:
            result = spawn({"workload": self.workload, "inputs": {},
                            "workdir": str(work_dir), "setup_only": True}, self.deadline)
            if "error" in result:
                break
            self.setups.append(result["setup_s"])

    def metrics(self) -> dict:
        plain = [j for j in self.jobs if "error" not in j and not j["traced"]]
        traced = [j for j in self.jobs if "error" not in j and j["traced"]]
        if not self.trace:
            values = {
                "job_s": statistics.median(j["job_s"] for j in plain),
                "setup_s": statistics.median(self.setups),
                "peak_rss_mb": statistics.median(j["rss_mb"] for j in plain),
            }
            units = dict(END_TO_END)
        else:
            values = {name: statistics.median(j["layers"][name] for j in traced)
                      for name, _ in tracer.PER_LAYER if not name.startswith("trace.")}
            values["trace.job_s"] = statistics.median(j["wall_s"] for j in traced)
            values["trace.untraced_job_s"] = statistics.median(j["wall_s"] for j in plain)
            values["trace.overhead_s"] = values["trace.job_s"] - values["trace.untraced_job_s"]
            units = dict(tracer.PER_LAYER)
        return {name: {"value": values[name], "unit": units[name]} for name in units}


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    tmp_root = OUT / "tmp"
    tmp_root.mkdir(parents=True, exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=tmp_root))
    run = Run(workload, seed, seconds, trace)
    try:
        machine = machine_info(work_dir)
        run.execute(work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    try:
        metrics = run.metrics()
    except statistics.StatisticsError:  # no job finished: nothing to report
        metrics = None
    result = {"correct": run.failed == 0, "attempted": run.attempted,
              "failed": run.failed, "metrics": metrics}
    record = dict(result, workload=workload, seed=seed, seconds=seconds, trace=trace,
                  why=WORKLOADS[workload], machine=machine, problems=run.problems[:50],
                  setup_samples=run.setups, jobs=run.jobs)
    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = results_dir / f"{workload}-seed{seed}-trace{int(trace)}-{stamp}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return record


def show(record: dict) -> None:
    m = record["machine"]
    print(f"{record['workload']} seed={record['seed']} trace={int(record['trace'])}: "
          f"{len(record['jobs'])} jobs; correct={record['correct']}, failed_frac "
          f"{record['failed'] / max(1, record['attempted']):.4g} "
          f"({record['failed']}/{record['attempted']} items)")
    print(f"  machine: {m['cpu']}, nproc {m['nproc']}, Python {m['python']}, "
          f"cache on {m['cache_fs']}; {m['limits']}")
    for problem in record["problems"][:5]:
        print(f"  FAILED: {problem}")
    for name, v in (record["metrics"] or {}).items():
        print(f"  {name:42s} {v['value']:>14.6g} {v['unit']}")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "sepwords" / "__init__.py").is_file():
        print(f"error: no sepwords sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        records = [run_workload(w, args.seed, args.seconds, bool(args.trace))
                   for w in WORKLOADS]
        for record in records:
            show(record)
        return 0 if all(r["correct"] for r in records) else 1
    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    show(record)
    if record["metrics"] is None:
        print("error: no job finished", file=sys.stderr)
        return 1
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
