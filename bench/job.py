"""One benchmark job, run in a fresh interpreter as a CLI user's job is.

Usage: python3 bench/job.py '<spec JSON>'

The spec gives the workload, its inputs (generated by run.py from the
seed), a scratch directory, and whether to trace.  The job times
`import sepwords` plus building its inputs (setup_s), then the workload
call with its output consumed and checked against values frozen from the
seed commit (job_s).  Both times are given as wall seconds (setup_wall_s,
wall_s) and scaled to a fixed reference speed of the host (setup_s,
job_s; see SpeedProbe).  It prints one JSON line: the times, its peak
resident memory, the items it checked and a description of each failed
one, and with tracing the per-layer metrics.
"""

import contextlib
import signal
import sys
import time

T_SETUP = time.perf_counter()  # the modules above are the benchmark's own

import os  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import sepwords  # noqa: E402,F401  (binds sepwords.atlas, .cache, ...)
import json  # noqa: E402

# Frozen from the seed commit.  The atlas values and the lemma statuses are
# those tests/test_atlas.py and tests/test_lemmas.py freeze; no test covers
# the n=2 doubling words.
ATLAS_VALUES = [2, 2, 3, 3, 3, 3]
ATLAS_CSV = (
    "n,value,exact,w,x\n"
    "1,2,true,,0\n"
    "2,2,true,,0\n"
    "3,3,true,0,000\n"
    "4,3,true,0,000\n"
    "5,3,true,0,000\n"
    "6,3,true,0,000\n"
)
DOUBLING_WORDS = {"1": "100100100001001", "2": "200200200002002"}
BUDGET_BOUNDED_LEMMAS = {"kebab", "four"}

# The host's speed drifts by up to a factor of two within seconds (other
# tenants share its cores), so each time is also expressed at a fixed
# reference speed: a speed probe, a short fixed loop, samples the speed
# while the measured code runs, and a time is scaled by
# REFERENCE_PROBE_S / (mean probe time, see SpeedProbe.scale).
PROBE_LOOPS = 1500
REFERENCE_PROBE_S = 0.001  # a probe's time at the reference speed
PROBE_PERIOD_S = 0.02
SETUP_PROBES = 15


def probe_loop():
    """A fixed pure-Python loop of dict, set and int work, like the solver's.

    It allocates no tracked objects, so it moves no garbage-collector counts.
    """
    table, seen, acc = {}, set(), 0
    for i in range(PROBE_LOOPS):
        key = (i & 511) * 7 + i % 7
        table[key] = table.get(key, 0) + 1
        if key not in seen:
            seen.add(key)
        acc = (acc * 31 + len(table)) & 0xFFFF
    return acc


def probe_s():
    t0 = time.perf_counter()
    probe_loop()
    return time.perf_counter() - t0


class SpeedProbe:
    """Runs a probe every PROBE_PERIOD_S on a timer signal while in the block.

    `spent_s` is the time the probes took, to subtract from the block's time.
    """

    def __init__(self):
        self.samples, self.spent_s = [], 0.0

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(probe_s())
        self.spent_s += time.perf_counter() - t0

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self, seconds, extra=()):
        """`seconds` at the reference speed, from this block's samples.

        The slowest tenth of the samples is dropped: a probe the scheduler
        preempts reads many times too slow, and a few of them would
        outweigh the rest.
        """
        samples = sorted(self.samples + list(extra))
        kept = samples[:len(samples) - len(samples) // 10]
        return seconds * REFERENCE_PROBE_S * len(kept) / sum(kept)


# Each job returns (items checked, problems, info); one problem per failed item.


def check_atlas(table, ctx):
    csv = table.to_csv()
    values = [r.value for r in table.rows]
    problems = []
    if values != ATLAS_VALUES or not all(r.exact for r in table.rows):
        problems.append(f"atlas rows {values}, exact {[r.exact for r in table.rows]}")
    elif csv != ATLAS_CSV:
        problems.append("atlas CSV differs from the seed's")
    elif "cold_csv" in ctx and csv != ctx["cold_csv"]:
        problems.append("warm atlas CSV differs from the cold run's")
    elif "cold_csv" in ctx and table.searches_performed != 0:
        problems.append(f"warm atlas ran {table.searches_performed} searches")
    return 1, problems, {"searches": table.searches_performed, "csv": csv}


def atlas_job(ctx):
    cache = sepwords.cache.CertificateCache(ctx["cache"])
    return check_atlas(sepwords.atlas.compute_atlas(6, cache=cache), ctx)


def atlas_nocache_job(ctx):
    return check_atlas(sepwords.atlas.compute_atlas(6), ctx)


def audit_atlas_cache(ctx):
    """Every certificate in the cache file the atlas used must be exact."""
    problems, items = [], 0
    with open(ctx["cache"], "r", encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            items += 1
            entry = json.loads(line)
            value = entry["value"]
            if value["lower"] != value["upper"]:
                problems.append(f"inexact cached certificate {entry['key']}")
    if not items:
        return 1, ["the atlas cache holds no certificates"]
    return items, problems


def doubling_job(ctx):
    w0 = ctx["w0"]
    res = sepwords.construct.search_C_n(2, w0)
    problems = []
    if res.word != DOUBLING_WORDS[w0] or res.lower_checked != 5:
        problems.append(f"search_C_n(2, {w0!r}) gave {res.word!r}, "
                        f"lower_checked {res.lower_checked}")
    return 1, problems, {"word": res.word}


def witness_job(ctx):
    construct = sepwords.construct
    rep = construct.verify_witness(construct.witness_pair(10, 1))
    problems = []
    if rep.statuses.get("lower") != "certified":
        problems.append(f"lower status {rep.statuses.get('lower')}")
    upper = rep.upper_witness
    if (rep.statuses.get("upper") != "certified" or upper is None
            or upper.state_count > rep.upper_claim):
        problems.append(f"upper status {rep.statuses.get('upper')}, witness states "
                        f"{upper.state_count if upper else None} vs claim {rep.upper_claim}")
    return 2, problems, {"statuses": rep.statuses}


def lemma_job(ctx):
    from tracer import LEMMA_IDS

    suite = sepwords.lemmas.run_lemma_suite(seed=ctx["seed"])
    got = {c.id: c.status for c in suite.checks}
    problems = []
    for check_id in LEMMA_IDS:
        want = "budget-bounded" if check_id in BUDGET_BOUNDED_LEMMAS else "pass"
        if got.get(check_id) != want:
            problems.append(f"lemma {check_id}: {got.get(check_id)}, expected {want}")
    return len(LEMMA_IDS), problems, {"statuses": got}


JOBS = {
    "atlas-nocache": (atlas_nocache_job, None),
    "atlas-cold": (atlas_job, audit_atlas_cache),
    "atlas-warm": (atlas_job, audit_atlas_cache),
    "doubling-search": (doubling_job, None),
    "witness-k10": (witness_job, None),
    "lemma-suite": (lemma_job, None),
}


def main() -> None:
    spec = json.loads(sys.argv[1])
    job, audit = JOBS[spec["workload"]]
    ctx = dict(spec["inputs"])
    ctx["cache"] = os.path.join(spec["workdir"], "cache.jsonl")
    setup_wall_s = time.perf_counter() - T_SETUP
    setup_probes = [probe_s() for _ in range(SETUP_PROBES)]
    setup_s = setup_wall_s * REFERENCE_PROBE_S / sorted(setup_probes)[SETUP_PROBES // 2]
    if spec.get("setup_only"):
        print(json.dumps({"setup_s": setup_s, "setup_wall_s": setup_wall_s}))
        return

    import resource

    tracer = None
    if spec.get("trace"):
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
        bytes_before = os.path.getsize(ctx["cache"]) if os.path.exists(ctx["cache"]) else 0
    if tracer is None:
        probe = SpeedProbe()
    else:  # spans stay free of probe time; traced jobs report wall times
        probe = contextlib.nullcontext(SpeedProbe())
    with probe as speed:
        t0 = time.perf_counter()
        attempted, problems, info = job(ctx)
        wall_s = time.perf_counter() - t0 - speed.spent_s
    # a short job may see few timer ticks; the set-up probes add samples
    job_s = speed.scale(wall_s, setup_probes)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {"setup_s": setup_s, "setup_wall_s": setup_wall_s, "job_s": job_s,
              "wall_s": wall_s, "probe_s": speed.samples, "setup_probe_s": setup_probes,
              "rss_mb": rss_mb, "info": info}
    if tracer is not None:
        bytes_after = os.path.getsize(ctx["cache"]) if os.path.exists(ctx["cache"]) else 0
        result["layers"] = tracing.layer_metrics(
            tracer, info.get("searches", 0), bytes_after - bytes_before)
        if spec.get("spans"):
            tracer.write_spans(spec["spans"], spec.get("job", ""), t0)
    if audit is not None:
        items, more = audit(ctx)
        attempted += items
        problems += more
    result.update(attempted=attempted, failed=len(problems), problems=problems[:20])
    print(json.dumps(result))


if __name__ == "__main__":
    main()
