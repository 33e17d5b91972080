"""Span tracing of the sepwords layers, installed from outside the package.

`install()` replaces the public functions of each layer with timing
wrappers under every name a sepwords module bound them to, so the wrapper
sits exactly at the call from one layer into the next (for example both
`sepwords.construct.no_separator_up_to` and
`sepwords.lemmas.no_separator_up_to`).  Spans (name, parent, start, end)
stay in memory and the job writes them out when it ends.  Generators and
calls too frequent to span (`zpath`) are only counted and timed.
Per-symbol hot helpers (`run`, `accepts`, `check_separates`,
`word_symbols`) stay unwrapped.
"""

from __future__ import annotations

import collections
import functools
import json
import math
import sys
import time

LEMMA_IDS = (
    "fries", "pear", "five", "onep", "peach", "nexus", "icecream",
    "marshmallow", "snake", "ketchup", "three", "jellybean", "two", "spider",
    "kebab", "four", "candy", "redfish", "farmand", "blueberry", "main",
)

# Every per-layer metric, in output order, with its unit.
PER_LAYER = [
    ("atlas.searches", "count"),
    ("atlas.self_s", "s"),
    ("solver.exact_sep.calls", "count"),
    ("solver.exact_sep.busy_s", "s"),
    ("solver.exact_sep.p50_ms", "ms"),
    ("solver.exact_sep.p99_ms", "ms"),
    ("solver.exact_sep.nodes", "count"),
    ("solver.exact_sep.nodes_per_s", "1/s"),
    ("solver.exact_sep.exact_ratio", "ratio"),
    ("solver.no_separator_up_to.calls", "count"),
    ("solver.no_separator_up_to.busy_s", "s"),
    ("solver.no_separator_up_to.p50_ms", "ms"),
    ("solver.no_separator_up_to.p97_ms", "ms"),
    ("solver.no_separator_up_to.proved_ratio", "ratio"),
    ("solver.lsep_lower_check.calls", "count"),
    ("solver.lsep_lower_check.busy_s", "s"),
    ("solver.lsep_lower_check.proved_ratio", "ratio"),
    ("solver.from_json.calls", "count"),
    ("solver.from_json.busy_s", "s"),
    ("cache.load_s", "s"),
    ("cache.entries", "count"),
    ("cache.skipped", "count"),
    ("cache.get.calls", "count"),
    ("cache.get.hit_ratio", "ratio"),
    ("cache.put.calls", "count"),
    ("cache.put.busy_s", "s"),
    ("cache.put.p99_ms", "ms"),
    ("cache.put.bytes", "bytes"),
    ("construct.search_C_n.self_s", "s"),
    ("construct.search_z_k.busy_s", "s"),
    ("construct.search_z_k.candidates", "count"),
    ("construct.verify_witness.busy_s", "s"),
    ("lang.build_G_k.busy_s", "s"),
    ("lang.build_H_k.busy_s", "s"),
    ("lang.segmented_closure.busy_s", "s"),
    ("lang.iter_words.yielded", "count"),
    ("dfa.determinize.calls", "count"),
    ("dfa.determinize.busy_s", "s"),
    ("dfa.minimize.calls", "count"),
    ("dfa.minimize.busy_s", "s"),
    ("dfa.minimize.states_in", "count"),
    ("dfa.minimize.states_out", "count"),
    ("dfa.reverse.calls", "count"),
    ("dfa.reverse.busy_s", "s"),
    ("dfa.combine.calls", "count"),
    ("dfa.combine.busy_s", "s"),
    ("dfa.enumerate_canonical.yielded", "count"),
    ("dfa.enumerate_canonical.busy_s", "s"),
    ("dfa.zpath.calls", "count"),
    ("dfa.zpath.busy_s", "s"),
    *((f"lemmas.check_s.{i}", "s") for i in LEMMA_IDS),
    ("trace.job_s", "s"),
    ("trace.untraced_job_s", "s"),
    ("trace.overhead_s", "s"),
]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, parent index or -1, start, end]
        self._stack: list[int] = []
        self.count: collections.Counter = collections.Counter()
        self.busy: collections.Counter = collections.Counter()  # unspanned time

    def span(self, name, fn, hook=None):
        """Wrap fn so each call records a span; name may be a function of the args."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            rec = [label, stack[-1] if stack else -1, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if hook is not None:
                hook(args, result)
            return result

        return wrapper

    def counter(self, name, fn):
        """Wrap a call too frequent to span: count it and sum its time."""
        count, busy, clock = self.count, self.busy, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                busy[name] += clock() - t0
                count[name + ".calls"] += 1

        return wrapper

    def generator(self, name, fn):
        """Wrap a generator function: count its items and time each step."""
        count, busy, clock = self.count, self.busy, time.perf_counter

        def drain(it):
            while True:
                t0 = clock()
                try:
                    item = next(it)
                except StopIteration:
                    busy[name] += clock() - t0
                    return
                busy[name] += clock() - t0
                count[name + ".yielded"] += 1
                yield item

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return drain(fn(*args, **kwargs))

        return wrapper

    def write_spans(self, path: str, job: str, t0: float) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, parent, start, end) in enumerate(self.spans):
                fh.write(json.dumps({"job": job, "id": i, "parent": parent, "name": name,
                                     "start": start - t0, "end": end - t0}) + "\n")


def _rebind(orig, new) -> None:
    """Point every sepwords module-level name bound to orig at new."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "sepwords" or mod_name.startswith("sepwords.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, new)


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries of an imported sepwords package."""
    from sepwords import atlas, cache, construct, dfa, lang, lemmas, solver

    count = tracer.count

    def on_exact_sep(args, cert):
        count["solver.exact_sep.nodes"] += cert.nodes
        count["solver.exact_sep.exact"] += cert.lower == cert.upper

    def on_proved(name):
        def hook(args, proved):
            count[name] += bool(proved)
        return hook

    def on_minimize(args, out):
        count["dfa.minimize.states_in"] += args[0].state_count
        count["dfa.minimize.states_out"] += out.state_count

    def check_name(check_id, *args, **kwargs):
        return "lemmas.check." + check_id

    spanned = [
        (atlas, "compute_atlas", "atlas.compute_atlas", None),
        (solver, "exact_sep", "solver.exact_sep", on_exact_sep),
        (solver, "no_separator_up_to", "solver.no_separator_up_to",
         on_proved("solver.no_separator_up_to.proved")),
        (solver, "lsep_lower_check", "solver.lsep_lower_check",
         on_proved("solver.lsep_lower_check.proved")),
        (construct, "search_C_n", "construct.search_C_n", None),
        (construct, "search_z_k", "construct.search_z_k", None),
        (construct, "witness_pair", "construct.witness_pair", None),
        (construct, "verify_witness", "construct.verify_witness", None),
        (lang, "build_G_k", "lang.build_G_k", None),
        (lang, "build_H_k", "lang.build_H_k", None),
        (lang, "segmented_closure", "lang.segmented_closure", None),
        (lang, "finite_language", "lang.finite_language", None),
        (dfa, "determinize", "dfa.determinize", None),
        (dfa, "minimize", "dfa.minimize", on_minimize),
        (dfa, "reverse", "dfa.reverse", None),
        (dfa, "combine", "dfa.combine", None),
        (lemmas, "run_check", check_name, None),
    ]
    for mod, attr, name, hook in spanned:
        orig = getattr(mod, attr)
        _rebind(orig, tracer.span(name, orig, hook))
    for mod, attr, name in ((lang, "iter_words", "lang.iter_words"),
                            (dfa, "enumerate_canonical", "dfa.enumerate_canonical")):
        orig = getattr(mod, attr)
        _rebind(orig, tracer.generator(name, orig))

    _rebind(dfa.zpath, tracer.counter("dfa.zpath", dfa.zpath))

    cert_cls = solver.SepCertificate
    from_json = cert_cls.__dict__["from_json"].__func__
    cert_cls.from_json = staticmethod(tracer.span("solver.from_json", from_json))

    cache_cls = cache.CertificateCache

    def on_load(args, _):
        c = args[0]
        count["cache.entries"] += len(c)
        count["cache.skipped"] += (getattr(c, "skipped_corrupt", 0)
                                   + getattr(c, "skipped_version", 0))

    cache_cls.__init__ = tracer.span("cache.load", cache_cls.__init__, on_load)
    cache_cls.get = tracer.span("cache.get", cache_cls.get)
    cache_cls.put = tracer.span("cache.put", cache_cls.put)
    contains = cache_cls.__contains__

    def counted_contains(self, key):
        hit = contains(self, key)
        count["cache.lookups"] += 1
        count["cache.hits"] += hit
        return hit

    cache_cls.__contains__ = counted_contains


def _pct_ms(durations: list[float], q: float) -> float:
    """Nearest-rank percentile q (0..1) of durations, in milliseconds."""
    if not durations:
        return 0.0
    ordered = sorted(durations)
    return 1000.0 * ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, searches: int, put_bytes: int) -> dict[str, float]:
    """The per-layer metrics of one traced job, keyed as in PER_LAYER.

    busy_s of a name sums its outermost spans (a recursive call is not
    counted twice); self_s subtracts the time of direct child spans.
    """
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for name, parent, start, end in spans:
        if parent >= 0:
            child_time[parent] += end - start
    durations: dict[str, list[float]] = collections.defaultdict(list)
    busy: collections.Counter = collections.Counter()
    self_s: collections.Counter = collections.Counter()
    for i, (name, parent, start, end) in enumerate(spans):
        durations[name].append(end - start)
        self_s[name] += end - start - child_time[i]
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][1]
        if p < 0:
            busy[name] += end - start

    c = tracer.count

    def calls(name):
        return len(durations[name])

    ex, nsu, lsep = "solver.exact_sep", "solver.no_separator_up_to", "solver.lsep_lower_check"
    # candidates tried by search_z_k are its lsep_lower_check children
    z_spans = {i for i, s in enumerate(spans) if s[0] == "construct.search_z_k"}
    candidates = sum(1 for s in spans if s[0] == lsep and s[1] in z_spans)
    m = {
        "atlas.searches": searches,
        "atlas.self_s": self_s["atlas.compute_atlas"],
        f"{ex}.calls": calls(ex),
        f"{ex}.busy_s": busy[ex],
        f"{ex}.p50_ms": _pct_ms(durations[ex], 0.50),
        f"{ex}.p99_ms": _pct_ms(durations[ex], 0.99),
        f"{ex}.nodes": c[f"{ex}.nodes"],
        f"{ex}.nodes_per_s": _ratio(c[f"{ex}.nodes"], busy[ex]),
        f"{ex}.exact_ratio": _ratio(c[f"{ex}.exact"], calls(ex)),
        f"{nsu}.calls": calls(nsu),
        f"{nsu}.busy_s": busy[nsu],
        f"{nsu}.p50_ms": _pct_ms(durations[nsu], 0.50),
        f"{nsu}.p97_ms": _pct_ms(durations[nsu], 0.97),
        f"{nsu}.proved_ratio": _ratio(c[f"{nsu}.proved"], calls(nsu)),
        f"{lsep}.calls": calls(lsep),
        f"{lsep}.busy_s": busy[lsep],
        f"{lsep}.proved_ratio": _ratio(c[f"{lsep}.proved"], calls(lsep)),
        "solver.from_json.calls": calls("solver.from_json"),
        "solver.from_json.busy_s": busy["solver.from_json"],
        "cache.load_s": busy["cache.load"],
        "cache.entries": c["cache.entries"],
        "cache.skipped": c["cache.skipped"],
        "cache.get.calls": c["cache.lookups"],
        "cache.get.hit_ratio": _ratio(c["cache.hits"], c["cache.lookups"]),
        "cache.put.calls": calls("cache.put"),
        "cache.put.busy_s": busy["cache.put"],
        "cache.put.p99_ms": _pct_ms(durations["cache.put"], 0.99),
        "cache.put.bytes": put_bytes,
        "construct.search_C_n.self_s": self_s["construct.search_C_n"],
        "construct.search_z_k.busy_s": busy["construct.search_z_k"],
        "construct.search_z_k.candidates": candidates,
        "construct.verify_witness.busy_s": busy["construct.verify_witness"],
        "lang.build_G_k.busy_s": busy["lang.build_G_k"],
        "lang.build_H_k.busy_s": busy["lang.build_H_k"],
        "lang.segmented_closure.busy_s": busy["lang.segmented_closure"],
        "lang.iter_words.yielded": c["lang.iter_words.yielded"],
        "dfa.minimize.states_in": c["dfa.minimize.states_in"],
        "dfa.minimize.states_out": c["dfa.minimize.states_out"],
        "dfa.enumerate_canonical.yielded": c["dfa.enumerate_canonical.yielded"],
        "dfa.enumerate_canonical.busy_s": tracer.busy["dfa.enumerate_canonical"],
    }
    for op in ("determinize", "minimize", "reverse", "combine"):
        m[f"dfa.{op}.calls"] = calls(f"dfa.{op}")
        m[f"dfa.{op}.busy_s"] = busy[f"dfa.{op}"]
    m["dfa.zpath.calls"] = c["dfa.zpath.calls"]
    m["dfa.zpath.busy_s"] = tracer.busy["dfa.zpath"]
    for check_id in LEMMA_IDS:
        m[f"lemmas.check_s.{check_id}"] = busy[f"lemmas.check.{check_id}"]
    return m
