"""The benchmark's tracer still wraps every name it rebinds.

`bench/tracer.py` replaces sepwords functions and methods by name; a
refactor that drops or renames one of them would break every traced
benchmark run.  This runs the tracer, unchanged, in a fresh interpreter.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_SCRIPT = """
import json, sys
import sepwords
import tracer

t = tracer.Tracer()
tracer.install(t)
from sepwords.atlas import compute_atlas
from sepwords.cache import CertificateCache

plain = compute_atlas(2)
cold = compute_atlas(2, cache=CertificateCache(sys.argv[1]))
warm = compute_atlas(2, cache=CertificateCache(sys.argv[1]))
metrics = tracer.layer_metrics(t, warm.searches_performed, 0)
print(json.dumps({
    "csv": [plain.to_csv(), cold.to_csv(), warm.to_csv()],
    "searches": [plain.searches_performed, cold.searches_performed,
                 warm.searches_performed],
    "spans": sorted({s[0] for s in t.spans}),
    "metrics": sorted(metrics),
    "per_layer": [name for name, _ in tracer.PER_LAYER],
    "yielded": metrics["dfa.enumerate_canonical.yielded"],
    "hit_ratio": metrics["cache.get.hit_ratio"],
}))
"""


def test_traced_atlas_runs_and_reports_every_layer_metric(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "bench")]))
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT, str(tmp_path / "cache.jsonl")],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["csv"] == ["n,value,exact,w,x\n1,2,true,,0\n2,2,true,,0\n"] * 3
    assert out["searches"] == [1, 1, 0]  # the one row pair ("", "0"): all, all, none
    assert {"atlas.compute_atlas", "cache.load", "cache.get",
            "cache.put"} <= set(out["spans"])
    # job.py adds the trace.* timings; the tracer computes every other one
    assert out["metrics"] == sorted(name for name in out["per_layer"]
                                    if not name.startswith("trace."))
    assert out["yielded"] > 0
    assert out["hit_ratio"] > 0
