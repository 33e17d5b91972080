"""JSON-lines certificate cache and cached-solve policy tests."""

import json

import pytest
from click.testing import CliRunner

from sepwords.cache import CertificateCache, sep_key, solve_cached
from sepwords.cli import main
from sepwords.solver import ENGINE_VERSION, SearchBudget, SepCertificate, exact_sep


def test_put_get_roundtrip(tmp_path):
    path = tmp_path / "cache.jsonl"
    c = CertificateCache(path)
    cert = exact_sep("01", "10")
    c.put(sep_key("01", "10"), cert.to_dict())
    reopened = CertificateCache(path)
    back = SepCertificate.from_dict(reopened.get(sep_key("01", "10")))
    assert back.value == cert.value
    assert back.witness == cert.witness


def test_put_is_idempotent(tmp_path):
    path = tmp_path / "cache.jsonl"
    c = CertificateCache(path)
    for _ in range(3):
        c.put("k", {"v": 1})
    assert len(path.read_text().splitlines()) == 1
    assert len(c) == 1


def test_corrupt_lines_are_skipped_and_counted(tmp_path):
    path = tmp_path / "cache.jsonl"
    CertificateCache(path).put("good", 42)
    with open(path, "a") as fh:
        fh.write("garbage{\n")
        fh.write('{"key": "missing-fields"}\n')
    c = CertificateCache(path)
    assert c.get("good") == 42
    assert c.skipped_corrupt == 2


def test_version_mismatch_lines_are_skipped_and_counted(tmp_path):
    path = tmp_path / "cache.jsonl"
    path.write_text(json.dumps({"key": "k", "engine_version": "older-0", "value": 1}) + "\n")
    c = CertificateCache(path)
    assert c.engine_version == ENGINE_VERSION
    assert "k" not in c
    assert c.skipped_version == 1


def test_last_write_wins_on_replay(tmp_path):
    path = tmp_path / "cache.jsonl"
    c = CertificateCache(path)
    c.put("k", 1)
    c.put("k", 2)
    assert CertificateCache(path).get("k") == 2


def test_unwritable_path_errors(tmp_path):
    target = tmp_path / "not-a-dir"
    target.write_text("file, not directory")
    c = CertificateCache(target / "cache.jsonl")
    with pytest.raises(OSError):
        c.put("k", 1)


def test_solve_cached_stores_exact_certificates_without_timings(tmp_path):
    path = tmp_path / "cache.jsonl"
    cert, searched = solve_cached("01", "0001", cache=CertificateCache(path))
    assert searched and cert.value == 3
    c = CertificateCache(path)
    assert c.get(sep_key("01", "0001")) == dict(cert.to_dict(), nodes=0, millis=0)
    hit, searched = solve_cached("01", "0001", cache=c)
    assert not searched and hit.value == 3 and hit.nodes == hit.millis == 0
    assert c.rejected == 0


def test_solve_cached_never_stores_bounded_results(tmp_path):
    path = tmp_path / "cache.jsonl"
    c = CertificateCache(path)
    cert, searched = solve_cached("01", "0001", SearchBudget(max_nodes=1), c)
    assert searched and not cert.exact
    assert len(c) == 0 and not path.exists()
    cert, searched = solve_cached("01", "0001", cache=c)
    assert searched and cert.value == 3


_FORGED = {"w": "01", "x": "10", "lower": 1, "upper": 1, "exact": True,
           "witness": None, "lower_method": "exhaustive-canonical",
           "nodes": 0, "millis": 0}


def _unservable_entries():
    """(w, x, cached value, true sep) for entries that must not be served."""
    bounded = exact_sep("01", "0001", budget=SearchBudget(max_nodes=1)).to_dict()
    other_pair = exact_sep("0", "000").to_dict()  # exact, but for another pair
    missing_x = {k: v for k, v in _FORGED.items() if k != "x"}
    return {
        "bounded": ("01", "0001", bounded, 3),
        "forged-no-witness": ("01", "10", _FORGED, 2),
        "missing-x": ("01", "10", missing_x, 2),
        "bare-int": ("01", "10", 5, 2),
        "witness-not-text": ("01", "10", dict(_FORGED, witness=5), 2),
        "other-pair": ("01", "10", other_pair, 2),
    }


@pytest.mark.parametrize("case", sorted(_unservable_entries()))
def test_unservable_hit_is_rejected_and_solved_again(tmp_path, case):
    w, x, value, true_sep = _unservable_entries()[case]
    key = sep_key(w, x)
    for name in ("api.jsonl", "cli.jsonl"):
        CertificateCache(tmp_path / name).put(key, value)

    c = CertificateCache(tmp_path / "api.jsonl")
    cert, searched = solve_cached(w, x, cache=c)
    assert searched and cert.value == true_sep
    assert c.rejected == 1
    healed = CertificateCache(tmp_path / "api.jsonl")  # last write wins
    cert, searched = solve_cached(w, x, cache=healed)
    assert not searched and cert.value == true_sep and healed.rejected == 0

    r = CliRunner().invoke(main, ["--cache", str(tmp_path / "cli.jsonl"), "sep", w, x])
    assert r.exception is None, r.exc_info
    assert r.exit_code == 0
    assert r.output == f"sep = {true_sep}\n"


def test_budget_bounded_cli_run_does_not_poison_the_cache(tmp_path):
    path = str(tmp_path / "cache.jsonl")
    r = CliRunner().invoke(main, ["--cache", path, "sep", "01", "0001",
                                  "--budget-nodes", "1"])
    assert r.exit_code == 2 and r.output.startswith("sep >= 1")
    r = CliRunner().invoke(main, ["--cache", path, "sep", "01", "0001"])
    assert r.exit_code == 0 and r.output == "sep = 3\n"
