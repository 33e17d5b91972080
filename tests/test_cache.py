"""JSON-lines certificate cache and cached-solve policy tests."""

import json
import os
import subprocess
import sys

import pytest

from cli_run import invoke
from sepwords import cache, solver
from sepwords.cache import CertificateCache, sep_key, solve_cached
from sepwords.dfa import Dfa
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


def test_non_utf8_line_is_skipped_and_counted(tmp_path):
    path = tmp_path / "cache.jsonl"
    CertificateCache(path).put("before", 1)
    with open(path, "ab") as fh:
        fh.write(b"\xff\xfe\n")
    CertificateCache(path).put("after", 2)
    c = CertificateCache(path)
    assert (c.get("before"), c.get("after")) == (1, 2)
    assert c.skipped_corrupt == 1
    r = invoke("--cache", str(path), "sep", "01", "10")
    assert r.exit_code == 0, r.stderr
    assert r.output == "sep = 2\n"


@pytest.mark.parametrize("key", [[1], {"a": 1}, 5, None],
                         ids=["list", "dict", "int", "null"])
def test_non_string_key_is_skipped_and_counted(tmp_path, key):
    line = json.dumps({"key": key, "engine_version": ENGINE_VERSION, "value": 1}) + "\n"
    path = tmp_path / "cache.jsonl"
    path.write_text(line)
    c = CertificateCache(path)
    assert (len(c), c.skipped_corrupt) == (0, 1)
    for args in (["sep", "01", "0001"], ["atlas", "--max-len", "4"]):
        r = invoke("--cache", str(path), *args)
        assert r.exit_code == 0, r.stderr
        assert r.output == invoke(*args).output


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

    r = invoke("--cache", str(tmp_path / "cli.jsonl"), "sep", w, x)
    assert r.exit_code == 0, r.stderr
    assert r.output == f"sep = {true_sep}\n"


def test_budget_bounded_cli_run_does_not_poison_the_cache(tmp_path):
    path = str(tmp_path / "cache.jsonl")
    r = invoke("--cache", path, "sep", "01", "0001", "--budget-nodes", "1")
    assert r.exit_code == 2 and r.output.startswith("sep >= 1")
    r = invoke("--cache", path, "sep", "01", "0001")
    assert r.exit_code == 0 and r.output == "sep = 3\n"


# 01 vs 0001 (sep 3) forged as 4: the 3-state separator plus an unreachable
# state, so the entry passes the witness re-check
_OVER_CLAIM = {"w": "01", "x": "0001", "lower": 4, "upper": 4, "exact": True,
               "witness": "dfa 2 4\naccepting 0\nstate 0: 1 1\nstate 1: 2 0\n"
                          "state 2: 0 0\nstate 3: 3 3\n",
               "lower_method": "exhaustive-canonical", "nodes": 0, "millis": 0}


def _exact_line(w, x):
    value = dict(exact_sep(w, x).to_dict(), nodes=0, millis=0)
    return json.dumps({"key": sep_key(w, x), "engine_version": ENGINE_VERSION,
                       "value": value}, sort_keys=True)


def test_over_claiming_hit_is_rejected_by_solve_cached_and_healed(tmp_path):
    path = tmp_path / "cache.jsonl"
    CertificateCache(path).put(sep_key("01", "0001"), _OVER_CLAIM)
    c = CertificateCache(path)
    cert, solved = solve_cached("01", "0001", cache=c)
    assert solved and cert.value == 3 and c.rejected == 1
    assert path.read_text().splitlines()[-1] == _exact_line("01", "0001")

    healed = CertificateCache(path)  # last write wins
    cert, solved = solve_cached("01", "0001", cache=healed)
    assert not solved and cert.value == 3 and healed.rejected == 0


@pytest.mark.parametrize("bad", [{"lower": 3.0, "upper": 3.0}, {"lower": True},
                                 {"w": 1}, {"x": None}, {"lower_method": 0}],
                         ids=["float-bounds", "bool-lower", "int-w", "null-x",
                              "int-lower-method"])
def test_hit_with_a_mistyped_field_is_rejected_and_healed(tmp_path, bad):
    value = dict(json.loads(_exact_line("01", "0001"))["value"], **bad)
    with pytest.raises(ValueError):
        SepCertificate.from_dict(value)
    for name in ("api.jsonl", "sep.jsonl"):
        CertificateCache(tmp_path / name).put(sep_key("01", "0001"), value)
    # the atlas caches only its row pairs; ("0", "000") is the row pair of S(4)
    row_value = dict(json.loads(_exact_line("0", "000"))["value"], **bad)
    with pytest.raises(ValueError):
        SepCertificate.from_dict(row_value)
    CertificateCache(tmp_path / "atlas.jsonl").put(sep_key("0", "000"), row_value)
    c = CertificateCache(tmp_path / "api.jsonl")
    cert, solved = solve_cached("01", "0001", cache=c)
    assert solved and cert.value == 3 and c.rejected == 1

    r = invoke("--cache", str(tmp_path / "sep.jsonl"), "sep", "01", "0001")
    assert r.exit_code == 0, r.stderr
    assert r.output == "sep = 3\n"
    assert (tmp_path / "sep.jsonl").read_text().splitlines()[-1] == _exact_line("01", "0001")

    r = invoke("--cache", str(tmp_path / "atlas.jsonl"), "atlas", "--max-len", "4")
    assert r.exit_code == 0, r.stderr
    assert r.output == invoke("atlas", "--max-len", "4").output
    healed = CertificateCache(tmp_path / "atlas.jsonl")
    assert cache.cached_certificate(healed, "0", "000").value == 3
    assert healed.rejected == 0


def test_witness_with_a_state_line_missing_its_id_is_rejected(tmp_path):
    # a corrupt line is never fatal, whichever part of the witness is broken
    value = dict(_OVER_CLAIM, lower=3, upper=3,
                 witness="dfa 2 3\naccepting 0\nstate 0: 1 1\nstate 1: 2 0\nstate :\n")
    for name in ("api.jsonl", "sep.jsonl"):
        CertificateCache(tmp_path / name).put(sep_key("01", "0001"), value)
    # the same broken witness on ("0", "000"), the row pair of S(4)
    CertificateCache(tmp_path / "atlas.jsonl").put(sep_key("0", "000"),
                                                    dict(value, w="0", x="000"))
    c = CertificateCache(tmp_path / "api.jsonl")
    cert, solved = solve_cached("01", "0001", cache=c)
    assert solved and cert.value == 3 and c.rejected == 1

    r = invoke("--cache", str(tmp_path / "sep.jsonl"), "sep", "01", "0001")
    assert r.exit_code == 0, r.stderr
    assert r.output == "sep = 3\n"
    assert (tmp_path / "sep.jsonl").read_text().splitlines()[-1] == _exact_line("01", "0001")

    r = invoke("--cache", str(tmp_path / "atlas.jsonl"), "atlas", "--max-len", "4")
    assert r.exit_code == 0, r.stderr
    assert r.output == invoke("atlas", "--max-len", "4").output
    healed = CertificateCache(tmp_path / "atlas.jsonl")  # last write wins
    assert cache.cached_certificate(healed, "0", "000").value == 3
    assert healed.rejected == 0


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "python-O"])
def test_sep_cli_does_not_serve_an_over_claim(tmp_path, flags):
    # python -O strips assert statements; the re-proof must still run
    path = tmp_path / "forged.jsonl"
    CertificateCache(path).put(sep_key("01", "0001"), _OVER_CLAIM)
    src = os.path.dirname(os.path.dirname(solver.__file__))
    proc = subprocess.run(
        [sys.executable, *flags, "-m", "sepwords.cli", "--cache", str(path),
         "sep", "01", "0001"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "sep = 3\n"
    assert path.read_text().splitlines()[-1] == _exact_line("01", "0001")


def test_hit_whose_lower_bound_cannot_be_reproved_in_budget_is_rejected(tmp_path):
    path = tmp_path / "cache.jsonl"
    solve_cached("01", "0001", cache=CertificateCache(path))
    stored = path.read_text()
    c = CertificateCache(path)
    cert, solved = solve_cached("01", "0001", SearchBudget(max_nodes=1), c)
    assert solved and not cert.exact and c.rejected == 1
    assert path.read_text() == stored  # a bounded result is never stored
    cert, solved = solve_cached("01", "0001", cache=c)
    assert not solved and cert.value == 3 and c.rejected == 1


@pytest.mark.parametrize("w, x", [("0", "1"), ("01", "10"), ("0", "000"),
                                  ("0110", "1001"), ("012", "210")])
def test_genuine_hits_are_served(tmp_path, w, x):
    path = tmp_path / "cache.jsonl"
    cert, solved = solve_cached(w, x, cache=CertificateCache(path))
    assert solved
    c = CertificateCache(path)
    hit, solved = solve_cached(w, x, cache=c)
    assert not solved and c.rejected == 0
    assert hit.to_dict() == dict(cert.to_dict(), nodes=0, millis=0)
    r = invoke("--cache", str(path), "sep", w, x)
    assert r.exit_code == 0 and r.output == f"sep = {cert.value}\n"


def _unary_over_claim(w, x):
    """An exact entry for the unary pair that claims sep + 1: the true
    separator plus an unreachable state, so it passes the witness re-check."""
    cert = exact_sep(w, x)
    d = cert.witness
    m = d.state_count
    witness = Dfa(d.alphabet_size, d.transitions + ((m,) * d.alphabet_size,), d.accepting)
    return SepCertificate(cert.w, cert.x, m + 1, m + 1, witness, cert.lower_method,
                          cert.nodes, cert.millis).to_dict()


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "python-O"])
def test_unary_over_claim_is_rejected_and_healed(tmp_path, flags):
    w, x = "0" * 7, "0" * 67  # sep 7: 60 = 67 - 7 is a multiple of 1..6
    path = tmp_path / "forged.jsonl"
    CertificateCache(path).put(sep_key(w, x), _unary_over_claim(w, x))
    c = CertificateCache(path)
    assert solver.SepCertificate.from_dict(c.get(sep_key(w, x))).witness_checks()
    src = os.path.dirname(os.path.dirname(solver.__file__))
    proc = subprocess.run(
        [sys.executable, *flags, "-m", "sepwords.cli", "--cache", str(path), "sep", w, x],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "sep = 7\n"
    assert path.read_text().splitlines()[-1] == _exact_line(w, x)
    healed = CertificateCache(path)
    cert, solved = solve_cached(w, x, cache=healed)
    assert not solved and cert.value == 7 and healed.rejected == 0


@pytest.mark.parametrize("w, x", [("0" * 1000, "0" * 1060), ("0" * 7, "0" * 67),
                                  ("2", "222"), ("", "1111")])
def test_genuine_unary_hit_is_served_without_a_search(tmp_path, w, x, monkeypatch):
    path = tmp_path / "cache.jsonl"
    cert, solved = solve_cached(w, x, cache=CertificateCache(path))
    assert solved and cert.lower_method == "unary-analytic"

    def no_search(*args, **kwargs):
        raise AssertionError("a unary hit ran a search")

    monkeypatch.setattr(solver, "separating_structure", no_search)
    monkeypatch.setattr(solver, "_distinguishing_structure", no_search)
    c = CertificateCache(path)
    hit, solved = solve_cached(w, x, cache=c)
    assert not solved and c.rejected == 0
    assert hit.to_dict() == dict(cert.to_dict(), nodes=0, millis=0)
