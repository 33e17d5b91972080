"""JSON-lines certificate record tests."""

import json
import os
import subprocess
import sys

import pytest

from cli_run import invoke
from sepwords import solver
from sepwords.atlas import compute_atlas
from sepwords.cache import CertificateCache, sep_key, store_certificate
from sepwords.dfa import Dfa
from sepwords.solver import ENGINE_VERSION, SearchBudget, SepCertificate, exact_sep


def test_put_get_roundtrip(tmp_path):
    path = tmp_path / "cache.jsonl"
    c = CertificateCache(path)
    cert = exact_sep("01", "10")
    c.put(sep_key("01", "10"), cert.to_dict())
    reopened = CertificateCache(path)
    back = SepCertificate.from_json(json.dumps(reopened.get(sep_key("01", "10"))))
    assert back.value == cert.value
    assert back.witness == cert.witness


def test_put_is_idempotent(tmp_path):
    path = tmp_path / "cache.jsonl"
    c = CertificateCache(path)
    assert [c.put("k", {"v": 1}) for _ in range(3)] == [True, False, False]
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
    r = invoke("atlas", "--max-len", "4", "--cache", str(path))
    assert r.exit_code == 0, r.stderr
    assert r.output == invoke("atlas", "--max-len", "4").output


@pytest.mark.parametrize("key", [[1], {"a": 1}, 5, None],
                         ids=["list", "dict", "int", "null"])
def test_non_string_key_is_skipped_and_counted(tmp_path, key):
    line = json.dumps({"key": key, "engine_version": ENGINE_VERSION, "value": 1}) + "\n"
    path = tmp_path / "cache.jsonl"
    path.write_text(line)
    c = CertificateCache(path)
    assert (len(c), c.skipped_corrupt) == (0, 1)
    r = invoke("atlas", "--max-len", "4", "--cache", str(path))
    assert r.exit_code == 0, r.stderr
    assert r.output == invoke("atlas", "--max-len", "4").output


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


def test_store_certificate_stores_exact_certificates_without_timings(tmp_path):
    path = tmp_path / "cache.jsonl"
    cert = exact_sep("01", "0001")
    assert cert.value == 3 and cert.nodes > 0
    assert store_certificate(CertificateCache(path), cert)
    c = CertificateCache(path)
    assert c.get(sep_key("01", "0001")) == dict(cert.to_dict(), nodes=0, millis=0)
    assert not store_certificate(c, cert)  # a replay writes nothing


def test_store_certificate_never_stores_bounded_results(tmp_path):
    path = tmp_path / "cache.jsonl"
    c = CertificateCache(path)
    cert = exact_sep("01", "0001", SearchBudget(max_nodes=1))
    assert not cert.exact
    assert not store_certificate(c, cert)
    assert len(c) == 0 and not path.exists()


def _row_lines(tmp_path):
    """The lines a cold `compute_atlas(4)` writes, one per row pair."""
    path = tmp_path / "cold.jsonl"
    compute_atlas(4, cache=CertificateCache(path))
    return path.read_text().splitlines()


def _healed(path, expected_last):
    """The atlas on `path` prints the uncached table and leaves the
    refinement's line for ("0", "000"), the row pair of S(4), last; a
    second run writes nothing."""
    r = invoke("atlas", "--max-len", "4", "--cache", str(path))
    assert r.exit_code == 0, r.stderr
    assert r.output == invoke("atlas", "--max-len", "4").output
    assert path.read_text().splitlines()[-1] == expected_last
    healed = path.read_bytes()
    assert compute_atlas(4, cache=CertificateCache(path)).searches_performed == 0
    assert path.read_bytes() == healed


_FORGED = {"w": "0", "x": "000", "lower": 1, "upper": 1, "exact": True,
           "witness": None, "lower_method": "exhaustive-canonical",
           "nodes": 0, "millis": 0}
_MALFORMED = "dfa 2 2\naccepting 1\nstate 0: 1 7\nstate 1: 1 1\n"  # target 7


def _forged(v):
    return dict(_FORGED, w=v["w"], x=v["x"])


# the line stored for a row pair, given the value of the refinement's line
_ROW_PAIR_LINES = {
    "identical": lambda v: v,
    "bounded": lambda v: dict(v, lower=v["lower"] - 1, exact=False),
    "forged-no-witness": _forged,
    "missing-x": lambda v: {k: f for k, f in _forged(v).items() if k != "x"},
    "bare-int": lambda v: 5,
    "witness-not-text": lambda v: dict(_forged(v), witness=5),
    "other-pair": lambda v: exact_sep("01", "10").to_dict(),  # exact, but for another pair
    "over-claim": lambda v: _unary_over_claim(v["w"], v["x"]),  # both row pairs are unary
    "malformed-witness": lambda v: dict(v, witness=_MALFORMED),
    "mistyped-field": lambda v: dict(v, lower=float(v["lower"]), upper=float(v["upper"])),
    # valid and exact, with the search's table and method
    "other-table": lambda v: dict(exact_sep(v["w"], v["x"]).to_dict(), nodes=0, millis=0),
}


@pytest.mark.parametrize("case", sorted(_ROW_PAIR_LINES))
def test_unservable_hit_is_rejected_and_solved_again(tmp_path, case):
    """No row-pair line is served: the atlas appends the refinement's
    certificate after each line that differs from it, and writes nothing
    when the line is identical; the table is the uncached one either way."""
    rows = _row_lines(tmp_path)
    path = tmp_path / "cache.jsonl"
    writer = CertificateCache(path)
    for line in rows:
        v = json.loads(line)["value"]
        writer.put(sep_key(v["w"], v["x"]), _ROW_PAIR_LINES[case](v))
    start = path.read_bytes()
    table = compute_atlas(4, cache=CertificateCache(path))
    assert table.to_csv() == compute_atlas(4).to_csv()
    assert table.to_json() == compute_atlas(4).to_json()
    if case == "identical":
        assert table.searches_performed == 0
        assert path.read_bytes() == start == (tmp_path / "cold.jsonl").read_bytes()
    else:
        assert table.searches_performed == 2
        assert path.read_bytes() == start + (tmp_path / "cold.jsonl").read_bytes()
    _healed(path, rows[-1])


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "python-O"])
def test_sep_cli_does_not_serve_an_over_claim(tmp_path, flags):
    # sep takes no cache: next to a forged file it prints the exact value,
    # and naming the file is a usage error that leaves the file as it was
    path = tmp_path / "forged.jsonl"
    CertificateCache(path).put(sep_key("01", "0001"), dict(
        _FORGED, w="01", x="0001", lower=4, upper=4,
        witness="dfa 2 4\naccepting 0\nstate 0: 1 1\nstate 1: 2 0\n"
                "state 2: 0 0\nstate 3: 3 3\n"))
    forged = path.read_bytes()
    src = os.path.dirname(os.path.dirname(solver.__file__))
    for args, code, stdout in ((["sep", "01", "0001"], 0, "sep = 3\n"),
                               (["--cache", str(path), "sep", "01", "0001"], 64, "")):
        proc = subprocess.run(
            [sys.executable, *flags, "-m", "sepwords.cli", *args],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
            timeout=60)
        assert (proc.returncode, proc.stdout) == (code, stdout), proc.stderr
    assert path.read_bytes() == forged


def test_budget_bounded_cli_run_does_not_poison_the_cache(tmp_path):
    path = tmp_path / "cache.jsonl"
    r = invoke("sep", "01", "0001", "--budget-nodes", "1")
    assert r.exit_code == 2 and r.output == "sep >= 2 (budget-bounded; upper known: 3)\n"
    r = invoke("--format", "json", "sep", "01", "0001", "--budget-nodes", "1")
    assert r.exit_code == 2 and json.loads(r.stdout)["lower_method"] == "exhaustive-canonical"
    r = invoke("--cache", str(path), "sep", "01", "0001", "--budget-nodes", "1")
    assert r.exit_code == 64 and r.stdout == ""
    assert not path.exists()


@pytest.mark.parametrize("bad", [{"lower": 3.0, "upper": 3.0}, {"lower": True},
                                 {"w": 1}, {"x": None}, {"lower_method": 0}],
                         ids=["float-bounds", "bool-lower", "int-w", "null-x",
                              "int-lower-method"])
def test_hit_with_a_mistyped_field_is_rejected_and_healed(tmp_path, bad):
    expected = _row_lines(tmp_path)[-1]
    value = dict(json.loads(expected)["value"], **bad)
    with pytest.raises(ValueError):
        SepCertificate.from_json(json.dumps(value))
    # put compares JSON texts, so even a bound of 3.0 is replaced
    path = tmp_path / "atlas.jsonl"
    CertificateCache(path).put(sep_key("0", "000"), value)
    _healed(path, expected)


def test_witness_with_a_state_line_missing_its_id_is_rejected(tmp_path):
    # a corrupt line is never fatal, whichever part of the witness is broken
    expected = _row_lines(tmp_path)[-1]
    value = dict(json.loads(expected)["value"],
                 witness="dfa 2 3\naccepting 0\nstate 0: 1 1\nstate 1: 2 0\nstate :\n")
    path = tmp_path / "atlas.jsonl"
    CertificateCache(path).put(sep_key("0", "000"), value)
    _healed(path, expected)


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
    # ("0", "000"), the row pair of S(4), is unary: claimed as 4, not 3
    value = _unary_over_claim("0", "000")
    assert SepCertificate.from_json(json.dumps(value)).witness_checks()
    path = tmp_path / "forged.jsonl"
    CertificateCache(path).put(sep_key("0", "000"), value)
    src = os.path.dirname(os.path.dirname(solver.__file__))
    proc = subprocess.run(
        [sys.executable, *flags, "-m", "sepwords.cli", "atlas", "--max-len", "4",
         "--cache", str(path)],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == compute_atlas(4).to_csv()
    assert path.read_text().splitlines()[-1] == _row_lines(tmp_path)[-1]
