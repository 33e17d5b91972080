"""Maximum-separation table tests."""

import collections
import itertools
import json
import os
import random
import subprocess
import sys

import pytest

from sepwords import solver
from sepwords.atlas import (
    ATLAS_DEFAULT_MAX_LEN,
    ATLAS_MAX_LEN_CAP,
    SeparationLevels,
    _trie_ends,
    compute_atlas,
)
from sepwords.cache import CertificateCache, sep_key, store_certificate
from sepwords.dfa import dfa_from_text, word_symbols
from sepwords.solver import SepCertificate, exact_sep, run_table, separating_structure
from reference import raw_separable, refine_per_table, trie_ends


def test_max_len_bounds():
    with pytest.raises(ValueError):
        compute_atlas(0)
    with pytest.raises(ValueError):
        compute_atlas(ATLAS_MAX_LEN_CAP + 1)


def test_small_values_match_brute_force():
    table = compute_atlas(3)
    words = [""] + ["".join(t) for L in (1, 2, 3)
                    for t in itertools.product("01", repeat=L)]
    for row in table.rows:
        pool = [w for w in words if len(w) <= row.n]
        brute = max(exact_sep(w, x).value
                    for w, x in itertools.combinations(pool, 2))
        assert row.value == brute
        assert row.exact


def test_full_table_values():
    table = compute_atlas(6)
    assert [r.value for r in table.rows] == [2, 2, 3, 3, 3, 3]
    assert all(r.exact for r in table.rows)
    assert all(r.value >= 2 for r in table.rows)
    values = [r.value for r in table.rows]
    assert values == sorted(values)
    # the argmax pair itself attains the reported value
    for r in table.rows:
        assert exact_sep(*r.pair).value == r.value


_ATLAS_6_CSV = ("n,value,exact,w,x\n"
                "1,2,true,,0\n"
                "2,2,true,,0\n"
                "3,3,true,0,000\n"
                "4,3,true,0,000\n"
                "5,3,true,0,000\n"
                "6,3,true,0,000\n")


def _rows_by_pair_scan(levels, max_len):
    """(S(m), w, x) for m = 1..max_len as the atlas found its rows before
    they were read off the classes: the first maximal pair in combinations
    order, by the value of every pair."""
    best = {}
    for (i, w), (j, x) in itertools.combinations(enumerate(levels.words), 2):
        value = levels.sep(i, j)
        for m in range(max(len(w), len(x), 1), max_len + 1):
            if m not in best or value > best[m][0]:
                best[m] = (value, w, x)
    return [best[m] for m in range(1, max_len + 1)]


def _row_tuples(rows):
    return [(r.value, *r.pair) for r in rows]


def test_rows_from_the_classes_match_the_pair_scan_past_the_cap():
    levels = SeparationLevels(8)
    rows = [levels.row(m) for m in range(1, 9)]
    assert [r.n for r in rows] == list(range(1, 9)) and all(r.exact for r in rows)
    assert _row_tuples(rows) == _rows_by_pair_scan(levels, 8)
    for max_len in range(1, ATLAS_DEFAULT_MAX_LEN + 1):
        assert compute_atlas(max_len).rows == rows[:max_len]


def test_rows_past_the_cap_are_frozen():
    # the rows past the CLI's default table, up to the cap
    table = compute_atlas(ATLAS_MAX_LEN_CAP)
    assert table.rows[:ATLAS_DEFAULT_MAX_LEN] == compute_atlas(ATLAS_DEFAULT_MAX_LEN).rows
    rows = _row_tuples(table.rows[ATLAS_DEFAULT_MAX_LEN:])
    assert rows == [(3, "0", "000")] + [(4, "00", "00000000")] * 5
    assert [r.n for r in table.rows] == list(range(1, 13)) and all(r.exact for r in table.rows)
    for value, w, x in sorted(set(rows)):
        # (00, 00000000) is unary: exact_sep takes the formula, the search does not
        assert exact_sep(w, x).value == value
        assert separating_structure(w, x, value - 1) is None
        assert separating_structure(w, x, value) is not None


def test_block_refinement_equals_the_table_by_table_one():
    for max_len in range(1, 9):
        assert SeparationLevels(max_len).classes == refine_per_table(max_len)[0], max_len
    # each certificate's witness is the first table of its level, refined
    # table by table, that splits the pair
    levels = SeparationLevels(5)
    tables = refine_per_table(5)[1]
    pairs = list(itertools.combinations(range(len(levels.words)), 2))
    assert len(pairs) == 1953
    for i, j in pairs:
        ws, xs = (word_symbols(levels.words[k], 2) for k in (i, j))
        first = next(t for t in tables[levels.sep(i, j) - 1]
                     if run_table(t, ws) != run_table(t, xs))
        assert levels.certificate(i, j).witness.transitions == first, (i, j)


def test_trie_ends_of_many_tables_equal_those_of_each_table():
    # 120 tables of 1 to 4 states, 300 in all: 64 at a time, then 56
    rng = random.Random(5)
    tables, starts = [], []
    for i in range(120):
        m = 1 + i % 4
        tables.append(tuple((rng.randrange(m), rng.randrange(m)) for _ in range(m)))
        starts.append(rng.randrange(m))
    for count in (1, 2, 63, 100):
        ends = _trie_ends(tables, starts, count)
        assert ends == [trie_ends(t, q, count) for t, q in zip(tables, starts)], count


def test_atlas_without_a_cache_visits_no_pair(monkeypatch):
    def visit(self, i, j):
        raise AssertionError(f"compute_atlas visited pair {i}, {j}")

    monkeypatch.setattr(SeparationLevels, "sep", visit)
    table = compute_atlas(6)
    assert table.to_csv() == _ATLAS_6_CSV
    assert table.searches_performed == 2  # every row pair is unserved


def test_warm_cache_reproduces_bytes_with_zero_searches(tmp_path):
    path = tmp_path / "cache.jsonl"
    cold = compute_atlas(5, cache=CertificateCache(path))
    warm = compute_atlas(5, cache=CertificateCache(path))
    assert cold.searches_performed > 0
    assert warm.searches_performed == 0
    assert cold.to_csv() == warm.to_csv()
    assert cold.to_json() == warm.to_json()


def test_cacheless_run_agrees_with_cached_run(tmp_path):
    cached = compute_atlas(4, cache=CertificateCache(tmp_path / "c.jsonl"))
    plain = compute_atlas(4)
    assert cached.to_csv() == plain.to_csv()


def test_stale_bounded_entry_is_solved_again(tmp_path):
    path = tmp_path / "cache.jsonl"
    compute_atlas(2, cache=CertificateCache(path))
    exact = exact_sep("", "0")
    stale = SepCertificate("", "0", lower=1, upper=exact.upper,
                           witness=exact.witness, lower_method="none", nodes=0)
    CertificateCache(path).put(sep_key("", "0"), stale.to_dict())
    cache = CertificateCache(path)
    table = compute_atlas(2, cache=cache)
    assert table.to_csv() == compute_atlas(2).to_csv()
    assert all(r.exact for r in table.rows)
    assert table.searches_performed == 1
    healed = CertificateCache(path)  # last write wins
    assert healed.get(sep_key("", "0"))["lower"] == 2
    assert compute_atlas(2, cache=healed).searches_performed == 0


def test_levels_match_per_pair_search_past_the_cap():
    levels = SeparationLevels(7)
    words = levels.words
    assert len(words) == 255 and words[:4] == ["", "0", "1", "00"]
    assert levels.classes[-1] == list(range(255))  # every word split
    pairs = list(itertools.combinations(range(len(words)), 2))
    assert len(pairs) == 32385
    for i, j in pairs:
        assert levels.sep(i, j) == exact_sep(words[i], words[j]).value, (i, j)
    # the words of length <= 3 come first in shortlex order
    for i, j in itertools.combinations(range(15), 2):
        p, w, x = levels.sep(i, j), words[i], words[j]
        assert raw_separable(w, x, p) and not raw_separable(w, x, p - 1), (w, x)


def test_level_certificate_is_pinned():
    """to_dict() of one SeparationLevels certificate, as computed before
    every certificate came from solver.certificate_from_table."""
    levels = SeparationLevels(4)
    cert = levels.certificate(levels.words.index("01"), levels.words.index("1101"))
    assert cert.to_dict() == {
        'w': '01', 'x': '1101', 'lower': 3, 'upper': 3, 'exact': True,
        'witness': 'dfa 2 3\naccepting 1\nstate 0: 0 1\nstate 1: 0 2\nstate 2: 1 0\n',
        'lower_method': 'exhaustive-canonical', 'nodes': 0}


def test_mixed_hits_and_misses(tmp_path):
    cache = CertificateCache(tmp_path / "cache.jsonl")
    compute_atlas(2, cache=cache)  # stores ("", "0") only
    table = compute_atlas(6, cache=cache)
    assert table.searches_performed == 1  # ("0", "000") is the one miss
    assert table.to_csv() == compute_atlas(6).to_csv()


def test_cold_cache_files_are_reproducible_and_servable(tmp_path):
    paths = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
    for path in paths:
        assert compute_atlas(5, cache=CertificateCache(path)).searches_performed == 2
    assert paths[0].read_bytes() == paths[1].read_bytes()
    lines = [json.loads(line) for line in paths[0].read_text().splitlines()]
    # one certificate per distinct row pair
    assert [line["key"] for line in lines] == [sep_key("", "0"), sep_key("0", "000")]
    for line in lines:
        v = line["value"]
        assert line["key"] == sep_key(v["w"], v["x"])
        assert (v["lower_method"], v["nodes"]) == ("exhaustive-canonical", 0)
        cert = SepCertificate.from_json(json.dumps(v))
        assert cert.exact and cert.witness_checks()
        assert cert.lower == exact_sep(v["w"], v["x"]).value


def test_per_pair_file_of_earlier_versions_is_served(tmp_path, monkeypatch):
    # earlier versions stored the level certificate of every pair
    path = tmp_path / "per-pair.jsonl"
    levels = SeparationLevels(6)
    writer = CertificateCache(path)
    monkeypatch.setattr(os, "fsync", lambda fd: None)  # 8 001 appends
    for i, j in itertools.combinations(range(len(levels.words)), 2):
        store_certificate(writer, levels.certificate(i, j))
    monkeypatch.undo()
    stored = path.read_bytes()
    assert len(stored.splitlines()) == 8001
    for max_len in (5, 6):
        cache = CertificateCache(path)
        table, plain = compute_atlas(max_len, cache=cache), compute_atlas(max_len)
        assert table.searches_performed == 0
        assert table.to_csv() == plain.to_csv()
        assert table.to_json() == plain.to_json()
    assert path.read_bytes() == stored  # its row-pair lines are the refinement's


@pytest.mark.parametrize("max_len", range(1, ATLAS_DEFAULT_MAX_LEN + 1))
def test_output_is_the_same_cold_warm_and_without_a_cache(tmp_path, max_len):
    path = tmp_path / "cache.jsonl"
    cold = compute_atlas(max_len, cache=CertificateCache(path))
    warm = compute_atlas(max_len, cache=CertificateCache(path))
    plain = compute_atlas(max_len)
    assert cold.to_csv() == warm.to_csv() == plain.to_csv()
    assert cold.to_json() == warm.to_json() == plain.to_json()
    row_pairs = 1 if max_len <= 2 else 2
    assert cold.searches_performed == plain.searches_performed == row_pairs
    assert warm.searches_performed == 0
    assert len(path.read_text().splitlines()) == row_pairs


def test_cache_traffic_is_one_lookup_and_one_append_per_row_pair(tmp_path, monkeypatch):
    """Counts, not times: a per-pair loop would make 8 001 of each."""
    calls = collections.Counter()

    def counted(name, f):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return f(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(CertificateCache, "__contains__",
                        counted("lookup", CertificateCache.__contains__))
    monkeypatch.setattr(CertificateCache, "put", counted("put", CertificateCache.put))
    paths = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
    for path in paths:
        calls.clear()
        compute_atlas(6, cache=CertificateCache(path))
        assert calls["lookup"] == calls["put"] == 2
    assert paths[0].read_bytes() == paths[1].read_bytes()
    calls.clear()
    warm = compute_atlas(6, cache=CertificateCache(paths[0]))
    assert warm.searches_performed == 0
    assert calls["lookup"] == calls["put"] == 2  # each put finds its line and writes nothing


# each row pair cached as sep + 1: its level separator padded with an
# unreachable state, so the witness passes every per-line check
_OVER_CLAIMS = {
    ("", "0"): {"w": "", "x": "0", "lower": 3, "upper": 3, "exact": True,
                "witness": "dfa 2 3\naccepting 0\nstate 0: 1 0\nstate 1: 0 0\n"
                           "state 2: 2 2\n",
                "lower_method": "exhaustive-canonical", "nodes": 0},
    ("0", "000"): {"w": "0", "x": "000", "lower": 4, "upper": 4, "exact": True,
                   "witness": "dfa 2 4\naccepting 1\nstate 0: 1 0\nstate 1: 2 0\n"
                              "state 2: 0 0\nstate 3: 3 3\n",
                   "lower_method": "exhaustive-canonical", "nodes": 0},
}
_ROW_PAIRS = sorted(_OVER_CLAIMS)


def test_over_claiming_hit_is_rejected_and_healed(tmp_path):
    for w, x in _ROW_PAIRS:
        path = tmp_path / f"cache-{w}-{x}.jsonl"
        compute_atlas(4, cache=CertificateCache(path))
        forged = _OVER_CLAIMS[w, x]
        CertificateCache(path).put(sep_key(w, x), forged)
        cert = SepCertificate.from_json(json.dumps(forged))
        assert cert.exact and cert.witness_checks()

        table = compute_atlas(4, cache=CertificateCache(path))
        assert table.to_csv() == compute_atlas(4).to_csv()
        assert "2,2,true,,0\n" in table.to_csv() and "4,3,true,0,000\n" in table.to_csv()
        assert table.searches_performed == 1

        healed = CertificateCache(path)  # last write wins
        assert healed.get(sep_key(w, x))["lower"] == forged["lower"] - 1
        assert compute_atlas(4, cache=healed).searches_performed == 0


def test_over_claim_guard_survives_python_O(tmp_path):
    # python -O strips assert statements; the forged line is still replaced
    src = os.path.dirname(os.path.dirname(solver.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    for w, x in _ROW_PAIRS:
        path = tmp_path / f"forged-{w}-{x}.jsonl"
        CertificateCache(path).put(sep_key(w, x), _OVER_CLAIMS[w, x])
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "sepwords.cli", "atlas", "--max-len", "4",
             "--cache", str(path)],
            env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == compute_atlas(4).to_csv()
        healed = CertificateCache(path)  # last write wins
        assert healed.get(sep_key(w, x))["lower"] == _OVER_CLAIMS[w, x]["lower"] - 1


@pytest.fixture
def parsed(monkeypatch):
    """How often each witness text is parsed."""
    counts = collections.Counter()

    def counting_parse(text):
        counts[text] += 1
        return dfa_from_text(text)

    monkeypatch.setattr(solver, "dfa_from_text", counting_parse)
    return counts


def test_warm_atlas_parses_no_witness_text(tmp_path, parsed):
    path = tmp_path / "cache.jsonl"
    compute_atlas(6, cache=CertificateCache(path))
    assert compute_atlas(6, cache=CertificateCache(path)).searches_performed == 0
    assert not parsed  # nothing stored is decoded


def test_shared_malformed_witness_is_rejected_for_every_entry(tmp_path, parsed):
    path = tmp_path / "cache.jsonl"
    compute_atlas(3, cache=CertificateCache(path))
    bad = "dfa 2 2\naccepting 1\nstate 0: 1 7\nstate 1: 1 1\n"  # target 7
    writer = CertificateCache(path)
    for w, x in _ROW_PAIRS:
        writer.put(sep_key(w, x), dict(exact_sep(w, x).to_dict(), witness=bad))
    table = compute_atlas(3, cache=CertificateCache(path))
    assert table.to_csv() == compute_atlas(3).to_csv()
    assert table.searches_performed == 2
    assert not parsed  # replaced, never parsed
    healed = CertificateCache(path)
    for w, x in _ROW_PAIRS:
        assert healed.get(sep_key(w, x))["witness"] != bad
    assert compute_atlas(3, cache=healed).searches_performed == 0


def test_decoded_witnesses_equal_fresh_parses(tmp_path):
    path = tmp_path / "cache.jsonl"
    compute_atlas(5, cache=CertificateCache(path))
    levels = SeparationLevels(5)
    for line in path.read_text().splitlines():
        v = json.loads(line)["value"]
        cert = SepCertificate.from_json(json.dumps(v))
        assert cert.witness == dfa_from_text(v["witness"])[0]
        fresh = levels.certificate(levels.words.index(v["w"]), levels.words.index(v["x"]))
        assert cert.witness == fresh.witness


def test_csv_shape():
    table = compute_atlas(2)
    lines = table.to_csv().strip().splitlines()
    assert lines[0] == "n,value,exact,w,x"
    assert len(lines) == 3
