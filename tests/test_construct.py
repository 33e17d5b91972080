"""Construction pipeline tests: encodings, searched words, witness assembly."""

import functools
import itertools
import random
import re
import time

import pytest

from sepwords import construct
from sepwords.construct import (
    _cn_candidates,
    canonical_triple,
    encode,
    farmand_dfa,
    free_word,
    lower_claim_value,
    search_C_n,
    search_z_k,
    state_limit_for_pairs,
    upper_claim_value,
    verify_witness,
    witness_pair,
    WitnessReport,
)
from sepwords.dfa import BudgetError, Dfa, accepts, enumerate_canonical, reverse, run
from sepwords.lang import build_G_k, finite_language, segmented_closure
from sepwords.solver import (
    SearchBudget,
    check_separates,
    exact_sep,
    no_separator_up_to,
    run_table,
    separating_structure,
)
from test_dfa import canonical_dfas


def test_canonical_triple_values():
    t = canonical_triple(1)
    assert (t.f, t.g, t.h) == ("0", "0" * 7, "0" * 6)
    t2 = canonical_triple(2)
    assert (len(t2.f), len(t2.g), len(t2.h)) == (2, 122, 120)
    with pytest.raises(ValueError):
        canonical_triple(0)
    with pytest.raises(ValueError):
        canonical_triple(5)


def test_encodings():
    assert encode("012", "left") == "0" + "11" + "01"
    assert encode("012", "right") == "0" + "11" + "10"
    with pytest.raises(ValueError):
        encode("3", "left")
    with pytest.raises(ValueError):
        encode("0", "middle")


def test_encoding_reversal_identity():
    rng = random.Random(3)
    for _ in range(300):
        w = "".join(rng.choice("012") for _ in range(rng.randrange(15)))
        assert encode(w, "right")[::-1] == encode(w[::-1], "left")


def test_left_encoding_is_injective():
    rng = random.Random(4)
    seen = {}
    for _ in range(2000):
        w = "".join(rng.choice("012") for _ in range(rng.randrange(8)))
        e = encode(w, "left")
        assert seen.setdefault(e, w) == w
        seen[e] = w


def test_search_C_n_base_instance():
    res = search_C_n(1, "1")
    assert res.word == "1001"
    assert res.lower_checked == 3
    t = canonical_triple(1)
    w, x = res.word + t.f + res.word, res.word + t.g + res.word
    assert no_separator_up_to(w, x, 3)
    assert exact_sep(w, x).value == 4  # == 2n + 2, tight


def test_search_C_n_respects_forbidden_run_length():
    res = search_C_n(1, "112", forbid_run_length=1)
    run_lengths = {len(r) for r in res.word.replace("2", "1").split("1") if r}
    assert 1 not in run_lengths
    # the word is segments of the base block glued by 0-runs
    closure = segmented_closure(build_G_k(1))
    assert accepts(closure, res.word)


@pytest.mark.parametrize(
    "w0,word", [("1", "100100100001001"), ("2", "200200200002002")]
)
def test_search_C_n_doubling_words_n2(w0, word, monkeypatch):
    searched = {}

    def recording(w, x, p, **kwargs):
        searched[w] = table = separating_structure(w, x, p, **kwargs)
        return table

    monkeypatch.setattr(construct, "separating_structure", recording)
    res = search_C_n(2, w0)
    assert res.word == word
    assert res.lower_checked == 5
    assert res.candidates == 402
    # the refuter pool settles all but a few candidates without a search
    assert res.exhaustive_searches == len(searched) < res.candidates // 10
    assert res.nodes > 0
    # audit the pool: the returned word passed a full search, and every
    # earlier candidate is sent to two end states by some searched table
    t = canonical_triple(2)
    assert searched.pop(res.word + t.f + res.word) is None
    tables = list(searched.values())
    assert all(table is not None and len(table) <= 5 for table in tables)
    earlier = itertools.takewhile(lambda c: c != res.word,
                                  _cn_candidates(w0, 6, None, 36))
    for cand in earlier:
        ws = [int(c) for c in cand + t.f + cand]
        xs = [int(c) for c in cand + t.g + cand]
        assert any(run_table(tb, ws) != run_table(tb, xs) for tb in tables), cand


@pytest.mark.parametrize(
    "w0,forbid", [("1", None), ("2", None), ("12", None), ("112", 1)]
)
def test_search_C_n_pool_matches_search_of_every_candidate(w0, forbid):
    res = search_C_n(1, w0, forbid_run_length=forbid)
    t = canonical_triple(1)
    expected = next(
        c for c in _cn_candidates(w0, 4, forbid, 12 * len(w0) + 24)
        if no_separator_up_to(c + t.f + c, c + t.g + c, 3)
    )
    assert res.word == expected
    assert res.lower_checked == 3


@functools.lru_cache(maxsize=None)
def _closure_words(w0, max_len):
    """Every word in w0 (0^+ w0)* up to max_len, by filtering all words
    over {0} and the letters of w0."""
    letters = "0" + "".join(sorted(set(w0)))
    pattern = re.compile(f"{w0}(0+{w0})*")
    return [w for n in range(max_len + 1)
            for w in map("".join, itertools.product(letters, repeat=n))
            if pattern.fullmatch(w)]


@pytest.mark.parametrize("max_run", [2, 3])
@pytest.mark.parametrize("forbid", [None, 1, 2])
@pytest.mark.parametrize("w0", ["1", "2", "12", "112"])
def test_cn_candidates_match_brute_force(w0, forbid, max_run):
    max_len = 10
    cands = list(_cn_candidates(w0, max_run, forbid, max_len))
    expected = {w for w in _closure_words(w0, max_len)
                if all(len(r) <= max_run and len(r) != forbid
                       for r in re.findall("0+", w))}
    assert set(cands) == expected  # so they agree at every length
    assert len(cands) == len(expected)  # no duplicates
    assert [len(c) for c in cands] == sorted(len(c) for c in cands)
    closure = segmented_closure(finite_language([w0]))
    assert all(accepts(closure, c) for c in cands)


def test_search_C_n_budget_covers_the_whole_call():
    start = time.monotonic()
    with pytest.raises(BudgetError, match="wall-clock"):
        search_C_n(2, "112", forbid_run_length=2, budget=SearchBudget(wall_limit=1.0))
    assert time.monotonic() - start < 20


def test_search_C_n_rejects_bad_base():
    with pytest.raises(ValueError):
        search_C_n(1, "102")
    with pytest.raises(ValueError):
        search_C_n(1, "")


def test_search_z_k_small_levels_certified():
    z1 = search_z_k(1)
    z2 = search_z_k(2)
    assert z1.word == "112" and z1.certified and z1.checked_states == 1
    assert z2.word == "112" and z2.certified and z2.checked_states == 3
    assert accepts(build_G_k(1), z1.word)
    assert accepts(build_G_k(2), z2.word)


def test_search_z_k_level_4_is_uncertified():
    z4 = search_z_k(4)
    assert not z4.certified
    assert z4.checked_states == 3


def test_search_z_k_spends_one_node_budget_on_all_candidates(monkeypatch):
    """A budget that fits one candidate's check but not two runs out.

    Every level's first candidate, 112, passes; refuting it after its
    check forces a second candidate, as a language with a harder first
    word would.
    """
    real = construct.lsep_lower_check

    def refute_112(z, h, p, **kwargs):
        return real(z, h, p, **kwargs) and z != "112"

    monkeypatch.setattr(construct, "lsep_lower_check", refute_112)
    one = 229  # canonical binary structures with <= 3 states
    assert search_z_k(2, budget=SearchBudget(max_nodes=2 * one)).word == "11112"
    with pytest.raises(BudgetError):
        search_z_k(2, budget=SearchBudget(max_nodes=one + 1))


def test_state_limit_for_pairs():
    assert [state_limit_for_pairs(k) for k in (1, 2, 3, 4, 6)] == [0, 1, 1, 3, 7]


def test_free_word_is_indistinguishable_and_in_closure():
    rng = random.Random(11)
    structs = list(canonical_dfas(3, 3))
    # words of the complement family glued with 0-runs
    from sepwords.lang import build_H_k, iter_words
    h = build_H_k(4)
    blocks = [w for w in iter_words(h, 5) if w][:10]
    closure_h = segmented_closure(h)
    for _ in range(10):
        d, d2 = rng.choice(structs), rng.choice(structs)
        w = rng.choice(blocks) + "0" + rng.choice(blocks)
        wp = free_word(4, d, d2, w)
        assert run(d, 0, wp) == run(d, 0, w)
        assert run(d2, 0, wp) == run(d2, 0, w)
        assert accepts(closure_h, wp)


def test_free_word_closures_are_memoized_per_k_and_z_k():
    from sepwords.construct import _h_closure
    _h_closure.cache_clear()
    d = next(Dfa(3, t, frozenset()) for t in enumerate_canonical(2, 3) if len(t) == 2)
    # "112" is outside H_4, so only the closure of H_4 + {"112"} holds it
    first = free_word(4, d, d, "112", z_k="112")
    assert free_word(4, d, d, "112", z_k="112") == first
    free_word(4, d, d, "12")
    # one closure of H_4 and one of H_4 + {"112"}, each built once
    info = _h_closure.cache_info()
    assert (info.misses, info.hits) == (2, 3)
    with pytest.raises(ValueError, match="closure of H'_k"):
        free_word(4, d, d, "0", z_k="112")


def test_free_word_rejects_oversized_automata():
    big = next(Dfa(3, t, frozenset()) for t in enumerate_canonical(4, 3) if len(t) == 4)
    with pytest.raises(ValueError):
        free_word(4, big, big, "112")


def test_farmand_machine_size_and_separation():
    r = reverse(build_G_k(1))
    t = r.state_count
    for n in (1, 2):
        m = farmand_dfa(r, n)
        assert m.state_count <= 2 * t + n + 4
        # suffix-coded segment, middle run of n vs n + (2n+1)! zeros, tail
        seg = encode("211", "right")  # reversal of a generator word
        a = seg + "0" * n + "1"
        b = seg + "0" * (n + canonical_triple(n).h.count("0")) + "1"
        assert check_separates(m, a, b)


def test_farmand_restart_mode_is_smaller():
    r = reverse(build_G_k(1))
    t = r.state_count
    m = farmand_dfa(r, 1, on_mismatch="restart")
    assert m.state_count <= 2 * t + 1 + 3
    with pytest.raises(ValueError):
        farmand_dfa(r, 1, on_mismatch="explode")


def test_claim_values():
    assert lower_claim_value(1, 1) == 2
    assert lower_claim_value(4, 1) == 4
    assert lower_claim_value(10, 3) == 8
    assert upper_claim_value(1, 1) == 21
    assert upper_claim_value(2, 1) == 31


@pytest.mark.parametrize("k,n", [(1, 1), (2, 1)])
def test_witness_pipeline_certifies(k, n):
    rep = verify_witness(witness_pair(k, n))
    assert rep.statuses == {"lower": "certified", "upper": "certified"}
    assert rep.lower_verified_to >= rep.lower_claim
    assert rep.upper_witness is not None
    assert rep.upper_witness.state_count <= rep.upper_claim
    assert check_separates(rep.upper_witness, rep.w_prime[::-1], rep.x_prime[::-1])


def test_witness_negative_control_bit_flip():
    rep = verify_witness(witness_pair(1, 1))
    lc = len(encode(rep.c_word, "left"))
    idx = len(rep.x_prime) - 1 - (lc + rep.n)
    flipped = "1" if rep.x_prime[idx] == "0" else "0"
    corrupted = witness_pair(1, 1)
    corrupted.x_prime = corrupted.x_prime[:idx] + flipped + corrupted.x_prime[idx + 1:]
    corrupted = verify_witness(corrupted)
    assert corrupted.statuses["upper"] == "failed"


def test_witness_report_json_roundtrip():
    rep = verify_witness(witness_pair(1, 1))
    back = WitnessReport.from_json(rep.to_json())
    assert back == rep
