"""Construction pipeline tests: encodings, searched words, witness assembly."""

import functools
import itertools
import random
import re
import sys
import time

import pytest

from sepwords import construct, dfa, lang
from sepwords.construct import (
    _cn_candidates,
    _cn_word,
    _RefuterPool,
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
    Z_K_MAX_LEN,
)
from sepwords.dfa import (BudgetError, Dfa, accepts, combine, enumerate_canonical,
                          is_empty, reverse, run)
from sepwords.lang import (_reversed_G_k, build_G_k, build_H_k, finite_language, iter_words,
                           segmented_closure)
from sepwords.solver import (
    SearchBudget,
    lsep_lower_check,
    check_separates,
    exact_sep,
    no_separator_up_to,
    run_table,
    separating_structure,
)
from test_dfa import canonical_dfas
from reference import recursive_cn_candidates


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
    # earlier candidate is separated by some searched table started at some
    # state, checked as a Dfa with that state swapped to 0 and accepting
    # the end state of the first word
    t = canonical_triple(2)
    assert searched.pop(res.word + t.f + res.word) is None
    tables = list(searched.values())
    assert all(table is not None and len(table) <= 5 for table in tables)
    separators = [_started_at(table, s) for table in tables for s in range(len(table))]
    earlier = itertools.takewhile(lambda c: c != res.word,
                                  map(functools.partial(_cn_word, w0),
                                      _cn_candidates(w0, 6, None, 36)))
    for cand in earlier:
        w, x = cand + t.f + cand, cand + t.g + cand
        assert any(check_separates(Dfa(d.alphabet_size, d.transitions,
                                       frozenset({run(d, 0, w)})), w, x)
                   for d in separators), cand


def _started_at(table, s):
    """The table as a Dfa started at state s: s and 0 swapped."""
    swap = {0: s, s: 0}
    return Dfa(len(table[0]), tuple(tuple(swap.get(t, t) for t in table[swap.get(q, q)])
                                    for q in range(len(table))), frozenset())


@pytest.mark.parametrize(
    "w0,forbid", [("1", None), ("2", None), ("12", None), ("112", 1)]
)
def test_search_C_n_pool_matches_search_of_every_candidate(w0, forbid):
    res = search_C_n(1, w0, forbid_run_length=forbid)
    t = canonical_triple(1)
    expected = next(
        c for c in map(functools.partial(_cn_word, w0),
                       _cn_candidates(w0, 4, forbid, 12 * len(w0) + 24))
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
    runs = list(_cn_candidates(w0, max_run, forbid, max_len))
    assert runs == list(recursive_cn_candidates(w0, max_run, forbid, max_len))
    cands = [_cn_word(w0, r) for r in runs]
    expected = {w for w in _closure_words(w0, max_len)
                if all(len(r) <= max_run and len(r) != forbid
                       for r in re.findall("0+", w))}
    assert set(cands) == expected  # so they agree at every length
    assert len(cands) == len(expected)  # no duplicates
    assert [len(c) for c in cands] == sorted(len(c) for c in cands)
    closure = segmented_closure(finite_language([w0]))
    assert all(accepts(closure, c) for c in cands)


def test_cn_candidates_keep_the_recursive_order_on_a_long_search():
    # the first 10^5 candidates of search_C_n(2, "112", forbid_run_length=2)
    args = ("112", 6, 2, 60)
    head = itertools.islice(_cn_candidates(*args), 10**5)
    assert list(head) == list(itertools.islice(recursive_cn_candidates(*args), 10**5))


@pytest.mark.parametrize("cap", [0, 5, 12])
@pytest.mark.parametrize("n,w0,forbid", [(2, "1", None), (2, "2", None), (1, "112", 1)])
def test_search_C_n_is_the_same_under_a_tiny_pool_cap(cap, n, w0, forbid, monkeypatch):
    # the pool only refutes: with fewer tables pooled the search may run
    # more searches, never return another word
    full = search_C_n(n, w0, forbid_run_length=forbid)
    monkeypatch.setattr(construct, "_POOL_STATES", cap)
    capped = search_C_n(n, w0, forbid_run_length=forbid)
    assert ((capped.word, capped.candidates, capped.lower_checked)
            == (full.word, full.candidates, full.lower_checked))
    assert capped.exhaustive_searches >= full.exhaustive_searches
    if cap == 0:
        assert capped.exhaustive_searches == capped.candidates


def test_refuter_pool_refutes_as_each_table_from_each_state_up_to_its_cap():
    # random tables of 1 to 5 states over three symbols, checked with 50
    # states pooled, where every map must leave the states past the union
    # in place, and with 256, where the last is union state 255; the next
    # table is left out
    rng = random.Random(36)
    w0, f_len, g_len = [1, 2], 2, 122
    sizes = [5] * 50 + [3, 2, 1]
    assert sum(sizes) == 256
    tables = [tuple(tuple(rng.randrange(p) for _ in range(3)) for _ in range(p))
              for p in sizes]
    pool = _RefuterPool(w0, 6, f_len, g_len)
    for start, stop in ((0, 10), (10, len(tables))):
        for table in tables[start:stop]:
            pool.add(table)
        pooled = tables[:stop]
        assert pool.states == sum(sizes[:stop])
        assert all(m[pool.states:] == bytes(range(pool.states, 256))
                   for m in (*pool.blocks, pool.f, pool.g))
        refuted = 0
        for _ in range(200):
            runs = tuple(rng.randrange(1, 7) for _ in range(rng.randrange(4)))
            c = w0 + [s for r in runs for s in [0] * r + w0]
            w, x = c + [0] * f_len + c, c + [0] * g_len + c
            expected = any(run_table(t, w, s) != run_table(t, x, s)
                           for t in pooled for s in range(len(t)))
            assert pool.refutes(runs) == expected, (len(pooled), runs)
            refuted += expected
        assert 0 < refuted < 200
    pool.add(((0, 0, 0),))
    assert pool.states == 256
    assert all(len(m) == 256 for m in (*pool.blocks, pool.f, pool.g))


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


def _search_z_k_eager(k):
    """search_z_k's word, read off the eagerly built G_k and H_k."""
    p = min(2**k - 1, construct.EXHAUSTIVE_STATE_CAP)
    h = reverse(build_H_k(k))
    return next(z for z in iter_words(build_G_k(k), Z_K_MAX_LEN)
                if z and lsep_lower_check(z, h, p))


@pytest.mark.parametrize("k", range(1, 9))
def test_search_z_k_matches_the_eager_path(k):
    z = search_z_k(k)
    assert z.word == _search_z_k_eager(k)
    assert z.checked_states == min(2**k - 1, construct.EXHAUSTIVE_STATE_CAP)


@pytest.fixture
def fresh_reversed_G_k():
    """An empty memo of the small source of G_k, before and after the
    test, so the test sees it built."""
    lang._reversed_G_k.cache_clear()
    yield
    lang._reversed_G_k.cache_clear()


def test_witness_pair_builds_neither_G_k_nor_H_k_in_full(monkeypatch, fresh_reversed_G_k):
    """witness_pair(10, 1) calls no eager builder, and its only subset
    constructions are the two small ones inside _reversed_G_k: the
    reverse() of L_10 and the determinize() of its star, not the 4 095
    states of G_10."""
    calls = []

    def spy(name, f):
        @functools.wraps(f)
        def wrapper(*args, **kwargs):
            out = f(*args, **kwargs)
            calls.append((name, out.state_count))
            return out
        return wrapper

    for name in ("build_G_k", "build_H_k", "reverse", "determinize"):
        f = getattr(dfa if name in ("reverse", "determinize") else lang, name)
        wrapped = spy(name, f)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] == "sepwords" and getattr(mod, name, None) is f:
                monkeypatch.setattr(mod, name, wrapped)
    report = witness_pair(10, 1)
    assert report.z_word == "112"
    assert [name for name, _ in calls] == ["reverse", "determinize"]
    assert all(states < 100 for _, states in calls)


def test_witness_pair_past_the_eager_build_limit():
    """G_16 has 2^18 - 1 states, past DEFAULT_DETERMINIZE_BUDGET, so
    build_G_k(16) raises; the search on the small sources still assembles
    and certifies the pair, the same pair as at k = 10."""
    assert 2**18 - 1 > dfa.DEFAULT_DETERMINIZE_BUDGET
    k10 = witness_pair(10, 1)
    k16 = verify_witness(witness_pair(16, 1))
    assert (k16.w_prime, k16.x_prime, k16.z_word, k16.c_word) == (
        k10.w_prime, k10.x_prime, k10.z_word, k10.c_word)
    assert k16.statuses == {"lower": "certified", "upper": "certified"}


@pytest.mark.parametrize("k", [1, 2, 10])
def test_shipped_witness_pair_has_reversal_gap_0(k):
    """witness_pair(k, 1) is one pair for every k, with sep 4 both ways.
    ROADMAP item 1, which vets z_k past 3 states, must update this."""
    report = witness_pair(k, 1)
    assert (report.z_word, report.c_word) == ("112", "11200112")
    w, x = report.w_prime, report.x_prime
    assert (len(w), len(x)) == (29, 35)
    for pair in ((w, x), (w[::-1], x[::-1])):
        cert = exact_sep(*pair)
        assert cert.exact and cert.value == 4


def test_state_limit_for_pairs():
    assert [state_limit_for_pairs(k) for k in (1, 2, 3, 4, 6)] == [0, 1, 1, 3, 7]


def test_claim_functions_meet_their_integer_definitions():
    # 2^{k/2} - 1 rounded down and 2^{k/2} rounded up; in floats, 2 ** (k / 2)
    # rounds wrongly from k = 105 on and overflows at k = 2048
    for k in range(1, 3001):
        limit, claim = state_limit_for_pairs(k), lower_claim_value(k, 2**k)
        assert (limit + 1) ** 2 <= 2**k < (limit + 2) ** 2, k
        assert (claim - 1) ** 2 < 2**k <= claim**2, k


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
        wp = free_word(4, d, d2, w, z_k="112")
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
    free_word(4, d, d, "12", z_k="112")
    # one closure of H_4 and one of H_4 + {"112"}, each built once
    info = _h_closure.cache_info()
    assert (info.misses, info.hits) == (2, 4)
    with pytest.raises(ValueError, match="closure of H'_k"):
        free_word(4, d, d, "0", z_k="112")


def _free_word_reference(k, d, d2, w, z_k):
    """free_word as an emptiness search over the full product automaton."""
    limit = state_limit_for_pairs(k)
    if d.state_count > limit or d2.state_count > limit:
        raise ValueError(
            f"automata must have at most {limit} states for k={k} "
            f"(got {d.state_count} and {d2.state_count})"
        )
    if d.alphabet_size != 3 or d2.alphabet_size != 3:
        raise ValueError("free_word expects full-alphabet automata")
    if not accepts(construct._h_closure(k, z_k), w):
        raise ValueError("w is not in the closure of H'_k")
    same_ends = combine(Dfa(3, d.transitions, frozenset({run(d, 0, w)})),
                        Dfa(3, d2.transitions, frozenset({run(d2, 0, w)})), "and")
    empty, word = is_empty(combine(same_ends, construct._h_closure(k, None), "and"))
    if empty:
        # the small-pair lemma rules this out when the preconditions hold
        raise ValueError(
            "no indistinguishable closure word exists; a precondition is violated"
        )
    return word


def _outcome(fn, *args, **kwargs):
    try:
        return "word", fn(*args, **kwargs)
    except ValueError as e:
        return "error", str(e)


def test_free_word_equals_the_product_emptiness_search():
    # the closure words of the lemma check `four`, glued from the first 20
    # words of H_4 and z_4; every sixth gets a trailing 0, which leaves the
    # closure, so the membership error is reached too
    z = search_z_k(4).word
    h = build_H_k(4)
    blocks = [w for w in iter_words(h, 6) if w][:20] + [z]
    structs = [Dfa(3, t, frozenset()) for t in enumerate_canonical(3, 3)]
    rng = random.Random(5)
    outcomes = set()
    for i in range(240):
        d, d2 = rng.choice(structs), rng.choice(structs)
        segs = [rng.choice(blocks) for _ in range(rng.randrange(1, 4))]
        w = segs[0] + "".join("0" * rng.randrange(1, 3) + s for s in segs[1:])
        if i % 6 == 5:
            w += "0"
        got = _outcome(free_word, 4, d, d2, w, z)
        assert got == _outcome(_free_word_reference, 4, d, d2, w, z), (d, d2, w)
        outcomes.add(got[0] if got[0] == "word" else got[1])
    assert outcomes == {"word", "w is not in the closure of H'_k"}
    # 112, the hard word search_z_k(6) vets at 3 states only, is not hard
    # for this pair: loop returns to its start on (112)* alone, words of
    # G_6, and trap holds its start on 0-free words alone, so no word of
    # H_6's closure ends where 112 does in both
    loop = Dfa(3, ((0, 1, 3), (1, 2, 3), (2, 3, 0), (3, 3, 3)), frozenset())
    trap = Dfa(3, ((1, 0, 0), (1, 1, 1)), frozenset())
    got = _outcome(free_word, 6, loop, trap, "112", "112")
    assert got == _outcome(_free_word_reference, 6, loop, trap, "112", "112")
    assert got[0] == "error" and "precondition" in got[1]


def test_free_word_rejects_oversized_automata():
    big = next(Dfa(3, t, frozenset()) for t in enumerate_canonical(4, 3) if len(t) == 4)
    with pytest.raises(ValueError):
        free_word(4, big, big, "112", z_k="112")


def test_farmand_machine_size_and_separation():
    r = reverse(build_G_k(1))
    t = r.state_count
    for n in (1, 2):
        m = farmand_dfa(r, n)
        assert m.state_count <= 2 * t + n + 3
        # suffix-coded segment, middle run of n vs n + (2n+1)! zeros, tail
        seg = encode("211", "right")  # reversal of a generator word
        a = seg + "0" * n + "1"
        b = seg + "0" * (n + canonical_triple(n).h.count("0")) + "1"
        assert check_separates(m, a, b)


def test_farmand_machine_separates_a_zero_free_block():
    # C = 112 holds no 0, so the reversed pair holds R segments only around
    # the middle block; the one decoder layout still separates it
    r = _reversed_G_k(1)
    c = "112"
    for n in (1, 2):
        m = farmand_dfa(r, n)
        assert m.state_count == 2 * r.state_count + n + 3
        trip = canonical_triple(n)
        w, x = encode(c + trip.f + c, "left"), encode(c + trip.g + c, "left")
        assert check_separates(m, w[::-1], x[::-1])


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
