"""Block-language family tests."""

import functools
import itertools
import random

import pytest

from sepwords import dfa, lang
from sepwords.construct import Z_K_MAX_LEN, farmand_dfa
from sepwords.dfa import (
    DEFAULT_DETERMINIZE_BUDGET,
    BudgetError,
    Dfa,
    _reachable,
    accepts,
    combine,
    dfa_to_text,
    includes,
    reverse,
    run,
)
from sepwords.lang import (
    ALPHABET,
    _reversed_G_k,
    _reversed_H_k,
    _reversed_words,
    build_G_k,
    build_H_k,
    build_L_k,
    finite_language,
    is_zero_free,
    iter_words,
    segmented_closure,
    state_complexity,
)
from reference import complement


def universe_12() -> Dfa:
    """All words over {1,2}, embedded over the full alphabet."""
    return Dfa(ALPHABET, ((1, 0, 0), (1, 1, 1)), frozenset({0}))


def words_of_L_k(k: int) -> list[str]:
    """The finite generator set for level k, in shortlex order.

    Two shapes: 1^{2i}2 for 1 <= i <= k, and block words
    1^{i_1}2...1^{i_s}2 whose exponents sum to 2k+1 with every exponent
    before the last even.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    words = {"1" * (2 * i) + "2" for i in range(1, k + 1)}

    def compositions(total: int, prefix: list[int]):
        # remaining parts: all but the last must be even
        if total >= 1:
            yield prefix + [total]
        for part in range(2, total, 2):
            yield from compositions(total - part, prefix + [part])

    for parts in compositions(2 * k + 1, []):
        words.add("".join("1" * p + "2" for p in parts))
    return sorted(words, key=lambda w: (len(w), w))


def _trie_nfa(words: list[str]) -> tuple[list[list[set[int]]], set[int]]:
    """Deterministic trie over {1,2} as an NFA table; returns (table, accepting).

    The reference for finite_language, which builds the same trie as a
    complete DFA and skips determinize(), and, starred, for build_G_k.
    """
    table: list[list[set[int]]] = [[set() for _ in range(ALPHABET)]]
    accepting: set[int] = set()
    for w in words:
        cur = 0
        for c in w:
            s = ord(c) - 48
            nxt = table[cur][s]
            if nxt:
                cur = next(iter(nxt))
            else:
                table.append([set() for _ in range(ALPHABET)])
                table[cur][s].add(len(table) - 1)
                cur = len(table) - 1
        accepting.add(cur)
    return table, accepting


def test_generator_words_level_1():
    assert words_of_L_k(1) == ["112", "1112", "11212"]


def test_generator_word_counts():
    # |L_k| for k = 1..5: derived ground truth from the shape enumeration
    assert [len(words_of_L_k(k)) for k in range(1, 6)] == [3, 6, 11, 20, 37]


def test_generator_shapes():
    for k in (1, 2, 3):
        for w in words_of_L_k(k):
            assert w.endswith("2") and set(w) <= {"1", "2"}
            runs = [len(r) for r in w[:-1].split("2")]
            if len(runs) == 1:
                assert runs[0] in {2 * i for i in range(1, k + 1)} | {2 * k + 1}
            else:
                assert sum(runs) == 2 * k + 1
                assert all(r % 2 == 0 for r in runs[:-1])


def _build_G_k_reference(k: int) -> Dfa:
    """The G_k construction that the reversed star replaced, kept as a
    reference: the star of the trie of words_of_L_k(k) (accepting trie
    states take the root's moves, and the root accepts), determinize(),
    then minimize().  Both are called through the dfa module, so a test
    can record their inputs."""
    table, acc = _trie_nfa(words_of_L_k(k))
    for q in acc:
        for s in range(3):
            table[q][s] |= table[0][s]
    return dfa.minimize(dfa.determinize(table, {0}, acc | {0}, 3))


def _build_H_k_reference(g: Dfa) -> Dfa:
    """The H_k construction that the direct one replaced, kept as a
    reference: the product of complement(G_k) with {1,2}*, minimized."""
    return dfa.minimize(combine(complement(g), universe_12(), "and"))


@functools.lru_cache(maxsize=None)
def _cached_G_k_reference(k: int) -> Dfa:
    return _build_G_k_reference(k)


def test_generator_dfa_matches_trie_construction():
    """The L_k DFA built from the block rule is the minimal DFA of the
    word list, byte for byte, with 6k+1 states."""
    for k in range(1, 11):
        d = build_L_k(k)
        assert dfa_to_text(d) == dfa_to_text(finite_language(words_of_L_k(k))), k
        assert d.state_count == 6 * k + 1


def test_finite_language_matches_the_determinized_trie_reference():
    """The complete trie DFA, minimized, equals the trie NFA sent through
    determinize() and minimize(), byte for byte, on random word sets, the
    empty set and sets holding the empty word."""
    rng = random.Random(20261019)
    word_sets = [[], [""], ["", "1"], ["2", "", "2"]]
    for _ in range(3000):
        word_sets.append(["".join(rng.choice("12") for _ in range(rng.randrange(7)))
                          for _ in range(rng.randrange(8))])
    for words in word_sets:
        table, acc = _trie_nfa(words)
        expected = dfa.minimize(dfa.determinize(table, {0}, acc, 3))
        assert dfa_to_text(finite_language(words)) == dfa_to_text(expected), words


def test_star_matches_trie_star_reference():
    for k in range(1, 11):
        assert dfa_to_text(build_G_k(k)) == dfa_to_text(_cached_G_k_reference(k)), k


def test_complement_matches_product_reference():
    for k in range(1, 11):
        expected = _build_H_k_reference(_cached_G_k_reference(k))
        assert dfa_to_text(build_H_k(k)) == dfa_to_text(expected), k


def test_reversed_star_equals_reversal_of_G_k():
    for k in range(1, 11):
        assert _reversed_G_k(k) == reverse(build_G_k(k)), k


def _reversed_G_k_reference(k: int) -> Dfa:
    """The construction _reversed_G_k replaced, kept as a reference: the
    same star started at D's start, which accepts, then minimize()."""
    d = reverse(build_L_k(k))
    dead = next(q for q, row in enumerate(d.transitions)
                if q not in d.accepting and all(t == q for t in row))
    table = [[{t} - {dead} for t in row] for row in d.transitions]
    for q in d.accepting:
        for s in range(ALPHABET):
            table[q][s] |= table[0][s]
    return dfa.minimize(dfa.determinize(table, {0}, d.accepting | {0}, ALPHABET))


def test_reversed_star_is_minimal_as_built():
    # about 1.3 s
    for k in [*range(1, 61), 200]:
        built = _reversed_G_k(k)
        assert built == _reversed_G_k_reference(k), k
        assert dfa.minimize(built) == built, k
        assert built.state_count == 5 * k + 2, k


def test_star_build_raises_past_the_determinize_budget(monkeypatch):
    # G_k has 2^(k+2) - 1 states, all of them subsets in the final reversal
    assert build_G_k(5).state_count == 127
    monkeypatch.setattr(dfa, "DEFAULT_DETERMINIZE_BUDGET", 127)
    assert build_G_k.__wrapped__(5) == build_G_k(5)
    monkeypatch.setattr(dfa, "DEFAULT_DETERMINIZE_BUDGET", 126)
    with pytest.raises(BudgetError):
        build_G_k.__wrapped__(5)
    # so with the real budget, k = 15 (131 071 states) builds and k = 16
    # (262 143 states) raises
    assert 2**17 - 1 <= DEFAULT_DETERMINIZE_BUDGET < 2**18 - 1


def test_block_builders_determinize_and_minimize_only_small_automata(monkeypatch):
    """Building G_10 and H_10 passes no automaton of more than 200 states
    through determinize(), and none through minimize()."""
    sizes = {"determinize": [], "minimize": []}

    def recording(name, f):
        def wrapper(*args, **kwargs):
            out = f(*args, **kwargs)
            # determinize() takes an NFA table and minimize() a Dfa
            n = len(args[0]) if name == "determinize" else args[0].state_count
            sizes[name] += [n, out.state_count]
            return out
        return wrapper

    for name in sizes:
        f = getattr(dfa, name)
        monkeypatch.setattr(lang, name, recording(name, f))
        monkeypatch.setattr(dfa, name, recording(name, f))
    _reversed_G_k.cache_clear()
    g = build_G_k.__wrapped__(10)
    h = build_H_k.__wrapped__(10)
    assert (g.state_count, h.state_count) == (4095, 4096)
    assert sizes["determinize"] and not sizes["minimize"]
    assert max(sizes["determinize"]) <= 200, sizes


def test_finite_language_membership():
    h = finite_language(["1", "22"])
    assert accepts(h, "1") and accepts(h, "22")
    assert not accepts(h, "12") and not accepts(h, "")
    assert is_zero_free(h)


@pytest.mark.parametrize("word", ["10", "3", "/", "1\u00e9"])
def test_finite_language_rejects_words_outside_1_2(word):
    # unchecked, ord(c) - 48 would send "/" to symbol 2 and "3" past the row
    with pytest.raises(ValueError, match="only words"):
        finite_language(["12", word])


def test_star_language_level_1_membership():
    g = build_G_k(1)
    for w in ("", "112", "1112", "11212", "112112", "1121112", "11212112"):
        assert accepts(g, w), w
    for w in ("1", "2", "12", "21", "1122", "2112", "0", "1120"):
        assert not accepts(g, w), w


def test_star_language_concatenation_closed():
    g = build_G_k(2)
    members = [w for w in iter_words(g, 6)]
    for a, b in itertools.product(members[:12], repeat=2):
        assert accepts(g, a + b)


def test_complement_language_partitions_zero_free_words():
    g, h = build_G_k(1), build_H_k(1)
    for n in range(0, 6):
        for t in itertools.product("12", repeat=n):
            w = "".join(t)
            assert accepts(g, w) != accepts(h, w)
    # words with a 0 belong to neither
    assert not accepts(g, "102") and not accepts(h, "102")


def test_state_complexity_of_star_family():
    assert [state_complexity(build_G_k(k)) for k in range(1, 6)] == [
        7, 15, 31, 63, 127]


def test_star_and_complement_builders_are_memoized_per_process():
    build_G_k.cache_clear()
    build_H_k.cache_clear()
    _reversed_G_k.cache_clear()
    h = build_H_k(3)
    g = build_G_k(3)
    # one build of the small G_3^R, shared by the H_3 build and the G_3 build
    info = _reversed_G_k.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    assert build_H_k(3) is h and build_G_k(3) is g


def test_state_complexity_of_reversals():
    assert [state_complexity(reverse(build_G_k(k))) for k in range(1, 6)] == [
        7, 12, 17, 22, 27]


def test_state_complexity_level_1_matches_nerode_oracle():
    """Independent oracle: count behaviour classes over probe words."""
    g = build_G_k(1)
    probes = [""] + [
        "".join(t) for L in range(1, 7) for t in itertools.product("012", repeat=L)
    ]
    # build class signatures for every reachable residual via word prefixes
    sigs = set()
    for prefix in [""] + ["".join(t) for L in range(1, 8)
                          for t in itertools.product("012", repeat=L)][:3000]:
        q = run(g, 0, prefix)
        sigs.add(tuple(run(g, q, w) in g.accepting for w in probes))
    assert len(sigs) == state_complexity(g) == 7


def test_zero_freeness_checks():
    assert is_zero_free(build_G_k(1))
    assert is_zero_free(universe_12())
    assert not is_zero_free(segmented_closure(build_G_k(1)))


def test_zero_freeness_matches_inclusion_in_universe_12():
    """The linear check agrees with L(d) <= {1,2}* decided by a product."""
    rng = random.Random(20261018)
    verdicts = []
    for _ in range(5000):
        n = rng.randrange(1, 13)
        rows = [[rng.randrange(n) for _ in range(3)] for _ in range(n)]
        if rng.random() < 0.5:
            # send most 0-moves to a rejecting sink, so some DFAs are 0-free
            sink = rng.randrange(n)
            rows[sink] = [sink] * 3
            for row in rows:
                if rng.random() < 0.9:
                    row[0] = sink
            acc = frozenset(q for q in range(n) if q != sink and rng.random() < 0.4)
        else:
            acc = frozenset(q for q in range(n) if rng.random() < 0.4)
        d = Dfa(3, tuple(map(tuple, rows)), acc)
        verdict = is_zero_free(d)
        assert verdict == includes(universe_12(), d), d
        verdicts.append((verdict, len(_reachable(d)) < n))
    assert sum(v for v, _ in verdicts) > 1000 and sum(not v for v, _ in verdicts) > 1000
    # and many of the zero-free inputs have unreachable states
    assert sum(v and unreachable for v, unreachable in verdicts) > 500


def test_zero_freeness_needs_three_symbols():
    binary = Dfa(2, ((1, 0), (1, 1)), frozenset({0}))
    with pytest.raises(ValueError, match="3 symbols"):
        is_zero_free(binary)
    with pytest.raises(ValueError):
        segmented_closure(binary)
    with pytest.raises(ValueError):
        farmand_dfa(binary, 1)


def test_segmented_closure_membership():
    s = segmented_closure(finite_language(["12"]))
    for w in ("12", "12012", "120012", "1200120012"):
        assert accepts(s, w), w
    for w in ("", "0", "012", "120", "1212", "12012012012010"):
        assert not accepts(s, w), w


def test_segmented_closure_requires_zero_free_base():
    with pytest.raises(ValueError):
        segmented_closure(segmented_closure(finite_language(["12"])))


def test_H_k_is_the_reversal_of_the_small_automatons_complement():
    # the source of H_k, reversed in full, is build_H_k
    for k in range(1, 7):
        small = _reversed_H_k(k)
        assert small.state_count == _reversed_G_k(k).state_count + 1
        assert dfa_to_text(reverse(small)) == dfa_to_text(build_H_k(k)), k


def test_H_k_build_reverses_only_its_small_source(monkeypatch):
    """build_H_k(k) builds no G_k, and every automaton it reverses (the
    small source, and L_k inside _reversed_G_k) has at most 6k + 3
    states."""
    reversed_sizes = []

    def spy_reverse(d):
        reversed_sizes.append(d.state_count)
        return reverse(d)

    def no_G_k(k):
        raise AssertionError("build_H_k built G_k")

    monkeypatch.setattr(lang, "reverse", spy_reverse)
    monkeypatch.setattr(lang, "build_G_k", no_G_k)
    for k in (1, 2, 5, 10):
        _reversed_G_k.cache_clear()
        reversed_sizes.clear()
        h = build_H_k.__wrapped__(k)
        assert h.state_count == 2**(k + 2)
        assert reversed_sizes and max(reversed_sizes) <= 6 * k + 3, (k, reversed_sizes)


@pytest.mark.parametrize("k", range(1, 9))
def test_reversed_words_match_iter_words_of_the_eager_build(k):
    """The first 3 000 words of G_k and of H_k, and their order, are the
    same read off the small reversed sources as off the eager builds."""
    for small, eager in ((_reversed_G_k(k), build_G_k(k)),
                         (_reversed_H_k(k), build_H_k(k))):
        got = list(itertools.islice(_reversed_words(small, Z_K_MAX_LEN), 3000))
        assert len(got) == 3000
        assert got == list(itertools.islice(iter_words(eager, Z_K_MAX_LEN), 3000))


def test_iter_words_is_shortlex_and_complete():
    g = build_G_k(1)
    got = list(iter_words(g, 4))
    keys = [(len(w), w) for w in got]
    assert keys == sorted(keys)
    brute = [
        "".join(t)
        for L in range(0, 5)
        for t in itertools.product("012", repeat=L)
        if accepts(g, "".join(t))
    ]
    assert got == brute
