"""Core automaton library tests."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from sepwords.dfa import (
    Dfa,
    accepts,
    _reachable,
    canonicalize,
    combine,
    complement,
    dfa_from_text,
    dfa_to_text,
    determinize,
    enumerate_canonical,
    equivalent,
    image_under_word,
    includes,
    is_empty,
    minimize,
    reverse,
    run,
    word_symbols,
    zero_cycle_length,
    zpath,
)
from sepwords import dfa, lang
from sepwords.lang import build_G_k, build_H_k
from sepwords.solver import raw_tables


def random_dfa(rng, max_states=5, k=2):
    n = rng.randrange(1, max_states + 1)
    rows = tuple(tuple(rng.randrange(n) for _ in range(k)) for _ in range(n))
    return Dfa(k, rows, frozenset(q for q in range(n) if rng.random() < 0.5))


dfas = st.integers(1, 5).flatmap(
    lambda n: st.builds(
        Dfa,
        st.just(2),
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            min_size=n, max_size=n,
        ).map(tuple),
        st.sets(st.integers(0, n - 1)).map(frozenset),
    )
)
words = st.text(alphabet="01", max_size=8)


def test_dfa_validation():
    with pytest.raises(ValueError):
        Dfa(2, ((0, 5),), frozenset())
    with pytest.raises(ValueError):
        Dfa(2, ((0,),), frozenset())
    with pytest.raises(ValueError):
        Dfa(2, ((0, 0),), frozenset({3}))


def test_word_symbols_rejects_foreign_letters():
    with pytest.raises(ValueError):
        word_symbols("012", 2)
    with pytest.raises(ValueError):
        word_symbols("ab", 2)


@given(dfas, words, words)
def test_run_concatenation_law(d, w, x):
    assert run(d, 0, w + x) == run(d, run(d, 0, w), x)


@given(dfas, words)
def test_image_never_grows(d, w):
    s = frozenset(range(d.state_count))
    assert len(image_under_word(d, s, w)) <= len(s)


@given(dfas, words)
def test_complement_flips_acceptance(d, w):
    assert accepts(complement(d), w) != accepts(d, w)


@given(dfas, dfas, words)
@settings(max_examples=60)
def test_combine_semantics(a, b, w):
    assert accepts(combine(a, b, "and"), w) == (accepts(a, w) and accepts(b, w))
    assert accepts(combine(a, b, "or"), w) == (accepts(a, w) or accepts(b, w))
    assert accepts(combine(a, b, "and-not"), w) == (accepts(a, w) and not accepts(b, w))
    assert accepts(combine(a, b, "xor"), w) == (accepts(a, w) != accepts(b, w))


def test_combine_unknown_op():
    d = Dfa(2, ((0, 0),), frozenset())
    with pytest.raises(ValueError):
        combine(d, d, "nand")


@given(dfas)
@settings(max_examples=60)
def test_minimize_preserves_language(d):
    m = minimize(d)
    assert equivalent(d, m)
    assert m.state_count <= d.state_count


@given(dfas)
@settings(max_examples=60)
def test_minimize_is_minimal_by_quotient_oracle(d):
    """Distinct states of the minimal DFA are pairwise inequivalent."""
    m = minimize(d)
    # distinguish states by behaviour on all words up to a safe horizon
    horizon = m.state_count
    probes = [""] + [
        "".join(t) for L in range(1, horizon + 1)
        for t in itertools.product("01", repeat=L)
    ]
    sigs = {
        q: tuple(run(m, q, w) in m.accepting for w in probes)
        for q in range(m.state_count)
    }
    assert len(set(sigs.values())) == m.state_count


def _moore_minimize_reference(d: Dfa) -> Dfa:
    """The dict-based Moore refinement that minimize() replaced, kept as a
    reference: its outputs must stay byte-identical."""
    reach = _reachable(d)
    # Refine classes until stable; class id 0/1 seeded by acceptance.
    cls = {q: (1 if q in d.accepting else 0) for q in reach}
    while True:
        sig = {
            q: (cls[q],) + tuple(cls[d.transitions[q][s]] for s in range(d.alphabet_size))
            for q in reach
        }
        renum: dict[tuple, int] = {}
        new = {}
        for q in reach:
            new[q] = renum.setdefault(sig[q], len(renum))
        if len(set(new.values())) == len(set(cls.values())):
            cls = new
            break
        cls = new
    reps: dict[int, int] = {}
    for q in reach:
        reps.setdefault(cls[q], q)
    rows = tuple(
        tuple(cls[d.transitions[reps[c]][s]] for s in range(d.alphabet_size))
        for c in range(len(reps))
    )
    acc = frozenset(c for c, q in reps.items() if q in d.accepting)
    # Class ids are assigned in reach order and reach[0] is the start, so
    # the start's class is always 0.
    quotient = Dfa(d.alphabet_size, rows, acc)
    return canonicalize(quotient)


def test_minimize_matches_dict_moore_reference():
    """Byte-identical to the reference on random 2- and 3-symbol DFAs."""
    rng = random.Random(20240717)
    for i in range(2000):
        d = random_dfa(rng, max_states=14, k=2 + i % 2)
        assert dfa_to_text(minimize(d)) == dfa_to_text(_moore_minimize_reference(d)), d


def _block_language_minimize_inputs(monkeypatch) -> list[Dfa]:
    """Every input minimize() gets while building G_k, H_k and reverse(G_k),
    k <= 8."""
    inputs = []

    def recording(d):
        inputs.append(d)
        return minimize(d)

    monkeypatch.setattr(lang, "minimize", recording)
    monkeypatch.setattr(dfa, "minimize", recording)
    for k in range(1, 9):
        lang.build_G_k.__wrapped__(k)
        lang.build_H_k.__wrapped__(k)
        reverse(build_G_k(k))
    return inputs


def test_minimize_matches_reference_on_block_languages(monkeypatch):
    """The inputs minimize() gets while building G_k, H_k and reverse(G_k),
    k <= 8, minimize to the reference's bytes."""
    inputs = _block_language_minimize_inputs(monkeypatch)
    assert max(d.state_count for d in inputs) == 1279
    for d in inputs:
        assert dfa_to_text(minimize(d)) == dfa_to_text(_moore_minimize_reference(d))


def test_minimize_output_is_already_canonical(monkeypatch):
    """minimize() returns its quotient without renumbering; the quotient is
    a fixed point of canonicalize() on random DFAs and block languages."""
    rng = random.Random(20261018)
    randoms = [random_dfa(rng, max_states=11, k=2 + i % 2) for i in range(3000)]
    for d in randoms + _block_language_minimize_inputs(monkeypatch):
        m = minimize(d)
        assert canonicalize(m) == m, d


@given(dfas, words)
@settings(max_examples=60)
def test_reverse_semantics(d, w):
    assert accepts(reverse(d), w) == accepts(d, w[::-1])


def test_is_empty_returns_shortest_witness():
    d = Dfa(2, ((1, 0), (1, 2), (2, 2)), frozenset({2}))
    empty, wit = is_empty(d)
    assert not empty and wit == "01"
    dead = Dfa(2, ((0, 0),), frozenset())
    assert is_empty(dead) == (True, None)


def test_includes_and_equivalent():
    evens = Dfa(2, ((0, 1), (1, 0)), frozenset({0}))  # even number of 1s
    anything = Dfa(2, ((0, 0),), frozenset({0}))
    assert includes(anything, evens)
    assert not includes(evens, anything)
    assert equivalent(evens, minimize(evens))


def test_image_under_word_rejects_out_of_range_states():
    d = Dfa(2, ((0, 1), (1, 0)), frozenset())
    with pytest.raises(ValueError):
        image_under_word(d, frozenset({0, 7}), "0")


def test_determinize_subset_construction():
    # NFA over {0,1}: accepts words whose second-to-last symbol is 1
    table = [[{0}, {0, 1}], [{2}, {2}], [set(), set()]]
    d = determinize(table, start={0}, accepting={2}, alphabet_size=2)
    for w in ("10", "11", "0110", ""):
        expected = len(w) >= 2 and w[-2] == "1"
        assert accepts(d, w) == expected


def test_zero_cycle_and_zpath():
    # 0: 0->1, 1: 0->2, 2: 0->1 (2-cycle on {1,2}); symbol 1 is identity
    d = Dfa(2, ((1, 0), (2, 1), (1, 2)), frozenset())
    assert zero_cycle_length(d, 0) is None
    assert zero_cycle_length(d, 1) == 2
    assert zero_cycle_length(d, 2) == 2
    assert zpath(d, 0) == frozenset({0})
    assert zpath(d, 0, 0) == frozenset({0})
    assert zpath(d, 1) == frozenset()
    for q in (3, -1):
        with pytest.raises(ValueError):
            zpath(d, q)


def zpath_reference(d, q, i=None):
    """zpath by its definition: trajectory states 0^j, j <= i, on no zero-cycle."""
    if i is None:
        i = d.state_count
    trajectory = {run(d, q, "0" * j) for j in range(i + 1)}
    return frozenset(s for s in trajectory if zero_cycle_length(d, s) is None)


def test_zpath_matches_its_definition_exhaustively():
    for d in [*enumerate_canonical(3, 2), *enumerate_canonical(2, 3)]:
        for q in range(d.state_count):
            for i in (None, *range(d.state_count + 2)):
                assert zpath(d, q, i) == zpath_reference(d, q, i), (d.transitions, q, i)


def run_walk_reference(d: Dfa, q: int, w: str) -> int:
    """The run() that the per-alphabet lookup replaced, kept as a reference."""
    if not 0 <= q < d.state_count:
        raise ValueError(f"state {q} out of range")
    for s in word_symbols(w, d.alphabet_size):
        q = d.transitions[q][s]
    return q


def zpath_walk_reference(d: Dfa, q: int, i=None) -> frozenset[int]:
    """The zpath() that the insertion-order slice replaced, kept as a reference."""
    if not 0 <= q < d.state_count:
        raise ValueError(f"state {q} out of range")
    seen: dict[int, int] = {}  # state -> index of its first visit
    while q not in seen:
        seen[q] = len(seen)
        q = d.transitions[q][0]
    stop = seen[q] if i is None else min(seen[q], i + 1)
    return frozenset(s for s, j in seen.items() if j < stop)


def test_run_and_zpath_match_references_on_canonical_structures():
    """Every structure with <= 4 binary or <= 3 ternary states, every q."""
    checked = 0
    for p, k in ((4, 2), (3, 3)):
        words = ["".join(t) for n in range(4 - k + 2)
                 for t in itertools.product("012"[:k], repeat=n)]
        for d in enumerate_canonical(p, k):
            n = d.state_count
            for q in range(n):
                for w in words:
                    assert run(d, q, w) == run_walk_reference(d, q, w)
                for i in (None, -2, -1, *range(n + 2)):
                    assert zpath(d, q, i) == zpath_walk_reference(d, q, i)
                checked += 1
    assert checked > 20_000


def test_zero_trajectory_functions_read_only_the_0_column():
    """The premise of the lemma checks' memo by 0-column: on every binary
    structure with <= 4 states, zpath, zero_cycle_length and run on 0^i equal
    their values on the first structure with the same 0-column."""
    def zero_trajectory(d):
        n = d.state_count
        return [(zero_cycle_length(d, q), zpath(d, q),
                 [(zpath(d, q, i), run(d, q, "0" * i)) for i in range(n + 2)])
                for q in range(n)]

    first: dict[tuple[int, ...], list] = {}
    repeats = 0
    for d in enumerate_canonical(4, 2):
        column = tuple(row[0] for row in d.transitions)
        if column in first:
            assert zero_trajectory(d) == first[column], d.transitions
            repeats += 1
        else:
            first[column] = zero_trajectory(d)
    assert len(first) == 135 and repeats == 5_477 - 135


def _value_error_text(f, *args):
    with pytest.raises(ValueError) as info:
        f(*args)
    return str(info.value)


def test_run_and_zpath_raise_the_reference_errors():
    binary = Dfa(2, ((1, 0), (0, 1)), frozenset())
    ternary = Dfa(3, ((1, 0, 0), (0, 1, 1)), frozenset())
    for d, w in ((binary, "2"), (binary, "0102"), (binary, "a"),
                 (ternary, "01a2"), (ternary, "3")):
        text = _value_error_text(run, d, 0, w)
        assert text == _value_error_text(run_walk_reference, d, 0, w)
        assert "outside alphabet" in text
    for d in (binary, ternary):
        for q in (-1, 2, 7):
            text = _value_error_text(run, d, q, "0")
            assert text == _value_error_text(run_walk_reference, d, q, "0")
            assert text == _value_error_text(zpath, d, q)
            assert text == _value_error_text(zpath_walk_reference, d, q)


def canonical_count(p, k):
    return sum(1 for _ in enumerate_canonical(p, k))


def raw_structure_class_count(p, k):
    """Independent oracle: reachable raw tables counted up to isomorphism."""
    classes = set()
    for m, rows in raw_tables(p, k):
        # keep only tables whose every state is reachable
        seen, stack = {0}, [0]
        while stack:
            q = stack.pop()
            for t in rows[q]:
                if t not in seen:
                    seen.add(t)
                    stack.append(t)
        if len(seen) != m:
            continue
        classes.add(canonicalize(Dfa(k, rows, frozenset())).transitions)
    return len(classes)


def test_canonical_enumeration_counts_match_raw_oracle():
    assert canonical_count(2, 2) == raw_structure_class_count(2, 2) == 13
    assert canonical_count(3, 2) == raw_structure_class_count(3, 2) == 229


def test_canonical_enumeration_larger_counts():
    assert canonical_count(4, 2) == 5477
    assert canonical_count(3, 3) == 8022


def test_canonical_structures_are_reachable_and_distinct():
    seen = set()
    for d in enumerate_canonical(3, 2):
        assert d.transitions not in seen
        seen.add(d.transitions)
        assert canonicalize(d).transitions == d.transitions


@given(dfas)
@settings(max_examples=60)
def test_text_format_roundtrip(d):
    text = dfa_to_text(d, provenance="roundtrip probe")
    back, prov = dfa_from_text(text)
    assert back == d
    assert prov == "roundtrip probe"


def test_text_format_rejects_garbage():
    with pytest.raises(ValueError):
        dfa_from_text("not a dfa at all")
