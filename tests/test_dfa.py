"""Core automaton library tests."""

import functools
import itertools
import random
import re
from typing import Iterator

import pytest
from hypothesis import given, settings, strategies as st

from sepwords.atlas import AtlasRow, AtlasTable
from sepwords.construct import CanonicalTriple, CnResult, WitnessReport, ZkResult
from sepwords.dfa import (
    BudgetError,
    Dfa,
    accepts,
    _reachable,
    canonicalize,
    combine,
    dfa_from_text,
    dfa_to_text,
    determinize,
    enumerate_canonical,
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
from sepwords import dfa
from sepwords.lang import build_G_k, build_H_k, build_L_k
from sepwords.lemmas import LemmaCheck, SuiteReport
from sepwords.solver import SearchBudget, SepCertificate, lsep_lower_check, raw_tables
from reference import complement, equivalent
from test_lang import _build_G_k_reference, _build_H_k_reference


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


@pytest.mark.parametrize("transitions, accepting, message", [
    ([(0, 1), (1, 1)], frozenset({0}), "transitions must be a tuple of rows, got list"),
    (((0, 1), [1, 1]), frozenset({0}), "transitions row 1 must be a tuple, got list"),
    (((0, 1), (1, 1)), {0}, "accepting must be a frozenset, got set"),
])
def test_dfa_rejects_unhashable_fields_at_construction(transitions, accepting, message):
    # such a Dfa used to pass validation and then fail inside a memoized
    # function, e.g. lsep_lower_check's lru_cache'd zero-free projection
    with pytest.raises(ValueError, match=f"^{message}$"):
        Dfa(2, transitions, accepting)
    with pytest.raises(ValueError, match="^transitions must be a tuple"):
        lsep_lower_check("1", Dfa(3, [[0, 1, 0], [1, 1, 1]], {0}), 1)


@pytest.mark.parametrize("target", [1.0, True, "1"], ids=["float", "bool", "str"])
def test_dfa_rejects_a_transition_target_that_is_not_an_int(target):
    # 1.0 and True compare in range, yet run() and minimize() cannot index
    # with 1.0, and dfa_to_text writes True as a target no parse reads back
    message = f"transition target {target!r} of state 0 is not an int in 0..1"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Dfa(2, ((0, target), (1, 1)), frozenset({1}))


_DFA = Dfa(2, ((0, 1), (1, 1)), frozenset({1}))
_REQUIRED = object()  # default of a field that has none
_ALONE = object()  # a field no other value of which is valid on its own


class _Initial:
    """The default of a field that __init__ does not take: every instance
    starts at `value`, and its owner assigns the field later."""

    def __init__(self, value):
        self.value = value

# per value class: frozen or not, and its fields in order, each as
# (name, a value, another value, default)
_VALUE_CLASSES = {
    Dfa: (True, [
        ("alphabet_size", 2, _ALONE, _REQUIRED),
        ("transitions", ((0, 1), (1, 1)), ((1, 1), (0, 1)), _REQUIRED),
        ("accepting", frozenset({1}), frozenset({0}), _REQUIRED),
    ]),
    SearchBudget: (True, [
        ("max_states", 3, 4, 12),
        ("max_nodes", 5, 6, 50_000_000),
        ("wall_limit", 1.0, 2.0, 600.0),
    ]),
    SepCertificate: (False, [
        ("w", "0", "00", _REQUIRED),
        ("x", "1", "11", _REQUIRED),
        ("lower", 2, 1, _REQUIRED),
        ("upper", 2, 3, _REQUIRED),
        ("witness", _DFA, None, _REQUIRED),
        ("lower_method", "exhaustive-canonical", "none", _REQUIRED),
        ("nodes", 7, 8, _REQUIRED),
    ]),
    AtlasRow: (True, [
        ("n", 1, 2, _REQUIRED),
        ("value", 2, 3, _REQUIRED),
        ("pair", ("0", "1"), ("1", "0"), _REQUIRED),
    ]),
    AtlasTable: (False, [
        ("max_len", 1, 2, _REQUIRED),
        ("rows", [AtlasRow(1, 2, ("0", "1"))], [], _REQUIRED),
        ("searches_performed", 0, 1, _REQUIRED),
    ]),
    CanonicalTriple: (True, [
        ("n", 1, 2, _REQUIRED),
        ("f", "0", "00", _REQUIRED),
        ("g", "0" * 7, "0" * 8, _REQUIRED),
        ("h", "0" * 6, "0" * 5, _REQUIRED),
    ]),
    CnResult: (True, [
        ("n", 1, 2, _REQUIRED),
        ("w0", "1", "2", _REQUIRED),
        ("word", "101", "1001", _REQUIRED),
        ("lower_checked", 3, 4, _REQUIRED),
        ("candidates", 5, 6, _REQUIRED),
        ("exhaustive_searches", 7, 8, _REQUIRED),
        ("nodes", 9, 10, _REQUIRED),
    ]),
    ZkResult: (True, [
        ("k", 1, 2, _REQUIRED),
        ("word", "1", "11", _REQUIRED),
        ("certified", True, False, _REQUIRED),
        ("checked_states", 1, 3, _REQUIRED),
    ]),
    WitnessReport: (False, [
        ("k", 1, 2, _REQUIRED),
        ("n", 1, 2, _REQUIRED),
        ("w_prime", "0", "1", _REQUIRED),
        ("x_prime", "1", "0", _REQUIRED),
        ("lower_claim", 4, 5, _REQUIRED),
        ("upper_claim", 21, 22, _REQUIRED),
        ("z_word", "1", "11", _REQUIRED),
        ("c_word", "1", "2", _REQUIRED),
        ("z_certified", True, False, _REQUIRED),
        ("lower_verified_to", 3, 4, _Initial(0)),
        ("upper_witness", _DFA, None, _Initial(None)),
        ("statuses", {"lower": "certified", "upper": "certified"},
         {"lower": "failed", "upper": "certified"},
         _Initial({"lower": "pending", "upper": "pending"})),
    ]),
    LemmaCheck: (False, [
        ("id", "fries", "pear", _REQUIRED),
        ("scale", "s", "t", _REQUIRED),
        ("status", "pass", "fail", _REQUIRED),
        ("evidence", {"checked": 1}, {"checked": 2}, _REQUIRED),
        ("counterexample", {"w": "0"}, None, _REQUIRED),
    ]),
    SuiteReport: (False, [
        ("seed", 1, 2, _REQUIRED),
        ("checks", [LemmaCheck("fries", "s", "pass", {}, None)], [], _REQUIRED),
    ]),
}


def _build(cls, fields, values: dict, keywords: bool = False):
    """An instance holding `values`: __init__'s parameters passed in order
    or by keyword, then each field that __init__ does not take assigned."""
    initial = {name for name, _, _, default in fields if isinstance(default, _Initial)}
    params = {name: value for name, value in values.items() if name not in initial}
    obj = cls(**params) if keywords else cls(*params.values())
    for name in initial:
        setattr(obj, name, values[name])
    return obj


@pytest.mark.parametrize("cls", list(_VALUE_CLASSES), ids=lambda cls: cls.__name__)
def test_value_classes_keep_their_value_semantics(cls):
    frozen, fields = _VALUE_CLASSES[cls]
    values = {name: value for name, value, _, _ in fields}
    required = {name: value for name, value, _, default in fields if default is _REQUIRED}
    a = _build(cls, fields, values)
    assert [getattr(a, name) for name in values] == list(values.values())
    assert _build(cls, fields, values, keywords=True) == a
    assert repr(a) == f"{cls.__name__}({', '.join(f'{k}={v!r}' for k, v in values.items())})"

    bare, twin = cls(*required.values()), cls(**required)
    assert bare == twin
    for name, value, _, default in fields:
        if default is _REQUIRED:
            continue
        if isinstance(default, _Initial):
            default = default.value
            with pytest.raises(TypeError):  # not a parameter
                cls(**required, **{name: value})
        assert getattr(bare, name) == default
        if isinstance(default, dict):  # a fresh dict per instance
            assert getattr(bare, name) is not getattr(twin, name)

    # == is field-wise, and only between instances of one class
    for name, _, other, _ in fields:
        if other is not _ALONE:
            assert _build(cls, fields, dict(values, **{name: other}), keywords=True) != a
    assert _build(type("Sub", (cls,), {"__slots__": ()}), fields, values) != a
    assert a != tuple(values.values())

    name, _, other, _ = fields[-1]
    if frozen:
        assert hash(_build(cls, fields, values, keywords=True)) == hash(a)
        with pytest.raises(AttributeError):
            setattr(a, name, other)
        with pytest.raises(AttributeError):
            delattr(a, name)
        assert getattr(a, name) == values[name]
    else:
        with pytest.raises(TypeError):
            hash(a)
        setattr(a, name, other)
        assert getattr(a, name) == other


def test_word_symbols_rejects_foreign_letters():
    with pytest.raises(ValueError):
        word_symbols("012", 2)
    with pytest.raises(ValueError):
        word_symbols("ab", 2)
    with pytest.raises(ValueError, match=r"^symbol 'é' outside alphabet of size 3$"):
        word_symbols("01é2", 3)


def _word_symbols_reference(w: str, alphabet_size: int) -> list[int]:
    """The per-character word_symbols() that the translation replaced."""
    out = []
    for c in w:
        s = ord(c) - 48
        if not 0 <= s < alphabet_size:
            raise ValueError(f"symbol {c!r} outside alphabet of size {alphabet_size}")
        out.append(s)
    return out


def test_word_symbols_matches_reference():
    """Same symbols, or the same error text, on random words that mix the
    alphabet with other ASCII and non-ASCII characters."""
    rng = random.Random(20261018)
    letters = "012" * 6 + "3/?\x00\x7fé€😀"
    errors = 0
    for i in range(3000):
        w = "".join(rng.choice(letters) for _ in range(rng.randrange(0, 12)))
        k = 2 + i % 2
        try:
            expected = _word_symbols_reference(w, k)
        except ValueError as e:
            errors += 1
            with pytest.raises(ValueError) as got:
                word_symbols(w, k)
            assert str(got.value) == str(e), w
        else:
            assert word_symbols(w, k) == expected, w
    assert 500 < errors < 2500, errors


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
    """Every input minimize() gets in the reference constructions of G_k
    and H_k, k <= 8: the trie star and the product with {1,2}*.  The
    builders themselves minimize only small automata."""
    inputs = []

    def recording(d):
        inputs.append(d)
        return minimize(d)

    monkeypatch.setattr(dfa, "minimize", recording)
    for k in range(1, 9):
        _build_H_k_reference(_build_G_k_reference(k))
    return inputs


def test_minimize_matches_reference_on_block_languages(monkeypatch):
    """The inputs minimize() gets in the reference constructions of G_k and
    H_k, k <= 8, minimize to the reference's bytes; the largest is G_8's
    subset automaton."""
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


def test_constructions_number_states_in_canonical_order():
    """combine, determinize and build_L_k number their states through one
    breadth-first loop, so each output is a fixed point of canonicalize()."""
    rng = random.Random(20261020)
    for i in range(400):
        k = 2 + i % 2
        a, b = random_dfa(rng, max_states=6, k=k), random_dfa(rng, max_states=6, k=k)
        for op in ("and", "or", "and-not", "xor"):
            c = combine(a, b, op)
            assert canonicalize(c) == c, (a, b, op)
    for i in range(400):
        k, n = 2 + i % 2, rng.randrange(1, 7)
        table = [[{t for t in range(n) if rng.random() < 0.3} for _ in range(k)]
                 for _ in range(n)]
        start = {q for q in range(n) if rng.random() < 0.4}
        d = determinize(table, start, {q for q in range(n) if rng.random() < 0.5}, k)
        assert canonicalize(d) == d, (table, start)
    for k in range(1, 13):
        assert canonicalize(build_L_k(k)) == build_L_k(k), k


@given(dfas, words)
@settings(max_examples=60)
def test_reverse_semantics(d, w):
    assert accepts(reverse(d), w) == accepts(d, w[::-1])


def _reverse_reference(d: Dfa) -> Dfa:
    """The reverse() that the membership-vector construction replaced, kept
    as a reference: a reversed NFA of sets, determinize(), then minimize()."""
    n = d.state_count
    rev: list[list[set[int]]] = [[set() for _ in range(d.alphabet_size)] for _ in range(n)]
    for q in range(n):
        for s in range(d.alphabet_size):
            rev[d.transitions[q][s]][s].add(q)
    if not d.accepting:
        return minimize(Dfa(d.alphabet_size, ((0,) * d.alphabet_size,), frozenset()))
    return minimize(determinize(rev, d.accepting, {0}, d.alphabet_size))


@functools.lru_cache(maxsize=None)
def _reverse_cases() -> list[tuple[Dfa, Dfa]]:
    """(d, reverse(d)) on 3 000 random 2- and 3-symbol DFAs with up to 14
    states, accepting none, some or all of their states, then on G_k and
    H_k for k <= 8."""
    rng = random.Random(20261018)
    inputs = []
    for i in range(3000):
        k = 2 + i % 2
        n = rng.randrange(1, 15)
        rows = tuple(tuple(rng.randrange(n) for _ in range(k)) for _ in range(n))
        rate = (0.0, 0.3, 0.5, 1.0)[i // 2 % 4]
        inputs.append(Dfa(k, rows, frozenset(q for q in range(n) if rng.random() < rate)))
    assert sum(d.state_count == 1 for d in inputs) > 100
    assert sum(len(_reachable(d)) < d.state_count for d in inputs) > 1000
    assert sum(not d.accepting for d in inputs) > 700
    assert sum(len(d.accepting) == d.state_count for d in inputs) > 700
    for k in range(1, 9):
        inputs += [build_G_k(k), build_H_k(k)]
    return [(d, reverse(d)) for d in inputs]


def test_reverse_matches_reference():
    """Byte-identical to the set-based reference, on inputs that include
    unreachable states, empty and full accepting sets and one-state DFAs."""
    for d, r in _reverse_cases():
        assert dfa_to_text(r) == dfa_to_text(_reverse_reference(d)), d


def test_reverse_output_is_minimal_and_canonical():
    for d, r in _reverse_cases():
        assert minimize(r) == r, d
        assert canonicalize(r) == r, d


def test_reverse_calls_neither_determinize_nor_minimize(monkeypatch):
    # reverse() is its own subset construction, minimal by construction
    g = build_G_k(8)
    expected = _reverse_reference(g)

    def forbidden(*args, **kwargs):
        raise AssertionError("reverse() must not call determinize() or minimize()")

    monkeypatch.setattr(dfa, "determinize", forbidden)
    monkeypatch.setattr(dfa, "minimize", forbidden)
    assert reverse(g) == expected
    # an unreachable state sends reverse() through canonicalize() first
    d = Dfa(3, ((1, 1, 1), (1, 1, 1), (0, 0, 0)), frozenset({0, 2}))
    assert reverse(d) == Dfa(3, ((1, 1, 1), (1, 1, 1)), frozenset({0}))


def test_reverse_raises_past_its_state_budget(monkeypatch):
    g = build_G_k(5)  # its reversal has 27 states
    full = reverse(g)
    monkeypatch.setattr(dfa, "DEFAULT_DETERMINIZE_BUDGET", 27)
    assert reverse(g) == full
    monkeypatch.setattr(dfa, "DEFAULT_DETERMINIZE_BUDGET", 26)
    with pytest.raises(BudgetError, match="26 subset states"):
        reverse(g)


def test_product_and_L_k_builds_raise_past_the_state_budget(monkeypatch):
    # the one cap binds every construction that numbers new states
    l5 = build_L_k(5)  # 6k + 1 states
    assert l5.state_count == 31
    mod2 = Dfa(2, ((0, 1), (1, 0)), frozenset({0}))
    mod3 = Dfa(2, ((0, 1), (1, 2), (2, 0)), frozenset({0}))
    product = combine(mod2, mod3, "and")
    assert product.state_count == 6
    monkeypatch.setattr(dfa, "DEFAULT_DETERMINIZE_BUDGET", 31)
    assert build_L_k(5) == l5
    monkeypatch.setattr(dfa, "DEFAULT_DETERMINIZE_BUDGET", 30)
    with pytest.raises(BudgetError, match="exceeded 30 states"):
        build_L_k(5)
    monkeypatch.setattr(dfa, "DEFAULT_DETERMINIZE_BUDGET", 6)
    assert combine(mod2, mod3, "and") == product
    monkeypatch.setattr(dfa, "DEFAULT_DETERMINIZE_BUDGET", 5)
    with pytest.raises(BudgetError, match="exceeded 5 states"):
        combine(mod2, mod3, "and")


def test_is_empty_returns_shortest_witness():
    d = Dfa(2, ((1, 0), (1, 2), (2, 2)), frozenset({2}))
    empty, wit = is_empty(d)
    assert not empty and wit == "01"
    dead = Dfa(2, ((0, 0),), frozenset())
    assert is_empty(dead) == (True, None)
    # against brute force: the first accepted word in shortlex order, whose
    # length is below the state count, or None
    rng = random.Random(20261020)
    empties = 0
    for i in range(400):
        k = 2 + i % 2
        n = rng.randrange(1, 9)
        rows = tuple(tuple(rng.randrange(n) for _ in range(k)) for _ in range(n))
        d = Dfa(k, rows, frozenset(q for q in range(n) if rng.random() < 0.15))
        words = ("".join(t) for length in range(n)
                 for t in itertools.product("012"[:k], repeat=length))
        first = next((w for w in words if accepts(d, w)), None)
        assert is_empty(d) == (first is None, first), d
        empties += first is None
    assert 40 < empties < 360


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


def canonical_dfas(p, k):
    """enumerate_canonical's tables as Dfas with no accepting state, lazily."""
    return (Dfa(k, t, frozenset()) for t in enumerate_canonical(p, k))


def test_zpath_matches_its_definition_exhaustively():
    for d in [*canonical_dfas(3, 2), *canonical_dfas(2, 3)]:
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
        for d in canonical_dfas(p, k):
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
    for d in canonical_dfas(4, 2):
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
    for d in canonical_dfas(3, 2):
        assert d.transitions not in seen
        seen.add(d.transitions)
        assert canonicalize(d).transitions == d.transitions


def enumerate_canonical_reference(p: int, alphabet_size: int) -> Iterator[Dfa]:
    """The recursive enumerate_canonical that the explicit-stack walk
    replaced, kept as a reference: it yields a Dfa per structure."""
    if p < 1:
        raise ValueError("p must be >= 1")
    k = alphabet_size

    def rec(rows: list[list[int]], m: int, idx: int) -> Iterator[Dfa]:
        if idx == m * k:
            yield Dfa(k, tuple(tuple(r) for r in rows), frozenset())
            return
        q, a = divmod(idx, k)
        limit = m + 1 if m < p else m
        for t in range(limit):
            grew = t == m
            if grew:
                rows.append([0] * k)
            rows[q][a] = t
            yield from rec(rows, m + 1 if grew else m, idx + 1)
            if grew:
                rows.pop()

    yield from rec([[0] * k], 1, 0)


@pytest.mark.parametrize("p,k", [(1, 2), (2, 2), (3, 2), (4, 2), (1, 3), (2, 3), (3, 3)])
def test_canonical_walk_matches_the_recursive_reference(p, k):
    """Same tables in the same order; each builds a valid Dfa that is its
    own canonicalize fixed point."""
    tables = list(enumerate_canonical(p, k))
    assert tables == [d.transitions for d in enumerate_canonical_reference(p, k)]
    for t in tables:
        assert type(t) is tuple and all(type(row) is tuple for row in t)
        assert canonicalize(Dfa(k, t, frozenset())).transitions == t


def test_canonical_count_at_five_binary_states():
    assert canonical_count(5, 2) == 166_152


@pytest.mark.parametrize("p,k,message", [
    (0, 2, "p must be >= 1"),
    (-1, 3, "p must be >= 1"),
    (2, 1, "alphabet_size must be 2 or 3, got 1"),
    (2, 4, "alphabet_size must be 2 or 3, got 4"),
])
def test_canonical_enumeration_guards(p, k, message):
    """Bad arguments raise at the first next(), before any table."""
    walk = enumerate_canonical(p, k)
    with pytest.raises(ValueError) as info:
        next(walk)
    assert str(info.value) == message


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


@pytest.mark.parametrize("text", [
    "dfa 2 1\naccepting 0\nstate :\n",  # a state line with no id
    "dfa 2 1\naccepting 0\nstate 0 0: 0 0\n",  # two ids
    "dfa 2 999999999999\naccepting 0\nstate 0: 0 0\n",  # a huge state count
    "dfa 2\naccepting 0\nstate 0: 0 0\n",
    "dfa 2 1\naccepting x\nstate 0: 0 0\n",
])
def test_text_format_raises_value_error_on_malformed_text(text):
    with pytest.raises(ValueError):
        dfa_from_text(text)


def test_text_format_raises_only_value_error_on_any_one_edit():
    # every single-character deletion, and every replacement of one
    # character by a token, either parses or raises ValueError
    text = dfa_to_text(build_G_k(1), provenance="G_1")
    tokens = ["", " ", ":", "\n", "0", "7", "-1", "x", "#", "dfa ", "state ",
              "accepting", "999999999999"]
    for i in range(len(text)):
        for token in tokens:
            try:
                dfa_from_text(text[:i] + token + text[i + 1:])
            except ValueError:
                pass
