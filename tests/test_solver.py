"""Exact separation-number solver tests."""

import itertools
import json
import math
import os
import random
import subprocess
import sys
import time

import pytest

from sepwords import solver
from sepwords.construct import _cn_candidates, _cn_word, canonical_triple, search_C_n
from sepwords.dfa import (BudgetError, Dfa, accepts, combine, enumerate_canonical, reverse,
                          run, word_symbols)
from sepwords.lang import (
    _reversed_H_k,
    build_G_k,
    build_H_k,
    finite_language,
    is_zero_free,
    iter_words,
    segmented_closure,
)
from sepwords.solver import (
    DEFAULT_BUDGET,
    SearchBudget,
    SearchCounters,
    SepCertificate,
    check_separates,
    exact_sep,
    lsep_lower_check,
    no_separator_up_to,
    reached_by_language,
    run_table,
    separating_structure,
)
from reference import lsep_per_table, raw_separable
from test_dfa import canonical_dfas, random_dfa


def recursive_distinguishing_structure(
    w: list[int], x: list[int], p: int, k: int, counters: SearchCounters
):
    """A canonical p-state structure with different end states on w and x.

    Returns a complete transition table (unconstrained entries point at
    state 0) or None after exhausting all canonical partial structures.

    The recursive search over a (state, symbol) dict that the
    explicit-stack kernel replaced, walking all of w and then all of x
    from state 0.  solver._distinguishing_structure walks pairs with no
    shared part longer than one symbol in this order, so it gives the
    same tables and node counts there, and the same verdict on every
    pair.
    """
    trans: dict[tuple[int, int], int] = {}
    words = (w, x)

    def step(wi: int, pos: int, state: int, used: int, endw: int):
        counters.tick()
        word = words[wi]
        while pos < len(word):
            key = (state, word[pos])
            t = trans.get(key)
            if t is None:
                for t in range(min(used + 1, p)):
                    trans[key] = t
                    res = step(wi, pos + 1, t, max(used, t + 1), endw)
                    del trans[key]
                    if res is not None:
                        return res
                return None
            state = t
            pos += 1
        if wi == 0:
            return step(1, 0, 0, used, state)
        if state != endw:
            return tuple(
                tuple(trans.get((q, a), 0) for a in range(k)) for q in range(p)
            )
        return None

    return step(0, 0, 0, 1, -1)


def shared_ends(w: list[int], x: list[int]) -> tuple[int, int]:
    """The lengths of the prefix and then the suffix that the kernel reads
    once: when both words are longer than 8 symbols and one part is
    longer than one symbol, else (0, 0).  The suffix is the shared
    suffix of what follows the prefix in each word."""
    if len(w) <= 8 or len(x) <= 8:
        return 0, 0
    pre = len(os.path.commonprefix([w, x]))
    suf = len(os.path.commonprefix([w[pre:][::-1], x[pre:][::-1]]))
    return (pre, suf) if pre > 1 or suf > 1 else (0, 0)


def segment_order_reference(
    w: list[int], x: list[int], p: int, k: int, counters: SearchCounters,
    cuts: list | None = None,
):
    """Reference for solver._distinguishing_structure: the recursive
    search in the kernel's order.  It walks the shared prefix to a state
    mid, w's middle from mid to rejoin, and x's middle from mid, cut
    where it ends in rejoin; then the shared suffix from rejoin to w's
    end, and from x's state.  A cut that skips a nonempty suffix is
    appended to cuts, when given.  A node is
    one call of `step`: a walk resumed at a branch, or the start of x's
    middle.
    """
    pre, suf = shared_ends(w, x)
    suffix = w[len(w) - suf:]
    segs = (w[:pre], w[pre:len(w) - suf], x[pre:len(x) - suf], suffix, suffix)
    trans: dict[tuple[int, int], int] = {}

    def step(si: int, pos: int, state: int, used: int, ends: tuple):
        # ends: the end state of each segment before si
        counters.tick()
        while True:
            seg = segs[si]
            while pos < len(seg):
                key = (state, seg[pos])
                t = trans.get(key)
                if t is None:
                    for t in range(min(used + 1, p)):
                        trans[key] = t
                        res = step(si, pos + 1, t, max(used, t + 1), ends)
                        del trans[key]
                        if res is not None:
                            return res
                    return None
                state = t
                pos += 1
            ends += (state,)
            if si == 4:
                if state == ends[3]:
                    return None
                return tuple(
                    tuple(trans.get((q, a), 0) for a in range(k)) for q in range(p)
                )
            if si == 2 and state == ends[1]:
                if cuts is not None and suffix:
                    cuts.append(ends)
                return None
            si, pos = si + 1, 0
            state = ends[(0, 0, 0, 1, 2)[si]]  # segment si starts where this one ended
            if si == 2:
                return step(si, pos, state, used, ends)

    return step(0, 0, 0, 1, ())


def lsep_forbidden_states(structure: Dfa, l: Dfa) -> frozenset[int]:
    """Structure states reachable by some word of the language.

    Full-BFS reference for reached_by_language: the product of the
    structure with l is explored to completion.
    """
    k = structure.alphabet_size
    if l.alphabet_size < k:
        raise ValueError("language alphabet smaller than structure alphabet")
    seen = {(0, 0)}
    stack = [(0, 0)]
    forbidden = set()
    while stack:
        q, lq = stack.pop()
        if lq in l.accepting:
            forbidden.add(q)
        for a in range(k):
            t = (structure.transitions[q][a], l.transitions[lq][a])
            if t not in seen:
                seen.add(t)
                stack.append(t)
    return frozenset(forbidden)


def test_budget_validation():
    with pytest.raises(ValueError):
        SearchBudget(max_states=0)
    with pytest.raises(ValueError):
        SearchBudget(wall_limit=0)
    with pytest.raises(ValueError):  # nan > 0 is False, yet so is nan <= 0
        SearchBudget(wall_limit=float("nan"))


def test_equal_words_rejected():
    with pytest.raises(ValueError):
        exact_sep("01", "01")
    with pytest.raises(ValueError):
        no_separator_up_to("", "", 2)


@pytest.mark.parametrize("p", [0, -1])
def test_separator_search_rejects_a_state_count_below_one(p):
    for search in (separating_structure, no_separator_up_to):
        with pytest.raises(ValueError, match=f"p must be >= 1, got {p}"):
            search("01", "10", p)
    with pytest.raises(ValueError, match=f"p must be >= 1, got {p}"):
        lsep_lower_check("112", _reversed_H_k(2), p)


def test_one_state_search_runs_no_kernel_yet_checks_the_words():
    # one state ends every word in it, so no pair of distinct words has a
    # 1-state separator
    words = [""] + ["".join(t) for n in (1, 2, 3) for t in itertools.product("012", repeat=n)]
    for w, x in itertools.combinations(words, 2):
        counters = SearchCounters(DEFAULT_BUDGET)
        assert separating_structure(w, x, 1, counters) is None
        assert counters.nodes == 0
    for w, x in (("01", "01"), ("", ""), ("01", "31"), ("0a", "1")):
        with pytest.raises(ValueError):
            separating_structure(w, x, 1)


def test_a_starved_search_still_proves_two_states():
    starved = SearchBudget(max_nodes=1)
    words = [""] + ["".join(t) for n in (1, 2, 3) for t in itertools.product("012", repeat=n)]
    for w, x in itertools.combinations(words, 2):
        if len(set(w + x)) < 2:  # unary: the formula, not the search
            continue
        cert = exact_sep(w, x, budget=starved)
        assert cert.lower >= 2, (w, x)
        assert cert.lower_method == "exhaustive-canonical"


def test_small_known_values():
    assert exact_sep("01", "10").value == 2
    assert exact_sep("", "0").value == 2
    assert exact_sep("0", "1").value == 2


def test_unary_known_values():
    # runs differing by 6: the least non-divisor of 6 is 4, capped by a+2
    assert exact_sep("0", "0" * 7).value == 3
    assert exact_sep("00", "0" * 122).value == 4  # 2..6 all divide 120
    assert exact_sep("", "0" * 6).value == 2  # the short side has length 0


def searched_sep(w, x, budget=DEFAULT_BUDGET):
    """sep(w, x) by exhaustive search alone: the first level up to
    budget.max_states with a separating structure, or None."""
    return next((p for p in range(1, budget.max_states + 1)
                 if separating_structure(w, x, p, SearchCounters(budget)) is not None), None)


def test_unary_fast_path_matches_search():
    rng = random.Random(7)
    for _ in range(30):
        a = rng.randrange(0, 7)
        b = rng.randrange(0, 12)
        if a == b:
            continue
        w, x = "1" * a, "1" * b
        fast = exact_sep(w, x).value
        slow = searched_sep(w, x)
        assert fast == slow, (a, b)


def test_unary_formula_matches_search_on_every_short_pair():
    # exact_sep proves a unary pair's lower bound by this formula alone
    for a in range(60):
        for b in range(a + 1, 130):
            assert solver._unary_sep(a, b) == searched_sep("0" * a, "0" * b), (a, b)


@pytest.mark.parametrize("a, b, sep", [
    (1000, 1060, 7),  # runs the kernel jumps
    (4, 4 + math.factorial(9), 6),
])
def test_unary_formula_matches_search_on_long_runs(a, b, sep):
    assert solver._unary_sep(a, b) == searched_sep("0" * a, "0" * b) == sep


def test_unary_formula_matches_search_on_a_ternary_pair():
    assert solver._unary_sep(1, 3) == searched_sep("2", "222") == 3


def test_unary_formula_is_exact_past_the_default_state_cap():
    w, x = "0" * 12, "0" * 27732  # 27 720 = lcm(1..12)
    assert searched_sep(w, x) is None  # no table at the default 12 states
    assert searched_sep(w, x, SearchBudget(max_states=13)) == 13
    assert solver._unary_sep(12, 27732) == 13
    cert = exact_sep(w, x)
    assert cert.value == 13 and cert.lower_method == "unary-analytic"


def test_certificate_witness_separates():
    for w, x in (("0110", "1001"), ("0", "0000000"), ("", "010")):
        cert = exact_sep(w, x)
        assert cert.exact
        assert cert.witness is not None
        assert cert.witness.state_count == cert.value
        assert check_separates(cert.witness, w, x)
        # minimality: exhaustion one level below
        assert no_separator_up_to(w, x, cert.value - 1)


def test_solver_agrees_with_raw_oracle():
    words = [""] + ["".join(t) for L in range(1, 4)
                    for t in itertools.product("01", repeat=L)]
    for w, x in itertools.combinations(words, 2):
        ws, xs = [int(c) for c in w], [int(c) for c in x]
        for p in (1, 2):
            table = separating_structure(w, x, p)
            assert (table is not None) == raw_separable(w, x, p)
            assert no_separator_up_to(w, x, p) == (table is None)
            if table is not None:
                assert len(table) <= p
                assert run_table(table, ws) != run_table(table, xs)


def test_shared_counters_pool_nodes_across_searches():
    w, x = "0011" * 4, "1100" * 4
    counters = SearchCounters(DEFAULT_BUDGET)
    assert separating_structure(w, x, 3, counters=counters) is not None
    one = counters.nodes
    separating_structure(w, x, 3, counters=counters)
    assert counters.nodes == 2 * one
    starved = SearchCounters(SearchBudget(max_nodes=one + 1))
    separating_structure(w, x, 3, counters=starved)
    with pytest.raises(BudgetError):
        separating_structure(w, x, 3, counters=starved)


_BROKEN_CHECK = """
from sepwords import solver
solver.check_separates = lambda d, w, x: False
try:
    solver.exact_sep("01", "10")
except AssertionError:
    raise SystemExit(0)
raise SystemExit("exact_sep returned a certificate with an unchecked witness")
"""


def test_exact_sep_guard_survives_python_O():
    # python -O strips assert statements; the witness guard must still raise
    src = os.path.dirname(os.path.dirname(solver.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", _BROKEN_CHECK],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_certificate_json_roundtrip():
    cert = exact_sep("001", "100")
    back = SepCertificate.from_json(cert.to_json())
    assert (back.w, back.x, back.lower, back.upper) == (
        cert.w, cert.x, cert.lower, cert.upper)
    assert back.witness == cert.witness
    assert back.exact


_GOOD_CERTIFICATE = json.loads(exact_sep("0", "000").to_json())


@pytest.mark.parametrize("text", [
    "5", "[1]", "null", '"x"', '{"w": "0"}',
    json.dumps(dict(_GOOD_CERTIFICATE, witness=5)),
    json.dumps(dict(_GOOD_CERTIFICATE, nodes="many")),
    json.dumps(dict(_GOOD_CERTIFICATE, nodes=True)),
    json.dumps(dict(_GOOD_CERTIFICATE, nodes=-1)),
    json.dumps(dict(_GOOD_CERTIFICATE, lower=-5, upper=99)),
    json.dumps(dict(_GOOD_CERTIFICATE, lower=0, upper=0)),
    json.dumps(dict(_GOOD_CERTIFICATE, lower=4, upper=3)),
], ids=["int", "list", "null", "string", "missing-fields", "int-witness",
        "string-nodes", "bool-nodes", "negative-nodes",
        "negative-lower", "zero-bounds", "lower-above-upper"])
def test_certificate_from_malformed_json_raises_value_error(text):
    with pytest.raises(ValueError):
        SepCertificate.from_json(text)


def test_budget_bounded_certificate():
    tiny = SearchBudget(max_states=2)
    cert = exact_sep("0010", "1000", budget=tiny)
    assert not cert.exact
    assert cert.lower == 3  # exhausted 2 states
    assert cert.upper >= cert.lower
    with pytest.raises(ValueError):
        cert.value


_ONE_STATE = SearchBudget(max_states=1)
_TWO_STATES = SearchBudget(max_states=2)

# to_dict() of one certificate per witness builder, as
# computed before the builders returned bare tables
PINNED_CERTIFICATES = [
    # search
    (("0110", "1001", DEFAULT_BUDGET),
     {'w': '0110', 'x': '1001', 'lower': 2, 'upper': 2, 'exact': True,
      'witness': 'dfa 2 2\naccepting 0\nstate 0: 0 1\nstate 1: 0 0\n',
      'lower_method': 'exhaustive-canonical', 'nodes': 8}),
    # search, ternary
    (("012", "210", DEFAULT_BUDGET),
     {'w': '012', 'x': '210', 'lower': 2, 'upper': 2, 'exact': True,
      'witness': 'dfa 3 2\naccepting 1\nstate 0: 0 0 1\nstate 1: 0 0 0\n',
      'lower_method': 'exhaustive-canonical', 'nodes': 8}),
    # unary chain
    (("0", "0000000", DEFAULT_BUDGET),
     {'w': '0', 'x': '0000000', 'lower': 3, 'upper': 3, 'exact': True,
      'witness': 'dfa 2 3\naccepting 1\nstate 0: 1 0\nstate 1: 2 1\nstate 2: 2 2\n',
      'lower_method': 'unary-analytic', 'nodes': 0}),
    # unary cycle
    (("000", "0000", DEFAULT_BUDGET),
     {'w': '000', 'x': '0000', 'lower': 2, 'upper': 2, 'exact': True,
      'witness': 'dfa 2 2\naccepting 1\nstate 0: 1 0\nstate 1: 0 1\n',
      'lower_method': 'unary-analytic', 'nodes': 0}),
    # mod-counter by length
    (("01", "0001", _ONE_STATE),
     {'w': '01', 'x': '0001', 'lower': 2, 'upper': 3, 'exact': False,
      'witness': 'dfa 2 3\naccepting 2\nstate 0: 1 1\nstate 1: 2 2\nstate 2: 0 0\n',
      'lower_method': 'exhaustive-canonical', 'nodes': 0}),
    # mod-counter by symbol
    (("00", "11", _ONE_STATE),
     {'w': '00', 'x': '11', 'lower': 2, 'upper': 3, 'exact': False,
      'witness': 'dfa 2 3\naccepting 2\nstate 0: 1 0\nstate 1: 2 1\nstate 2: 0 2\n',
      'lower_method': 'exhaustive-canonical', 'nodes': 0}),
    # trivial separator
    (("0010", "1000", _TWO_STATES),
     {'w': '0010', 'x': '1000', 'lower': 3, 'upper': 6, 'exact': False,
      'witness': 'dfa 2 6\naccepting 4\nstate 0: 1 5\nstate 1: 2 5\nstate 2: 5 3\n'
                 'state 3: 4 5\nstate 4: 5 5\nstate 5: 5 5\n',
      'lower_method': 'exhaustive-canonical', 'nodes': 24}),
]


@pytest.mark.parametrize("args,expected", PINNED_CERTIFICATES,
                         ids=["search", "search-ternary", "unary-chain", "unary-cycle",
                              "mod-length", "mod-symbol", "trivial"])
def test_certificates_are_pinned_per_witness_builder(args, expected):
    cert = exact_sep(*args)
    assert cert.to_dict() == expected


def test_node_budget_raises_only_inside_search():
    # a 1-node budget still resolves pairs settled by analytic paths
    starved = SearchBudget(max_nodes=1)
    assert exact_sep("0", "00", budget=starved).exact
    cert = exact_sep("0101", "1010", budget=starved)
    assert cert.lower <= cert.upper  # degrades to bounds, never raises
    assert isinstance(cert, SepCertificate)


@pytest.mark.parametrize("w,x", [("01", "0001"), ("2101", "2011")])
def test_a_budget_bounded_certificate_reports_at_most_its_budget(w, x):
    # the node that trips the budget raises uncharged
    for m in range(1, 14):
        cert = exact_sep(w, x, budget=SearchBudget(max_nodes=m))
        assert not cert.exact and cert.nodes == m, m


def test_a_tick_past_the_budget_names_the_node_but_does_not_charge_it():
    counters = SearchCounters(SearchBudget(max_nodes=2))
    counters.tick()
    counters.tick()
    with pytest.raises(BudgetError, match="^node budget exhausted at 3 nodes$"):
        counters.tick()
    assert counters.nodes == 2


def test_check_separates():
    parity = Dfa(2, ((1, 0), (0, 1)), frozenset({1}))  # odd number of 0s
    assert check_separates(parity, "0", "00")
    assert not check_separates(parity, "00", "0")
    assert not check_separates(parity, "0", "000")


def test_lsep_forbidden_states():
    lang = finite_language(["1", "22"])
    # 1-state structure: its only state is reachable by every word
    one = Dfa(3, ((0, 0, 0),), frozenset())
    assert lsep_forbidden_states(one, lang) == frozenset({0})


def test_lsep_lower_check_known_instances():
    assert lsep_lower_check("112", reverse(build_H_k(1)), 1)
    assert lsep_lower_check("112", reverse(build_H_k(2)), 3)
    # a 4-state acceptor avoiding the level-2 complement exists
    assert not lsep_lower_check("112", reverse(build_H_k(2)), 4)


def test_lsep_lower_check_matches_direct_ternary_check():
    """The {1,2} projection agrees with checking every ternary structure."""
    ends_with_0 = Dfa(3, ((1, 0, 0), (1, 0, 0)), frozenset({1}))
    # the last two are not 0-free; the last has no 0-free word, so
    # projecting it to {1,2} would wrongly empty it
    langs = [build_H_k(1), build_H_k(2), finite_language(["1", "22"]),
             segmented_closure(finite_language(["1"])), ends_with_0]
    words = ["".join(t) for n in range(5) for t in itertools.product("12", repeat=n)]
    cases = 0
    for lang in langs:
        for w in words:
            if accepts(lang, w):
                continue
            for p in (1, 2, 3):
                direct = all(run(s, 0, w) in lsep_forbidden_states(s, lang)
                             for s in canonical_dfas(p, 3))
                assert lsep_lower_check(w, reverse(lang), p) == direct, (w, p)
                cases += 1
    assert cases == 285


def test_lsep_lower_check_words_with_0_use_ternary_structures():
    """A word with a 0 is checked over all three symbols even when the
    language is 0-free, so the {1,2} projection never applies to it."""
    words = ["".join(t) for n in range(1, 4) for t in itertools.product("012", repeat=n)
             if "0" in t]
    cases = 0
    for lang in (build_H_k(1), finite_language(["1", "22"])):
        for w in words:
            if accepts(lang, w):
                continue
            for p in (1, 2, 3):
                direct = all(run(s, 0, w) in lsep_forbidden_states(s, lang)
                             for s in canonical_dfas(p, 3))
                assert lsep_lower_check(w, reverse(lang), p) == direct, (w, p)
                cases += 1
    assert cases > 100


def _check_early_exit_per_state(lang, structures):
    """reached_by_language, given the {1,2} projection of the reversal,
    agrees with the full forward BFS on every state of every structure;
    returns the full BFS's forbidden sets and the number of states other
    than the start that no word of the language reaches.

    Words of H_k reach every state but some starts, so only a language
    with such misses, like G_k, shows a search that ignores acceptance.
    """
    proj = solver._zero_free_projection(lang)
    rproj = solver._zero_free_projection(reverse(lang))
    forbidden = {s: lsep_forbidden_states(s, proj) for s in structures}
    missed = 0
    for s in structures:
        for q in range(s.state_count):
            assert reached_by_language(s, rproj, q) == (q in forbidden[s]), (s, q)
            missed += q != 0 and q not in forbidden[s]
    return forbidden, missed


def _full_bfs_lsep(ws, structures, forbidden):
    """lsep_lower_check's answer from whole forbidden-state sets."""
    return all(run_table(s.transitions, ws) in forbidden[s] for s in structures)


@pytest.mark.parametrize("k", [4, 6, 8])
def test_early_exit_matches_full_bfs_on_block_languages(k):
    """On H_k, and on G_k as the language, reached_by_language and
    lsep_lower_check agree with the full BFS for every structure with
    <= 3 states and every nonempty word of length <= 6 of the other."""
    structures = {p: list(canonical_dfas(p, 2)) for p in (1, 2, 3)}
    g, h = build_G_k(k), build_H_k(k)
    for lang, others in ((h, g), (g, h)):
        forbidden, missed = _check_early_exit_per_state(lang, structures[3])
        assert missed > 0 or lang is h
        words = [w for w in iter_words(others, 6) if w]
        assert len(words) >= 3
        rev = reverse(lang)
        for w in words:
            ws = [ord(c) - 49 for c in w]
            for p in (1, 2, 3):
                expected = _full_bfs_lsep(ws, structures[p], forbidden)
                assert lsep_lower_check(w, rev, p) == expected, (w, p)


def test_early_exit_matches_full_bfs_at_k_10():
    """z = 112 on H_10 for p <= 3; every state on H_10 for p <= 3 and on
    G_10 for p <= 2, where three states are missed."""
    structures = list(canonical_dfas(3, 2))
    two = list(canonical_dfas(2, 2))
    assert _check_early_exit_per_state(build_G_k(10), two)[1] == 3
    h = build_H_k(10)
    forbidden, _ = _check_early_exit_per_state(h, structures)
    ws = [0, 0, 1]  # 112 over the projected symbols
    for p in (1, 2, 3):
        expected = _full_bfs_lsep(ws, canonical_dfas(p, 2), forbidden)
        assert lsep_lower_check("112", reverse(h), p) == expected


def test_reached_by_language_on_products_of_two_structures():
    """On every state of seeded products of two ternary structures with
    <= 3 states, the shape the kebab check searches, the backward search
    over the small source of H_4, and over the reversal of random
    3-symbol languages that are not 0-free, agrees with the full forward
    BFS."""
    rng = random.Random(20261020)
    structs = [Dfa(3, t, frozenset()) for t in enumerate_canonical(3, 3)]
    pairs = [combine(rng.choice(structs), rng.choice(structs), "and")
             for _ in range(300)]
    h, small = build_H_k(4), _reversed_H_k(4)
    langs = [(h, small)]
    while len(langs) < 21:
        l = random_dfa(rng, 4, 3)
        if not is_zero_free(l):
            langs.append((l, reverse(l)))
    states = 0
    for i, pair in enumerate(pairs):
        for l, rev in (langs[0], langs[1 + i % 20]):
            forbidden = lsep_forbidden_states(pair, l)
            for q in range(pair.state_count):
                assert reached_by_language(pair, rev, q) == (q in forbidden), (i, q)
                states += 1
    assert states > 1000


def _lsep_dfs_reference(w, reversal, p):
    """lsep_lower_check's answer and node count from a recursive DFS over
    the same partial rows: each node walks w again from state 0 and, once
    w's walk is assigned, runs _reached from its end; it branches on w's
    first unassigned entry, else on the first unassigned entry of a
    numbered state, over the used states plus one fresh state."""
    proj = solver._zero_free_projection(reversal) if "0" not in w else None
    if proj is not None:
        k, ws = 2, [ord(c) - 49 for c in w]
    else:
        k, proj = reversal.alphabet_size, reversal
        ws = word_symbols(w, k)
    rows = [[-1] * k for _ in range(p)]
    nodes = 0

    def refuted(used):
        nonlocal nodes
        nodes += 1
        end, entry = 0, None
        for a in ws:
            if rows[end][a] < 0:
                entry = (end, a)
                break
            end = rows[end][a]
        if entry is None:
            if solver._reached(rows, proj, end):
                return True
            entry = next(((q, a) for q in range(used) for a in range(k) if rows[q][a] < 0),
                         None)
            if entry is None:
                return False
        q, a = entry
        for t in range(min(used + 1, p)):
            rows[q][a] = t
            if not refuted(max(used, t + 1)):
                return False
        rows[q][a] = -1
        return True

    return refuted(1), nodes


class _TickCounters(SearchCounters):
    """SearchCounters that also count the calls of tick()."""

    __slots__ = ("ticks",)

    def __init__(self, budget):
        super().__init__(budget)
        self.ticks = 0

    def tick(self):
        self.ticks += 1
        super().tick()


def test_lsep_lower_check_charges_one_node_per_dfs_node():
    """Each node of the search is one counters.tick(), and the answers and
    node counts equal the recursive reference's, on 0-free words
    (projected to two symbols) and on words with a 0 (three).  A budget
    of N nodes short of the count raises BudgetError with N charged, and
    a budget of the count suffices."""
    cases = 0
    for k in (1, 2, 3):
        h = _reversed_H_k(k)
        zs = [w for w in iter_words(build_G_k(k), 7) if w] + ["0", "102", "2101"]
        for z in zs:
            for p in (1, 2, 3, 4):
                c = _TickCounters(DEFAULT_BUDGET)
                got = lsep_lower_check(z, h, p, counters=c)
                assert (got, c.nodes) == _lsep_dfs_reference(z, h, p), (k, z, p)
                assert c.ticks == c.nodes
                cases += 1
    assert cases > 40
    h = _reversed_H_k(3)
    for w, p in (("1111112", 7), ("112", 4), ("102", 3)):
        c = SearchCounters(DEFAULT_BUDGET)
        verdict = lsep_lower_check(w, h, p, counters=c)
        total = c.nodes
        for n in range(1, total):
            c = SearchCounters(SearchBudget(max_nodes=n))
            with pytest.raises(BudgetError, match=f"at {n + 1} nodes"):
                lsep_lower_check(w, h, p, counters=c)
            assert c.nodes == n
        c = SearchCounters(SearchBudget(max_nodes=total))
        assert lsep_lower_check(w, h, p, counters=c) == verdict
        assert c.nodes == total


def _zero_free(rng, n):
    """A random 3-symbol DFA whose symbol 0 leads every state to a dead
    sink, so its language is 0-free."""
    d = random_dfa(rng, n, 3)
    dead = d.state_count
    rows = tuple((dead, *row[1:]) for row in d.transitions) + ((dead,) * 3,)
    return Dfa(3, rows, d.accepting)


def test_lsep_lower_check_matches_the_per_table_oracle():
    """The same verdict as reference.lsep_per_table, which runs w on every
    canonical table: on H_k for k <= 4, 0-free words at p <= 4 and words
    with a 0 at p <= 3, with one p = 5 case; and on random 3-symbol
    reversals, 0-free or not, with random words of both kinds, at p <= 4
    where the check runs over two symbols and p <= 3 where over three."""
    verdicts = {True: 0, False: 0}

    def check(w, rev, p):
        if accepts(rev, w[::-1]):
            return
        got = lsep_lower_check(w, rev, p)
        assert got == lsep_per_table(w, rev, p), (w, rev, p)
        verdicts[got] += 1

    for k in range(1, 5):
        h = _reversed_H_k(k)
        for w in [w for w in iter_words(build_G_k(k), 9) if w][:6]:
            for p in (1, 2, 3, 4):
                check(w, h, p)
            for i in range(0, len(w) + 1, 3):
                for p in (1, 2, 3):
                    check(w[:i] + "0" + w[i:], h, p)
    assert lsep_lower_check("11112", _reversed_H_k(3), 5)
    assert lsep_per_table("11112", _reversed_H_k(3), 5)
    rng = random.Random(20261022)
    revs = [_zero_free(rng, 4) if i % 2 else random_dfa(rng, 4, 3) for i in range(36)]
    assert any(is_zero_free(r) for r in revs) and not all(is_zero_free(r) for r in revs)
    for rev in revs:
        for _ in range(12):
            w = "".join(rng.choice("012" if rng.random() < 0.4 else "12")
                        for _ in range(rng.randrange(7)))
            binary = "0" not in w and is_zero_free(rev)
            for p in ((1, 2, 3, 4) if binary else (1, 2, 3)):
                check(w, rev, p)
    assert min(verdicts.values()) > 100, verdicts


def _lsep_or_member(w, l, p):
    try:
        return lsep_lower_check(w, l, p)
    except ValueError:
        return "member"


def test_lsep_lower_check_on_the_small_source_matches_the_eager_H_k():
    """Random 0-free words, members of H_k included, read through the
    projection to {1,2}, and the same words with a 0 put in, read over
    three symbols: the same verdict on the small source _reversed_H_k as
    on the reversal of build_H_k, for k <= 4 and p <= 3.  On 0-free words
    at these sizes the verdict is True for every non-member."""
    rng = random.Random(20261019)
    verdicts = {True: set(), False: set()}
    for k in range(1, 5):
        h, small = reverse(build_H_k(k)), _reversed_H_k(k)
        for _ in range(25):
            w = "".join(rng.choice("12") for _ in range(rng.randrange(1, 11)))
            i = rng.randrange(len(w) + 1)
            for v in (w, w[:i] + "0" + w[i:]):
                for p in (1, 2, 3):
                    got = _lsep_or_member(v, small, p)
                    assert got == _lsep_or_member(v, h, p), (k, v, p)
                    verdicts["0" not in v].add(got)
    assert verdicts == {True: {True, "member"}, False: {True, False}}


def test_lsep_rejects_member_word():
    with pytest.raises(ValueError):
        lsep_lower_check("2112", reverse(build_H_k(1)), 1)


def test_no_separator_up_to_monotone():
    w, x = "0011", "1100"
    results = [no_separator_up_to(w, x, p) for p in (1, 2, 3)]
    # once a separator exists it exists at every larger level
    assert results == sorted(results, reverse=True)


def _kernel_outcome(kernel, w, x, p, counters):
    """(table or None or the BudgetError text, nodes charged) of one search."""
    k = 3 if "2" in w + x else 2
    try:
        out = kernel(word_symbols(w, k), word_symbols(x, k), p, k, counters)
    except BudgetError as e:
        out = str(e)
    return out, counters.nodes


def _kernel_against_references(w, x, p, cuts=None):
    """The kernel's outcome, checked against both references: equal to
    the segment-order reference's (which appends its cuts to cuts), the
    same verdict as the whole-walk reference, and equal to its outcome
    too when no part is shared."""
    new = _kernel_outcome(solver._distinguishing_structure, w, x, p,
                          SearchCounters(DEFAULT_BUDGET))
    ref = _kernel_outcome(lambda *args: segment_order_reference(*args, cuts), w, x, p,
                          SearchCounters(DEFAULT_BUDGET))
    assert new == ref, (w, x, p)
    whole = _kernel_outcome(recursive_distinguishing_structure, w, x, p,
                            SearchCounters(DEFAULT_BUDGET))
    assert (new[0] is None) == (whole[0] is None), (w, x, p)
    k = 3 if "2" in w + x else 2
    if shared_ends(word_symbols(w, k), word_symbols(x, k)) == (0, 0):
        assert new == whole, (w, x, p)
    return new


def _search_against_kernel(w, x, p):
    """(solver._search's table or None, the kernel's) on one pair: the
    same verdict, and a table of _search's has p states and sends w and x
    to different states."""
    k = 3 if "2" in w + x else 2
    ws, xs = word_symbols(w, k), word_symbols(x, k)
    table = solver._search(ws, xs, p, k, SearchCounters(DEFAULT_BUDGET))
    kernel = solver._distinguishing_structure(ws, xs, p, k, SearchCounters(DEFAULT_BUDGET))
    assert (table is None) == (kernel is None), (w, x, p)
    if table is not None:
        assert len(table) == p and all(len(row) == k for row in table), (w, x, p)
        assert run_table(table, ws) != run_table(table, xs), (w, x, p)
    return table, kernel


def test_kernel_matches_recursive_reference_on_random_pairs():
    """Equal tables and equal node counts on seeded binary and ternary
    pairs, against the whole-walk reference too where no part is
    shared."""
    rng = random.Random(2026)
    searched = nodes = 0
    for _ in range(600):
        alphabet = rng.choice(("01", "012"))
        w, x = ("".join(rng.choice(alphabet) for _ in range(rng.randrange(14)))
                for _ in range(2))
        if w == x:
            continue
        for p in (1, 2, 3, 4):
            new = _kernel_against_references(w, x, p)
            searched += 1
            nodes += new[1]
    assert searched > 2000 and nodes > 20_000


_RUN_LENGTHS = (1, 2, 3, 5, 8, 13, 40, 200)


def _random_runs(rng, alphabet):
    """1 to 4 runs [symbol, length], neighbours on different symbols."""
    runs, prev = [], None
    for _ in range(rng.randrange(1, 5)):
        a = rng.choice([c for c in alphabet if c != prev])
        runs.append([a, rng.choice(_RUN_LENGTHS)])
        prev = a
    return runs


def test_kernel_matches_recursive_reference_on_long_runs():
    """Equal tables and node counts on seeded pairs built from runs of
    lengths 1..200, so that most searches read runs longer than 8p, which
    the kernel jumps; half of the pairs differ in one run length only."""
    rng = random.Random(2026)
    searched = nodes = jumped = 0
    for _ in range(150):
        alphabet = rng.choice(("01", "012"))
        rw = _random_runs(rng, alphabet)
        if rng.random() < 0.5:
            rx = _random_runs(rng, alphabet)
        else:
            rx = [list(r) for r in rw]
            rng.choice(rx)[1] = rng.choice(_RUN_LENGTHS)
        w, x = ("".join(a * m for a, m in runs) for runs in (rw, rx))
        if w == x:
            continue
        for p in (1, 2, 3, 4, 5):
            new = _kernel_against_references(w, x, p)
            searched += 1
            nodes += new[1]
            jumped += any(m > 8 * p for _, m in rw + rx)
    assert searched > 600 and jumped > 400 and nodes > 12_000


@pytest.mark.parametrize("seed", range(6))
def test_kernel_is_blind_to_whole_laps_of_a_long_run(seed):
    """u 0^a v and u 0^b v (a, b >= p) give the same table and node count
    as with a and b raised by 600 000, a multiple of every cycle length
    up to 5: after p steps a run is on a cycle of length at most p.  A
    kernel that walked every symbol would need minutes here."""
    rng = random.Random(seed)
    alphabet = "012" if seed % 2 else "01"
    u, v = ([int(rng.choice(alphabet)) for _ in range(rng.randrange(4))] for _ in range(2))
    u, v = u + [1], [int(rng.choice(alphabet[1:]))] + v  # the run stays a and b long
    a, b = rng.sample(range(5, 30), 2)
    k = len(alphabet)
    lap = 60 * 10**4  # lcm(1..5) * 10^4
    w, x = u + [0] * a + v, u + [0] * b + v
    w_long, x_long = u + [0] * (a + lap) + v, u + [0] * (b + lap) + v
    for p in (1, 2, 3, 4, 5):
        short = SearchCounters(DEFAULT_BUDGET)
        table = solver._distinguishing_structure(w, x, p, k, short)
        long = SearchCounters(DEFAULT_BUDGET)
        assert solver._distinguishing_structure(w_long, x_long, p, k, long) == table
        assert long.nodes == short.nodes


def _shared_part_pairs(rng):
    """Seeded pairs u a v / u b v: long u and v built from runs (some
    longer than 8p, some running on across the edges of a and b), a word
    that is a prefix or a suffix of the other, the empty word, and
    prefixes and suffixes that would overlap, over two and three symbols."""
    pairs = [("010", "0110"), ("", "0" * 12), ("1" * 9, "")]
    for j in range(1, 7):  # u a v / u b v with the shared parts overlapping
        pairs += [("01" * j + "0", "01" * j + "10"), ("12" * j + "1", "12" * j + "21")]
    for i in range(120):
        alphabet = ("01", "012")[i % 2]
        u, v = ("".join(a * m for a, m in _random_runs(rng, alphabet)) for _ in range(2))
        a, b = ("".join(a * m for a, m in _random_runs(rng, alphabet)[:2])
                for _ in range(2))
        shape = i % 6
        if shape == 0:
            a = ""  # u v / u b v
        elif shape == 1:
            pairs.append((u, u + v))  # a prefix
            pairs.append((v, u + v))  # a suffix
            continue
        elif shape == 2:
            a, b = u[-1] * 30 + a, u[-1] * 3 + b  # the run across u's edge
        pairs.append((u + a + v, u + b + v))
    return [(w, x) for w, x in pairs if w != x]


def test_kernel_matches_recursive_reference_on_shared_prefixes_and_suffixes():
    """Equal tables and node counts against the segment-order reference,
    and the same verdicts as the whole-walk reference, on pairs that
    share a long prefix or suffix: the prefix is walked once, and x's
    middle is cut where it ends in w's state at the suffix."""
    rng = random.Random(19)
    searched = cut = rooted = 0
    for w, x in _shared_part_pairs(rng):
        cuts = []
        for p in (1, 2, 3, 4, 5):
            _kernel_against_references(w, x, p, cuts)
            searched += 1
            # and _search, which tries cuts of the shared prefix first
            table, kernel = _search_against_kernel(w, x, p)
            rooted += table != kernel
        cut += bool(cuts)
    assert searched > 500 and cut > 50
    assert rooted > 200


_BUDGET_SWEEP = {
    "binary-none": ("1" + "00" + "1", "1" + "0" * 122 + "1", 3),
    "binary-none-wider": ("101" + "00" + "101", "101" + "0" * 122 + "101", 3),
    "ternary-none": ("12" + "00" + "12", "12" + "0" * 14 + "12", 3),
    "ternary-found": ("212" + "00" + "212", "212" + "0" * 14 + "212", 4),
    "binary-found-late": ("000001", "0" * 17 + "1", 5),
    # the shared prefix ends in a run of 200 that is jumped, and the
    # 0-entries it meets in its first p positions are still unassigned,
    # so it branches there
    "long-runs-none": ("1" + "0" * 200 + "1", "1" + "0" * 206 + "1", 3),
    "long-runs-found": ("1" + "0" * 200 + "1", "1" + "0" * 212 + "1", 5),
    # x's middle ends where the shared suffix starts, in w's state there
    # at 15 of the 56 nodes, and the search backtracks at once; the
    # whole-walk order takes 111 nodes
    "shared-suffix-rejoins": ("011" + "0" + "111100011", "011" + "000" + "111100011", 3),
    # a doubling-shaped pair, C 00 C against C 0^122 C, refuted
    "doubling-none": ("1001001001" + "00" + "1001001001",
                      "1001001001" + "0" * 122 + "1001001001", 3),
}


@pytest.mark.parametrize("w,x,p", _BUDGET_SWEEP.values(), ids=_BUDGET_SWEEP)
def test_kernel_matches_reference_at_every_node_budget(w, x, p):
    """Same outcome, BudgetError text and node count as the segment-order
    reference at every max_nodes up to two past the search's full node
    count, and the whole-walk reference's verdict."""
    full = _kernel_against_references(w, x, p)[1]
    assert full > 25
    for max_nodes in range(1, full + 3):
        budget = SearchBudget(max_nodes=max_nodes)
        new = _kernel_outcome(solver._distinguishing_structure, w, x, p,
                              SearchCounters(budget))
        ref = _kernel_outcome(segment_order_reference, w, x, p,
                              SearchCounters(budget))
        assert new == ref, max_nodes
        assert isinstance(new[0], str) == (max_nodes < full)


@pytest.mark.parametrize("charged", [0, 4000])
def test_kernel_checks_deadline_at_node_4096_of_the_pool(charged):
    """An expired deadline is noticed at pool node 4096, not before."""
    t = canonical_triple(2)
    w = "100100100001001"
    for kernel in (solver._distinguishing_structure, segment_order_reference,
                   recursive_distinguishing_structure):
        counters = SearchCounters(DEFAULT_BUDGET)
        counters.nodes = charged
        counters.deadline = time.monotonic() - 1.0
        out = _kernel_outcome(kernel, w + t.f + w, w + t.g + w, 5, counters)
        assert out == ("wall-clock budget exhausted", 4096)


def test_search_C_n_n2_counts_are_frozen():
    res = search_C_n(2, "1")
    assert (res.candidates, res.exhaustive_searches, res.nodes) == (402, 18, 4176)
    # its one refuted search, which refutes a cut of the shared prefix
    t = canonical_triple(2)
    counters = SearchCounters(DEFAULT_BUDGET)
    w, x = res.word + t.f + res.word, res.word + t.g + res.word
    assert separating_structure(w, x, 5, counters=counters) is None
    assert counters.nodes == 1655
    # the kernel alone, on the whole pair
    kernel = SearchCounters(DEFAULT_BUDGET)
    ws, xs = word_symbols(w, 2), word_symbols(x, 2)
    assert solver._distinguishing_structure(ws, xs, 5, 2, kernel) is None
    assert kernel.nodes == 15134


def test_kernel_verdict_matches_raw_oracle_on_long_shared_parts():
    """The kernel's verdict equals raw_separable's, which tries every
    table in no particular order, at p <= 3 on seeded pairs with long
    shared parts, where the kernel walks the segments and cuts x's
    middle.  The pairs u 0^a v / u 0^b v with a >= 2 and b - a a
    multiple of 6 have no separator at p = 3."""
    rng = random.Random(23)
    pairs = _shared_part_pairs(rng)
    for _ in range(20):
        u, v = ("".join(rng.choice("01") for _ in range(rng.randrange(9, 16)))
                for _ in range(2))
        a = rng.randrange(2, 5)
        pairs.append((u + "0" * a + v, u + "0" * (a + 6 * rng.randrange(1, 4)) + v))
    for _ in range(40):  # a shared prefix of 4 to 14 symbols, longer than p
        alphabet = rng.choice(("01", "012"))
        a, u, v = ("".join(rng.choice(alphabet) for _ in range(rng.randrange(*r)))
                   for r in ((4, 15), (5, 9), (5, 9)))
        pairs.append((a + u, a + v))
    searched = refuted = 0
    for w, x in pairs:
        if w == x:
            continue
        k = 3 if "2" in w + x else 2
        for p in (1, 2, 3):
            table = separating_structure(w, x, p)
            assert (table is not None) == raw_separable(w, x, p), (w, x, p)
            if table is not None:
                assert len(table) == p, (w, x, p)
                assert (run_table(table, word_symbols(w, k))
                        != run_table(table, word_symbols(x, k))), (w, x, p)
            searched += 1
            refuted += p > 1 and table is None
    assert searched > 500 and refuted > 60


def test_search_matches_kernel_on_the_doubling_candidates():
    """_search's verdict equals the kernel's at p = 2..5 on the pairs
    C f C / C g C of every candidate C that search_C_n tries for n = 1
    and n = 2, over two and three symbols, up to the word it returns."""
    searched = refuted = 0
    for n, bases in ((1, ("1", "12", "112")), (2, ("1",))):
        t = canonical_triple(n)
        for w0 in bases:
            res = search_C_n(n, w0)
            cands = _cn_candidates(w0, 2 * n + 2, None, 12 * len(w0) + 24)
            for runs in itertools.islice(cands, res.candidates):
                c = _cn_word(w0, runs)
                for p in (2, 3, 4, 5):
                    table, _ = _search_against_kernel(c + t.f + c, c + t.g + c, p)
                    searched += 1
                    refuted += table is None
    assert searched > 1600 and refuted > 1000


# C f C / C g C for the n = 2 doubling word C: at p = 5 the cut that keeps
# the last 5 symbols of the shared prefix C 00 has a separator that no
# state reaches by the 12 symbols cut off, and the whole pair has none
_C = "100100100001001"
_UNROOTED = (_C + "00" + _C, _C + "0" * 122 + _C)


def test_search_refutes_a_pair_whose_first_cut_has_an_unrooted_separator():
    w, x = (word_symbols(v, 2) for v in _UNROOTED)
    counters = SearchCounters(DEFAULT_BUDGET)
    table = solver._distinguishing_structure(w[12:], x[12:], 5, 2, counters)
    assert table is not None
    assert all(run_table(table, w[:12], s) != 0 for s in range(5))
    assert solver._search(w, x, 5, 2, counters) is None
    assert solver._distinguishing_structure(w, x, 5, 2, counters) is None


def test_exact_sep_on_cut_pairs_stays_within_every_node_budget():
    """exact_sep runs _search at each level: at every max_nodes up to two
    past its full node count it returns, charges at most max_nodes, and
    is exact exactly when max_nodes covers the full count.  An expired
    deadline is noticed before the first cut, at the pool's count."""
    w, x = _UNROOTED
    full = exact_sep(w, x)
    assert full.value == 6
    for max_nodes in range(1, full.nodes + 3):
        cert = exact_sep(w, x, SearchBudget(max_nodes=max_nodes))
        assert cert.nodes <= max_nodes, max_nodes
        assert cert.exact == (max_nodes >= full.nodes), max_nodes
    counters = SearchCounters(DEFAULT_BUDGET)
    counters.nodes = 4000
    counters.deadline = time.monotonic() - 1.0
    out = _kernel_outcome(solver._search, w, x, 5, counters)
    assert out == ("wall-clock budget exhausted", 4000)


def test_search_reads_the_deadline_before_each_cut():
    """The walks of the prefix cut off charge no node, so only a read of
    the deadline at each cut bounds their time: on this pair, 151 nodes
    of exact_sep took 0.37 s."""
    w, x = "10" * 100000 + "1", "10" * 100000 + "11"
    counters = SearchCounters(DEFAULT_BUDGET)
    counters.deadline = time.monotonic() - 1.0
    with pytest.raises(BudgetError, match="wall-clock"):
        separating_structure(w, x, 2, counters)
    assert counters.nodes == 0
    assert separating_structure(w, x, 2) is not None
