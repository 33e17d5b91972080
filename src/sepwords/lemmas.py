"""Registry of desk-scale lemma checks.

Each check certifies a finite slice of a general statement at a
documented scale, deterministically under a fixed seed.  Every check also
carries a mutated negative instance that must report fail; the negatives
guard against vacuous passes.
"""

from __future__ import annotations

import itertools
import json
import random
from functools import lru_cache
from operator import itemgetter
from typing import Callable, Optional

from .atlas import _binary_words, _class_ids, _trie_ends
from .construct import (
    _h_closure,
    canonical_triple,
    encode,
    farmand_dfa,
    free_word,
    search_C_n,
    search_z_k,
    verify_witness,
    witness_pair,
)
from .dfa import (
    Dfa,
    _Value,
    accepts,
    combine,
    enumerate_canonical,
    image_under_word,
    includes,
    reverse,
    run,
    zero_cycle_length,
    zpath,
)
from .lang import (
    _reversed_H_k,
    _segclo_of_dfa,
    build_G_k,
    build_H_k,
    finite_language,
    iter_words,
    segmented_closure,
    state_complexity,
)
from .solver import (
    check_separates,
    exact_sep,
    lsep_lower_check,
    no_separator_up_to,
    raw_tables,
    reached_by_language,
)

DEFAULT_SEED = 20240717


class LemmaCheck(_Value):
    __slots__ = ("id", "scale", "status", "evidence", "counterexample")

    def __init__(self, id: str, scale: str,
                 status: str,  # pass | fail | budget-bounded
                 evidence: dict,
                 counterexample: Optional[dict]):
        self.id = id
        self.scale = scale
        self.status = status
        self.evidence = evidence
        self.counterexample = counterexample

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True)


def _random_dfa(rng: random.Random, max_states: int, alphabet_size: int) -> Dfa:
    n = rng.randrange(1, max_states + 1)
    rows = tuple(
        tuple(rng.randrange(n) for _ in range(alphabet_size)) for _ in range(n)
    )
    acc = frozenset(q for q in range(n) if rng.random() < 0.5)
    return Dfa(alphabet_size, rows, acc)


def _random_word(rng: random.Random, max_len: int, alphabet: str) -> str:
    return "".join([rng.choice(alphabet) for _ in range(rng.randrange(max_len + 1))])


def _raw_classes(words: list[str], p: int) -> list[list[int]]:
    """classes[m - 1][i], for m = 1..p: the class of binary word i under
    all raw m-state tables, where words share a class iff every such table
    ends them in one state.

    `words` are the first binary words in shortlex order, as `_trie_ends`
    reads them.  Raw enumeration (`raw_tables`), one pass per m: each
    word's end states under the m-state tables, zipped from the tables'
    rows, get one class id per distinct tuple.
    """
    classes = []
    for _, group in itertools.groupby(raw_tables(p, 2), key=itemgetter(0)):
        tables = [table for _, table in group]
        rows = _trie_ends(tables, [0] * len(tables), len(words))
        classes.append(_class_ids(zip(*rows)))
    return classes


def _check_fries(rng, negative):
    """Structure-only search agrees with raw enumeration; |w|,|x| <= 5, p <= 3."""
    words = _binary_words(5)
    classes = _raw_classes(words, 3)
    checked = 0
    for (i, w), (j, x) in itertools.combinations(enumerate(words), 2):
        # an m-state DFA separates the pair iff some raw m-state table ends
        # the words in different states: an accepting set picking w's end
        # state alone realizes the separation, and no accepting set splits
        # one end state.  raw_m is the fewest states that separate them.
        raw_m = next((m for m, cls in enumerate(classes, 1) if cls[i] != cls[j]), None)
        for p in (1, 2, 3):
            lazy = not no_separator_up_to(w, x, p if not negative else max(1, p - 1))
            raw = raw_m is not None and raw_m <= p
            checked += 1
            if lazy != raw:
                return "fail", {"checked": checked}, {"w": w, "x": x, "p": p}
    return "pass", {"pairs_times_levels": checked}, None


def _check_pear(rng, negative):
    """Same end state forces the same end state after any suffix; 200 samples."""
    hits = 0
    tried = 0
    while hits < 200 and tried < 20000:
        tried += 1
        d = _random_dfa(rng, 4, rng.choice((2, 3)))
        alpha = "012"[: d.alphabet_size]
        w = _random_word(rng, 5, alpha)
        w2 = _random_word(rng, 5, alpha)
        if run(d, 0, w) != run(d, 0, w2):
            continue
        hits += 1
        x = _random_word(rng, 5, alpha)
        x2 = x if not negative else _random_word(rng, 5, alpha)
        if run(d, 0, w + x) != run(d, 0, w2 + x2):
            return "fail", {"samples": hits}, {"w": w, "w2": w2, "x": x}
    return "pass", {"samples": hits}, None


def _check_five(rng, negative):
    """Affixing a common prefix and suffix never shrinks the separation number."""
    for i in range(200):
        w = _random_word(rng, 5, "01")
        x = _random_word(rng, 5, "01")
        if w == x:
            continue
        u = _random_word(rng, 3, "01")
        v = _random_word(rng, 3, "01")
        inner = exact_sep(w, x).value
        outer = exact_sep(u + w + v, u + x + v).value
        ok = outer > inner if negative else outer >= inner
        if not ok:
            return "fail", {"samples": i + 1}, {"u": u, "w": w, "x": x, "v": v,
                                                "inner": inner, "outer": outer}
    return "pass", {"samples": 200}, None


def _check_onep(rng, negative):
    """The image of the full state set never grows under a longer word."""
    for i in range(200):
        d = _random_dfa(rng, 6, rng.choice((2, 3)))
        alpha = "012"[: d.alphabet_size]
        w = _random_word(rng, 6, alpha)
        x = _random_word(rng, 6, alpha)
        states = frozenset(range(d.state_count))
        a = len(image_under_word(d, states, w))
        b = len(image_under_word(d, states, w + x))
        ok = a > b if negative else a >= b
        if not ok:
            return "fail", {"samples": i + 1}, {"w": w, "x": x, "sizes": [a, b]}
    return "pass", {"samples": 200}, None


def _check_peach(rng, negative):
    """Closing an already-closed language adds nothing; R in {G_1, {1}}."""
    for r, label in ((build_G_k(1), "G_k k=1"), (finite_language(["1"]), "{1}")):
        s = segmented_closure(r)
        s2 = _segclo_of_dfa(s)
        target = r if negative else s
        if not includes(target, s2):
            return "fail", {}, {"r": label}
    return "pass", {"languages": 2}, None


def _check_nexus(rng, negative):
    """0^{(2n+1)!} is absorbed on zero-cycle states; exhaustive, n=1."""
    h = "0" * (5 if negative else 6)
    words = _binary_words(4)
    runs = []  # (t, q, run(d, q, h)) for each state q on a 0-cycle
    for t in enumerate_canonical(3, 2):
        d = Dfa(2, t, frozenset())
        runs += [(t, q, run(d, q, h)) for q in range(d.state_count)
                 if zero_cycle_length(d, q) is not None]
    tables = [t for t, _, _ in runs]
    # the end states of h + w are those of w read from run(d, q, h)
    plain = _trie_ends(tables, [q for _, q, _ in runs], len(words))
    shifted = _trie_ends(tables, [s for _, _, s in runs], len(words))
    checked = 0
    for (t, q, _), a, b in zip(runs, plain, shifted):
        if a != b:
            i = next(i for i, (e, f) in enumerate(zip(a, b)) if e != f)
            return "fail", {"checked": checked + i + 1}, {"dfa": t, "q": q, "w": words[i]}
        checked += len(words)
    return "pass", {"checked": checked}, None


@lru_cache(maxsize=None)
def _zero_columns() -> tuple[tuple, tuple[int, ...]]:
    """The 0-columns of the binary structures with <= 3, then <= 4 states.

    Returns (firsts, ids): firsts[c] is the first table with 0-column c,
    columns numbered in order of first appearance, and ids[j] the column
    of the j-th table of the two scans.  Shared by the zpath checks.
    """
    index: dict[tuple[int, ...], int] = {}
    firsts = []
    ids = []
    for p in (3, 4):
        for t in enumerate_canonical(p, 2):
            column = tuple(map(itemgetter(0), t))
            if column not in index:
                index[column] = len(firsts)
                firsts.append(t)
            ids.append(index[column])
    return tuple(firsts), tuple(ids)


def _per_zero_column(body):
    """Run body over every binary structure with <= 3, then <= 4 states.

    body(d) returns (items checked, first failing (q, i) or None) and may
    read nothing of d but its state count and 0-column.  So it runs once
    per distinct 0-column, on a Dfa built from the first canonical table
    that has it (23 columns for the 229 structures with <= 3 states, 135
    for the 5 477 with <= 4); every other table only adds its column's
    items to `checked`.  The result is that of running body on every
    structure in turn: a failure shows first at the first table with its
    column, which is the table the counterexample names.
    """
    firsts, ids = _zero_columns()
    outcomes: list[tuple[int, Optional[tuple[int, int]]]] = []
    checked = 0
    for c in ids:
        if c == len(outcomes):
            outcomes.append(body(Dfa(2, firsts[c], frozenset())))
        items, failure = outcomes[c]
        if failure is not None:
            q, i = failure
            return "fail", {"checked": checked + items}, {
                "dfa": firsts[c], "q": q, "i": i}
        checked += items
    return "pass", {"checked": checked}, None


def _check_icecream(rng, negative):
    """zpath splits at any cut point; exhaustive over 3- and 4-state structures."""
    def body(d):
        items = 0
        for q in range(d.state_count):
            full = len(zpath(d, q))
            for i in range(1, d.state_count + 1):
                head = len(zpath(d, q, i - 1))
                tail = len(zpath(d, run(d, q, "0" * i)))
                expect = head + tail + (1 if negative else 0)
                items += 1
                if full != expect:
                    return items, (q, i)
        return items, None
    return _per_zero_column(body)


def _check_marshmallow(rng, negative):
    """zpath prefixes are bounded by i+1 and contained in the full zpath."""
    def body(d):
        items = 0
        for q in range(d.state_count):
            full = zpath(d, q)
            for i in range(0, d.state_count + 1):
                part = zpath(d, q, i)
                bound = i if negative else i + 1
                items += 1
                if len(part) > bound or not part <= full:
                    return items, (q, i)
        return items, None
    return _per_zero_column(body)


def _check_snake(rng, negative):
    """A cycle-free 0-trajectory of length i has exactly i+1 zpath states."""
    def body(d):
        items = 0
        for q in range(d.state_count):
            for i in range(0, d.state_count + 1):
                if zero_cycle_length(d, run(d, q, "0" * i)) is not None:
                    continue
                items += 1
                expect = i if negative else i + 1
                if len(zpath(d, q, i)) != expect or expect > d.state_count:
                    return items, (q, i)
        return items, None
    return _per_zero_column(body)


def _check_ketchup(rng, negative):
    """Splicing 1^{2k+1}2 between u and v lands in G_k iff both halves do."""
    langs = {k: build_G_k(k) for k in (1, 2)}
    for i in range(500):
        k = rng.choice((1, 2))
        g = langs[k]
        u = _random_word(rng, 8, "12")
        v = _random_word(rng, 8, "12")
        exp = 2 * k + 1 if not negative else 2 * k
        mid = "1" * exp + "2"
        lhs = accepts(g, u + mid + v)
        rhs = accepts(g, u) and accepts(g, v)
        if lhs != rhs:
            return "fail", {"samples": i + 1}, {"k": k, "u": u, "v": v}
    return "pass", {"samples": 500}, None


def _check_three(rng, negative):
    """The starred language needs at least 2^k states; k = 1..3."""
    sizes = {}
    for k in (1, 2, 3):
        stc = state_complexity(build_G_k(k))
        sizes[k] = stc
        bound = 2 ** (k + 2) if negative else 2**k
        if stc < bound:
            return "fail", {"sizes": sizes}, {"k": k, "stc": stc, "bound": bound}
    return "pass", {"sizes": sizes}, None


def _check_jellybean(rng, negative):
    """The reversal stays linear: at most 5k+3 states; k = 1..5."""
    sizes = {}
    for k in range(1, 6):
        stc = state_complexity(reverse(build_G_k(k)))
        sizes[k] = stc
        bound = 5 * k + 1 if negative else 5 * k + 3
        if stc > bound:
            return "fail", {"sizes": sizes}, {"k": k, "stc": stc, "bound": bound}
    return "pass", {"sizes": sizes}, None


def _check_two(rng, negative):
    """Certified hard words: no 2^k - 1 state acceptor avoids H_k; k = 1, 2."""
    evidence = {}
    for k in (1, 2):
        z = search_z_k(k)
        p = 2**k - 1 if not negative else 2**k
        ok = lsep_lower_check(z.word, _reversed_H_k(k), p)
        evidence[k] = {"z": z.word, "states_exhausted": p}
        if not ok:
            return "fail", evidence, {"k": k, "z": z.word, "p": p}
    return "pass", evidence, None


def _check_spider(rng, negative):
    """Product size never exceeds the factor sizes multiplied; 100 pairs."""
    samples = [(_random_dfa(rng, 4, 2), _random_dfa(rng, 4, 2)) for _ in range(99)]
    # include a saturating pair so the strict-bound mutation has a victim
    mod2 = Dfa(2, ((1, 1), (0, 0)), frozenset({0}))
    mod3 = Dfa(2, ((1, 1), (2, 2), (0, 0)), frozenset({0}))
    samples.append((mod2, mod3))
    for i, (a, b) in enumerate(samples):
        prod = combine(a, b, "and")
        bound = a.state_count * b.state_count
        if negative:
            bound -= 1
        if prod.state_count > bound:
            return "fail", {"samples": i + 1}, {
                "a": a.transitions, "b": b.transitions,
                "product_states": prod.state_count}
    return "pass", {"samples": len(samples)}, None


@lru_cache(maxsize=None)
def _ternary_structures() -> tuple:
    """Every ternary structure with <= 3 states, sampled by kebab and four."""
    return tuple(enumerate_canonical(3, 3))


@lru_cache(maxsize=None)
def _z_4():
    """search_z_k(4), the hard word of kebab and four, searched once per process."""
    return search_z_k(4)


def _check_kebab(rng, negative):
    """Small automaton pairs cannot tell the hard word from all of H_k; k=4."""
    z = _z_4()
    r = _reversed_H_k(4)  # H_k's words of length <= 1 are r's as well
    structs = [Dfa(3, t, frozenset()) for t in rng.sample(_ternary_structures(), 60)]
    misses = 0
    for i in range(100):
        d, d2 = rng.choice(structs), rng.choice(structs)
        # is z's product state reached along a word of H_k?  The mutation
        # truncates the language to its words of length <= 1
        pair = combine(d, d2, "and")
        end = run(pair, 0, z.word)
        if negative:
            reached = end in {run(pair, 0, u) for u in iter_words(r, 1)}
        else:
            reached = reached_by_language(pair, r, end)
        if not reached:
            misses += 1
    evidence = {"z": z.word, "pairs": 100, "misses": misses,
                "z_certified": z.certified}
    if misses:
        return "fail", evidence, {"misses": misses}
    status = "pass" if z.certified else "budget-bounded"
    return status, evidence, None


def _check_four(rng, negative):
    """Substituting a closure word fools any small automaton pair; k=4."""
    z = _z_4()
    h = build_H_k(4)
    closure = _h_closure(4)  # the automaton free_word searches
    blocks = [w for w in iter_words(h, 6) if w][:20] + [z.word]
    structs = [Dfa(3, t, frozenset()) for t in rng.sample(_ternary_structures(), 40)]
    for i in range(30):
        d, d2 = rng.choice(structs), rng.choice(structs)
        segs = [rng.choice(blocks) for _ in range(rng.randrange(1, 4))]
        w = segs[0] + "".join("0" * rng.randrange(1, 3) + s for s in segs[1:])
        wp = free_word(4, d, d2, w, z_k=z.word)
        if negative:
            wp = wp + "0"  # a trailing gap leaves the closure
        ok = (
            run(d, 0, wp) == run(d, 0, w)
            and run(d2, 0, wp) == run(d2, 0, w)
            and accepts(closure, wp)
        )
        if not ok:
            return "fail", {"samples": i + 1}, {"w": w, "w_prime": wp}
    status = "pass" if z.certified else "budget-bounded"
    return status, {"samples": 30, "z_certified": z.certified}, None


def _check_candy(rng, negative):
    """Reversing the right encoding equals left-encoding the reversal."""
    for i in range(500):
        w = _random_word(rng, 12, "012")
        lhs = encode(w, "right")[::-1]
        rhs = encode(w, "left") if negative else encode(w[::-1], "left")
        if lhs != rhs:
            return "fail", {"samples": i + 1}, {"w": w}
    return "pass", {"samples": 500}, None


def _check_redfish(rng, negative):
    """Left-encoding never shrinks the separation number; 100 ternary pairs."""
    for i in range(100):
        w = _random_word(rng, 4, "012")
        x = _random_word(rng, 4, "012")
        if w == x:
            continue
        plain = exact_sep(w, x).value
        coded = exact_sep(encode(w, "left"), encode(x, "left")).value
        ok = coded > plain if negative else coded >= plain
        if not ok:
            return "fail", {"samples": i + 1}, {"w": w, "x": x,
                                                "plain": plain, "coded": coded}
    return "pass", {"samples": 100}, None


def _conforming_prefix(rng: random.Random, r: Dfa) -> str:
    """A {1,2}-segmented word whose final segment alone lies in R."""
    segs = []
    for _ in range(rng.randrange(0, 3)):
        while True:
            s = _random_word(rng, 5, "12")
            if s and not accepts(r, s):
                segs.append(s)
                break
    while True:
        last = _random_word(rng, 6, "12")
        if last and accepts(r, last):
            break
    return "".join(s + "0" * rng.randrange(1, 4) for s in segs) + last


def _check_farmand(rng, negative):
    """The decoder machine separates around the middle block; R = G_1^R, n=1."""
    r = reverse(build_G_k(1))
    n = 1
    machine = farmand_dfa(r, n if not negative else n + 1)
    t = r.state_count
    if machine.state_count > 2 * t + (n if not negative else n + 1) + 3:
        return "fail", {}, {"states": machine.state_count}
    trip = canonical_triple(n)
    for i in range(100):
        w = _conforming_prefix(rng, r)
        tail = "1" + _random_word(rng, 6, "01")
        a = encode(w, "right") + trip.f + tail
        b = encode(w, "right") + trip.g + tail
        if not check_separates(machine, a, b):
            return "fail", {"samples": i + 1}, {"w": w, "tail": tail}
    return "pass", {"samples": 100, "states": machine.state_count}, None


def _check_blueberry(rng, negative):
    """The certified doubling word exists and its bound is exhaustive; n=1."""
    n = 1
    res = search_C_n(n, "1")
    trip = canonical_triple(n)
    w = res.word + trip.f + res.word
    x = res.word + trip.g + res.word
    p = 2 * n + 2 if negative else 2 * n + 1
    ok = no_separator_up_to(w, x, p)
    evidence = {"word": res.word, "states_exhausted": p}
    if not ok:
        return "fail", evidence, {"word": res.word, "p": p}
    return "pass", evidence, None


def _check_main(rng, negative):
    """End-to-end witness pairs verify both bounds; (k, n) in {(1,1), (2,1)}."""
    evidence = {}
    for k, n in ((1, 1), (2, 1)):
        rep = witness_pair(k, n)
        if negative:
            # flip the bit that turns the long middle run into a short one
            lc = len(encode(rep.c_word, "left"))
            idx = len(rep.x_prime) - 1 - (lc + n)
            flipped = "1" if rep.x_prime[idx] == "0" else "0"
            rep.x_prime = rep.x_prime[:idx] + flipped + rep.x_prime[idx + 1:]
        rep = verify_witness(rep)
        evidence[f"k={k},n={n}"] = dict(rep.statuses,
                                        lower_verified_to=rep.lower_verified_to)
        if rep.statuses["lower"] != "certified" or rep.statuses["upper"] != "certified":
            return "fail", evidence, {"k": k, "n": n, "statuses": rep.statuses}
    return "pass", evidence, None


CheckFn = Callable[[random.Random, bool], tuple[str, dict, Optional[dict]]]

REGISTRY: dict[str, tuple[CheckFn, str]] = {
    "fries": (_check_fries, "all binary pairs |w|,|x| <= 5, p <= 3, exhaustive"),
    "pear": (_check_pear, "200 conditioned random (d, w, w', x) samples"),
    "five": (_check_five, "200 random binary samples, |w|,|x| <= 5, |u|,|v| <= 3"),
    "onep": (_check_onep, "200 random (d, w, x) samples"),
    "peach": (_check_peach, "DFA inclusion for R in {G_1, {1}}"),
    "nexus": (_check_nexus, "exhaustive canonical <=3-state binary, |w| <= 4, n=1"),
    "icecream": (_check_icecream, "exhaustive canonical <=3- and <=4-state binary"),
    "marshmallow": (_check_marshmallow, "exhaustive canonical <=3- and <=4-state binary"),
    "snake": (_check_snake, "exhaustive canonical <=3- and <=4-state binary"),
    "ketchup": (_check_ketchup, "500 random {1,2} pairs, |u|,|v| <= 8, k in {1,2}"),
    "three": (_check_three, "exact minimal sizes, k = 1..3"),
    "jellybean": (_check_jellybean, "exact minimal sizes of reversals, k = 1..5"),
    "two": (_check_two, "exhaustive 2^k - 1 state check, k in {1,2}"),
    "spider": (_check_spider, "100 product pairs incl. a saturating one"),
    "kebab": (_check_kebab, "k=4, 100 sampled <=3-state pairs, heuristic hard word"),
    "four": (_check_four, "k=4, 30 sampled closure words over <=3-state pairs"),
    "candy": (_check_candy, "500 random ternary words, exact string identity"),
    "redfish": (_check_redfish, "100 random ternary pairs of length <= 4"),
    "farmand": (_check_farmand, "R = reverse of G_1, n=1, 100 conforming samples"),
    "blueberry": (_check_blueberry, "n=1, base block '1', exhaustive at 3 states"),
    "main": (_check_main, "(k,n) in {(1,1),(2,1)}, both bounds certified"),
}


def known_ids() -> list[str]:
    return list(REGISTRY)


def run_check(id: str, seed: int = DEFAULT_SEED, negative: bool = False) -> LemmaCheck:
    if id not in REGISTRY:
        raise ValueError(f"unknown check {id!r}; valid ids: {', '.join(REGISTRY)}")
    fn, scale = REGISTRY[id]
    rng = random.Random(seed)
    status, evidence, counterexample = fn(rng, negative)
    return LemmaCheck(id=id, scale=scale, status=status,
                      evidence=evidence, counterexample=counterexample)


class SuiteReport(_Value):
    __slots__ = ("seed", "checks")

    def __init__(self, seed: int, checks: list[LemmaCheck]):
        self.seed = seed
        self.checks = checks

    @property
    def exit_code(self) -> int:
        """0 all pass, 1 any fail, 2 budget-bounded only."""
        if any(c.status == "fail" for c in self.checks):
            return 1
        if any(c.status == "budget-bounded" for c in self.checks):
            return 2
        return 0

    def to_json(self) -> str:
        return json.dumps(
            {
                "seed": self.seed,
                "exit_code": self.exit_code,
                "checks": [c.as_dict() for c in self.checks],
            },
            sort_keys=True,
        )

    def to_text(self) -> str:
        lines = []
        for c in self.checks:
            lines.append(f"{c.status.upper():15s} {c.id:12s} [{c.scale}]")
            if c.counterexample is not None:
                lines.append(f"{'':15s} counterexample: {c.counterexample}")
        lines.append(f"exit code: {self.exit_code}")
        return "\n".join(lines) + "\n"


def run_lemma_suite(
    ids: Optional[list[str]] = None, seed: int = DEFAULT_SEED
) -> SuiteReport:
    """Run the named checks (all of them by default) at their desk scales."""
    if ids is None:
        ids = known_ids()
    unknown = [i for i in ids if i not in REGISTRY]
    if unknown:
        raise ValueError(
            f"unknown check ids {unknown}; valid ids: {', '.join(REGISTRY)}"
        )
    checks = [run_check(i, seed=seed) for i in ids]
    return SuiteReport(seed=seed, checks=checks)
