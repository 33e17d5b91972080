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
from dataclasses import asdict, dataclass, field
from typing import Callable, Optional

from .construct import (
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
    build_G_k,
    build_H_k,
    finite_language,
    iter_words,
    segclo_of_dfa,
    segmented_closure,
    state_complexity,
)
from .solver import (
    DEFAULT_BUDGET,
    SearchBudget,
    check_separates,
    exact_sep,
    lsep_lower_check,
    no_separator_up_to,
    raw_tables,
    reached_by_language,
)

DEFAULT_SEED = 20240717


@dataclass
class LemmaCheck:
    id: str
    scale: str
    status: str  # pass | fail | budget-bounded
    evidence: dict = field(default_factory=dict)
    counterexample: Optional[dict] = None

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


def _random_dfa(rng: random.Random, max_states: int, alphabet_size: int) -> Dfa:
    n = rng.randrange(1, max_states + 1)
    rows = tuple(
        tuple(rng.randrange(n) for _ in range(alphabet_size)) for _ in range(n)
    )
    acc = frozenset(q for q in range(n) if rng.random() < 0.5)
    return Dfa(alphabet_size, rows, acc)


def _random_word(rng: random.Random, max_len: int, alphabet: str) -> str:
    return "".join(rng.choice(alphabet) for _ in range(rng.randrange(max_len + 1)))


def _check_fries(budget, rng, negative):
    """Structure-only search agrees with raw enumeration; |w|,|x| <= 5, p <= 3."""
    words = [""] + ["".join(t) for L in range(1, 6) for t in itertools.product("01", repeat=L)]
    tables = []
    for m, table in raw_tables(3, 2):
        ends = {}
        for w in words:
            q = 0
            for ch in w:
                q = table[q][ord(ch) - 48]
            ends[w] = q
        tables.append((m, ends))
    checked = 0
    for w, x in itertools.combinations(words, 2):
        # raw_tables yields ascending m, so the first table that separates
        # the pair has the fewest states; an accepting set picking ends[w]
        # alone realizes the separation
        raw_m = next((m for m, ends in tables
                      if ends[w] != ends[x] and any(
                          (mask >> ends[w] & 1) and not (mask >> ends[x] & 1)
                          for mask in range(1 << m))), None)
        for p in (1, 2, 3):
            lazy = not no_separator_up_to(w, x, p if not negative else max(1, p - 1))
            raw = raw_m is not None and raw_m <= p
            checked += 1
            if lazy != raw:
                return "fail", {"checked": checked}, {"w": w, "x": x, "p": p}
    return "pass", {"pairs_times_levels": checked}, None


def _check_pear(budget, rng, negative):
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


def _check_five(budget, rng, negative):
    """Affixing a common prefix and suffix never shrinks the separation number."""
    for i in range(200):
        w = _random_word(rng, 5, "01")
        x = _random_word(rng, 5, "01")
        if w == x:
            continue
        u = _random_word(rng, 3, "01")
        v = _random_word(rng, 3, "01")
        inner = exact_sep(w, x, budget).value
        outer = exact_sep(u + w + v, u + x + v, budget).value
        ok = outer > inner if negative else outer >= inner
        if not ok:
            return "fail", {"samples": i + 1}, {"u": u, "w": w, "x": x, "v": v,
                                                "inner": inner, "outer": outer}
    return "pass", {"samples": 200}, None


def _check_onep(budget, rng, negative):
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


def _check_peach(budget, rng, negative):
    """Closing an already-closed language adds nothing; R in {G_1, {1}}."""
    for r, label in ((build_G_k(1), "G_k k=1"), (finite_language(["1"]), "{1}")):
        s = segmented_closure(r)
        s2 = segclo_of_dfa(s)
        target = r if negative else s
        if not includes(target, s2):
            return "fail", {}, {"r": label}
    return "pass", {"languages": 2}, None


def _check_nexus(budget, rng, negative):
    """0^{(2n+1)!} is absorbed on zero-cycle states; exhaustive, n=1."""
    h = "0" * (5 if negative else 6)
    words = [""] + ["".join(t) for L in range(1, 5) for t in itertools.product("01", repeat=L)]
    checked = 0
    for d in enumerate_canonical(3, 2):
        for q in range(d.state_count):
            if zero_cycle_length(d, q) is None:
                continue
            for w in words:
                checked += 1
                if run(d, q, h + w) != run(d, q, w):
                    return "fail", {"checked": checked}, {
                        "dfa": d.transitions, "q": q, "w": w}
    return "pass", {"checked": checked}, None


def _per_zero_column(body):
    """Run body over every binary structure with <= 3, then <= 4 states.

    body(d) returns (items checked, first failing (q, i) or None) and may
    read nothing of d but its state count and 0-column.  So it runs once
    per distinct 0-column, on the first structure that has it (23 columns
    for the 229 structures with <= 3 states, 135 for the 5 477 with <= 4),
    and every structure still adds its items to `checked`.  The result is
    that of running body on every structure in turn.
    """
    outcomes: dict[tuple[int, ...], tuple[int, Optional[tuple[int, int]]]] = {}
    checked = 0
    for p in (3, 4):
        for d in enumerate_canonical(p, 2):
            column = tuple(row[0] for row in d.transitions)
            if column not in outcomes:
                outcomes[column] = body(d)
            items, failure = outcomes[column]
            if failure is not None:
                q, i = failure
                return "fail", {"checked": checked + items}, {
                    "dfa": d.transitions, "q": q, "i": i}
            checked += items
    return "pass", {"checked": checked}, None


def _check_icecream(budget, rng, negative):
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


def _check_marshmallow(budget, rng, negative):
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


def _check_snake(budget, rng, negative):
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


def _check_ketchup(budget, rng, negative):
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


def _check_three(budget, rng, negative):
    """The starred language needs at least 2^k states; k = 1..3."""
    sizes = {}
    for k in (1, 2, 3):
        stc = state_complexity(build_G_k(k))
        sizes[k] = stc
        bound = 2 ** (k + 2) if negative else 2**k
        if stc < bound:
            return "fail", {"sizes": sizes}, {"k": k, "stc": stc, "bound": bound}
    return "pass", {"sizes": sizes}, None


def _check_jellybean(budget, rng, negative):
    """The reversal stays linear: at most 5k+3 states; k = 1..5."""
    sizes = {}
    for k in range(1, 6):
        stc = state_complexity(reverse(build_G_k(k)))
        sizes[k] = stc
        bound = 5 * k + 1 if negative else 5 * k + 3
        if stc > bound:
            return "fail", {"sizes": sizes}, {"k": k, "stc": stc, "bound": bound}
    return "pass", {"sizes": sizes}, None


def _check_two(budget, rng, negative):
    """Certified hard words: no 2^k - 1 state acceptor avoids H_k; k = 1, 2."""
    evidence = {}
    for k in (1, 2):
        z = search_z_k(k, budget=budget)
        p = 2**k - 1 if not negative else 2**k
        ok = lsep_lower_check(z.word, build_H_k(k), p, budget=budget)
        evidence[k] = {"z": z.word, "states_exhausted": p}
        if not ok:
            return "fail", evidence, {"k": k, "z": z.word, "p": p}
    return "pass", evidence, None


def _check_spider(budget, rng, negative):
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


def _check_kebab(budget, rng, negative):
    """Small automaton pairs cannot tell the hard word from all of H_k; k=4."""
    z = search_z_k(4, budget=budget)
    h = build_H_k(4)
    structs = rng.sample(list(enumerate_canonical(3, 3)), 60)
    misses = 0
    for i in range(100):
        d, d2 = rng.choice(structs), rng.choice(structs)
        # is z's product state reached along a word of H_k?  The mutation
        # truncates the language to its words of length <= 1
        pair = combine(d, d2, "and")
        end = run(pair, 0, z.word)
        if negative:
            reached = end in {run(pair, 0, u) for u in iter_words(h, 1)}
        else:
            reached = reached_by_language(pair, h, end)
        if not reached:
            misses += 1
    evidence = {"z": z.word, "pairs": 100, "misses": misses,
                "z_certified": z.certified}
    if misses:
        return "fail", evidence, {"misses": misses}
    status = "pass" if z.certified else "budget-bounded"
    return status, evidence, None


def _check_four(budget, rng, negative):
    """Substituting a closure word fools any small automaton pair; k=4."""
    z = search_z_k(4, budget=budget)
    h = build_H_k(4)
    closure = segmented_closure(h)
    blocks = [w for w in iter_words(h, 6) if w][:20] + [z.word]
    structs = rng.sample(list(enumerate_canonical(3, 3)), 40)
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


def _check_candy(budget, rng, negative):
    """Reversing the right encoding equals left-encoding the reversal."""
    for i in range(500):
        w = _random_word(rng, 12, "012")
        lhs = encode(w, "right")[::-1]
        rhs = encode(w, "left") if negative else encode(w[::-1], "left")
        if lhs != rhs:
            return "fail", {"samples": i + 1}, {"w": w}
    return "pass", {"samples": 500}, None


def _check_redfish(budget, rng, negative):
    """Left-encoding never shrinks the separation number; 100 ternary pairs."""
    for i in range(100):
        w = _random_word(rng, 4, "012")
        x = _random_word(rng, 4, "012")
        if w == x:
            continue
        plain = exact_sep(w, x, budget).value
        coded = exact_sep(encode(w, "left"), encode(x, "left"), budget).value
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


def _check_farmand(budget, rng, negative):
    """The decoder machine separates around the middle block; R = G_1^R, n=1."""
    r = reverse(build_G_k(1))
    n = 1
    machine = farmand_dfa(r, n if not negative else n + 1)
    t = r.state_count
    if machine.state_count > 2 * t + (n if not negative else n + 1) + 4:
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


def _check_blueberry(budget, rng, negative):
    """The certified doubling word exists and its bound is exhaustive; n=1."""
    n = 1
    res = search_C_n(n, "1", budget=budget)
    trip = canonical_triple(n)
    w = res.word + trip.f + res.word
    x = res.word + trip.g + res.word
    p = 2 * n + 2 if negative else 2 * n + 1
    ok = no_separator_up_to(w, x, p, budget=budget)
    evidence = {"word": res.word, "states_exhausted": p}
    if not ok:
        return "fail", evidence, {"word": res.word, "p": p}
    return "pass", evidence, None


def _check_main(budget, rng, negative):
    """End-to-end witness pairs verify both bounds; (k, n) in {(1,1), (2,1)}."""
    evidence = {}
    for k, n in ((1, 1), (2, 1)):
        rep = witness_pair(k, n, budget=budget)
        if negative:
            # flip the bit that turns the long middle run into a short one
            lc = len(encode(rep.c_word, "left"))
            idx = len(rep.x_prime) - 1 - (lc + n)
            flipped = "1" if rep.x_prime[idx] == "0" else "0"
            rep.x_prime = rep.x_prime[:idx] + flipped + rep.x_prime[idx + 1:]
        rep = verify_witness(rep, budget=budget)
        evidence[f"k={k},n={n}"] = dict(rep.statuses,
                                        lower_verified_to=rep.lower_verified_to)
        if rep.statuses["lower"] != "certified" or rep.statuses["upper"] != "certified":
            return "fail", evidence, {"k": k, "n": n, "statuses": rep.statuses}
    return "pass", evidence, None


CheckFn = Callable[[SearchBudget, random.Random, bool], tuple[str, dict, Optional[dict]]]

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


def run_check(
    id: str,
    budget: SearchBudget = DEFAULT_BUDGET,
    seed: int = DEFAULT_SEED,
    negative: bool = False,
) -> LemmaCheck:
    if id not in REGISTRY:
        raise ValueError(f"unknown check {id!r}; valid ids: {', '.join(REGISTRY)}")
    fn, scale = REGISTRY[id]
    rng = random.Random(seed)
    status, evidence, counterexample = fn(budget, rng, negative)
    return LemmaCheck(id=id, scale=scale, status=status,
                      evidence=evidence, counterexample=counterexample)


@dataclass
class SuiteReport:
    seed: int
    checks: list[LemmaCheck]

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
                "checks": [asdict(c) for c in self.checks],
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
    ids: Optional[list[str]] = None,
    budget: SearchBudget = DEFAULT_BUDGET,
    seed: int = DEFAULT_SEED,
) -> SuiteReport:
    """Run the named checks (all of them by default) at their desk scales."""
    if ids is None:
        ids = known_ids()
    unknown = [i for i in ids if i not in REGISTRY]
    if unknown:
        raise ValueError(
            f"unknown check ids {unknown}; valid ids: {', '.join(REGISTRY)}"
        )
    checks = [run_check(i, budget=budget, seed=seed) for i in ids]
    return SuiteReport(seed=seed, checks=checks)
