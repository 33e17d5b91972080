"""Desk-scale check registry tests: positives, negatives, determinism."""

import itertools
import json
import random
from pathlib import Path

import pytest

from sepwords import dfa, lemmas
from sepwords.dfa import enumerate_canonical, run, zero_cycle_length, zpath
from sepwords.lemmas import (
    DEFAULT_SEED,
    known_ids,
    run_check,
    run_lemma_suite,
)
from sepwords.solver import DEFAULT_BUDGET, no_separator_up_to, raw_tables

ALL_IDS = [
    "fries", "pear", "five", "onep", "peach", "nexus", "icecream",
    "marshmallow", "snake", "ketchup", "three", "jellybean", "two",
    "spider", "kebab", "four", "candy", "redfish", "farmand",
    "blueberry", "main",
]


def test_registry_lists_every_check():
    assert known_ids() == ALL_IDS


@pytest.mark.parametrize("check_id", ALL_IDS)
def test_positive_instance(check_id):
    c = run_check(check_id)
    assert c.status in ("pass", "budget-bounded"), (check_id, c.counterexample)
    assert c.counterexample is None
    assert c.evidence  # every check reports how much work it certified


@pytest.mark.parametrize("check_id", ALL_IDS)
def test_negative_control_fails(check_id):
    c = run_check(check_id, negative=True)
    assert c.status == "fail", check_id
    assert c.counterexample is not None


def test_budget_bounded_checks_are_exactly_the_uncertified_ones():
    statuses = {i: run_check(i).status for i in ALL_IDS}
    bounded = {i for i, s in statuses.items() if s == "budget-bounded"}
    # only the level-4 heuristic-hard-word checks are not fully certified
    assert bounded == {"kebab", "four"}


def test_suite_determinism_is_byte_exact():
    ids = ["pear", "five", "onep", "spider", "candy", "redfish"]
    a = run_lemma_suite(ids, seed=DEFAULT_SEED)
    b = run_lemma_suite(ids, seed=DEFAULT_SEED)
    assert a.to_json() == b.to_json()
    assert a.to_text() == b.to_text()


def test_unknown_id_lists_valid_ids():
    with pytest.raises(ValueError) as e:
        run_lemma_suite(["nope"])
    assert "nope" in str(e.value)
    for valid in ALL_IDS:
        assert valid in str(e.value)
    with pytest.raises(ValueError):
        run_check("nope")


def test_exit_code_contract():
    assert run_lemma_suite(["pear", "three"]).exit_code == 0
    assert run_lemma_suite(["kebab"]).exit_code == 2
    report = run_lemma_suite(["pear"])
    report.checks[0].status = "fail"
    assert report.exit_code == 1


def test_check_json_is_serializable():
    c = run_check("three")
    text = c.to_json()
    assert '"three"' in text and '"pass"' in text


def _frozen_lines() -> list[str]:
    """The suite JSON at the default seed and at seed 7, then the JSON of
    every negative control, as produced before the zpath checks and fries
    were rewritten (one per line)."""
    return (Path(__file__).parent / "lemma_frozen.jsonl").read_text().splitlines()


@pytest.mark.parametrize("seed", [DEFAULT_SEED, 7])
def test_suite_json_is_frozen(seed):
    frozen = {json.loads(line)["seed"]: line
              for line in _frozen_lines() if '"seed"' in line}
    assert run_lemma_suite(seed=seed).to_json() == frozen[seed]


def test_negative_controls_are_frozen():
    frozen = {json.loads(line)["id"]: line
              for line in _frozen_lines() if '"seed"' not in line}
    assert list(frozen) == ALL_IDS
    for check_id in ALL_IDS:
        assert run_check(check_id, negative=True).to_json() == frozen[check_id]


# The per-structure and per-(pair, p) loops of these checks before they
# were rewritten, kept verbatim as references.

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
        for p in (1, 2, 3):
            lazy = not no_separator_up_to(w, x, p if not negative else max(1, p - 1))
            raw = False
            for m, ends in tables:
                if m > p:
                    continue
                if ends[w] != ends[x]:
                    # an accepting set picking ends[w] alone realizes this
                    raw = any(
                        (mask >> ends[w] & 1) and not (mask >> ends[x] & 1)
                        for mask in range(1 << m)
                    )
                    if raw:
                        break
            checked += 1
            if lazy != raw:
                return "fail", {"checked": checked}, {"w": w, "x": x, "p": p}
    return "pass", {"pairs_times_levels": checked}, None


def _check_icecream(budget, rng, negative):
    """zpath splits at any cut point; exhaustive over 3- and 4-state structures."""
    checked = 0
    for p in (3, 4):
        for d in enumerate_canonical(p, 2):
            for q in range(d.state_count):
                full = len(zpath(d, q))
                for i in range(1, d.state_count + 1):
                    head = len(zpath(d, q, i - 1))
                    tail = len(zpath(d, run(d, q, "0" * i)))
                    expect = head + tail + (1 if negative else 0)
                    checked += 1
                    if full != expect:
                        return "fail", {"checked": checked}, {
                            "dfa": d.transitions, "q": q, "i": i}
    return "pass", {"checked": checked}, None


def _check_marshmallow(budget, rng, negative):
    """zpath prefixes are bounded by i+1 and contained in the full zpath."""
    checked = 0
    for p in (3, 4):
        for d in enumerate_canonical(p, 2):
            for q in range(d.state_count):
                full = zpath(d, q)
                for i in range(0, d.state_count + 1):
                    part = zpath(d, q, i)
                    bound = i if negative else i + 1
                    checked += 1
                    if len(part) > bound or not part <= full:
                        return "fail", {"checked": checked}, {
                            "dfa": d.transitions, "q": q, "i": i}
    return "pass", {"checked": checked}, None


def _check_snake(budget, rng, negative):
    """A cycle-free 0-trajectory of length i has exactly i+1 zpath states."""
    checked = 0
    for p in (3, 4):
        for d in enumerate_canonical(p, 2):
            for q in range(d.state_count):
                for i in range(0, d.state_count + 1):
                    if zero_cycle_length(d, run(d, q, "0" * i)) is not None:
                        continue
                    checked += 1
                    expect = i if negative else i + 1
                    if len(zpath(d, q, i)) != expect or expect > d.state_count:
                        return "fail", {"checked": checked}, {
                            "dfa": d.transitions, "q": q, "i": i}
    return "pass", {"checked": checked}, None


REFERENCES = {
    "fries": _check_fries,
    "icecream": _check_icecream,
    "marshmallow": _check_marshmallow,
    "snake": _check_snake,
}


def _both_sides(check_id, negative):
    fn, _ = lemmas.REGISTRY[check_id]
    args = (DEFAULT_BUDGET, random.Random(DEFAULT_SEED), negative)
    return fn(*args), REFERENCES[check_id](*args)


@pytest.mark.parametrize("negative", [False, True])
@pytest.mark.parametrize("check_id", sorted(REFERENCES))
def test_checks_equal_their_references(check_id, negative):
    got, want = _both_sides(check_id, negative)
    assert got == want
    assert got[0] == ("fail" if negative else "pass")


@pytest.mark.parametrize("check_id", ["icecream", "marshmallow", "snake"])
def test_deep_zpath_fault_is_reported_like_the_reference(monkeypatch, check_id):
    # a fault that shows only where some state has a 3-state zpath, i.e.
    # only on 4-state 0-columns such as 0 -> 1 -> 2 -> 3 -> 3: zpath(d, q, 1)
    # returns the full zpath instead of its first two states
    real = dfa.zpath

    def faulty(d, q, i=None):
        full = real(d, q)
        return full if i == 1 and len(full) == 3 else real(d, q, i)

    monkeypatch.setattr(lemmas, "zpath", faulty)
    monkeypatch.setitem(globals(), "zpath", faulty)
    got, want = _both_sides(check_id, False)
    assert got == want
    status, evidence, counterexample = got
    assert status == "fail" and len(counterexample["dfa"]) == 4
    # found after every <= 3-state structure, at a state q > 0 of its own
    # structure: `checked` adds an offset within that structure to the items
    # of hundreds of earlier ones (e.g. 2 454 for icecream at q = 3, i = 2)
    assert counterexample["q"] > 0
    assert evidence["checked"] > 229
