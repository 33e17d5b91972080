"""Acceptance gate: one test (and one summary line) per shipping criterion.

Frozen expected values were derived by the independent brute-force
oracles in this repository (raw structure/accepting-set enumeration,
shortlex brute force) before being fixed here.
"""

import itertools
import time

from sepwords.atlas import compute_atlas
from sepwords.cache import CertificateCache
from sepwords.construct import (
    canonical_triple,
    encode,
    search_C_n,
    search_z_k,
    verify_witness,
    witness_pair,
)
from sepwords.dfa import reverse
from sepwords.lang import build_G_k, build_H_k, state_complexity
from sepwords.lemmas import run_check
from sepwords.solver import exact_sep, lsep_lower_check, no_separator_up_to


def test_criterion_1_exact_unary_separation_values():
    """sep(0, 0^7) = 3 and sep(0^2, 0^122) = 4, exact, under 10 s."""
    start = time.monotonic()
    a = exact_sep("0", "0" * 7)
    b = exact_sep("00", "0" * 122)
    assert a.exact and a.value == 3
    assert b.exact and b.value == 4
    assert a.witness is not None and b.witness is not None
    assert time.monotonic() - start < 10


def test_criterion_2_doubling_word_lower_bound():
    """search_C_n(1, "1") certifies sep(w f_1 w, w g_1 w) >= 4 = 2n+2."""
    start = time.monotonic()
    res = search_C_n(1, "1")
    t = canonical_triple(1)
    w = res.word + t.f + res.word
    x = res.word + t.g + res.word
    assert res.lower_checked == 3
    assert no_separator_up_to(w, x, 3)
    assert time.monotonic() - start < 600


def test_criterion_3_state_complexity_gap():
    """stc(G_k) >= 2^k for k=1..3 and stc(G_k^R) <= 5k+3 for k=1..5."""
    start = time.monotonic()
    for k in (1, 2, 3):
        assert state_complexity(build_G_k(k)) >= 2**k
    for k in range(1, 6):
        assert state_complexity(reverse(build_G_k(k))) <= 5 * k + 3
    assert time.monotonic() - start < 300


def test_criterion_4_certified_hard_words():
    """lsep_lower_check(z_1, H_1, 1) and lsep_lower_check(z_2, H_2, 3)."""
    start = time.monotonic()
    z1, z2 = search_z_k(1), search_z_k(2)
    assert z1.certified and z2.certified
    assert lsep_lower_check(z1.word, reverse(build_H_k(1)), 1)
    assert lsep_lower_check(z2.word, reverse(build_H_k(2)), 3)
    assert time.monotonic() - start < 1800


def test_criterion_5_property_suites():
    """Fixed-seed property suites, zero failures at documented scales."""
    suites = ["five", "onep", "pear", "peach", "ketchup", "nexus",
              "icecream", "marshmallow", "snake", "candy", "redfish",
              "spider"]
    for check_id in suites:
        c = run_check(check_id)
        assert c.status == "pass", (check_id, c.counterexample)
        # sampled suites certify at least 100 samples
        samples = c.evidence.get("samples")
        if samples is not None:
            assert samples >= 100, check_id


def test_criterion_6_search_agrees_with_raw_enumeration():
    """Structure-only search == raw enumeration, |w|,|x| <= 5, p <= 3."""
    c = run_check("fries")
    assert c.status == "pass", c.counterexample
    words = 1 + sum(2**L for L in range(1, 6))
    assert c.evidence["pairs_times_levels"] == words * (words - 1) // 2 * 3


def test_criterion_7_end_to_end_witness():
    """Witness pairs for (1,1) and (2,1) certify both bounds; corrupting
    one bit of x' flips the upper check to fail."""
    for k, n in ((1, 1), (2, 1)):
        rep = verify_witness(witness_pair(k, n))
        assert rep.statuses["lower"] == "certified", (k, n)
        assert rep.lower_verified_to >= min(2 * n + 2, -(-2 ** (k / 2) // 1))
        if (k, n) == (1, 1):
            assert rep.lower_verified_to >= 4
        assert rep.statuses["upper"] == "certified", (k, n)
        assert rep.upper_witness.state_count <= n + 10 * k + 10
    # negative control
    rep = witness_pair(1, 1)
    lc = len(encode(rep.c_word, "left"))
    idx = len(rep.x_prime) - 1 - (lc + rep.n)
    rep.x_prime = (rep.x_prime[:idx]
                   + ("1" if rep.x_prime[idx] == "0" else "0")
                   + rep.x_prime[idx + 1:])
    assert verify_witness(rep).statuses["upper"] == "failed"


def test_criterion_8_atlas_reproducibility(tmp_path):
    """S(n) for n <= 6: exact, nondecreasing, byte-stable warm or cold."""
    path = tmp_path / "cache.jsonl"
    cold = compute_atlas(6, cache=CertificateCache(path))
    warm = compute_atlas(6, cache=CertificateCache(path))
    plain = compute_atlas(6)
    assert warm.searches_performed == 0
    assert cold.to_csv() == warm.to_csv() == plain.to_csv()
    assert cold.to_json() == warm.to_json() == plain.to_json()
    values = [r.value for r in cold.rows]
    assert values == [2, 2, 3, 3, 3, 3]  # derived by the brute-force oracle
    assert values == sorted(values)
    assert all(r.exact for r in cold.rows)


def test_criteria_smoke_independent_oracle():
    """Spot-check the frozen values of criteria 1 and 8 by brute force."""
    from reference import raw_separable
    assert not raw_separable("0", "0" * 7, 2)
    assert raw_separable("0", "0" * 7, 3)
    words = [""] + ["".join(t) for L in (1, 2, 3)
                    for t in itertools.product("01", repeat=L)]
    brute = max(exact_sep(w, x).value
                for w, x in itertools.combinations(words, 2))
    assert brute == 3
