"""Maximum-separation table tests."""

import itertools

import pytest

from sepwords.atlas import ATLAS_MAX_LEN_CAP, compute_atlas
from sepwords.cache import CertificateCache, sep_key
from sepwords.solver import SepCertificate, exact_sep


def test_max_len_bounds():
    with pytest.raises(ValueError):
        compute_atlas(0)
    with pytest.raises(ValueError):
        compute_atlas(ATLAS_MAX_LEN_CAP + 1)


def test_small_values_match_brute_force():
    table = compute_atlas(3)
    words = [""] + ["".join(t) for L in (1, 2, 3)
                    for t in itertools.product("01", repeat=L)]
    for row in table.rows:
        pool = [w for w in words if len(w) <= row.n]
        brute = max(exact_sep(w, x).value
                    for w, x in itertools.combinations(pool, 2))
        assert row.value == brute
        assert row.exact


def test_full_table_values():
    table = compute_atlas(6)
    assert [r.value for r in table.rows] == [2, 2, 3, 3, 3, 3]
    assert all(r.exact for r in table.rows)
    assert all(r.value >= 2 for r in table.rows)
    values = [r.value for r in table.rows]
    assert values == sorted(values)
    # the argmax pair itself attains the reported value
    for r in table.rows:
        assert exact_sep(*r.pair).value == r.value


def test_warm_cache_reproduces_bytes_with_zero_searches(tmp_path):
    path = tmp_path / "cache.jsonl"
    cold = compute_atlas(5, cache=CertificateCache(path))
    warm = compute_atlas(5, cache=CertificateCache(path))
    assert cold.searches_performed > 0
    assert warm.searches_performed == 0
    assert cold.to_csv() == warm.to_csv()
    assert cold.to_json() == warm.to_json()


def test_cacheless_run_agrees_with_cached_run(tmp_path):
    cached = compute_atlas(4, cache=CertificateCache(tmp_path / "c.jsonl"))
    plain = compute_atlas(4)
    assert cached.to_csv() == plain.to_csv()


def test_stale_bounded_entry_is_solved_again(tmp_path):
    path = tmp_path / "cache.jsonl"
    compute_atlas(2, cache=CertificateCache(path))
    exact = exact_sep("", "00")
    stale = SepCertificate("", "00", lower=1, upper=exact.upper,
                           witness=exact.witness, lower_method="none")
    CertificateCache(path).put(sep_key("", "00"), stale.to_dict())
    cache = CertificateCache(path)
    table = compute_atlas(2, cache=cache)
    assert table.to_csv() == compute_atlas(2).to_csv()
    assert all(r.exact for r in table.rows)
    assert table.searches_performed == 1 and cache.rejected == 1


def test_csv_shape():
    table = compute_atlas(2)
    lines = table.to_csv().strip().splitlines()
    assert lines[0] == "n,value,exact,w,x"
    assert len(lines) == 3
