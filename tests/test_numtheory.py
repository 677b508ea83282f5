import random

import numpy as np
import pytest

from diograph import numtheory
from diograph.cli import main
from diograph.numtheory import (
    Factorization,
    FactorizationBudgetError,
    count_unit_roots,
    crt_combine,
    divisors,
    factorize,
    is_prime,
    is_square,
    same_square_free_part,
    square_free_part,
    unit_roots_mod,
)


def brute_unit_roots(a):
    return [x for x in range(a) if (x * x - 1) % a == 0] if a > 1 else [0]


def brute_factorize(n):
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def test_is_square_examples():
    assert is_square(3 * 8 + 1)
    assert is_square(0)
    assert not is_square(1 * 2 + 1)
    with pytest.raises(ValueError):
        is_square(-1)


def test_factorize_examples():
    assert factorize(24).factors == {2: 3, 3: 1}
    assert factorize(24).omega == 2
    assert factorize(1).factors == {}
    assert factorize(1).omega == 0
    assert factorize(840).factors == brute_factorize(840) == {2: 3, 3: 1, 5: 1, 7: 1}
    with pytest.raises(ValueError):
        factorize(0)


def test_factorize_invariants_random():
    rng = random.Random(7)
    for _ in range(300):
        n = rng.randrange(1, 10**6)
        f = factorize(n)
        assert f.factors == brute_factorize(n)
        prod = 1
        for p, e in f.factors.items():
            assert is_prime(p)
            prod *= p**e
        assert prod == n
        assert list(f.factors) == sorted(f.factors)


def test_factorize_primes_just_above_10_7():
    n = 10_000_019 * 4  # a prime just above 10^7
    assert factorize(n).factors == {2: 2, 10_000_019: 1}
    big = 10_000_019 * 10_000_079
    assert factorize(big).factors == {10_000_019: 1, 10_000_079: 1}


def test_square_free_part_examples():
    assert square_free_part(16) == 1
    assert square_free_part(12) == 3
    assert square_free_part(7) == 7


def test_square_free_part_invariants():
    for n in range(1, 10_001):
        s = square_free_part(n)
        assert n % s == 0
        assert is_square(n // s)
        assert all(e == 1 for e in factorize(s).factors.values())


def test_same_square_free_part_matches_direct():
    rng = random.Random(11)
    for _ in range(300):
        a = rng.randrange(1, 5000)
        b = rng.randrange(1, 5000)
        assert same_square_free_part(a, b) == (
            square_free_part(a) == square_free_part(b)
        )


def test_unit_roots_examples():
    assert unit_roots_mod(24).roots == (1, 5, 7, 11, 13, 17, 19, 23)
    assert unit_roots_mod(24).count == 8
    assert unit_roots_mod(2).roots == (1,)
    assert unit_roots_mod(2).count == 1
    assert unit_roots_mod(1).roots == (0,)
    assert unit_roots_mod(1).count == 1


def test_count_unit_roots_examples():
    assert count_unit_roots(24) == 8
    assert count_unit_roots(15) == 4
    assert count_unit_roots(4) == 2
    assert count_unit_roots(1) == 1


def test_unit_roots_against_brute_force_small():
    for a in range(1, 2001):
        enum = unit_roots_mod(a)
        assert list(enum.roots) == brute_unit_roots(a)
        assert enum.count == count_unit_roots(a) == len(enum.roots)


def roots_by_modulus(N, wanted=None):
    """{a: sorted roots} from `_unit_root_batches(N)` for every a, or for
    the a in `wanted`, checking that no a is split between batches."""
    out = {}
    last = 0
    for a, x in numtheory._unit_root_batches(N):
        assert a.dtype == x.dtype == np.int64 and len(a) == len(x)
        assert a[0] > last and np.all(np.diff(a) >= 0)
        last = a[-1]
        if wanted is not None:
            keep = np.isin(a, wanted)
            a, x = a[keep], x[keep]
        for ai, xi in zip(a.tolist(), x.tolist()):
            out.setdefault(ai, []).append(xi)
    return {a: sorted(roots) for a, roots in out.items()}


def test_unit_root_batches_match_unit_roots_mod():
    got = roots_by_modulus(2 * 10**4)
    assert list(got) == list(range(1, 2 * 10**4 + 1))
    for a, roots in got.items():
        assert tuple(roots) == unit_roots_mod(a).roots, a


def test_unit_root_batches_on_powers_of_two_times_odd(monkeypatch):
    # every 2-adic case of the lift (q = 2, 4 and 2^e >= 8) beside odd m
    # with none to three primes, over many batches per doubling
    moduli = [2**e * m for e in range(1, 15) for m in (1, 3, 7, 15, 105) if 2**e * m < 3 * 10**5]
    monkeypatch.setattr(numtheory, "_ROOT_BATCH", 1 << 12)
    got = roots_by_modulus(max(moduli), moduli)
    for a in moduli:
        assert tuple(got[a]) == unit_roots_mod(a).roots, a
        if a < 3000:
            assert got[a] == brute_unit_roots(a)


def test_prime_power_split_matches_factorize():
    N = 10**4
    spf, omega = numtheory._spf_omega(N)
    split = numtheory._prime_power_split(N)
    assert spf.dtype == split.spf.dtype == split.m.dtype == np.int32
    assert omega.dtype == split.omega.dtype == np.uint8
    S = numtheory._root_counts(omega, np.arange(N + 1))
    assert np.array_equal(split.spf, spf)
    assert np.array_equal(split.omega, omega)
    for a in range(2, N + 1):
        f = factorize(a)
        p = min(f.factors)
        assert spf[a] == p
        assert omega[a] == f.omega
        assert S[a] == count_unit_roots(a)
        assert split.m[a] == a // p ** f.factors[p]
    assert (omega[1], S[1], split.m[1]) == (0, 1, 1)


def test_prime_power_split_rejects_n_beyond_int32():
    for N in (-1, 2**31, 10**10):
        for tables in (numtheory._spf_omega, numtheory._prime_power_split):
            with pytest.raises(ValueError, match=r"below 2\*\*31"):
                tables(N)


@pytest.mark.parametrize("batch", [1, 3, 7])
def test_root_batches_smaller_than_one_modulus(monkeypatch, batch):
    # a modulus with more roots than a batch holds gets a batch of its own
    from diograph.graph import build_range

    sizes = (1, 2, 3, 8, 33, 100, 300, 1000, 2000)
    graphs = [build_range(N) for N in sizes]
    roots = roots_by_modulus(2000)
    monkeypatch.setattr(numtheory, "_ROOT_BATCH", batch)
    assert roots_by_modulus(2000) == roots
    for N, G in zip(sizes, graphs):
        assert build_range(N) == G, N


def test_root_count_headline_bound():
    for a in range(1, 5001):
        assert count_unit_roots(a) <= 2 ** (factorize(a).omega + 1)


def test_crt_combine():
    x, m = crt_combine([(1, 4), (3, 9)])
    assert (x, m) == (21, 36)
    with pytest.raises(ValueError):
        crt_combine([(0, 4), (1, 6)])


def test_factorization_type_invariants():
    f = factorize(360)
    assert isinstance(f, Factorization)
    assert f.n == 360
    assert f.factors == {2: 3, 3: 2, 5: 1}


M89 = 2**89 - 1  # a Mersenne prime above the deterministic Miller-Rabin limit
MR_LIMIT = 3_317_044_064_679_887_385_961_981


def test_factorize_above_bound_never_builds_the_sieve():
    assert factorize(10_000_019 * 10_000_079 * 3**4).factors == {
        3: 4, 10_000_019: 1, 10_000_079: 1,
    }


def test_divisors_match_trial_division_without_the_sieve():
    for n in list(range(1, 400)) + [1_000_000, 999_999, 2**20, 3**4 * 43**2]:
        assert divisors(n) == [d for d in range(1, n + 1) if n % d == 0], n
    # 10^18 - 1 = 3^4 * 7 * 11 * 13 * 19 * 37 * 52579 * 333667
    assert len(divisors(10**18 - 1)) == 5 * 2**7
    with pytest.raises(ValueError):
        divisors(0)


def test_is_prime_matches_the_sieve_below_2_16():
    # factorize certifies every piece with is_prime, small ones included;
    # spf[0] = 0 and spf[1] = 1 mark the two non-primes that equal their entry
    spf = numtheory._build_spf(2**16)
    for n in range(2**16):
        assert is_prime(n) == (n >= 2 and spf[n] == n), n


def test_miller_rabin_needs_base_41_below_the_limit():
    # the smallest strong pseudoprime to every prime base up to 37
    n = 318_665_857_834_031_151_167_461
    assert not is_prime(n)
    assert factorize(n).factors == {399_165_290_221: 1, 798_330_580_441: 1}


def test_factorize_beyond_miller_rabin_marks_probable_primes():
    f = factorize(2 * M89)
    assert f.factors == {2: 1, M89: 1}
    assert f.probable_primes == (M89,)
    assert factorize(M89 * M89 * 9).factors == {3: 2, M89: 2}
    assert factorize(10_000_019 * 10_000_079).probable_primes == ()
    assert square_free_part(18 * M89) == 2 * M89


def test_factorize_budget_error(monkeypatch):
    monkeypatch.setattr(numtheory, "_RHO_BUDGET", 1000)
    n = 1_000_000_007 * 1_000_000_009
    with pytest.raises(FactorizationBudgetError, match=str(n)) as exc:
        factorize(n)
    assert isinstance(exc.value, ValueError)
    # a small second factor still splits within the budget
    assert factorize(101 * 1_000_000_007).factors == {101: 1, 1_000_000_007: 1}


def test_factorize_budget_error_through_cli(monkeypatch, capsys):
    monkeypatch.setattr(numtheory, "_RHO_BUDGET", 1000)
    n = 1_000_000_007 * 1_000_000_009
    # a = 1, b = (10^9 + 8)^2: |A^2 - B^2| = (10^9 + 8)^2 - 1 = n
    code = main(["neighbors", "--set", f"1,{1_000_000_008 ** 2}"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and str(n) in lines[0]


def _oracle():
    sympy = pytest.importorskip("sympy")
    hypothesis = pytest.importorskip("hypothesis")
    return sympy, hypothesis, hypothesis.strategies


# the same examples on every run, and nothing written to disk
ORACLE_SETTINGS = {"deadline": None, "derandomize": True, "database": None}


def test_factorize_oracle_prime_powers_above_bound():
    sympy, _, _ = _oracle()
    p = 10_000_019
    for _ in range(4):
        for k in range(1, 6):
            assert factorize(p**k).factors == sympy.factorint(p**k) == {p: k}
        p = sympy.nextprime(p)


def test_factorize_oracle_semiprimes():
    sympy, hypothesis, st = _oracle()

    @hypothesis.settings(max_examples=12, **ORACLE_SETTINGS)
    @hypothesis.given(st.integers(10**7, 10**12), st.integers(10**7, 10**12))
    def check(x, y):
        p, q = sympy.prevprime(x + 1), sympy.prevprime(y + 1)
        assert factorize(p * q).factors == sympy.factorint(p * q)

    check()


def test_factorize_oracle_square_times_prime():
    sympy, hypothesis, st = _oracle()

    @hypothesis.settings(max_examples=40, **ORACLE_SETTINGS)
    @hypothesis.given(st.integers(2, 10**9), st.integers(2, 10**9))
    def check(x, y):
        p, q = sympy.nextprime(x), sympy.nextprime(y)
        n = p * p * q
        assert factorize(n).factors == sympy.factorint(n)

    check()


def test_factorize_oracle_prime_squares_above_bound():
    sympy, hypothesis, st = _oracle()

    @hypothesis.settings(max_examples=40, **ORACLE_SETTINGS)
    @hypothesis.given(st.integers(10**7, 10**20))
    def check(x):
        p = sympy.nextprime(x)
        assert factorize(p * p).factors == {p: 2}
        assert not is_prime(p * p)

    check()


def test_factorize_oracle_carmichael_numbers():
    sympy, _, _ = _oracle()
    # Chernick: (6k+1)(12k+1)(18k+1) is a Carmichael number when all
    # three factors are prime
    found = 0
    for k in range(1, 400):
        ps = (6 * k + 1, 12 * k + 1, 18 * k + 1)
        if not all(sympy.isprime(p) for p in ps):
            continue
        n = ps[0] * ps[1] * ps[2]
        assert not is_prime(n)
        assert factorize(n).factors == sympy.factorint(n) == {p: 1 for p in ps}
        found += 1
    assert found >= 10
    for n in (561, 1105, 1729, 2465, 2821, 6601, 8911, 10585, 15841, 29341):
        assert not is_prime(n)
        assert factorize(n).factors == sympy.factorint(n)


def test_is_prime_oracle_around_miller_rabin_limit():
    sympy, hypothesis, st = _oracle()
    for n in range(MR_LIMIT - 500, MR_LIMIT + 500):
        assert is_prime(n) == sympy.isprime(n), n

    @hypothesis.settings(max_examples=300, **ORACLE_SETTINGS)
    @hypothesis.given(st.integers(MR_LIMIT // 10**6, MR_LIMIT * 10**15))
    def check(n):
        assert is_prime(n) == sympy.isprime(n)

    check()
    q = sympy.nextprime(numtheory.isqrt(MR_LIMIT))
    assert is_prime(sympy.nextprime(MR_LIMIT)) and is_prime(M89) and is_prime(2**127 - 1)
    assert not is_prime(MR_LIMIT)  # a strong pseudoprime to every base up to 41
    assert not is_prime(q * sympy.nextprime(q))
