"""Exact integer primitives: square detection, factorization, square-free
parts, and the solutions of x^2 = 1 (mod a).

Factorization below the sieve bound (10**7 entries by default, overridable
via the DIOGRAPH_SIEVE_BOUND environment variable, read once) walks an
int32 smallest-prime-factor table.  Larger inputs never touch the table:
they strip the primes up to 41, split the cofactor with Pollard-Brent rho
under a fixed work budget, and prove each piece prime with `is_prime`.
A factor at or above 3.317 * 10**24 is only a BPSW probable prime and is
listed in `Factorization.probable_primes`.  When rho exhausts its budget,
`factorize` raises `FactorizationBudgetError` instead of running on.

The table is built once, under a lock, on first use and is read-only
afterwards, so everything here is safe for concurrent callers.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from functools import cache
from math import gcd, isqrt
from typing import Iterator

import numpy as np

__all__ = [
    "Factorization",
    "FactorizationBudgetError",
    "UnitRootsModA",
    "count_unit_roots",
    "crt_combine",
    "divisors",
    "factorize",
    "is_prime",
    "is_square",
    "isqrt",
    "iter_primes",
    "same_square_free_part",
    "square_free_part",
    "unit_roots_mod",
]

SIEVE_BOUND_ENV = "DIOGRAPH_SIEVE_BOUND"
DEFAULT_SIEVE_BOUND = 10_000_000
# Every table entry is below the bound, so int32 holds them all up to here.
_MAX_SIEVE_BOUND = 2**31

_spf_table: np.ndarray | None = None
_spf_lock = threading.Lock()

# Miller-Rabin with these bases is deterministic below 3.317 * 10**24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_DETERMINISTIC_LIMIT = 3_317_044_064_679_887_385_961_981

# Pollard-Brent iterations allowed per factorize call.  Rho needs about
# sqrt(p) of them to find a prime factor p, so this covers a second-largest
# prime factor up to roughly 10**13; one iteration is two modular
# multiplications, about 0.4 microseconds in CPython 3.11 on x86-64.
_RHO_BUDGET = 10_000_000
# Iterations whose differences are multiplied together before one gcd.
_RHO_BATCH = 128


class FactorizationBudgetError(ValueError):
    """Pollard-Brent rho used up its work budget before n was factored."""


@cache
def _sieve_bound() -> int:
    raw = os.environ.get(SIEVE_BOUND_ENV)
    if raw is None:
        return DEFAULT_SIEVE_BOUND
    bound = int(raw)
    if not 4 <= bound <= _MAX_SIEVE_BOUND:
        raise ValueError(
            f"{SIEVE_BOUND_ENV} must be between 4 and 2**31, got {bound}"
        )
    return bound


def _spf() -> np.ndarray:
    """Smallest-prime-factor table for [0, bound), built lazily, once."""
    global _spf_table
    if _spf_table is None:
        with _spf_lock:
            if _spf_table is None:
                _spf_table = _build_spf(_sieve_bound())
    return _spf_table


def _build_spf(bound: int) -> np.ndarray:
    spf = np.zeros(bound, dtype=np.int32)
    for i in range(2, isqrt(bound - 1) + 1):
        if spf[i] == 0:
            sl = spf[i * i :: i]
            sl[sl == 0] = i
    untouched = spf == 0
    spf[untouched] = np.nonzero(untouched)[0]
    return spf


def is_square(n: int) -> bool:
    """True iff n is a perfect square.  Negative input is rejected."""
    if n < 0:
        raise ValueError(f"is_square expects a nonnegative integer, got {n}")
    r = isqrt(n)
    return r * r == n


def is_prime(n: int) -> bool:
    """Primality for any integer.

    Below 3.317 * 10**24 this is Miller-Rabin with the thirteen prime
    bases up to 41, which is deterministic there (the twelve bases up to
    37 alone pass the composite 318665857834031151167461).  From that
    limit on it is the Baillie-PSW test: a strong base-2 test plus a
    strong Lucas test with Selfridge's parameters.  No composite is known
    to pass it, but none is proven not to, so `factorize` reports the
    factors it certifies this way as probable primes.
    """
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n < _MR_DETERMINISTIC_LIMIT:
        return all(_strong_probable_prime(n, a) for a in _MR_BASES)
    return (
        _strong_probable_prime(n, 2)
        and not is_square(n)
        and _strong_lucas_probable_prime(n)
    )


def _strong_probable_prime(n: int, a: int) -> bool:
    """Strong Fermat test of odd n > a to base a."""
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    x = pow(a, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd positive n."""
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _strong_lucas_probable_prime(n: int) -> bool:
    """Strong Lucas test with Selfridge's method A parameters, for odd n
    that is not a perfect square and has no prime factor up to 41."""
    D = 5
    while True:
        j = _jacobi(D, n)
        if j == -1:
            break
        if j == 0:
            return False  # gcd(|D|, n) > 1 and |D| < n
        D = -D - 2 if D > 0 else -D + 2
    P, Q = 1, (1 - D) // 4
    d = n + 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    # U_k, V_k and Q^k, where k is d's leading bits, one more bit per step
    U, V, Qk = 1, P, Q % n
    for bit in bin(d)[3:]:
        U, V = U * V % n, (V * V - 2 * Qk) % n
        Qk = Qk * Qk % n
        if bit == "1":
            U, V = (P * U + V) % n, (D * U + P * V) % n
            U = (U + n if U % 2 else U) // 2
            V = (V + n if V % 2 else V) // 2
            Qk = Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V = (V * V - 2 * Qk) % n
        if V == 0:
            return True
        Qk = Qk * Qk % n
    return False


def iter_primes() -> Iterator[int]:
    """Primes in increasing order, without an upper bound."""
    yield 2
    n = 3
    while True:
        if is_prime(n):
            yield n
        n += 2


@dataclass
class Factorization:
    """Prime-exponent map of n, keys strictly increasing.

    `probable_primes` lists, increasing, the factors that are only BPSW
    probable primes; it is empty unless a factor is at least 3.317e24.
    """

    n: int
    factors: dict[int, int]
    probable_primes: tuple[int, ...] = ()

    @property
    def omega(self) -> int:
        """Number of distinct prime factors; omega(1) == 0."""
        return len(self.factors)


def factorize(n: int) -> Factorization:
    """Prime factorization of a positive integer.

    Raises FactorizationBudgetError (a ValueError) when n has two prime
    factors too large for Pollard-Brent rho to split within its budget.
    """
    if n < 1:
        raise ValueError(f"factorize expects a positive integer, got {n}")
    if n >= _sieve_bound():
        return _factorize_large(n)
    spf = _spf()
    m = n
    factors: dict[int, int] = {}
    while m > 1:
        p = int(spf[m])
        e = 0
        while m % p == 0:
            m //= p
            e += 1
        factors[p] = e
    return Factorization(n, factors)


def _factorize_large(n: int) -> Factorization:
    """Strip the primes up to 41, then split what is left with rho."""
    factors: dict[int, int] = {}
    m = n
    for p in _MR_BASES:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            factors[p] = e
    budget = _RHO_BUDGET
    pending = [(m, 1)] if m > 1 else []
    while pending:
        m, k = pending.pop()
        if is_prime(m):
            factors[m] = factors.get(m, 0) + k
            continue
        r = isqrt(m)
        if r * r == m:
            pending.append((r, 2 * k))
            continue
        d, used = _pollard_brent(m, budget)
        budget -= used
        if d is None:
            raise FactorizationBudgetError(
                f"could not factor n={n} within {_RHO_BUDGET} Pollard-Brent iterations"
            )
        pending += [(d, k), (m // d, k)]
    probable = tuple(p for p in sorted(factors) if p >= _MR_DETERMINISTIC_LIMIT)
    return Factorization(n, dict(sorted(factors.items())), probable)


def divisors(n: int) -> list[int]:
    """All positive divisors of n, increasing.

    n is split as `factorize` splits inputs above the sieve bound, at any
    size, so a one-off call never builds the table; it raises
    FactorizationBudgetError in the same cases.
    """
    if n < 1:
        raise ValueError(f"divisors expects a positive integer, got {n}")
    out = [1]
    for p, e in _factorize_large(n).factors.items():
        out = [d * p**k for d in out for k in range(e + 1)]
    return sorted(out)


def _pollard_brent(n: int, budget: int) -> tuple[int | None, int]:
    """A proper divisor of the odd composite n, found by Brent's variant
    of Pollard's rho (Brent 1980), and the iterations spent; the divisor
    is None when `budget` iterations did not suffice."""
    used = 0
    c = 0
    while True:
        c += 1
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            if used + r > budget:
                return None, used
            for _ in range(r):
                y = (y * y + c) % n
            used += r
            k = 0
            while k < r and g == 1:
                ys = y
                step = min(_RHO_BATCH, r - k)
                if used + step > budget:
                    return None, used
                for _ in range(step):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                used += step
                g = gcd(q, n)
                k += step
            r *= 2
        if g == n:
            # the batch overshot: redo it one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(x - ys, n)
        if g != n:
            return g, used


def square_free_part(n: int) -> int:
    """Product of the primes dividing n to an odd power.

    Like `divisors`, n is split without the sieve at any size, so a
    one-off call never builds the table.
    """
    if n < 1:
        raise ValueError(f"square_free_part expects a positive integer, got {n}")
    f = _factorize_large(n)
    out = 1
    for p, e in f.factors.items():
        if e % 2 == 1:
            out *= p
    return out


def same_square_free_part(a: int, b: int) -> bool:
    """True iff a and b have equal square-free parts.

    Equivalent to a*b being a perfect square, which avoids factoring and
    therefore works for arbitrarily large inputs.
    """
    if a < 1 or b < 1:
        raise ValueError("inputs must be positive")
    return is_square(a * b)


def crt_combine(residues_mods: list[tuple[int, int]]) -> tuple[int, int]:
    """Combine congruences x = r (mod m) with pairwise coprime moduli.

    Returns (x, M) with 0 <= x < M = product of the moduli.
    """
    x, m = 0, 1
    for r, mod in residues_mods:
        if gcd(m, mod) != 1:
            raise ValueError("moduli must be pairwise coprime")
        # x' = x + m * t with t = (r - x) / m  (mod `mod`)
        t = ((r - x) * pow(m, -1, mod)) % mod
        x += m * t
        m *= mod
    return x % m, m


@dataclass
class UnitRootsModA:
    """All residues x in [0, a) with x^2 = 1 (mod a)."""

    a: int
    roots: tuple[int, ...]
    count: int


def _prime_power_unit_roots(p: int, e: int) -> tuple[int, ...]:
    pe = p**e
    if p != 2:
        return (1, pe - 1)
    if e == 1:
        return (1,)
    if e == 2:
        return (1, 3)
    half = pe // 2
    return (1, half - 1, half + 1, pe - 1)


def unit_roots_mod(a: int) -> UnitRootsModA:
    """Enumerate the roots of x^2 = 1 (mod a), assembled by CRT.

    For a == 1 the single residue 0 is returned (everything is 1 mod 1).
    """
    if a < 1:
        raise ValueError(f"modulus must be positive, got {a}")
    if a == 1:
        return UnitRootsModA(1, (0,), 1)
    roots = _crt_unit_roots(factorize(a).factors)
    return UnitRootsModA(a, tuple(roots), len(roots))


def _crt_unit_roots(factors: dict[int, int]) -> list[int]:
    """The roots of x^2 = 1 modulo the product of p**e over `factors`,
    increasing: the prime-power roots lifted one modulus at a time by CRT."""
    roots = [0]
    mod = 1
    for p, e in factors.items():
        pe = p**e
        inv = pow(mod, -1, pe)
        local = _prime_power_unit_roots(p, e)
        roots = [r + mod * (((s - r) * inv) % pe) for r in roots for s in local]
        mod *= pe
    return sorted(roots)


def count_unit_roots(a: int) -> int:
    """Closed-form S(a): the number of solutions of x^2 = 1 (mod a).

    2^omega(a) for odd a, halved when a = 2 (mod 4), unchanged when 4
    divides a exactly, doubled when 8 | a.  S(1) is defined as 1.
    """
    if a < 1:
        raise ValueError(f"modulus must be positive, got {a}")
    if a == 1:
        return 1
    f = factorize(a)
    omega = f.omega
    v2 = f.factors.get(2, 0)
    if v2 == 0:
        return 2**omega
    if v2 == 1:
        return 2 ** (omega - 1)
    if v2 == 2:
        return 2**omega
    return 2 ** (omega + 1)
