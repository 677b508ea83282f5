"""Exact integer primitives: square detection, factorization, square-free
parts, and the solutions of x^2 = 1 (mod a).

`factorize` works the same at every size, with no table: it strips the
primes up to 41, splits the cofactor with Pollard-Brent rho under a
fixed work budget, and proves each piece prime with `is_prime`.  A factor
at or above 3.317 * 10**24 is only a BPSW probable prime and is listed in
`Factorization.probable_primes`.  When rho exhausts its budget,
`factorize` raises `FactorizationBudgetError` instead of running on.

Work over every a <= N (omega, S(a) and the roots of x^2 = 1 (mod a))
reads one smallest-prime-factor sieve sized to N, built per call, and
keeps two tables: spf (int32) and omega (uint8), omega filled in passes
of at most `_TABLE_PASS` entries so that temporaries stay bounded.  S(a)
is never stored, by the root sweep neither: it is
2^(omega(a) - [a = 2 (mod 4)] + [8 | a]), computed from omega and a mod 8
where it is read (`_root_counts`).  The root sweep adds only the split
a = p^e * m, as an int32 table of m.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, isqrt
from typing import TYPE_CHECKING, Iterator, NamedTuple

if TYPE_CHECKING:  # numpy is imported by the whole-range functions only
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


def _build_spf(bound: int) -> np.ndarray:
    """spf[a] is the smallest prime factor of a in [2, bound); spf[0] = 0
    and spf[1] = 1."""
    import numpy as np

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
    """Prime factorization of a positive integer: the primes up to 41 are
    stripped and the rest is split by Pollard-Brent rho, at every size.

    Raises FactorizationBudgetError (a ValueError) when n has two prime
    factors too large for rho to split within its budget.
    """
    if n < 1:
        raise ValueError(f"factorize expects a positive integer, got {n}")
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
    """All positive divisors of n, increasing, from `factorize(n)`; raises
    FactorizationBudgetError in the same cases."""
    if n < 1:
        raise ValueError(f"divisors expects a positive integer, got {n}")
    out = [1]
    for p, e in factorize(n).factors.items():
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
    """Product of the primes dividing n to an odd power, from
    `factorize(n)`."""
    if n < 1:
        raise ValueError(f"square_free_part expects a positive integer, got {n}")
    f = factorize(n)
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
    return _count_unit_roots(factorize(a).factors)


def _count_unit_roots(factors: dict[int, int]) -> int:
    """S of the product of p**e over `factors` (1 for the empty product)."""
    v2 = factors.get(2, 0)
    return 2 ** (len(factors) - (v2 == 1) + (v2 >= 3))


# ---------------------------------------------------------------------------
# Tables over every a <= N
# ---------------------------------------------------------------------------

# Roots lifted per batch: bounds the batch temporaries (about ten int64
# arrays of this length) whatever N is.  Batches are cut between moduli,
# so an a with more roots (S(a) <= 1024 below 2**31) gets a batch alone.
_ROOT_BATCH = 1 << 16
# Entries per pass over a whole-range table: bounds each pass's
# temporaries whatever N is.
_TABLE_PASS = 1 << 16


def _passes(lo: int, stop: int) -> Iterator[tuple[int, int]]:
    """[lo, stop), lo >= 1, cut into passes [a0, a1) of at most
    `_TABLE_PASS` entries with a1 <= 2*a0, so every a in a pass has
    a/2 < a0: a table filled pass by pass from entries at or below a/2
    reads only entries that earlier passes wrote."""
    while lo < stop:
        hi = min(2 * lo, lo + _TABLE_PASS, stop)
        yield lo, hi
        lo = hi


class _SpfOmega(NamedTuple):
    """Tables over every a in [0, N]; see `_spf_omega`."""

    spf: np.ndarray  # smallest prime p of a (int32)
    omega: np.ndarray  # number of distinct primes of a (uint8)


def _spf_omega(N: int) -> _SpfOmega:
    """The smallest prime factor and omega of every a in [0, N], from one
    smallest-prime-factor sieve sized to N.  omega(1) = 0; the entries of
    a = 0 mean nothing.

    With p = spf[a], omega[a] = omega[a/p] + (spf[a/p] != p), and a/p <= a/2,
    so omega fills in bounded `_passes`."""
    import numpy as np

    if not 0 <= N < 2**31:  # int32 holds every entry
        raise ValueError(f"N must be below 2**31, got {N}")
    spf = _build_spf(N + 1)
    omega = np.zeros(N + 1, dtype=np.uint8)
    for lo, hi in _passes(2, N + 1):
        p = spf[lo:hi]
        d = np.arange(lo, hi, dtype=np.int32) // p
        omega[lo:hi] = omega[d] + (spf[d] != p)
    return _SpfOmega(spf, omega)


def _root_counts(omega: np.ndarray, a: np.ndarray) -> np.ndarray:
    """S(a), the number of roots of x^2 = 1 (mod a), elementwise from
    omega(a) and a mod 8: 2^(omega - [a = 2 (mod 4)] + [8 | a]), as int32
    (the entry of a = 0 means nothing); `_count_unit_roots` for arrays."""
    import numpy as np

    return 1 << (omega.astype(np.int32) - (a & 3 == 2) + (a & 7 == 0))


class _PrimePowerSplit(NamedTuple):
    """Tables over every a in [0, N] for the root sweep; see
    `_prime_power_split`."""

    spf: np.ndarray  # smallest prime p of a (int32)
    omega: np.ndarray  # number of distinct primes of a (uint8)
    m: np.ndarray  # a // q, where q = p^e is the exact power of p in a (int32)


def _prime_power_split(N: int) -> _PrimePowerSplit:
    """The split a = q * m of every a in [0, N], beside `_spf_omega`.
    a = 1 has m = 1; the entries of a = 0 mean nothing.  m[a] = m[a/p]
    when p | a/p and a/p otherwise, so m fills in bounded `_passes`."""
    import numpy as np

    spf, omega = _spf_omega(N)
    m = np.ones(N + 1, dtype=np.int32)
    for lo, hi in _passes(2, N + 1):
        p = spf[lo:hi]
        m1 = np.arange(lo, hi, dtype=np.int32) // p
        m[lo:hi] = np.where(spf[m1] == p, m[m1], m1)  # p^2 | a: m[a] = m[a/p]
    return _PrimePowerSplit(spf, omega, m)


def _inverse_mod_prime_powers(m: np.ndarray, q: np.ndarray, p: np.ndarray) -> np.ndarray:
    """m^-1 mod q elementwise, for int64 m coprime to q = p^e < 2**31, as
    m^(phi(q) - 1) by square-and-multiply.  Most q are small, so an entry
    leaves the working set as soon as its exponent runs out."""
    import numpy as np

    u = np.ones_like(m)
    base = m % q
    at = np.flatnonzero(base > 1)  # else u = 1
    base, mod = base[at], q[at]
    exp = mod - mod // p[at] - 1
    res = np.ones_like(base)
    while len(at):
        res = np.where((exp & 1) == 1, res * base % mod, res)
        exp >>= 1
        done = exp == 0
        if done.any():
            u[at[done]] = res[done]
            live = ~done
            at, base, mod, exp, res = at[live], base[live], mod[live], exp[live], res[live]
        base = base * base % mod
    return u


def _unit_root_batches(N: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Every root x in [0, a) of x^2 = 1 (mod a) for every a in [1, N]
    (a = 1 gives x = 0), as batches of int64 arrays (a, x): a is
    nondecreasing across batches and each batch holds all roots of its a.

    With a = q * m split by `_prime_power_split`, each root of a is the
    CRT lift of a root s mod m and a root t mod q (t = +-1, and
    2^(e-1) +- 1 when q = 2^e >= 8):
    x = s + m * (((t - s) mod q) * u mod q) with u = m^-1 mod q, the
    assembly of `_crt_unit_roots`.  Every intermediate stays below
    q^2 <= N^2.  A batch never spans one of `_passes`, so the roots of
    m <= a/2 were lifted by an earlier batch; only the roots of a <= N/2
    are kept for that (int32, since x < a)."""
    import numpy as np

    spf, omega, m = _prime_power_split(max(N, 0))
    half = N // 2
    start = np.zeros(half + 2, dtype=np.int64)  # a's roots: kept[start[a]:start[a + 1]]
    a = np.arange(1, half + 1, dtype=np.int32)
    np.cumsum(_root_counts(omega[1 : half + 1], a), out=start[2:])
    kept = np.zeros(start[-1], dtype=np.int32)  # kept[0] = 0, the root of 1
    if N >= 1:
        yield np.ones(1, dtype=np.int64), np.zeros(1, dtype=np.int64)
    for lo, hi in _passes(2, N + 1):
        a = np.arange(lo, hi, dtype=np.int32)
        ends = np.cumsum(_root_counts(omega[lo:hi], a), dtype=np.int64)
        cuts = np.searchsorted(ends, np.arange(_ROOT_BATCH, ends[-1], _ROOT_BATCH), "right")
        # an a with more than _ROOT_BATCH roots repeats a cut: drop the
        # repeats, since an empty batch has no a[0]
        bounds = list(dict.fromkeys([lo, *(cuts + lo).tolist(), hi]))
        for a0, a1 in zip(bounds, bounds[1:]):
            a, x = _lift_roots(a0, a1, spf, omega, m, start, kept)
            if a0 <= half:
                top = min(a1, half + 1)
                kept[start[a0] : start[top]] = x[: start[top] - start[a0]]
            yield a, x


def _lift_roots(a0, a1, spf, omega, m, start, kept) -> tuple[np.ndarray, np.ndarray]:
    """The roots of every a in [a0, a1), a1 <= 2*a0, lifted from the kept
    roots of each m.

    Roots pair up as x and a - x, the lifts of (s, t) and (m - s, q - t),
    so each root s of m is lifted once, with t = 1, to x; the roots of a
    are x and a - x for every s, plus y = x + a/2 (mod a) and a - y when
    q = 2^e >= 8 (t = 2^(e-1) + 1 then), and just x when q = 2."""
    import numpy as np

    a = np.arange(a0, a1, dtype=np.int64)
    mm = m[a0:a1].astype(np.int64)
    qq = a // mm
    count = _root_counts(omega[a0:a1], a)
    # roots of m: m is odd (only p = 2 is even, and q holds all of it) with
    # one prime fewer than a, so S(m) = 2^(omega(a) - 1)
    pairs = 1 << (omega[a0:a1].astype(np.int32) - 1)
    u = _inverse_mod_prime_powers(mm, qq, spf[a0:a1].astype(np.int64))
    row = np.repeat(np.arange(a1 - a0), pairs)
    first = np.cumsum(pairs, dtype=np.int64) - pairs
    s = kept[start[mm][row] + np.arange(len(row)) - first[row]].astype(np.int64)
    # |1 - s| * u < m * q = a, so the product stays small
    x = s + mm[row] * ((1 - s) * u[row] % qq[row])
    a = np.repeat(a, count)
    out = np.empty(len(a), dtype=np.int64)
    width = (count // pairs)[row]  # roots per lift: 1, 2 or 4
    at = np.cumsum(width, dtype=np.int64) - width
    out[at] = x
    pm = np.flatnonzero(width > 1)
    out[at[pm] + 1] = a[at[pm]] - x[pm]
    four = np.flatnonzero(width == 4)
    a4 = a[at[four]]
    y = (x[four] + a4 // 2) % a4
    out[at[four] + 2] = y
    out[at[four] + 3] = a4 - y
    return a, out
