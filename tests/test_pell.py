import math

import pytest

from diograph import pell
from diograph.numtheory import factorize, is_square
from diograph.pell import (
    PellBudgetError,
    PellInstance,
    PellUnit,
    fundamental_unit,
    iter_orbit,
    orbit,
    unit_order_mod,
)

BRUTE_Y_BOUND = 100_000


def brute_fundamental(D, y_bound=BRUTE_Y_BOUND):
    for y in range(1, y_bound + 1):
        t = 1 + D * y * y
        if is_square(t):
            import math

            return math.isqrt(t), y
    return None


def test_fundamental_unit_examples():
    assert fundamental_unit(2) == PellUnit(3, 2)
    assert fundamental_unit(3) == PellUnit(2, 1)
    assert fundamental_unit(24) == PellUnit(5, 1)


def test_fundamental_unit_rejects_squares():
    for D in (0, 1, 4, 9, 100):
        with pytest.raises(ValueError):
            fundamental_unit(D)


def test_fundamental_unit_against_brute_force():
    for D in range(2, 201):
        import math

        if math.isqrt(D) ** 2 == D:
            continue
        unit = fundamental_unit(D)
        assert unit.mu**2 - D * unit.nu**2 == 1
        brute = brute_fundamental(D)
        if brute is None:
            assert unit.nu > BRUTE_Y_BOUND
        else:
            assert (unit.mu, unit.nu) == brute


def test_orbit_examples():
    o = orbit(PellInstance(3, -2), (1, 1), 3)
    assert o.solutions == ((1, 1), (5, 3), (19, 11), (71, 41))
    o = orbit(PellInstance(2, 1), (3, 2), 1)
    assert o.solutions == ((3, 2), (17, 12))


def test_orbit_seed_identity():
    # (X, Y) = (vi', 1) always satisfies X^2 - vi'*vj'*Y^2 = vi'*(vi'-vj')
    for vi_, vj_ in ((1, 3), (2, 5), (3, 7), (5, 2)):
        inst = PellInstance(vi_ * vj_, vi_ * (vi_ - vj_))
        assert inst.residual(vi_, 1) == 0
        o = orbit(inst, (vi_, 1), 4)
        for x, y in o.solutions:
            assert x * x - inst.D * y * y == inst.N


def test_orbit_exactness_and_monotonicity():
    o = orbit(PellInstance(61, -12), (7, 1), 6)
    xs = [x for x, _ in o.solutions]
    assert xs == sorted(xs) and len(set(xs)) == len(xs)
    for x, y in o.solutions:
        assert x * x - 61 * y * y == -12


def test_orbit_rejects_bad_seed():
    with pytest.raises(ValueError, match="residual"):
        orbit(PellInstance(3, -2), (2, 1), 1)
    with pytest.raises(ValueError):
        orbit(PellInstance(3, -2), (-1, 1), 1)


def test_unit_order_mod_examples():
    assert unit_order_mod(PellUnit(3, 2), 2, 7) == 3
    assert unit_order_mod(PellUnit(3, 2), 2, 1) == 1
    # direct iteration oracle for (2,1), D=3, m=2
    x, y, t = 2 % 2, 1 % 2, 1
    while (x, y) != (1, 0):
        x, y = (x * 2 + y * 1 * 3) % 2, (x * 1 + y * 2) % 2
        t += 1
    assert unit_order_mod(PellUnit(2, 1), 3, 2) == t


def test_unit_order_divides_and_is_minimal():
    def pair_pow(unit, D, m, t):
        x, y = 1 % m, 0
        bx, by = unit.mu % m, unit.nu % m
        while t:
            if t & 1:
                x, y = (x * bx + y * by * D) % m, (x * by + y * bx) % m
            bx, by = (bx * bx + by * by * D) % m, (2 * bx * by) % m
            t >>= 1
        return x, y

    for D, m in ((2, 7), (3, 11), (6, 35), (15, 64), (61, 30)):
        unit = fundamental_unit(D)
        t0 = unit_order_mod(unit, D, m)
        assert pair_pow(unit, D, m, t0) == (1 % m, 0)
        for p in factorize(t0).factors:
            assert pair_pow(unit, D, m, t0 // p) != (1 % m, 0)


def test_iter_orbit_matches_orbit():
    inst = PellInstance(3, -2)
    gen = iter_orbit(inst, (1, 1))
    assert [next(gen) for _ in range(4)] == [(1, 1), (5, 3), (19, 11), (71, 41)]


def test_pell_instance_validation():
    with pytest.raises(ValueError):
        PellInstance(4, 5)
    with pytest.raises(ValueError):
        PellInstance(1, 5)
    with pytest.raises(ValueError):
        PellInstance(3, 0)


def convergent_unit(D):
    """fundamental_unit before the step budget: test the norm of every
    convergent until it is +-1."""
    a0 = math.isqrt(D)
    m, d, a = 0, 1, a0
    num1, num = 1, a0
    den1, den = 0, 1
    while True:
        t = num * num - D * den * den
        if t == 1:
            return PellUnit(num, den)
        if t == -1:
            return PellUnit(num * num + D * den * den, 2 * num * den)
        m = d * a - m
        d = (D - m * m) // d
        a = (a0 + m) // d
        num, num1 = a * num + num1, num
        den, den1 = a * den + den1, den


def test_fundamental_unit_matches_convergent_norms():
    for D in [*range(2, 3000), 95419]:
        if math.isqrt(D) ** 2 != D:
            assert fundamental_unit(D) == convergent_unit(D), D


def test_pell_step_budget_raises_typed_error(monkeypatch):
    monkeypatch.setattr(pell, "_PELL_STEP_BUDGET", 100)
    assert fundamental_unit(94) == convergent_unit(94)  # period 16
    with pytest.raises(PellBudgetError, match="period"):
        fundamental_unit(95419)  # period 750
    unit = fundamental_unit(2)
    assert unit_order_mod(unit, 2, 7) == 3
    with pytest.raises(PellBudgetError, match="order"):
        unit_order_mod(unit, 2, 1019)  # order 1020
    assert issubclass(PellBudgetError, ValueError)
