import pytest

from kmc.laurent import LOOP, Laurent


def test_zero_and_one():
    assert not Laurent.zero()
    assert Laurent.one() == 1
    assert Laurent.zero() + Laurent.one() == Laurent.one()


def test_no_zero_coefficients_stored():
    p = Laurent({3: 1}) - Laurent({3: 1})
    assert p.coeffs == {}
    assert p == 0


def test_arithmetic():
    p = Laurent({1: 2, -1: 3})
    q = Laurent({0: 1, 1: -2})
    assert p + q == Laurent({1: 0, -1: 3, 0: 1, 1: 0}) + Laurent({1: 0})
    assert (p + q).coeffs == {-1: 3, 0: 1}
    assert p * Laurent.one() == p
    assert p * q == Laurent({1: 2, 2: -4, -1: 3, 0: -6})


def test_pow():
    assert LOOP**0 == Laurent.one()
    assert LOOP**2 == Laurent({4: 1, 0: 2, -4: 1})
    with pytest.raises(ValueError):
        LOOP**-1


def test_span():
    assert LOOP.span() == 4
    assert Laurent({7: 1, 3: -1, -5: -1}).span() == 12
    assert Laurent({0: 5}).span() == 0
    with pytest.raises(ValueError):
        Laurent.zero().span()


def test_substitute_signed_power():
    # q -> -A^-2 on q^2 + q gives A^-4 - A^-2
    p = Laurent({2: 1, 1: 1})
    assert p.substitute_signed_power(-1, -2) == Laurent({-4: 1, -2: -1})
    # sign +1 just scales exponents
    assert p.substitute_signed_power(1, 3) == Laurent({6: 1, 3: 1})


def test_format():
    assert str(Laurent.zero()) == "0"
    assert str(Laurent({3: -1, 0: 2})) == "-1*A^3 + 2"
    assert Laurent({1: 1}).format("q") == "1*q^1"
