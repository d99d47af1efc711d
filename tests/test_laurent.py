import pytest

from kmc.laurent import LOOP, Laurent


def test_zero_and_one():
    assert not Laurent()
    assert Laurent({0: 1}) == Laurent({0: 1, 2: 0})
    assert Laurent() + Laurent({0: 1}) == Laurent({0: 1})
    assert Laurent({0: 1}) != 1  # no Laurent equals an int


def test_no_zero_coefficients_stored():
    p = Laurent({3: 1}) + Laurent({3: -1})
    assert p.coeffs == {}
    assert p == Laurent()


def test_arithmetic():
    p = Laurent({1: 2, -1: 3})
    q = Laurent({0: 1, 1: -2})
    assert p + q == Laurent({1: 0, -1: 3, 0: 1, 1: 0}) + Laurent({1: 0})
    assert (p + q).coeffs == {-1: 3, 0: 1}
    assert p * Laurent({0: 1}) == p
    assert p * q == Laurent({1: 2, 2: -4, -1: 3, 0: -6})


def test_span():
    assert LOOP.span() == 4
    assert Laurent({7: 1, 3: -1, -5: -1}).span() == 12
    assert Laurent({0: 5}).span() == 0
    with pytest.raises(ValueError):
        Laurent().span()


def test_substitute_signed_power():
    # q -> -A^-2 on q^2 + q gives A^-4 - A^-2
    p = Laurent({2: 1, 1: 1})
    assert p.substitute_signed_power(-1, -2) == Laurent({-4: 1, -2: -1})
    # sign +1 just scales exponents
    assert p.substitute_signed_power(1, 3) == Laurent({6: 1, 3: 1})


def test_format():
    assert str(Laurent()) == "0"
    assert str(Laurent({3: -1, 0: 2})) == "-1*A^3 + 2"
    assert Laurent({1: 1}).format("q") == "1*q^1"
