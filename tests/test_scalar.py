import copy
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given

from onshell.scalar import GaussianRational, I, ONE, ZERO, rational

from conftest import scalars


def test_construction_and_coercion():
    z = GaussianRational(Fraction(1, 2), 3)
    assert z.re == Fraction(1, 2) and z.im == 3
    assert GaussianRational.of(5) == GaussianRational(Fraction(5))
    assert rational(3, 4).re == Fraction(3, 4)
    with pytest.raises(TypeError):
        GaussianRational.of(0.5)


def test_basic_identities():
    assert I * I == GaussianRational.of(-1)
    assert (ONE + I) * (ONE - I) == GaussianRational.of(2)
    assert I.conj() == -I
    assert I.inverse() == -I
    assert (ONE + I).norm2() == 2


def test_powers():
    assert I ** 4 == ONE
    assert (GaussianRational.of(2)) ** -2 == GaussianRational(Fraction(1, 4))
    assert ZERO ** 0 == ONE


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()


@given(scalars(), scalars(), scalars())
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a


@given(scalars())
def test_conjugation_involution_and_inverse(z):
    assert z.conj().conj() == z
    if not z.is_zero():
        assert z * z.inverse() == ONE
        assert (z * z.conj()).im == 0


def test_str_forms():
    assert str(GaussianRational.of(Fraction(3, 2))) == "3/2"
    assert str(I) == "i"
    assert str(GaussianRational(1, -1)) == "(1 - i)"


def test_immutable():
    z = GaussianRational(1, 2)
    with pytest.raises(AttributeError):
        z.re = Fraction(5)
    with pytest.raises(AttributeError):
        z.im = Fraction(5)
    with pytest.raises(AttributeError):
        z.extra = 1
    with pytest.raises(AttributeError):
        del z.re
    assert z == GaussianRational(1, 2)
    for copied in (copy.deepcopy(z), pickle.loads(pickle.dumps(z))):
        assert copied == z and copied.re == 1 and copied.im == 2


def test_equal_values_from_every_path_are_equal_and_hash_equal():
    half = Fraction(1, 2)
    built = [
        GaussianRational(half, -3),
        GaussianRational("1/2", "-3"),
        GaussianRational(re=half, im=Fraction(-6, 2)),
        GaussianRational.of(half) + GaussianRational(0, -3),
        GaussianRational(3, -3) - GaussianRational(Fraction(5, 2)),
        GaussianRational(1, -6) * rational(1, 2),
        (GaussianRational(1, -6) / 2),
        -GaussianRational(-half, 3),
        GaussianRational(half, 3).conj(),
    ]
    for z in built:
        assert z == built[0] and hash(z) == hash(built[0])
    reals = [GaussianRational(2), GaussianRational.of(2), GaussianRational("2"),
             rational(4, 2), ONE + ONE, GaussianRational(1, 1) * GaussianRational(1, -1),
             I * I * GaussianRational.of(-2), GaussianRational(Fraction(1, 2)).inverse()]
    for z in reals:
        assert z == reals[0] and hash(z) == hash((Fraction(2), Fraction(0)))
    assert len({*built, *reals}) == 2


def test_never_equal_to_bare_numbers():
    for x in (0, 1, 2, Fraction(1, 2), Fraction(0)):
        z = GaussianRational.of(x)
        assert z != x and x != z
        assert not z == x and not x == z
    assert ZERO != 0 and ONE != 1


def _ref(z):
    return (z.re, z.im)


def _ref_add(a, b):
    return (a[0] + b[0], a[1] + b[1])


def _ref_sub(a, b):
    return (a[0] - b[0], a[1] - b[1])


def _ref_mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _ref_div(a, b):
    d = b[0] * b[0] + b[1] * b[1]
    return _ref_mul(a, (b[0] / d, -b[1] / d))


def test_real_and_complex_paths_match_a_fraction_pair_reference():
    rng = random.Random(20240417)

    def part():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 7))

    for _ in range(400):
        # real-only pairs take the fast path, the others the complex one
        a = GaussianRational(part(), part() if rng.random() < 0.5 else 0)
        b = GaussianRational(part(), part() if rng.random() < 0.5 else 0)
        ra, rb = _ref(a), _ref(b)
        for got, want in ((a + b, _ref_add(ra, rb)), (a - b, _ref_sub(ra, rb)),
                          (a * b, _ref_mul(ra, rb)), (-a, (-ra[0], -ra[1])),
                          (a.conj(), (ra[0], -ra[1])),
                          (a + 3, _ref_add(ra, (3, 0))), (3 - a, _ref_sub((3, 0), ra)),
                          (a * Fraction(2, 3), _ref_mul(ra, (Fraction(2, 3), 0)))):
            assert _ref(got) == want
            assert type(got.re) is Fraction and type(got.im) is Fraction
        if not b.is_zero():
            assert _ref(a / b) == _ref_div(ra, rb)
            assert _ref(b.inverse()) == _ref_div((1, 0), rb)
            assert _ref(5 / b) == _ref_div((5, 0), rb)
        else:
            with pytest.raises(ZeroDivisionError):
                a / b
