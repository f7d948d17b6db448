import copy
import pickle
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, strategies as st

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
        # about half the operands are real; real and complex ones run the
        # same integer-triple arithmetic and must both match the reference
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


# -- oracle: every traced scalar method against a Fraction-pair reference ----

def _parts():
    small = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 36))
    big = st.builds(Fraction, st.integers(-2 ** 80, 2 ** 80), st.integers(1, 2 ** 70))
    return st.one_of(st.just(Fraction(0)), small, big)


def _gaussians():
    return st.builds(GaussianRational, _parts(), _parts())


def _operands():
    return st.one_of(_gaussians(), st.integers(-10 ** 6, 10 ** 6), _parts())


def _pair(x):
    if isinstance(x, GaussianRational):
        return (x.re, x.im)
    return (Fraction(x), Fraction(0))


def _assert_canonical(z, want):
    """z is a canonical GaussianRational with the reference value `want`."""
    assert type(z) is GaussianRational
    assert type(z.a) is int and type(z.b) is int and type(z.d) is int
    assert z.d > 0 and gcd(z.a, z.b, z.d) == 1
    if not z.a and not z.b:
        assert z.d == 1 and not z
    for part in (z.re, z.im):
        assert type(part) is Fraction and gcd(part.numerator, part.denominator) == 1
    assert (z.re, z.im) == want
    assert z == GaussianRational(*want) and hash(z) == hash(want)


def _ref_pow(a, k):
    out = (Fraction(1), Fraction(0))
    base = a if k >= 0 else _ref_div((Fraction(1), Fraction(0)), a)
    for _ in range(abs(k)):
        out = _ref_mul(out, base)
    return out


@given(_gaussians(), _operands(), st.integers(-3, 3))
def test_every_scalar_method_matches_a_fraction_pair_reference(z, x, k):
    rz, rx = _pair(z), _pair(x)
    _assert_canonical(z, rz)
    for got, want in ((z + x, _ref_add(rz, rx)), (x + z, _ref_add(rx, rz)),
                      (z - x, _ref_sub(rz, rx)), (x - z, _ref_sub(rx, rz)),
                      (z * x, _ref_mul(rz, rx)), (x * z, _ref_mul(rx, rz)),
                      (-z, (-rz[0], -rz[1])), (z.conj(), (rz[0], -rz[1]))):
        _assert_canonical(got, want)
    norm = z.norm2()
    assert type(norm) is Fraction and norm == rz[0] ** 2 + rz[1] ** 2
    if any(rx):
        _assert_canonical(z / x, _ref_div(rz, rx))
    else:
        with pytest.raises(ZeroDivisionError):
            z / x
    if any(rz):
        _assert_canonical(x / z, _ref_div(rx, rz))
        _assert_canonical(z.inverse(), _ref_div((Fraction(1), Fraction(0)), rz))
        _assert_canonical(z ** k, _ref_pow(rz, k))
    else:
        for zero_division in (lambda: z.inverse(), lambda: 1 / z, lambda: z ** -1):
            with pytest.raises(ZeroDivisionError):
                zero_division()
        _assert_canonical(z ** abs(k), (Fraction(int(k == 0)), Fraction(0)))


@given(_parts(), _parts())
def test_parts_are_read_only_and_survive_pickle_and_copy(re, im):
    for z in (GaussianRational(re, im), GaussianRational(str(re), str(im))):
        _assert_canonical(z, (re, im))
        for name in ("re", "im", "a", "b", "d"):
            with pytest.raises(AttributeError):
                setattr(z, name, 1)
            with pytest.raises(AttributeError):
                delattr(z, name)
        for copied in (copy.copy(z), copy.deepcopy(z), pickle.loads(pickle.dumps(z))):
            _assert_canonical(copied, (re, im))
            assert (copied.a, copied.b, copied.d) == (z.a, z.b, z.d)
        assert (z.re, z.im) == (re, im)


def test_int_parts_and_zero_are_canonical():
    _assert_canonical(GaussianRational(), (Fraction(0), Fraction(0)))
    _assert_canonical(ZERO, (Fraction(0), Fraction(0)))
    _assert_canonical(GaussianRational(Fraction(0, 5), "0/7"), (Fraction(0), Fraction(0)))
    _assert_canonical(GaussianRational(-4, 6), (Fraction(-4), Fraction(6)))
    _assert_canonical(GaussianRational(Fraction(1, 6), Fraction(-3, 4)), (Fraction(1, 6), Fraction(-3, 4)))
    assert (GaussianRational(Fraction(1, 6), Fraction(-3, 4)).a,
            GaussianRational(Fraction(1, 6), Fraction(-3, 4)).d) == (2, 12)
    half = GaussianRational(Fraction(1, 2), Fraction(1, 2))
    _assert_canonical(half + half, (Fraction(1), Fraction(1)))
    _assert_canonical(half - half, (Fraction(0), Fraction(0)))
    _assert_canonical(half * 0, (Fraction(0), Fraction(0)))
    _assert_canonical(half * 4, (Fraction(2), Fraction(2)))
    for parts in ((0.5,), (1, 0.5), (None,), (1, [1])):
        with pytest.raises(TypeError):
            GaussianRational(*parts)
