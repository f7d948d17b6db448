"""Shared strategies, corpus builders and fixtures for the test suite."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from onshell import chi

from onshell.scalar import GaussianRational
from onshell.deltaspace import DeltaVector, Polynomial, enumerate_multi_indices
from onshell.opalg import (
    OperatorExpr,
    dalembert,
    default_signature,
    euler,
    parity,
)
from onshell.spectral import RestrictionMatrix


def small_fractions():
    return st.builds(Fraction,
                     st.integers(min_value=-6, max_value=6),
                     st.integers(min_value=1, max_value=4))


def scalars():
    return st.builds(GaussianRational, small_fractions(), small_fractions())


def multi_indices(n: int, max_order: int):
    return st.sampled_from(enumerate_multi_indices(n, max_order))


def delta_vectors(n: int, max_order: int):
    return st.dictionaries(multi_indices(n, max_order), scalars(), max_size=4).map(
        lambda d: DeltaVector(n, d))


def polynomials(n: int, max_degree: int):
    return st.dictionaries(multi_indices(n, max_degree), scalars(), max_size=4).map(
        lambda d: Polynomial(n, d))


def sparse_rows(rows) -> tuple:
    """Per dense row, the (column, entry) pairs of its nonzero entries."""
    return tuple(tuple((j, a) for j, a in enumerate(row) if not a.is_zero()) for row in rows)


def dense_matrix(n: int, r_domain: int, r_codomain: int, rows) -> RestrictionMatrix:
    """The matrix with the given dense rows of GaussianRational, whose width
    must be the domain dimension C(n + r_domain, n)."""
    m = RestrictionMatrix(n, r_domain, r_codomain, sparse_rows(rows))
    assert all(len(row) == m.ncols for row in rows)
    return m


def random_scalar(rng: random.Random) -> GaussianRational:
    return GaussianRational(Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                            Fraction(rng.randint(-2, 2), 1))


def random_delta_vector(rng: random.Random, n: int, r: int,
                        density: float = 0.7) -> DeltaVector:
    coeffs = {}
    for alpha in enumerate_multi_indices(n, r):
        if rng.random() < density:
            coeffs[alpha] = random_scalar(rng)
    return DeltaVector(n, coeffs)


def random_poly_coeff_operator(rng: random.Random, n: int,
                               max_deriv: int = 2, max_coeff_deg: int = 2,
                               allow_pullback: bool = False) -> OperatorExpr:
    """Random polynomial-coefficient differential operator (optionally with a
    parity factor); never the zero operator."""
    while True:
        terms = []
        for _ in range(rng.randint(1, 3)):
            deriv = tuple(rng.randint(0, max_deriv) for _ in range(n))
            if sum(deriv) > max_deriv:
                deriv = tuple(0 for _ in range(n))
            coeff = {}
            for _ in range(rng.randint(1, 2)):
                beta = tuple(rng.randint(0, max_coeff_deg) for _ in range(n))
                if sum(beta) > max_coeff_deg:
                    beta = (0,) * n
                coeff[beta] = random_scalar(rng)
            poly = Polynomial(n, coeff)
            if poly.is_zero():
                continue
            terms.append((poly, deriv, None))
        if not terms:
            continue
        op = OperatorExpr._normalized(n, terms)
        if allow_pullback and rng.random() < 0.3:
            op = op @ parity(n)
        if not op.is_zero():
            return op


def structured_operator(rng: random.Random, n: int) -> OperatorExpr:
    """Operators from the named families, occasionally composed."""
    choices = [
        euler(n, Fraction(rng.randint(-2 * n - 3, 2))),
        dalembert(n, Fraction(rng.randint(0, 2)), default_signature(n)),
        parity(n),
        random_poly_coeff_operator(rng, n),
    ]
    op = choices[rng.randrange(len(choices))]
    if rng.random() < 0.3:
        op = op @ choices[rng.randrange(len(choices))]
    return op


@pytest.fixture
def fresh_split_tables():
    """Empty `chi._basis_chi` and `chi._orbit_split` before and after the
    test: a test that patches `chi._split_degree` must not read splits
    made without the patch, nor leave its own for the tests after it."""
    chi._basis_chi.cache_clear()
    chi._orbit_split.cache_clear()
    yield
    chi._basis_chi.cache_clear()
    chi._orbit_split.cache_clear()
