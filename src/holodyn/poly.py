"""Polynomial helpers: univariate Horner evaluation and exact bivariate algebra.

Univariate coefficients are stored degree-ascending (coefficient of degree d
at index d).  ``Poly2`` is a sparse bivariate polynomial over C used to turn
a chain of elementary steps into its exact polynomial form, which is how
quadratic jets are extracted without finite differences.
"""
from __future__ import annotations

from typing import Iterable, Sequence


def normalize_coeffs(coeffs: Iterable[complex]) -> tuple[complex, ...]:
    """Strip trailing zero coefficients, keeping at least the constant term."""
    out = [complex(c) for c in coeffs]
    if not out:
        return (0j,)
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return tuple(out)


def polyval(coeffs: Sequence[complex], z):
    """Evaluate degree-ascending coefficients at z (scalar or ndarray)."""
    acc = 0j
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def polyder(coeffs: Sequence[complex]) -> tuple[complex, ...]:
    if len(coeffs) <= 1:
        return (0j,)
    return tuple(k * coeffs[k] for k in range(1, len(coeffs)))


class Poly2:
    """Sparse polynomial in two complex variables, keyed by (deg_x, deg_y)."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[tuple[int, int], complex] | None = None):
        self.terms = {k: complex(v) for k, v in (terms or {}).items() if v != 0}

    @classmethod
    def const(cls, c: complex) -> "Poly2":
        return cls({(0, 0): c})

    @classmethod
    def x(cls) -> "Poly2":
        return cls({(1, 0): 1.0})

    @classmethod
    def y(cls) -> "Poly2":
        return cls({(0, 1): 1.0})

    def __add__(self, other: "Poly2") -> "Poly2":
        terms = dict(self.terms)
        for k, v in other.terms.items():
            terms[k] = terms.get(k, 0j) + v
        return Poly2(terms)

    def __sub__(self, other: "Poly2") -> "Poly2":
        return self + other.scale(-1.0)

    def __mul__(self, other: "Poly2") -> "Poly2":
        terms: dict[tuple[int, int], complex] = {}
        for (i, j), a in self.terms.items():
            for (k, l), b in other.terms.items():
                key = (i + k, j + l)
                terms[key] = terms.get(key, 0j) + a * b
        return Poly2(terms)

    def scale(self, c: complex) -> "Poly2":
        return Poly2({k: c * v for k, v in self.terms.items()})

    def coefficient(self, i: int, j: int) -> complex:
        return self.terms.get((i, j), 0j)

    def total_degree(self) -> int:
        if not self.terms:
            return 0
        return max(i + j for i, j in self.terms)

    def max_coeff(self) -> float:
        return max((abs(v) for v in self.terms.values()), default=0.0)


def poly_of_poly(coeffs: Sequence[complex], p: Poly2) -> Poly2:
    """Substitute bivariate p into a univariate polynomial (Horner)."""
    acc = Poly2.const(0j)
    for c in reversed(coeffs):
        acc = acc * p + Poly2.const(c)
    return acc
