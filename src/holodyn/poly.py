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
    """Evaluate degree-ascending coefficients at z (scalar or ndarray).

    Horner's rule ((c_n z + c_(n-1)) z + ...) z + c_0 without its exact
    no-op arithmetic: leading zero coefficients are skipped, a leading
    coefficient of exactly 1 or -1 is not multiplied by z, and a zero
    coefficient is not added.  The remaining operations run in the same
    order, so for finite z the value is the literal formula's but for the
    sign of an exactly-zero component.  A constant polynomial evaluates to
    its coefficient, a scalar even when z is an array.
    """
    top = len(coeffs) - 1
    while top >= 0 and coeffs[top] == 0:
        top -= 1
    if top < 0:
        return 0j
    acc = coeffs[top]
    for k in range(top - 1, -1, -1):
        if k == top - 1:  # acc is still the leading coefficient
            acc = z if acc == 1 else -z if acc == -1 else acc * z
        else:
            acc = acc * z
        if coeffs[k] != 0:
            acc = acc + coeffs[k]
    return acc


def polyval_dual(coeffs: Sequence[complex], z: complex) -> tuple[complex, complex]:
    """(p(z), p'(z)) for a scalar z; p(z) is computed exactly as polyval does.

    The derivative runs the Horner recurrence d <- d z + acc alongside the
    value, so both cost one pass over the coefficients.
    """
    top = len(coeffs) - 1
    while top >= 0 and coeffs[top] == 0:
        top -= 1
    if top < 0:
        return 0j, 0j
    acc = coeffs[top]
    der = 0j
    for k in range(top - 1, -1, -1):
        if k == top - 1:
            der = acc
            acc = z if acc == 1 else -z if acc == -1 else acc * z
        else:
            der = der * z + acc
            acc = acc * z
        if coeffs[k] != 0:
            acc = acc + coeffs[k]
    return acc, der


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
