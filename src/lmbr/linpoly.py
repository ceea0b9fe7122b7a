"""Linearized polynomials over F_{q^m}.

A linearized polynomial f(y) = sum_i u_i y^(q^i) acts as an F_q-linear map
on F_{q^m}: f(c1 a + c2 b) = c1 f(a) + c2 f(b) for c1, c2 in the base field.
A polynomial of q-degree t < m is pinned down by its values on any t+1
points that are linearly independent over F_q, which is what makes these
the message carriers of rank-metric pre-coding: evaluations may be handed
to the decoder after arbitrary F_q-linear mixing, not only at the original
points.

Evaluation uses that linearity: on coefficient vectors f is the m x m F_q
matrix L_f = sum_i M(u_i) F^i, with M(u) the matrix of multiplication by u
and F the field's Frobenius matrix, so each evaluation is one product mod q.

:func:`interpolate` recovers the unique polynomial from such evaluations.
It solves the Moore system on the first points, in the order given, that are
F_q-independent of the points before them.  The system is solved over
F_{q^m} by :func:`~lmbr.galois.solve_moore`, K pivot steps for K unknowns,
not as its (K m)-square F_q expansion.  Surplus evaluations are never
ignored: they are checked against the recovered polynomial so that
corrupted symbols surface as :class:`~lmbr.errors.InconsistentDataError`
instead of silently decoding.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import InconsistentDataError, InsufficientRankError, ParameterError
from .galois import (ExtField, FieldElement, _matmul_mod_q, as_elements,
                     coefficients, pivot_columns, solve_moore)


class LinearizedPoly:
    """Canonical-form linearized polynomial (trailing coefficient nonzero).

    ``coeffs`` is the tuple (u_0, ..., u_t); the zero polynomial stores an
    empty tuple and has q-degree -1.  ``matrix`` is L_f, built once by
    Horner's rule: L <- L F + M(u_i) for i = t, ..., 0.
    """

    __slots__ = ("field", "coeffs", "matrix")

    def __init__(self, field: ExtField, coeffs: Sequence[FieldElement]):
        coeffs = list(coeffs)
        rows = coefficients(coeffs, field)
        while coeffs and coeffs[-1].is_zero():
            coeffs.pop()
        if len(coeffs) > field.m:
            raise ParameterError(
                f"q-degree {len(coeffs) - 1} must stay below m={field.m} "
                "for evaluations to determine the polynomial"
            )
        self.field = field
        self.coeffs = tuple(coeffs)
        # Exact in int64: for m >= 2 the size budget keeps m (q-1)^2 below
        # 2^63, and at m = 1 the one step multiplies zeros by F.
        self.matrix = np.zeros((field.m, field.m), dtype=np.int64)
        for mult in np.tensordot(rows[:len(coeffs)][::-1], field._basis_mul,
                                 axes=1):
            self.matrix = (self.matrix @ field._frob + mult) % field.q

    @property
    def q_degree(self) -> int:
        return len(self.coeffs) - 1

    def evaluate(self, point: FieldElement) -> FieldElement:
        """f(point) = sum_i u_i * point^(q^i), as L_f times the point's
        coefficient vector."""
        value = _matmul_mod_q(self.matrix, coefficients([point], self.field).T,
                              self.field.q)
        return as_elements(self.field, value.T)[0]

    def coeff_vector(self, length: int) -> tuple[FieldElement, ...]:
        """Coefficients padded with zeros up to ``length``."""
        if length < len(self.coeffs):
            raise ParameterError(
                f"polynomial has q-degree {self.q_degree}, does not fit in {length}"
            )
        pad = [self.field.zero()] * (length - len(self.coeffs))
        return self.coeffs + tuple(pad)

    def __eq__(self, other):
        return (
            isinstance(other, LinearizedPoly)
            and self.field is other.field
            and self.coeffs == other.coeffs
        )

    def __repr__(self):
        return f"LinearizedPoly(q_degree={self.q_degree})"


def interpolate(points: Sequence[FieldElement], values: Sequence[FieldElement],
                max_q_degree: int) -> LinearizedPoly:
    """Unique linearized polynomial of q-degree <= ``max_q_degree`` through
    the given evaluations.

    The points may be arbitrary field elements (of any rank profile); only
    ``max_q_degree + 1`` of them need to be independent over F_q.  The
    Moore system is solved over F_{q^m}, by
    :func:`~lmbr.galois.solve_moore`, on the first ``max_q_degree + 1``
    points that are independent of the points before them (the pivot
    columns of the points' coefficient matrix), and every remaining pair is
    verified against the recovered polynomial.

    Raises :class:`InsufficientRankError` when the points do not span enough
    of F_q^m, and :class:`InconsistentDataError` when a surplus evaluation
    contradicts the others.
    """
    points = list(points)
    values = list(values)
    if len(points) != len(values):
        raise ParameterError(
            f"got {len(points)} points but {len(values)} values"
        )
    if not points:
        raise no_evaluations()
    fld = points[0].field
    value_rows = coefficients(values, fld)
    needed = max_q_degree + 1
    if needed < 1:
        raise ParameterError("max_q_degree must be >= 0")
    if needed > fld.m:
        raise ParameterError(
            f"q-degree bound {max_q_degree} must stay below m={fld.m}"
        )
    columns = coefficients(points, fld).T
    chosen = independent_points(columns, needed, fld.q)
    # The unknowns are u_0..u_t, one equation per chosen value; independent
    # points make the system nonsingular.
    solution = solve_moore(fld, columns[:, chosen], value_rows[chosen, None])
    poly = LinearizedPoly(fld, as_elements(fld, solution[:, 0]))
    for idx, (p, v) in enumerate(zip(points, values)):
        if idx not in chosen and poly.evaluate(p) != v:
            raise surplus_mismatch(idx)
    return poly


def independent_points(columns: np.ndarray, needed: int, q: int) -> list[int]:
    """The points a Moore system is solved on: the first ``needed`` of the
    points' coefficient columns that are independent over F_q of the
    columns before them.

    Raises :class:`InsufficientRankError` when there are fewer than
    ``needed`` columns or their rank falls short.
    """
    if columns.shape[1] < needed:
        raise InsufficientRankError(
            f"need at least {needed} evaluations, got {columns.shape[1]}"
        )
    chosen = pivot_columns(columns, q)[:needed]
    if len(chosen) < needed:
        raise InsufficientRankError(
            f"evaluation points have rank {len(chosen)} over the base field, "
            f"need {needed}"
        )
    return chosen


def no_evaluations() -> InsufficientRankError:
    """The error for a decode given no evaluations at all."""
    return InsufficientRankError("no evaluations supplied")


def surplus_mismatch(index: int) -> InconsistentDataError:
    """The error for a surplus evaluation, ``index``-th in input order,
    that contradicts the polynomial recovered from the chosen points."""
    return InconsistentDataError(
        f"surplus evaluation at index {index} contradicts the "
        "interpolated polynomial (corrupt symbol?)"
    )
