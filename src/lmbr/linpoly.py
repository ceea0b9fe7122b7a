"""Linearized polynomials over F_{q^m}.

A linearized polynomial f(y) = sum_i u_i y^(q^i) acts as an F_q-linear map
on F_{q^m}: f(c1 a + c2 b) = c1 f(a) + c2 f(b) for c1, c2 in the base field.
A polynomial of q-degree t < m is pinned down by its values on any t+1
points that are linearly independent over F_q, which is what makes these
the message carriers of rank-metric pre-coding: evaluations may be handed
to the decoder after arbitrary F_q-linear mixing, not only at the original
points.

:func:`interpolate` recovers the unique polynomial from such evaluations.
It solves the Moore system on the first points, in the order given, that are
F_q-independent of the points before them.  Surplus evaluations are never
ignored: they are checked against the recovered polynomial so that
corrupted symbols surface as :class:`~lmbr.errors.InconsistentDataError`
instead of silently decoding.
"""

from __future__ import annotations

from typing import Sequence

from .errors import InconsistentDataError, InsufficientRankError, ParameterError
from .galois import ExtField, FieldElement, coeff_columns, pivot_columns


class LinearizedPoly:
    """Canonical-form linearized polynomial (trailing coefficient nonzero).

    ``coeffs`` is the tuple (u_0, ..., u_t); the zero polynomial stores an
    empty tuple and has q-degree -1.
    """

    __slots__ = ("field", "coeffs")

    def __init__(self, field: ExtField, coeffs: Sequence[FieldElement]):
        coeffs = list(coeffs)
        for c in coeffs:
            field._require_same(c.field)
        while coeffs and coeffs[-1].is_zero():
            coeffs.pop()
        if len(coeffs) > field.m:
            raise ParameterError(
                f"q-degree {len(coeffs) - 1} must stay below m={field.m} "
                "for evaluations to determine the polynomial"
            )
        self.field = field
        self.coeffs = tuple(coeffs)

    @property
    def q_degree(self) -> int:
        return len(self.coeffs) - 1

    def evaluate(self, point: FieldElement) -> FieldElement:
        """f(point) = sum_i u_i * point^(q^i)."""
        self.field._require_same(point.field)
        acc = self.field.zero()
        power = point
        for i, u in enumerate(self.coeffs):
            if i:
                power = power.frobenius(1)
            if not u.is_zero():
                acc = acc + u * power
        return acc

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


def _solve_square(field: ExtField, matrix: list[list[FieldElement]],
                  rhs: list[FieldElement]) -> list[FieldElement]:
    """Gaussian elimination over F_{q^m} for a square system."""
    n = len(matrix)
    rows = [list(matrix[i]) + [rhs[i]] for i in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if not rows[r][col].is_zero()), None)
        # The caller only solves Moore systems on independent points, which
        # are provably nonsingular.
        assert pivot is not None, "Moore matrix of independent points is singular"
        rows[col], rows[pivot] = rows[pivot], rows[col]
        inv = rows[col][col].inverse()
        rows[col] = [v * inv for v in rows[col]]
        for r in range(n):
            if r != col and not rows[r][col].is_zero():
                factor = rows[r][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
    return [rows[i][n] for i in range(n)]


def interpolate(points: Sequence[FieldElement], values: Sequence[FieldElement],
                max_q_degree: int) -> LinearizedPoly:
    """Unique linearized polynomial of q-degree <= ``max_q_degree`` through
    the given evaluations.

    The points may be arbitrary field elements (of any rank profile); only
    ``max_q_degree + 1`` of them need to be independent over F_q.  The
    Moore system is solved on the first ``max_q_degree + 1`` points that
    are independent of the points before them (the pivot columns of the
    points' coefficient matrix), and every remaining pair is verified
    against the recovered polynomial.

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
        raise InsufficientRankError("no evaluations supplied")
    fld = points[0].field
    for v in values:
        fld._require_same(v.field)
    needed = max_q_degree + 1
    if needed < 1:
        raise ParameterError("max_q_degree must be >= 0")
    if needed > fld.m:
        raise ParameterError(
            f"q-degree bound {max_q_degree} must stay below m={fld.m}"
        )
    if len(points) < needed:
        raise InsufficientRankError(
            f"need at least {needed} evaluations, got {len(points)}"
        )
    chosen = pivot_columns(coeff_columns(points), fld.q)[:needed]
    if len(chosen) < needed:
        raise InsufficientRankError(
            f"evaluation points have rank {len(chosen)} over the base field, "
            f"need {needed}"
        )
    # Moore system: row j is (p_j, p_j^q, ..., p_j^(q^t)).
    moore = []
    for j in chosen:
        row = [points[j]]
        for _ in range(max_q_degree):
            row.append(row[-1].frobenius(1))
        moore.append(row)
    coeffs = _solve_square(fld, moore, [values[j] for j in chosen])
    poly = LinearizedPoly(fld, coeffs)
    chosen_set = set(chosen)
    for idx, (p, v) in enumerate(zip(points, values)):
        if idx in chosen_set:
            continue
        if poly.evaluate(p) != v:
            raise InconsistentDataError(
                f"surplus evaluation at index {idx} contradicts the "
                "interpolated polynomial (corrupt symbol?)"
            )
    return poly
