"""Linearized polynomial evaluation and Moore-matrix interpolation."""

import random
from itertools import combinations

import numpy as np
import pytest

from lmbr import (
    GabidulinCode,
    InconsistentDataError,
    InsufficientRankError,
    LinearizedPoly,
    ParameterError,
    field,
    interpolate,
    linpoly,
    rank_over_base,
)
from lmbr.galois import ExtField, coefficients, pivot_columns


def greedy_independent(points, needed):
    """Reference: indices of the first ``needed`` F_q-independent points, by
    incremental elimination; fewer when the whole list has smaller rank."""
    if not points:
        return []
    q = points[0].field.q
    # pivots maps a leading position to a reduced row normalized to 1 there.
    pivots = {}
    chosen = []
    for idx, p in enumerate(points):
        v = list(p.coeffs)
        for pos, row in pivots.items():
            c = v[pos]
            if c:
                v = [(a - c * b) % q for a, b in zip(v, row)]
        lead = next((i for i, a in enumerate(v) if a), None)
        if lead is None:
            continue
        inv = pow(v[lead], q - 2, q)
        pivots[lead] = [(inv * a) % q for a in v]
        chosen.append(idx)
        if len(chosen) == needed:
            break
    return chosen


@pytest.mark.parametrize("q,m", [(3, 2), (3, 6), (7, 10)])
def test_pivot_columns_pick_the_greedy_points(q, m):
    """interpolate's choice, the first pivot columns of the points'
    coefficient matrix, is the greedy scan's choice, on point lists with
    dependent, repeated and zero points."""
    F = field(q, m)
    rng = random.Random(100 * q + m)
    for _ in range(40):
        span = [F.random_element(rng) for _ in range(rng.randrange(1, m + 1))]
        points = []
        for _ in range(rng.randrange(1, 2 * m + 3)):
            kind = rng.random()
            if kind < 0.15:
                points.append(F.zero())
            elif kind < 0.3 and points:
                points.append(rng.choice(points))
            else:
                acc = F.zero()
                for b in span:
                    acc = acc + rng.randrange(q) * b
                points.append(acc)
        pivots = pivot_columns(coefficients(points, F).T, q)
        assert len(pivots) == rank_over_base(points)
        for needed in range(1, m + 1):
            assert pivots[:needed] == greedy_independent(points, needed)


def test_q_power_evaluation_frozen():
    # f(y) = y^q at x in F_9: x^3 = x * x^2 = -x = 2x.
    F9 = field(3, 2)
    f = LinearizedPoly(F9, [F9.zero(), F9.one()])
    assert f.evaluate(F9.gen()).coeffs == (0, 2)


def test_degree_zero_scales():
    F9 = field(3, 2)
    rng = random.Random(0)
    for _ in range(10):
        u0 = F9.random_element(rng)
        theta = F9.random_element(rng)
        f = LinearizedPoly(F9, [u0])
        assert f.evaluate(theta) == u0 * theta


@pytest.mark.parametrize("q", [1099511627689, 65521])
def test_prime_field_evaluation_matches_python_int_products(q):
    """At m = 1, f(y) = u y; with q just below 2^40 the product u p passes
    2^63, so the evaluation must leave int64."""
    F = field(q, 1)
    code = GabidulinCode(F, 1, 1)
    rng = random.Random(q)
    values = [0, 1, 2, q - 2, q - 1] + [rng.randrange(q) for _ in range(10)]
    for u in values:
        f = LinearizedPoly(F, [F.element([u])])
        for p in values:
            assert f.evaluate(F.element([p])).coeffs == ((u * p) % q,)
        # The one code point is 1.
        assert code.encode([F.element([u])]) == (F.element([u]),)


def test_base_field_linearity_exhaustive_lambdas():
    """f(l1 a + l2 b) = l1 f(a) + l2 f(b) for every base scalar pair."""
    F9 = field(3, 2)
    rng = random.Random(1)
    for _ in range(10):
        f = LinearizedPoly(F9, [F9.random_element(rng) for _ in range(2)])
        a, b = F9.random_element(rng), F9.random_element(rng)
        for l1 in range(3):
            for l2 in range(3):
                assert f.evaluate(l1 * a + l2 * b) == \
                    l1 * f.evaluate(a) + l2 * f.evaluate(b)


def test_canonical_form_strips_trailing_zeros():
    F9 = field(3, 2)
    f = LinearizedPoly(F9, [F9.one(), F9.zero()])
    assert f.q_degree == 0
    assert f.coeff_vector(2) == (F9.one(), F9.zero())
    zero = LinearizedPoly(F9, [F9.zero(), F9.zero()])
    assert zero.q_degree == -1
    assert zero.evaluate(F9.gen()).is_zero()


def test_q_degree_must_stay_below_m():
    F9 = field(3, 2)
    with pytest.raises(ParameterError):
        LinearizedPoly(F9, [F9.one(), F9.one(), F9.one()])


def horner_matrix(F, coeffs):
    """Reference L_f by Horner's rule, L <- L F + M(u_i) for i = t, ..., 0,
    with F and each M(u) from FieldElement products alone: column j of F
    is (x^q)^j, column k of M(u) is u x^k."""
    q, m = F.q, F.m
    basis = F.polynomial_basis(m)
    xq = F.gen() ** q if m > 1 else F.one()
    frob = np.array([(xq ** j).coeffs for j in range(m)], dtype=object).T
    matrix = np.zeros((m, m), dtype=object)
    for u in reversed(coeffs):
        mult = np.array([(u * x).coeffs for x in basis], dtype=object).T
        matrix = (matrix.dot(frob) + mult) % q
    return matrix.tolist()


@pytest.mark.parametrize("q,m", [(3, 2), (2, 6), (7, 10), (65521, 2),
                                 (1099511627689, 1)])
def test_matrix_matches_the_horner_reference(q, m):
    """L_f, one batched product of the M(u_i) with F^i, equals Horner's
    rule for the zero polynomial and every q-degree below m."""
    F = field(q, m)
    rng = random.Random(q + m)
    top = F.element([q - 1] * m)          # nonzero: the q-degree is t - 1
    for t in range(m + 1):
        coeffs = [F.random_element(rng) for _ in range(t - 1)] + [top] * (t > 0)
        poly = LinearizedPoly(F, coeffs)
        assert poly.q_degree == t - 1
        assert poly.matrix.dtype == np.int64
        assert poly.matrix.tolist() == horner_matrix(F, coeffs)


@pytest.mark.parametrize("degree", range(1, 10))
def test_matrix_takes_one_batched_product(monkeypatch, degree):
    """A polynomial of q-degree 1 or more over F_{7^10} builds its matrix
    with one mul_matrices call and one product, not one per coefficient."""
    F = field(7, 10)
    rng = random.Random(degree)
    coeffs = [F.random_element(rng) for _ in range(degree)] + [F.one()]
    calls = []

    def count(owner, name):
        inner = getattr(owner, name)
        monkeypatch.setattr(owner, name,
                            lambda *args: calls.append(name) or inner(*args))
    count(ExtField, "mul_matrices")
    count(linpoly, "_matmul_mod_q")
    LinearizedPoly(F, coeffs)
    assert sorted(calls) == ["_matmul_mod_q", "mul_matrices"]


def test_identity_interpolation_frozen():
    F9 = field(3, 2)
    pts = [F9.one(), F9.gen()]
    f = interpolate(pts, pts, 1)
    assert f.coeffs == (F9.one(),)


def test_round_trip_exhaustive_small_field():
    """Every q-degree <= 1 polynomial over F_9 from every independent pair."""
    F9 = field(3, 2)
    els = list(F9.elements())
    pairs = [
        (a, b) for a, b in combinations(els, 2) if rank_over_base([a, b]) == 2
    ]
    polys = [LinearizedPoly(F9, [u0]) for u0 in els]
    polys += [
        LinearizedPoly(F9, [u0, u1]) for u0 in els for u1 in els
        if not u1.is_zero()
    ]
    assert len(polys) == 9 + 9 * 8
    for f in polys:
        for a, b in pairs:
            got = interpolate([a, b], [f.evaluate(a), f.evaluate(b)], 1)
            assert got == f


def test_round_trip_exhaustive_degree2_f27():
    """Every q-degree <= 2 polynomial over F_27, from one independent triple
    and a rotating sample of others."""
    F = field(3, 3)
    els = list(F.elements())
    basis = list(F.polynomial_basis(3))
    rng = random.Random(6)
    extra_sets = []
    while len(extra_sets) < 10:
        cand = rng.sample(els, 3)
        if rank_over_base(cand) == 3:
            extra_sets.append(cand)
    count = 0
    for u0 in els:
        for u1 in els:
            for u2 in els:
                if u2.is_zero():
                    continue
                f = LinearizedPoly(F, [u0, u1, u2])
                vals = [f.evaluate(p) for p in basis]
                assert interpolate(basis, vals, 2) == f
                count += 1
    assert count == 27 * 27 * 26
    for pts in extra_sets:
        f = LinearizedPoly(F, [rng.choice(els), rng.choice(els), F.one()])
        assert interpolate(pts, [f.evaluate(p) for p in pts], 2) == f


def test_round_trip_larger_field_random():
    F = field(3, 6)
    rng = random.Random(8)
    basis = F.polynomial_basis(6)
    for _ in range(20):
        degree = rng.randrange(0, 4)
        coeffs = [F.random_element(rng) for _ in range(degree)] + [F.one()]
        f = LinearizedPoly(F, coeffs)
        pts = rng.sample(basis, degree + 1)
        got = interpolate(pts, [f.evaluate(p) for p in pts], degree)
        assert got == f


def test_dependent_points_raise_insufficient_rank():
    F9 = field(3, 2)
    one = F9.one()
    two = F9.element([2, 0])
    with pytest.raises(InsufficientRankError):
        interpolate([one, two], [one, two], 1)


def test_surplus_points_consistency_checked():
    F9 = field(3, 2)
    f = LinearizedPoly(F9, [F9.element([1, 2]), F9.one()])
    pts = [F9.one(), F9.gen(), F9.one() + F9.gen()]
    vals = [f.evaluate(p) for p in pts]
    assert interpolate(pts, vals, 1) == f
    vals[2] = vals[2] + F9.one()  # corrupt the dependent evaluation
    with pytest.raises(InconsistentDataError):
        interpolate(pts, vals, 1)


def test_corrupt_pivot_point_detected_by_surplus():
    """Corruption inside the solving subset is caught by leftover points."""
    F = field(3, 4)
    rng = random.Random(2)
    f = LinearizedPoly(F, [F.random_element(rng), F.one()])
    pts = list(F.polynomial_basis(4))
    vals = [f.evaluate(p) for p in pts]
    vals[0] = vals[0] + F.one()
    with pytest.raises(InconsistentDataError):
        interpolate(pts, vals, 1)


def test_length_mismatch_and_empty():
    F9 = field(3, 2)
    with pytest.raises(ParameterError):
        interpolate([F9.one()], [], 0)
    with pytest.raises(InsufficientRankError):
        interpolate([], [], 0)


def test_moore_rank_threshold():
    """t+1 independent points interpolate; t do not."""
    F = field(3, 6)
    rng = random.Random(3)
    f = LinearizedPoly(F, [F.random_element(rng) for _ in range(2)]
                       + [F.one()])
    pts = list(F.polynomial_basis(3))
    vals = [f.evaluate(p) for p in pts]
    assert interpolate(pts, vals, 2) == f
    with pytest.raises(InsufficientRankError):
        interpolate(pts[:2], vals[:2], 2)


@pytest.mark.parametrize("q,m", [(2, 1), (65521, 1), (65521, 2), (7, 10),
                                 (2, 20)])
def test_round_trip_mixed_points_with_surplus(q, m):
    """Random polynomials of random q-degree come back exactly from random
    F_q-mixed points with surplus; one corrupted surplus value is named by
    its index, and points of too small a rank are refused.  Covers prime
    fields, q near the uint16 limit and a (K m)-square system with m = 20."""
    F = field(q, m)
    rng = random.Random(q * 100 + m)

    def mixed(span, count):
        points = []
        for _ in range(count):
            acc = F.zero()
            for b in span:
                acc = acc + rng.randrange(q) * b
            points.append(acc)
        return points

    for _ in range(3):
        K = rng.randrange(1, m + 1)
        f = LinearizedPoly(F, [F.random_element(rng) for _ in range(K)])
        points = []
        while rank_over_base(points) < K:
            basis = [F.random_element(rng) for _ in range(m)]
            points = mixed(basis, K + rng.randrange(1, m + 2))
        values = [f.evaluate(p) for p in points]
        assert interpolate(points, values, K - 1) == f

        chosen = pivot_columns(coefficients(points, F).T, q)[:K]
        idx = rng.choice([i for i in range(len(points)) if i not in chosen])
        corrupt = list(values)
        corrupt[idx] = corrupt[idx] + F.one()
        with pytest.raises(InconsistentDataError, match=f"index {idx} "):
            interpolate(points, corrupt, K - 1)

        deficient = mixed(basis[:K - 1], len(points))
        with pytest.raises(InsufficientRankError):
            interpolate(deficient, [f.evaluate(p) for p in deficient], K - 1)
