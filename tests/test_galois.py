"""Field construction, arithmetic, Frobenius structure, and base-field
elimination (rank, inverse, pivot columns)."""

import functools
import random
import struct
import time
from itertools import product

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lmbr import LinearizedPoly, ParameterError, field, galois, rank_over_base
from lmbr.galois import (
    ExtField,
    _exact_dtype,
    _matmul_mod_q,
    _residues,
    _row_reduce,
    apply_int_matrix,
    inv_mod_q,
    pivot_columns,
    rank_mod_q,
    solve_mod_q,
    subset_ranks,
)


def brute_irreducible_degree2(q):
    """Independent oracle: first degree-2 monic with no root, by base-q value."""
    for value in range(q * q):
        c0, c1 = value % q, value // q
        if all((x * x + c1 * x + c0) % q != 0 for x in range(q)):
            return (c0, c1, 1)
    raise AssertionError


def test_prime_field_modulus_is_x():
    assert field(3, 1).modulus == (0, 1)


def test_f9_modulus_matches_root_check_oracle():
    assert brute_irreducible_degree2(3) == (1, 0, 1)
    assert field(3, 2).modulus == (1, 0, 1)


@pytest.mark.parametrize("q", [3, 7, 11, 13])
def test_degree2_modulus_matches_oracle(q):
    assert field(q, 2).modulus == brute_irreducible_degree2(q)


def test_non_prime_base_rejected():
    with pytest.raises(ParameterError):
        field(4, 2)


def test_size_budget_rejected():
    with pytest.raises(ParameterError):
        field(2, 41)  # 2^41 > 2^40
    with pytest.raises(ParameterError):
        field(3, 0)


def test_field_is_interned():
    assert field(3, 2) is field(3, 2)


def test_prime_field_arithmetic():
    F3 = field(3, 1)
    two = F3.element([2])
    assert (two + two).coeffs == (1,)
    assert (two * two).coeffs == (1,)
    assert two.inverse().coeffs == (2,)
    assert (two - two).is_zero()
    # Past the int64 elimination limit, inversion is still exact.
    q = 1099511627689
    big = field(q, 1)
    a = big.element([123456789012])
    assert a.inverse().coeffs == (pow(123456789012, -1, q),)
    assert a / a == big.one()


def test_f9_x_squared_reduces():
    F9 = field(3, 2)
    x = F9.gen()
    assert (x * x).coeffs == (2, 0)  # x^2 = -1 under x^2 + 1


def test_identities_hold():
    F9 = field(3, 2)
    rng = random.Random(0)
    for _ in range(25):
        a = F9.random_element(rng)
        assert a * F9.one() == a
        assert a + F9.zero() == a
        assert a - a == F9.zero()


def test_pow_semantics():
    F = field(3, 4)
    rng = random.Random(13)
    for _ in range(10):
        a = F.random_element(rng)
        assert a ** 0 == F.one()
        assert a ** 1 == a
        assert a ** 5 == a * a * a * a * a
        if not a.is_zero():
            # Multiplicative group order q^m - 1.
            assert a ** (F.order - 1) == F.one()
            assert a ** -1 == a.inverse()
            assert a ** -3 == (a.inverse()) ** 3


def test_zero_inverse_rejected():
    with pytest.raises(ZeroDivisionError):
        field(3, 2).zero().inverse()


def test_field_mismatch_rejected():
    with pytest.raises(ParameterError):
        field(3, 2).one() + field(3, 3).one()


@pytest.mark.parametrize("q,m", [(3, 2), (3, 4), (7, 2), (2, 6)])
def test_field_axioms_exhaustive_small(q, m):
    """Associativity, distributivity, unique inverses for q^m <= 81.

    Operation tables are built from the real element operations, then every
    triple is checked at once with integer array indexing, so the sweep is
    genuinely exhaustive (up to 81^3 triples) yet fast.
    """
    F = field(q, m)
    n = F.order
    assert n <= 81
    els = [F.from_int(v) for v in range(n)]
    add = np.array([[(a + b).to_int() for b in els] for a in els])
    mul = np.array([[(a * b).to_int() for b in els] for a in els])
    # a + (b + c) == (a + b) + c and likewise for *.
    assert np.array_equal(add[add, :], add[:, add])
    assert np.array_equal(mul[mul, :], mul[:, mul])
    # a * (b + c) == a*b + a*c.
    lhs = mul[:, add]
    rhs = add[mul[:, :, None], mul[:, None, :]]
    assert np.array_equal(lhs, rhs)
    # Unique multiplicative inverses: each nonzero row hits 1 exactly once.
    one = F.one().to_int()
    for i in range(1, n):
        assert int(np.count_nonzero(mul[i] == one)) == 1
        assert els[i] * els[i].inverse() == F.one()
    # Commutativity and identities come along for free.
    assert np.array_equal(add, add.T)
    assert np.array_equal(mul, mul.T)
    assert np.array_equal(add[0], np.arange(n))
    assert np.array_equal(mul[one], np.arange(n))


def frobenius(F, a, i):
    """a^(q^i) for i < m: the linearized monomial y^(q^i) evaluated at a."""
    return LinearizedPoly(F, [F.zero()] * i + [F.one()]).evaluate(a)


def test_frobenius_direct_cubing_oracle():
    """y^q through the polynomial's matrix equals literal repeated
    multiplication."""
    F9 = field(3, 2)
    for a in F9.elements():
        cube = a * a * a
        assert frobenius(F9, a, 1) == cube
        # closed form in F_9 with modulus x^2+1: (c0 + c1 x)^3 = c0 - c1 x
        assert frobenius(F9, a, 1).coeffs == (a.coeffs[0], (-a.coeffs[1]) % 3)


def test_frobenius_identity_and_order():
    F = field(3, 4)
    rng = random.Random(5)
    for _ in range(20):
        a = F.random_element(rng)
        assert frobenius(F, a, 0) == a
        assert frobenius(F, frobenius(F, a, 1), 1) == frobenius(F, a, 2)
        b = a
        for _ in range(F.m):
            b = frobenius(F, b, 1)
        assert b == a


@pytest.mark.parametrize("q,m", [(3, 2), (3, 4), (7, 2)])
def test_frobenius_additive_and_fixes_exactly_base(q, m):
    F = field(q, m)
    els = list(F.elements())
    base = {F.one() * c for c in range(q)}
    for a in els:
        for b in els[: 12]:
            assert frobenius(F, a + b, 1) == frobenius(F, a, 1) + frobenius(F, b, 1)
        fixed = frobenius(F, a, 1) == a
        assert fixed == (a in base)


def test_frobenius_large_field_matches_pow():
    F = field(7, 10)
    rng = random.Random(11)
    for _ in range(5):
        a = F.random_element(rng)
        assert frobenius(F, a, 1) == a ** 7
        assert frobenius(F, a, 3) == a ** (7 ** 3)


@pytest.mark.parametrize("q,m", [(2, 5), (3, 4), (7, 3), (5, 1),
                                 (65521, 2), (2, 40)])
def test_frobenius_powers_match_exponentiation(q, m):
    """The monomial y^(q^i) folds the one Frobenius matrix in i times."""
    F = field(q, m)
    rng = random.Random(10 * q + m)
    samples = [F.zero(), F.one(), F.gen()]
    samples += [F.random_element(rng) for _ in range(8)]
    for a in samples:
        for i in range(m):
            assert frobenius(F, a, i) == a ** (q ** i)


def test_generator_of_prime_field_is_zero():
    """x reduces to 0 modulo the degree-1 modulus x."""
    for q in (2, 5, 13):
        assert field(q, 1).gen().is_zero()
    assert field(3, 2).gen().coeffs == (0, 1)


def test_frobenius_is_multiplicative():
    for q, m in [(3, 4), (7, 3)]:
        F = field(q, m)
        rng = random.Random(q + m)
        for _ in range(20):
            a, b = F.random_element(rng), F.random_element(rng)
            assert frobenius(F, a * b, 1) == frobenius(F, a, 1) * frobenius(F, b, 1)


def reference_frobenius(F):
    """The Frobenius matrix from FieldElement powers alone: column j is
    (x^q)^j."""
    xq = F.gen() ** F.q if F.m > 1 else F.one()
    return np.array([(xq ** j).coeffs for j in range(F.m)], dtype=object).T


@pytest.mark.parametrize("q,m", [(5, 1), (3, 4), (7, 10), (65521, 2)])
def test_field_holds_the_frobenius_table_and_the_basis_matrices(q, m):
    """A field's state is the basis multiplication matrices and the table
    of Frobenius powers, two read-only (m, m, m) int64 arrays, and no
    property caches a third."""
    F = field(q, m)
    arrays = {name: value for name, value in vars(F).items()
              if isinstance(value, np.ndarray)}
    assert set(arrays) == {"_basis_mul", "_frob"}
    for array in arrays.values():
        assert array.shape == (m, m, m) and array.dtype == np.int64
        assert not array.flags.writeable
    assert not [name for name, value in vars(ExtField).items()
                if isinstance(value, functools.cached_property)]


@pytest.mark.parametrize("q,m", [(65521, 2), (2, 40)])
def test_frobenius_table_holds_the_powers_of_F(q, m):
    """Slice i of the table is F multiplied by itself i times, and it maps
    a to a^(q^i)."""
    F = field(q, m)
    frob = reference_frobenius(F)
    power = np.eye(m, dtype=object)
    rng = random.Random(q + m)
    samples = [F.gen(), F.element([q - 1] * m)]
    samples += [F.random_element(rng) for _ in range(2)]
    for i in range(m):
        assert F._frob[i].tolist() == power.tolist(), i
        for a in samples:
            got = F._frob[i].astype(object).dot(list(a.coeffs)) % q
            assert tuple(got.tolist()) == (a ** (q ** i)).coeffs, i
        power = power.dot(frob) % q


@pytest.mark.parametrize("q,m", [(2, 6), (7, 10), (65521, 2),
                                 (1099511627689, 1)])
def test_q_powers_match_sequential_frobenius(q, m):
    """The q-powers of a batch of points, all k at once, equal the
    sequential reference: each from the one before by F."""
    F = field(q, m)
    frob = reference_frobenius(F)
    rng = random.Random(m)
    columns = np.array([[rng.randrange(q) for _ in range(5)]
                        for _ in range(m)], dtype=np.int64)
    want = [columns.astype(object)]
    for _ in range(m - 1):
        want.append(frob.dot(want[-1]) % q)
    for k in range(1, m + 1):
        got = F._q_powers(columns, k)
        assert got.shape == (k, m, 5) and got.dtype == np.int64
        assert got.tolist() == [w.tolist() for w in want[:k]]


def reference_mul(F, a, b):
    """Reference: schoolbook product of two coefficient vectors in Python
    ints, folded from the top by the rows x^(m+i) mod the modulus."""
    q, m = F.q, F.m
    if m == 1:
        return ((a[0] * b[0]) % q,)
    # x^m = -(lower coefficients of the modulus); x^(m+i+1) is x^(m+i)
    # shifted up one place, with its x^m term replaced the same way.
    top = [(-c) % q for c in F.modulus[:m]]
    reduction = [top]
    for _ in range(m - 2):
        prev = reduction[-1]
        reduction.append([(prev[-1] * t + s) % q
                          for t, s in zip(top, [0] + prev[:-1])])
    prod = [0] * (2 * m - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] += ai * bj
    for k in range(2 * m - 2, m - 1, -1):
        c = prod[k] % q
        if c:
            row = reduction[k - m]
            for j in range(m):
                prod[j] += c * row[j]
    return tuple(v % q for v in prod[:m])


@pytest.mark.parametrize("q,m", [(2, 40), (3, 25), (7, 10), (65521, 2),
                                 (1048573, 2), (1099511627689, 1)])
def test_products_match_schoolbook_reference(q, m):
    """Products, each the multiplication matrix of one factor times the
    other, equal the schoolbook reference, up to the largest q of each m in
    the size budget and past int64 for m = 1."""
    F = field(q, m)
    rng = random.Random(q * m)
    top = F.element([q - 1] * m)     # every convolution entry at its maximum
    samples = [F.zero(), F.one(), F.gen(), top]
    samples += [F.random_element(rng) for _ in range(40)]
    for a in samples:
        for b in (top, rng.choice(samples), F.random_element(rng)):
            assert (a * b).coeffs == reference_mul(F, a.coeffs, b.coeffs)
            assert all(type(c) is int for c in (a * b).coeffs)


def reference_pow(F, a, e):
    """a^e by square-and-multiply on :func:`reference_mul`."""
    result, base = (1,) + (0,) * (F.m - 1), a
    while e:
        if e & 1:
            result = reference_mul(F, result, base)
        base = reference_mul(F, base, base)
        e >>= 1
    return result


#: Irreducible moduli for fields past the budget whose deterministic search
#: would walk about q candidates: q = 2^31 - 1 is 3 mod 4 and 2 mod 5, so
#: every x^4 + c and every x^5 + c is reducible over F_q.
MODULI_PAST_THE_BUDGET = {(2147483647, 4): (1, 1, 0, 0, 1),
                          (2147483647, 5): (1, 2, 0, 0, 0, 1)}


@pytest.mark.parametrize("q,m", [(4294967291, 2), (2147483647, 3),
                                 (2147483647, 4), (2147483647, 5)])
def test_arithmetic_exact_past_the_size_budget(monkeypatch, q, m):
    """With the size budget raised, fields whose sums of m residue products
    leave int64 still multiply, invert and evaluate linearized polynomials
    exactly, against Python-int references: no exactness argument rests on
    the budget.  At m = 4 the inversion chain takes one doubling and one
    increment, at m = 5 two doublings."""
    monkeypatch.setattr(galois, "SIZE_BUDGET", 2 ** 256)
    if (q, m) in MODULI_PAST_THE_BUDGET:
        modulus = MODULI_PAST_THE_BUDGET[q, m]
        assert galois._is_irreducible(modulus, q)
        monkeypatch.setattr(galois, "_search_modulus", lambda q, m: modulus)
    F = ExtField(q, m)               # not interned past the usual budget
    rng = random.Random(q)
    top = F.element([q - 1] * m)
    samples = [F.one(), F.gen(), top] + [F.random_element(rng)
                                         for _ in range(20)]
    for a in samples:
        for b in (top, F.random_element(rng)):
            assert (a * b).coeffs == reference_mul(F, a.coeffs, b.coeffs)
        assert a * a.inverse() == F.one()
    coeffs = [top] + [F.random_element(rng) for _ in range(m - 1)]
    poly = LinearizedPoly(F, coeffs)
    for p in samples[:8]:
        want = [0] * m
        for i, u in enumerate(coeffs):
            term = reference_mul(F, u.coeffs, reference_pow(F, p.coeffs, q ** i))
            want = [(w + t) % q for w, t in zip(want, term)]
        assert poly.evaluate(p).coeffs == tuple(want)


#: field(q, m).modulus as found by trial division, for every q^m <= 10^6
#: with q <= 13 and for the larger fields the constructions use.  Frozen:
#: element encodings, config digests and shard bytes all follow from it.
FROZEN_MODULI = {
    (2, 1): (0, 1),
    (2, 2): (1, 1, 1),
    (2, 3): (1, 1, 0, 1),
    (2, 4): (1, 1, 0, 0, 1),
    (2, 5): (1, 0, 1, 0, 0, 1),
    (2, 6): (1, 1, 0, 0, 0, 0, 1),
    (2, 7): (1, 1, 0, 0, 0, 0, 0, 1),
    (2, 8): (1, 1, 0, 1, 1, 0, 0, 0, 1),
    (2, 9): (1, 1, 0, 0, 0, 0, 0, 0, 0, 1),
    (2, 10): (1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1),
    (2, 11): (1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (2, 12): (1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (2, 13): (1, 1, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (2, 14): (1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (2, 15): (1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (2, 16): (1, 1, 0, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (2, 17): (1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (2, 18): (1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (2, 19): (1, 1, 1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (3, 1): (0, 1),
    (3, 2): (1, 0, 1),
    (3, 3): (1, 2, 0, 1),
    (3, 4): (2, 1, 0, 0, 1),
    (3, 5): (1, 2, 0, 0, 0, 1),
    (3, 6): (2, 1, 0, 0, 0, 0, 1),
    (3, 7): (2, 0, 1, 0, 0, 0, 0, 1),
    (3, 8): (2, 0, 1, 0, 0, 0, 0, 0, 1),
    (3, 9): (1, 0, 1, 2, 0, 0, 0, 0, 0, 1),
    (3, 10): (1, 0, 2, 0, 0, 0, 0, 0, 0, 0, 1),
    (3, 11): (2, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (3, 12): (2, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (5, 1): (0, 1),
    (5, 2): (2, 0, 1),
    (5, 3): (1, 1, 0, 1),
    (5, 4): (2, 0, 0, 0, 1),
    (5, 5): (1, 4, 0, 0, 0, 1),
    (5, 6): (2, 1, 0, 0, 0, 0, 1),
    (5, 7): (1, 1, 0, 0, 0, 0, 0, 1),
    (5, 8): (2, 0, 0, 0, 0, 0, 0, 0, 1),
    (7, 1): (0, 1),
    (7, 2): (1, 0, 1),
    (7, 3): (2, 0, 0, 1),
    (7, 4): (1, 1, 0, 0, 1),
    (7, 5): (3, 1, 0, 0, 0, 1),
    (7, 6): (2, 0, 0, 0, 0, 0, 1),
    (7, 7): (1, 6, 0, 0, 0, 0, 0, 1),
    (11, 1): (0, 1),
    (11, 2): (1, 0, 1),
    (11, 3): (4, 1, 0, 1),
    (11, 4): (2, 1, 0, 0, 1),
    (11, 5): (2, 0, 0, 0, 0, 1),
    (13, 1): (0, 1),
    (13, 2): (2, 0, 1),
    (13, 3): (2, 0, 0, 1),
    (13, 4): (2, 0, 0, 0, 1),
    (13, 5): (2, 4, 0, 0, 0, 1),
    (3, 15): (2, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (7, 10): (3, 2, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (7, 12): (2, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (3, 22): (1, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (5, 14): (2, 0, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (13, 10): (9, 1, 1, 0, 0, 0, 0, 0, 0, 0, 1),
}


@pytest.mark.parametrize("q,m", sorted(FROZEN_MODULI))
def test_modulus_matches_frozen_table(q, m):
    assert field(q, m).modulus == FROZEN_MODULI[(q, m)]


def _trial_division_irreducible(p, q):
    """Reference: p has no monic divisor of degree 1..deg(p)//2."""
    degree = len(p) - 1
    for d in range(1, degree // 2 + 1):
        for low in product(range(q), repeat=d):
            rem = list(p)
            for shift in range(degree - d, -1, -1):
                factor = rem[shift + d]
                for i, c in enumerate((*low, 1)):
                    rem[shift + i] = (rem[shift + i] - factor * c) % q
            if not any(rem):
                return False
    return True


@pytest.mark.parametrize("q,max_degree", [(2, 10), (3, 6), (5, 4), (7, 3)])
def test_irreducibility_matches_trial_division(q, max_degree):
    """Ben-Or's test agrees with trial division on every monic polynomial."""
    from lmbr.galois import _is_irreducible

    for degree in range(1, max_degree + 1):
        for low in product(range(q), repeat=degree):
            p = (*low, 1)
            assert _is_irreducible(p, q) == _trial_division_irreducible(p, q), p


def test_large_field_setup_is_fast():
    """Trial division took about 26 s for this field."""
    start = time.perf_counter()
    F = ExtField(13, 10)
    assert time.perf_counter() - start < 2.0
    assert F.modulus == FROZEN_MODULI[(13, 10)]


@pytest.mark.filterwarnings("ignore::DeprecationWarning")
@pytest.mark.parametrize("q,m", [(3, 2), (3, 6), (3, 8), (7, 10), (11, 3), (13, 2),
                                 (7, 12), (3, 22), (13, 10)])
def test_modulus_irreducible_by_independent_oracle(q, m):
    """Cross-check the modulus search (Ben-Or's test over ascending
    candidates) against sympy's factorizer."""
    sympy = pytest.importorskip("sympy")
    from sympy.abc import x

    coeffs = field(q, m).modulus
    poly = sympy.Poly(list(reversed(coeffs)), x, modulus=q)
    factors = sympy.factor_list(poly, modulus=q)[1]
    assert len(factors) == 1 and factors[0][1] == 1
    # And that nothing smaller was skipped: every smaller candidate factors.
    if q ** m <= 1000:
        from lmbr.galois import _is_irreducible, _monic_polys
        for cand in _monic_polys(q, m):
            cand_t = tuple(cand)
            if cand_t == coeffs:
                break
            p = sympy.Poly(list(reversed(cand_t)), x, modulus=q)
            fl = sympy.factor_list(p, modulus=q)[1]
            assert not (len(fl) == 1 and fl[0][1] == 1)
            assert not _is_irreducible(cand_t, q)


def test_rank_over_base_examples():
    F9 = field(3, 2)
    one, x = F9.one(), F9.gen()
    assert rank_over_base([one, x, one + x]) == 2
    assert rank_over_base([F9.zero()]) == 0
    assert rank_over_base([one, F9.element([2, 0])]) == 1
    assert rank_over_base([]) == 0


def test_rank_permutation_invariant_and_monotone():
    F = field(3, 4)
    rng = random.Random(2)
    for _ in range(20):
        vec = [F.random_element(rng) for _ in range(5)]
        r = rank_over_base(vec)
        shuffled = vec[:]
        rng.shuffle(shuffled)
        assert rank_over_base(shuffled) == r
        assert rank_over_base(vec + [F.random_element(rng)]) >= r


def test_int_scalar_action_is_char_p_repeated_addition():
    F = field(3, 2)
    rng = random.Random(9)
    for _ in range(10):
        a = F.random_element(rng)
        assert 2 * a == a + a
        assert 3 * a == F.zero()
        assert 4 * a == a


def test_serialization_round_trip():
    """to_bytes is the m coefficients as uint16 LE, constant term first:
    the per-coefficient encoding, and it unpacks back to the element."""
    F = field(7, 3)
    rng = random.Random(1)
    for _ in range(20):
        a = F.random_element(rng)
        assert a.to_bytes() == b"".join(c.to_bytes(2, "little")
                                        for c in a.coeffs)
        assert F.element(struct.unpack("<3H", a.to_bytes())) == a
        assert F.from_int(a.to_int()) == a


def test_rank_mod_q_against_numpy_rational_rank():
    rng = np.random.default_rng(0)
    for _ in range(30):
        mat = rng.integers(0, 3, size=(4, 6))
        # oracle: rank over Q of the lift with entries in {0,1,2} can differ
        # from rank mod 3, so check against sympy-free exhaustive span count
        q = 3
        cols = [tuple(c) for c in mat.T]
        span = {tuple([0] * 4)}
        for c in cols:
            new = set()
            for s in span:
                for k in range(1, q):
                    new.add(tuple((a + k * b) % q for a, b in zip(s, c)))
            span |= new
        # |span| = q^rank
        expect = 0
        size = len(span)
        while size > 1:
            size //= q
            expect += 1
        assert rank_mod_q(mat, q) == expect


def test_inv_mod_q_round_trip():
    rng = np.random.default_rng(3)
    q = 7
    found = 0
    while found < 10:
        mat = rng.integers(0, q, size=(4, 4))
        if rank_mod_q(mat, q) < 4:
            continue
        inv = inv_mod_q(mat, q)
        assert ((mat @ inv) % q == np.eye(4, dtype=np.int64)).all()
        found += 1


@pytest.mark.parametrize("q", [2, 7, 65521, 3037000493])
def test_solve_mod_q_satisfies_the_system(q):
    """On random nonsingular A and right-hand sides of 0 to 3 columns,
    A X = B over F_q; the check multiplies in Python ints."""
    rng = random.Random(q)
    solved = 0
    while solved < 10:
        n, width = rng.randint(1, 6), rng.randint(0, 3)
        a = np.array([[rng.randrange(q) for _ in range(n)] for _ in range(n)])
        b = np.array([rng.randrange(q) for _ in range(n * width)],
                     dtype=np.int64).reshape(n, width)
        if rank_mod_q(a, q) < n:
            continue
        x = solve_mod_q(a, b, q)
        assert x.shape == (n, width)
        assert (a.astype(object).dot(x.astype(object)) % q == b).all()
        solved += 1


def test_solve_mod_q_refuses_as_inv_mod_q_does():
    """A singular A raises inv_mod_q's ParameterError, whether or not B
    lies in its column space, and so does a non-square A."""
    for q in (7, 3037000493):
        singular = np.array([[1, 2], [2, 4]])
        with pytest.raises(ParameterError) as want:
            inv_mod_q(singular, q)
        assert str(want.value) == "matrix is singular over F_q"
        for rhs in ([[1], [2]], [[1], [0]], np.zeros((2, 0), dtype=np.int64)):
            with pytest.raises(ParameterError) as got:
                solve_mod_q(singular, np.array(rhs, dtype=np.int64), q)
            assert str(got.value) == str(want.value)
        wide = np.array([[1, 0, 0], [0, 1, 0]])
        with pytest.raises(ParameterError) as want:
            inv_mod_q(wide, q)
        with pytest.raises(ParameterError) as got:
            solve_mod_q(wide, np.eye(2, dtype=np.int64), q)
        assert str(got.value) == str(want.value) == "matrix must be square"


@pytest.mark.parametrize("q,m", [(3, 8), (7, 10), (65521, 2),
                                 (1099511627689, 1)])
def test_moore_matches_field_element_reference(q, m):
    """Entry (i*m + j, c*m + r) of the Moore map is coefficient r of
    x^j p_c^(q^i), computed with FieldElement powers and products, for
    k = 1, k = m and no points at all."""
    fld = field(q, m)
    rng = random.Random(q)
    points = [fld.zero(), fld.one(), *(fld.random_element(rng) for _ in range(3))]
    columns = galois.coefficients(points, fld).T
    basis = fld.polynomial_basis(m)
    for k in sorted({1, m}):
        got = fld.moore(columns, k)
        assert got.shape == (k * m, len(points) * m) and got.dtype == np.int64
        for i in range(k):
            for c, p in enumerate(points):
                power = p ** (q ** i)
                for j, xj in enumerate(basis):
                    assert (got[i * m + j, c * m:(c + 1) * m].tolist()
                            == list((xj * power).coeffs)), (i, j, c)
        assert fld.moore(columns[:, :0], k).shape == (k * m, 0)


@pytest.mark.parametrize("q,m", [(2, 6), (7, 10), (65521, 2),
                                 (1099511627689, 1)])
def test_mul_matrices_multiply_like_field_elements(q, m):
    """M(a) b is the coefficient vector of a b, for a 2 x 3 stack of
    elements a at once; the matrices are int64 residues."""
    fld = field(q, m)
    rng = random.Random(q + m)
    a = [[fld.random_element(rng) for _ in range(3)] for _ in range(2)]
    b = fld.random_element(rng)
    rows = np.array([[e.coeffs for e in row] for row in a], dtype=np.int64)
    mults = fld.mul_matrices(rows)
    assert mults.shape == (2, 3, m, m) and mults.dtype == np.int64
    for i, j in product(range(2), range(3)):
        got = mults[i, j].astype(object).dot(list(b.coeffs)) % q
        assert tuple(got.tolist()) == (a[i][j] * b).coeffs


def moore_solve_reference(fld, points, rhs):
    """The F_q form of a Moore solve: solve_mod_q on the transposed Moore
    map at the points, its unknowns the coefficients of X[i, t] in row
    i*m + j, its equations coefficient r of B[c, t] in row c*m + r; the
    outcome is the K x r x m solution or the refusal's text."""
    k, width, m = rhs.shape
    try:
        solution = solve_mod_q(fld.moore(points, k).T,
                               rhs.transpose(0, 2, 1).reshape(k * m, width),
                               fld.q)
    except ParameterError as exc:
        return str(exc)
    return np.array(solution, dtype=np.int64).reshape(
        k, m, width).transpose(0, 2, 1).tolist()


def moore_solve_outcome(fld, points, rhs):
    try:
        solution = galois.solve_moore(fld, points, rhs)
    except ParameterError as exc:
        return str(exc)
    assert solution.shape == rhs.shape and solution.dtype == np.int64
    return solution.tolist()


#: (q, m) for the F_{q^m} elimination: small and word-sized q with m up to
#: 6 inside the size budget, and at m = 1 the largest prime whose products
#: fit int64 and a prime whose products do not.
MOORE_FIELDS = [(2, m) for m in range(1, 7)] + [(3, m) for m in range(1, 7)] \
    + [(7, m) for m in range(1, 7)] + [(65521, 1), (65521, 2),
                                       (3037000493, 1), (1099511627689, 1)]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_solve_moore_matches_the_fq_expansion(data):
    """The K-pivot elimination over F_{q^m} gives the solution of the
    (K m)-square F_q system, or refuses it with the same text, on random
    points (dependent ones included) and 1 to 3 right-hand columns."""
    q, m = data.draw(st.sampled_from(MOORE_FIELDS))
    k = data.draw(st.integers(1, m))
    width = data.draw(st.integers(1, 3))
    residues = st.integers(0, q - 1)
    points = np.array(data.draw(st.lists(residues, min_size=m * k,
                                         max_size=m * k)),
                      dtype=np.int64).reshape(m, k)
    rhs = np.array(data.draw(st.lists(residues, min_size=k * width * m,
                                      max_size=k * width * m)),
                   dtype=np.int64).reshape(k, width, m)
    fld = field(q, m)
    assert (moore_solve_outcome(fld, points, rhs)
            == moore_solve_reference(fld, points, rhs))


@pytest.mark.parametrize("q,m", [(2, 6), (7, 10), (1099511627689, 1)])
def test_solve_moore_solves_independent_points(q, m):
    """On the power basis and on random independent points the solution
    satisfies the Moore system, checked with FieldElement arithmetic."""
    fld = field(q, m)
    rng = random.Random(m)
    cases = [np.eye(m, dtype=np.int64)]
    while len(cases) < 4:
        k = rng.randint(1, m)
        points = np.array([[rng.randrange(q) for _ in range(k)]
                           for _ in range(m)], dtype=np.int64)
        if rank_mod_q(points, q) == k:
            cases.append(points)
    for points in cases:
        k = points.shape[1]
        rhs = np.array([rng.randrange(q) for _ in range(k * 2 * m)],
                       dtype=np.int64).reshape(k, 2, m)
        x = galois.solve_moore(fld, points, rhs)
        for c, p in enumerate(galois.as_elements(fld, points.T)):
            for t in range(2):
                total = fld.zero()
                for i in range(k):
                    total = total + fld.element(x[i, t]) * p ** (q ** i)
                assert total == fld.element(rhs[c, t])


def test_solve_moore_refuses_dependent_points():
    """A point in the span of the points before it (the zero point first
    of all) leaves a zero pivot: ParameterError with solve_mod_q's text,
    on both sides of the int64 limit, wherever the dependent point stands."""
    for q, m in ((7, 4), (2, 6), (3037000493, 1), (1099511627689, 1)):
        fld = field(q, m)
        rng = random.Random(q)
        units = np.eye(m, dtype=np.int64)
        rhs = np.ones((m, 1, m), dtype=np.int64)
        for at in range(m):
            mix = np.array([rng.randrange(q) for _ in range(at)])
            dependent = units[:, :at] @ mix.astype(np.int64) % q
            points = np.column_stack([units[:, :at], dependent,
                                      units[:, at:m - 1]])
            with pytest.raises(ParameterError) as err:
                galois.solve_moore(fld, points, rhs)
            assert str(err.value) == "matrix is singular over F_q"
            assert moore_solve_reference(fld, points, rhs) == str(err.value)


def count_calls(monkeypatch, owner, name):
    """Replace ``owner.name`` by a wrapper that counts its calls; the
    returned list gets one entry per call."""
    calls, inner = [], getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return inner(*args, **kwargs)
    monkeypatch.setattr(owner, name, counted)
    return calls


def assert_inverses(F, elements):
    """_inverses of a batch of nonzero elements, checked by FieldElement
    products, which multiply by multiplication matrices and never call
    _inverses."""
    inverses = galois._inverses(F, galois.coefficients(elements, F))
    assert inverses.dtype == np.int64 and inverses.shape == (len(elements), F.m)
    for a, inverse in zip(elements, galois.as_elements(F, inverses)):
        assert a * inverse == F.one(), a


@pytest.mark.parametrize("q,m", [(2, 5), (3, 4), (7, 2), (5, 1), (2, 1)])
def test_inverses_of_every_nonzero_element(q, m):
    F = field(q, m)
    assert_inverses(F, list(F.elements())[1:])


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("m", range(1, 18))
def test_inverses_of_a_seeded_batch(q, m):
    """Every branch of the addition chain: m - 1 runs through 0, 1, powers
    of two and their predecessors."""
    F = field(q, m)
    rng = random.Random(100 * q + m)
    batch = [F.one(), F.element([q - 1] * m)]
    while len(batch) < 12:
        a = F.random_element(rng)
        if not a.is_zero():
            batch.append(a)
    assert_inverses(F, batch)


@pytest.mark.parametrize("m", range(2, 18))
def test_inversion_takes_the_addition_chain_products(monkeypatch, m):
    """Itoh-Tsujii: floor(log2(m-1)) + popcount(m-1) - 1 chain products
    and one norm product, each one multiplication-matrix build; N(a)^-1
    scales without one."""
    F = field(2, m)
    times = count_calls(monkeypatch, galois, "_times")
    builds = count_calls(monkeypatch, ExtField, "mul_matrices")
    galois._inverses(F, np.ones((3, m), dtype=np.int64))
    chain = (m - 1).bit_length() - 1 + bin(m - 1).count("1") - 1
    assert len(times) == len(builds) == chain + 1


@pytest.mark.parametrize("q,m,k,builds", [(7, 10, 10, 16), (3, 8, 5, 11)])
def test_solve_moore_multiplication_matrix_builds(monkeypatch, q, m, k,
                                                  builds):
    """A Fano-sized solve (K = m = 10 over F_{7^10}) and an mbr-stripes-
    sized one (K = 5 over F_{3^8}): K pivot steps, the inversion chain,
    the norm and the scaling of the right-hand side."""
    fld = field(q, m)
    calls = count_calls(monkeypatch, ExtField, "mul_matrices")
    rhs = np.ones((k, 1, m), dtype=np.int64)
    galois.solve_moore(fld, np.eye(m, k, dtype=np.int64), rhs)
    assert len(calls) == builds


def test_elimination_is_exact_where_products_overflow_int64():
    """Past (q-1)^2 >= 2^63 the residue products would wrap in int64 and a
    rank-1 matrix would read as rank 2.  Elimination then runs over Python
    ints: rank, inverse, interpolation and a code build are exact for every
    q that field() accepts, on both sides of the int64 limit.  At the
    largest prime below it, q = 3037000493, a, b = q-2, q-3 make the
    elimination products (q-3)(q-2) reach within about 5q of 2^63."""
    from lmbr import GabidulinCode, MbrCode, all_symbol_code, interpolate

    # Primes accepted by field(q, 1), with entries a, b of each.
    for q, a, b in ((1099511627689, 123456789012, 987654321098),
                    (3037000493, 3037000491, 3037000490)):
        singular = np.array([[1, a], [b, a * b % q]])
        regular = np.array([[1, a], [b, (a * b + 1) % q]])
        assert rank_mod_q(singular, q) == 1
        assert rank_mod_q(regular, q) == 2
        assert subset_ranks(singular, 1, q)[1].tolist() == [0, 1, 1, 1]
        assert subset_ranks(regular, 1, q)[1].tolist() == [0, 1, 1, 2]
        inv = inv_mod_q(np.array([[1, a], [b, 1]]), q)
        det_inv = pow(1 - a * b, -1, q)
        assert [[int(v) for v in row] for row in inv] == [
            [det_inv, -a * det_inv % q], [-b * det_inv % q, det_inv]]
        F = field(q, 1)
        poly = interpolate([F.from_int(5)], [F.from_int(a)], 0)
        assert poly.evaluate(F.from_int(5)) == F.from_int(a)
        assert poly.evaluate(F.one()) == F.from_int(a * pow(5, -1, q) % q)
        outer = GabidulinCode(F, 1, 1)
        message = [F.from_int(b)]
        pairs = list(zip(outer.points, outer.encode(message)))
        assert list(outer.decode_erasures(pairs)) == message
        code = all_symbol_code(1, MbrCode(2, 1, 1, q), 1)
        shards = code.encode(message)
        assert list(code.decode(shards[1:])) == message
        assert code.measure_dmin().value == 2 == code.dmin_bound


def test_elimination_difference_of_two_near_maximal_products():
    """At q = 3037000493 the singular matrix [[q-20, q-1], [q-1, y]] with
    20y = 17q - 1 clears its second column by (q-1)(q-1) - (q-20)y, two
    products each within about 2^33 of 2^63: exact only if the difference
    is taken before any sum can pass 2^63."""
    q = 3037000493
    y = (17 * q - 1) // 20
    matrix = np.array([[q - 20, q - 1], [q - 1, y]])
    assert rank_mod_q(matrix, q) == 1
    assert pivot_columns(matrix, q) == [0]
    assert subset_ranks(matrix, 1, q)[1].tolist() == [0, 1, 1, 1]


@pytest.mark.parametrize("q,m", [(3, 6), (7, 10), (3037000493, 1)])
def test_apply_int_matrix_matches_elementwise_reference(q, m):
    """The one-product apply equals a multiply-add per matrix entry, on both
    sides of the int64 limit (q = 3037000493 takes the Python-int path)."""
    F = field(q, m)
    rng = random.Random(q + m)
    for rows, cols in [(1, 1), (4, 3), (6, 9), (0, 2)]:
        matrix = np.array([[rng.randrange(q) for _ in range(cols)]
                           for _ in range(rows)], dtype=np.int64).reshape(rows, cols)
        elements = [F.random_element(rng) for _ in range(cols)]
        want = []
        for row in matrix:
            acc = F.zero()
            for scalar, elem in zip(row, elements):
                acc = acc + int(scalar) * elem
            want.append(acc)
        got = apply_int_matrix(matrix, elements, F)
        assert got == want
        assert all(type(c) is int for e in got for c in e.coeffs)
    with pytest.raises(ParameterError):
        apply_int_matrix(np.ones((1, 2), dtype=np.int64), [F.one()], F)
    with pytest.raises(ParameterError):
        apply_int_matrix(np.ones((1, 1), dtype=np.int64), [field(5, 1).one()], F)


@pytest.mark.parametrize("q,dtype", [(2 ** 31, np.int64),
                                     (2 ** 31 + 1, object)])
def test_matmul_mod_q_exact_at_the_int64_edge(q, dtype):
    """Two terms of (q-1)^2: at q = 2^31 their sum is 2^63 - 2^33 + 2 and
    the product stays in int64; at q = 2^31 + 1 it is 2^63 and the product
    takes Python ints.  Both equal the object-dtype product, entries of
    q - 1 included."""
    assert _exact_dtype(2, q) is dtype
    rng = np.random.default_rng(q)
    left = rng.integers(0, q, (4, 2))
    right = rng.integers(0, q, (2, 3))
    left[0] = right[:, 0] = q - 1
    want = left.astype(object) @ right.astype(object) % q
    got = _matmul_mod_q(left, right, q)
    assert got.dtype == dtype
    assert got.tolist() == want.tolist()


def test_apply_int_matrix_reduces_any_integer_matrix():
    """Negative entries and entries of q or more act as their residues."""
    q, m = 7, 3
    F = field(q, m)
    rng = random.Random(5)
    elements = [F.random_element(rng) for _ in range(4)]
    matrix = np.array([[-1, 7, 15, -13], [2 ** 62, -(2 ** 62), 0, 49],
                       [q - 1, -q, 3 * q + 2, -1]], dtype=np.int64)
    coeffs = np.array([e.coeffs for e in elements], dtype=object)
    want = (matrix.astype(object) % q) @ coeffs % q
    assert [e.coeffs for e in apply_int_matrix(matrix, elements, F)] == \
        [tuple(row) for row in want.tolist()]


@pytest.mark.parametrize("q,m", [(3, 6), (7, 10), (1099511627689, 1)])
def test_coefficients_and_as_elements_round_trip(q, m):
    """coefficients gives the elements' coefficient vectors as the rows of
    an (N, m) int64 array and as_elements gives the same elements back,
    with Python int coefficients; at m = 1 and q = 1099511627689 the values
    stay exact.  No elements give shape (0, m)."""
    F = field(q, m)
    rng = random.Random(q + m)
    elements = [F.zero(), F.one(), F.from_int(F.order - 1),
                *(F.random_element(rng) for _ in range(5))]
    rows = galois.coefficients(elements, F)
    assert rows.dtype == np.int64 and rows.shape == (len(elements), m)
    assert rows.tolist() == [list(e.coeffs) for e in elements]
    back = galois.as_elements(F, rows)
    assert back == elements
    assert all(type(c) is int for e in back for c in e.coeffs)
    empty = galois.coefficients([], F)
    assert empty.shape == (0, m) and empty.dtype == np.int64
    assert galois.as_elements(F, empty) == []


def test_coefficients_refuses_another_field_with_the_field_check_text():
    """The first element of another field is refused with the text of the
    field's own check, _require_same."""
    F, G, H = field(3, 6), field(3, 5), field(5, 1)
    with pytest.raises(ParameterError) as want:
        F._require_same(G)
    with pytest.raises(ParameterError) as got:
        galois.coefficients([F.one(), G.one(), H.one()], F)
    assert str(got.value) == str(want.value) == (
        "field mismatch: GF(3^6) vs GF(3^5)")


def _mod_q(dm, q):
    """sympy's GF(q) entries are symmetric residues; reduce them to 0..q-1."""
    return np.array([[int(v) % q for v in row] for row in dm.to_Matrix().tolist()],
                    dtype=np.int64).reshape(dm.shape)


def _elimination_cases(q, rng):
    """Seeded square, wide, tall, singular and all-zero matrices over F_q."""
    cases = [rng.integers(0, q, size=shape) for shape in
             [(1, 1), (4, 4), (5, 5), (3, 6), (2, 7), (6, 3), (7, 2)]]
    for n in (3, 5):
        mat = rng.integers(0, q, size=(n, n))
        mat[-1] = (mat[0] * int(rng.integers(0, q)) + mat[1]) % q
        cases.append(mat)                       # singular: last row dependent
        wide = rng.integers(0, q, size=(n, n + 2))
        wide[:, 1] = (3 * wide[:, 0]) % q       # a dependent column
        cases.append(wide)
    cases += [np.zeros((3, 3), dtype=np.int64), np.zeros((2, 5), dtype=np.int64)]
    return cases


@pytest.mark.parametrize("q", [2, 3, 7, 65521])
def test_elimination_matches_sympy(q):
    """Rank, pivot columns, reduced form and inverse agree with sympy's
    DomainMatrix over GF(q); a singular matrix raises ParameterError."""
    pytest.importorskip("sympy")
    from sympy import GF
    from sympy.polys.matrices import DomainMatrix
    from sympy.polys.matrices.exceptions import DMNonInvertibleMatrixError

    K = GF(q)
    rng = np.random.default_rng(q)
    singular = invertible = 0
    for mat in _elimination_cases(q, rng):
        ref = DomainMatrix([[K(int(v)) for v in row] for row in mat],
                           mat.shape, K)
        ref_rref, ref_pivots = ref.rref()
        assert rank_mod_q(mat, q) == ref.rank()
        assert pivot_columns(mat, q) == list(ref_pivots)
        reduced, pivots = _row_reduce(mat, q)
        assert pivots == list(ref_pivots)
        assert np.array_equal(reduced, _mod_q(ref_rref, q))
        if mat.shape[0] != mat.shape[1]:
            with pytest.raises(ParameterError):
                inv_mod_q(mat, q)
            continue
        try:
            ref_inv = ref.inv()
        except DMNonInvertibleMatrixError:
            singular += 1
            with pytest.raises(ParameterError):
                inv_mod_q(mat, q)
            continue
        invertible += 1
        assert np.array_equal(inv_mod_q(mat, q), _mod_q(ref_inv, q))
    assert singular >= 3 and invertible >= 1


def reference_row_reduce(matrix: np.ndarray, q: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form of an integer matrix over F_q (Gauss-Jordan).

    Returns the reduced matrix and its pivot columns: column c is a pivot
    exactly when it is independent of the columns before it.  This is the
    elimination of a single matrix: rank, pivot columns and solves.  The
    ranks of many column subsets come from :func:`subset_ranks`.
    """
    a = _residues(matrix, q)
    rows, cols = a.shape
    pivots: list[int] = []
    for c in range(cols):
        r = len(pivots)
        if r == rows:
            break
        # Any nonzero entry may serve as pivot: the reduced form is unique.
        p = r + int(a[r:, c].argmax())
        lead = int(a[p, c])
        if not lead:
            continue
        right = a[:, c:]                     # rows r.. are zero left of c
        row = right[p] * pow(lead, q - 2, q) % q
        right[p] = right[r]                  # swap rows r and p ...
        right -= np.outer(right[:, 0], row)  # ... clear column c everywhere ...
        right[r] = row                       # ... and put the pivot row at r
        right %= q
        pivots.append(c)
    return a, pivots


def assert_reduces_as_reference(matrix, q):
    reduced, pivots = _row_reduce(matrix, q)
    want, want_pivots = reference_row_reduce(matrix, q)
    assert pivots == want_pivots
    assert reduced.dtype == want.dtype
    assert np.array_equal(reduced, want)


@st.composite
def elimination_matrices(draw):
    """Up to 12 x 24 over F_q, entries biased to 0, 1 and q-1, with zero
    rows, zero columns and columns that combine earlier ones."""
    q = draw(st.sampled_from([2, 3, 7, 65521, 3037000493, 1099511627689]))
    rows, cols = draw(st.integers(0, 12)), draw(st.integers(0, 24))
    entry = st.sampled_from([0, 1, q - 1]) | st.integers(0, q - 1)
    matrix = [[0] * cols for _ in range(rows)]
    for c in range(cols):
        kind = draw(st.sampled_from(["free", "zero", "dependent"]))
        if kind == "dependent" and c:
            i, j = draw(st.integers(0, c - 1)), draw(st.integers(0, c - 1))
            a, b = draw(entry), draw(entry)
            for row in matrix:
                row[c] = (a * row[i] + b * row[j]) % q
        elif kind != "zero":
            for row in matrix:
                row[c] = draw(entry)
    for r in draw(st.sets(st.integers(0, max(rows - 1, 0)))):
        if r < rows:
            matrix[r] = [0] * cols
    return np.array(matrix, dtype=np.int64).reshape(rows, cols), q


@settings(max_examples=300, deadline=None)
@given(case=elimination_matrices())
def test_row_reduce_matches_per_pivot_reference(case):
    """Delayed reduction gives the reference's reduced form, pivots and
    dtype on both sides of the int64 limit."""
    assert_reduces_as_reference(*case)


@pytest.mark.parametrize("q", [3, 7])
@pytest.mark.parametrize("rows,cols", [(40, 41), (40, 80), (100, 101), (100, 200)])
def test_row_reduce_matches_reference_on_decode_sized_systems(rows, cols, q):
    """The Moore-system shapes of the benchmark codes (40 x 41 over F_3,
    100 x 101 over F_7) and their [A | I] doubles, full rank and not."""
    rng = np.random.default_rng(rows * cols + q)
    assert_reduces_as_reference(rng.integers(0, q, size=(rows, cols)), q)
    rank = 2 * rows // 3
    low = rng.integers(0, q, size=(rows, rank)) @ rng.integers(0, q, size=(rank, cols))
    low[:, 0] = 0
    assert_reduces_as_reference(low % q, q)


def test_row_reduce_survives_two_near_maximal_updates_in_a_row():
    """At q = 3037000493 one update subtracts up to (q-1)^2, within about
    2^35.5 of 2^63, so two in a row would wrap int64.  Entry (2, 2) of
    [[q-1, 0, 1], [0, q-1, 1], [q-1, q-1, z]] takes (q-1)^2 from each of the
    first two pivots; the matrix is singular exactly at z = 2."""
    q = 3037000493
    assert 2 * (q - 1) ** 2 >= 2 ** 63 > (q - 1) ** 2
    for z, rank in ((2, 2), (q - 1, 3)):
        a = [[q - 1, 0, 1], [0, q - 1, 1], [q - 1, q - 1, z]]
        b = [[5], [q - 2], [q - 1]]
        matrix = np.array([ra + rb for ra, rb in zip(a, b)], dtype=np.int64)
        assert_reduces_as_reference(matrix, q)
        reduced, pivots = _row_reduce(matrix, q)
        assert reduced.dtype == np.int64
        assert [c for c in pivots if c < 3] == list(range(rank))
        if rank == 3:
            x = [int(v) for v in solve_mod_q(np.array(a), np.array(b), q)[:, 0]]
            assert [sum(ra[j] * x[j] for j in range(3)) % q for ra in a] == [
                rb[0] for rb in b]


@st.composite
def node_matrices(draw):
    """A matrix over F_q split into nodes of equal width, with zero rows,
    zero columns, all-zero nodes and repeated entries among the draws."""
    q = draw(st.sampled_from([2, 3, 7, 65521, 3037000493, 1099511627689]))
    rows = draw(st.integers(0, 4))
    width = draw(st.integers(1, 3))
    nodes = draw(st.integers(0, 5))
    entry = st.sampled_from([0, 1, q - 1]) | st.integers(0, q - 1)
    matrix = np.zeros((rows, nodes * width), dtype=np.int64)
    for node in range(nodes):
        if draw(st.booleans()):              # else the node stays all-zero
            for r in range(rows):
                for c in range(width):
                    matrix[r, node * width + c] = draw(entry)
    return matrix, width, q


@settings(max_examples=200, deadline=None)
@given(case=node_matrices(), split=st.booleans())
def test_subset_ranks_match_pivot_columns(case, split):
    """Every subset's rank is the pivot count of its columns, and the keys
    are every mask in ascending order, also when the pass splits its states
    to stay within its budget."""
    matrix, width, q = case
    nodes = matrix.shape[1] // width
    with mock.patch.object(galois, "_STATE_BUDGET",
                           1 if split else galois._STATE_BUDGET):
        keys, ranks = subset_ranks(matrix, width, q)
    assert keys.tolist() == list(range(1 << nodes))
    for mask, rank in zip(keys.tolist(), ranks.tolist()):
        cols = [node * width + c for node in range(nodes) if mask >> node & 1
                for c in range(width)]
        assert rank == len(pivot_columns(matrix[:, cols], q)), mask


def test_subset_ranks_refuse_a_ragged_split_or_too_many_nodes(monkeypatch):
    """A table of 2^23 keys passes TABLE_BUDGET and is refused before a
    residue is taken or a state is made."""
    with pytest.raises(ParameterError):
        subset_ranks(np.zeros((2, 5), dtype=np.int64), 2, 3)
    with pytest.raises(ParameterError):
        subset_ranks(np.zeros((2, 3), dtype=np.int64), 0, 3)
    assert galois.TABLE_BUDGET == 1 << 22

    def refuse(*args):
        raise AssertionError("subset_ranks allocated state past its budget")

    for name in ("_residues", "_extend"):
        monkeypatch.setattr(galois, name, refuse)
    with pytest.raises(ParameterError, match=r"^subset table of 2\^23 node "
                       r"sets exceeds the budget 2\^22; refusing$"):
        subset_ranks(np.zeros((1, 46), dtype=np.int64), 2, 3)
