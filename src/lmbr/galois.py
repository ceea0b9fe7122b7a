"""Exact arithmetic in prime fields F_q and their extensions F_{q^m}.

An element of F_{q^m} is a vector of m residues mod q: the coefficients of a
polynomial in the power basis 1, x, ..., x^{m-1}, constant term first, taken
modulo a fixed monic irreducible polynomial of degree m.  The modulus is
found by a deterministic search (non-leading coefficients read as a base-q
integer, ascending), so element encodings are reproducible across runs and
machines.  Irreducibility is decided exactly by Ben-Or's test: a degree-m
polynomial f is irreducible iff gcd(x^(q^i) - x, f) = 1 for i = 1..m/2,
since every irreducible factor of degree i divides x^(q^i) - x.  The powers
x^(q^i) mod f come from repeated q-th powering, so a candidate costs
O(m log q) polynomial products mod f rather than one division per monic
polynomial of degree up to m/2.

Each field derives its arithmetic from two (m, m, m) int64 arrays: the
matrices M(x^i) of multiplication by x^i, and the powers F^i of the
Frobenius matrix F (column j is (x^q)^j), for i < m; a -> a^(q^i) is the
F_q-linear map F^i.  A product is the multiplication matrix
M(a) = sum_i a_i M(x^i) of one factor times the other
(:meth:`ExtField.mul_matrices`, :func:`_times`), and every inverse, of one
element or of :func:`solve_moore`'s diagonal, comes from one batched
helper, :func:`_inverses`, by Itoh and Tsujii's addition chain.  Every
q-power is one product with the table: all k q-powers of the points of
:meth:`ExtField.moore`, the Moore map that is the code's generator, and of
:func:`solve_moore`, which solves the Moore system over F_{q^m}; each
linearized polynomial's matrix (:mod:`lmbr.linpoly`); and each step of the
inverses' chain.  Every product goes through :func:`_matmul_mod_q`, which
picks int64 or Python ints from q and its inner dimension, so the
arithmetic is exact for every prime q, not only within the size budget.

Fields are interned: :func:`field` returns one shared, immutable instance
per (q, m), so elements of equal fields always compare against the same
modulus.  All operations are pure and safe for concurrent use.

Linear algebra over F_q has two eliminations, one per job.  The ranks of
every subset of a matrix's node column groups come from
:func:`subset_ranks`, one stacked rank-only pass.  The rank of one matrix,
its pivot columns and a solve A X = B (:func:`solve_mod_q`) come from one
Gauss-Jordan elimination to the reduced form, which is faster on a single
matrix.  Both work on int64 numpy arrays where a product of two residues
fits and on Python ints otherwise, so they are exact for every q.  The
stacked pass reduces mod q at every step.  The Gauss-Jordan elimination
delays it: a step subtracts at most (q-1)^2 from an entry, so an int64
block is reduced after every 2^63 // (q-1)^2 steps (every step for
q > 2^31 + 1; at q = 7 never before the end) and once at the end; Python
ints are reduced at every step.

A K x K Moore system over F_{q^m}, which is every read's interpolation
and every decode-path repair solver, is not expanded to its (K m)-square
F_q form: :func:`solve_moore` eliminates it over F_{q^m} in K pivot steps,
each a batch of products with m x m multiplication matrices
(:meth:`ExtField.mul_matrices`), by the same int64 or Python-int rule.
"""

from __future__ import annotations

import functools
import struct
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import ParameterError

#: Fields larger than this are rejected outright rather than degraded.
SIZE_BUDGET = 2 ** 40


def is_prime(n: int) -> bool:
    """Deterministic trial-division primality test (small moduli only)."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


# ---------------------------------------------------------------------------
# Dense polynomial helpers over F_q.  Coefficient lists, constant term first.
# ---------------------------------------------------------------------------

def _poly_trim(p: list[int]) -> list[int]:
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_rem(a: Sequence[int], b: Sequence[int], q: int) -> list[int]:
    """Remainder of a by b in F_q[x]."""
    rem = _poly_trim([c % q for c in a])
    b = _poly_trim([c % q for c in b])
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    inv_lead = pow(b[-1], q - 2, q)
    while len(rem) >= len(b):
        if rem[-1]:
            shift = len(rem) - len(b)
            factor = (rem[-1] * inv_lead) % q
            for i, bc in enumerate(b):
                rem[shift + i] = (rem[shift + i] - factor * bc) % q
        rem.pop()  # leading coefficient is now zero by construction
    return _poly_trim(rem)


def _poly_sub(a: Sequence[int], b: Sequence[int], q: int) -> list[int]:
    n = max(len(a), len(b))
    a = list(a) + [0] * (n - len(a))
    b = list(b) + [0] * (n - len(b))
    return _poly_trim([(x - y) % q for x, y in zip(a, b)])


def _poly_mul(a: Sequence[int], b: Sequence[int], q: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return _poly_trim([c % q for c in out])


def _poly_powmod(a: Sequence[int], e: int, f: Sequence[int], q: int) -> list[int]:
    """a^e mod f in F_q[x], by square-and-multiply."""
    result = [1]
    base = _poly_rem(a, f, q)
    while e:
        if e & 1:
            result = _poly_rem(_poly_mul(result, base, q), f, q)
        base = _poly_rem(_poly_mul(base, base, q), f, q)
        e >>= 1
    return result


def _poly_gcd(a: Sequence[int], b: Sequence[int], q: int) -> list[int]:
    """A greatest common divisor of trimmed a and b in F_q[x] (not monic)."""
    while b:
        a, b = b, _poly_rem(a, b, q)
    return a


def _monic_polys(q: int, degree: int) -> Iterator[list[int]]:
    for value in range(q ** degree):
        coeffs = []
        v = value
        for _ in range(degree):
            coeffs.append(v % q)
            v //= q
        coeffs.append(1)
        yield coeffs


def _is_irreducible(p: Sequence[int], q: int) -> bool:
    """Ben-Or's test: gcd(x^(q^i) - x, p) = 1 for every i = 1..deg(p)//2.

    A reducible p has an irreducible factor of some degree i <= deg(p)/2,
    and that factor divides x^(q^i) - x; an irreducible p of degree m
    divides x^(q^i) - x only when m | i.  The first non-trivial gcd
    proves p reducible.
    """
    degree = len(p) - 1
    x = [0, 1]
    power = x
    for _ in range(degree // 2):
        power = _poly_powmod(power, q, p, q)      # x^(q^i) mod p
        if len(_poly_gcd(p, _poly_sub(power, x, q), q)) > 1:
            return False
    return True


def _search_modulus(q: int, m: int) -> tuple[int, ...]:
    """Smallest monic irreducible of degree m, by base-q coefficient value."""
    for candidate in _monic_polys(q, m):
        if _is_irreducible(candidate, q):
            return tuple(candidate)
    raise AssertionError("no irreducible polynomial found; unreachable")


# ---------------------------------------------------------------------------
# Field and element types.
# ---------------------------------------------------------------------------

class FieldElement:
    """Immutable element of an :class:`ExtField`.

    Supports +, -, *, /, unary -, ** with integer exponents, and
    multiplication by plain ints (scalar action of the prime subfield,
    i.e. ``n * a == (n mod q) . a``).
    """

    __slots__ = ("field", "coeffs")

    def __init__(self, field: "ExtField", coeffs: tuple[int, ...]):
        self.field = field
        self.coeffs = coeffs

    def __add__(self, other):
        if not isinstance(other, FieldElement):
            return NotImplemented
        self.field._require_same(other.field)
        q = self.field.q
        return FieldElement(
            self.field,
            tuple((a + b) % q for a, b in zip(self.coeffs, other.coeffs)),
        )

    def __sub__(self, other):
        if not isinstance(other, FieldElement):
            return NotImplemented
        self.field._require_same(other.field)
        q = self.field.q
        return FieldElement(
            self.field,
            tuple((a - b) % q for a, b in zip(self.coeffs, other.coeffs)),
        )

    def __neg__(self):
        q = self.field.q
        return FieldElement(self.field, tuple((-a) % q for a in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, FieldElement):
            rows = coefficients([self, other], self.field)
            return as_elements(self.field,
                               _times(self.field, rows[:1], rows[1:]))[0]
        if isinstance(other, int):
            c = other % self.field.q
            return FieldElement(
                self.field, tuple((c * a) % self.field.q for a in self.coeffs)
            )
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, FieldElement):
            return NotImplemented
        return self * other.inverse()

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        base = self
        if exponent < 0:
            base = self.inverse()
            exponent = -exponent
        result = self.field.one()
        while exponent:
            if exponent & 1:
                result = result * base
            base = base * base
            exponent >>= 1
        return result

    def inverse(self) -> "FieldElement":
        """a^-1 by :func:`_inverses`, as every inverse in F_{q^m} is."""
        if self.is_zero():
            raise ZeroDivisionError("inversion of zero field element")
        return as_elements(self.field, _inverses(
            self.field, coefficients([self], self.field)))[0]

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def to_int(self) -> int:
        """Base-q packing of the coefficient vector (little-endian)."""
        v = 0
        for c in reversed(self.coeffs):
            v = v * self.field.q + c
        return v

    def to_bytes(self) -> bytes:
        """m coefficients, constant term first, each as uint16 LE."""
        return struct.pack(f"<{len(self.coeffs)}H", *self.coeffs)

    def __eq__(self, other):
        return (
            isinstance(other, FieldElement)
            and self.field is other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((id(self.field), self.coeffs))

    def __repr__(self):
        return f"FieldElement({self.coeffs} over GF({self.field.q}^{self.field.m}))"


class ExtField:
    """The finite field F_{q^m} for prime q, with Frobenius structure.

    Do not construct directly in normal use; :func:`field` interns one
    instance per (q, m) so that elements share their field object.
    """

    def __init__(self, q: int, m: int):
        if not is_prime(q):
            raise ParameterError(f"q must be prime, got q={q}")
        if m < 1:
            raise ParameterError(f"extension degree must satisfy m >= 1, got m={m}")
        # q >= 2, so m beyond the budget's bit length already means
        # q^m > SIZE_BUDGET; refuse before building a huge q^m.
        if m > SIZE_BUDGET.bit_length() or q ** m > SIZE_BUDGET:
            raise ParameterError(
                f"field size q^m = {q}^{m} exceeds the budget 2^40; refusing"
            )
        self.q = q
        self.m = m
        self.order = q ** m
        self.modulus: tuple[int, ...] = _search_modulus(q, m)
        # Row n of the table T is x^n mod the modulus, n < 2m-1.
        table = np.array([self._reduce([0] * n + [1]) for n in range(2 * m - 1)],
                         dtype=np.int64)
        #: Slice i is the F_q matrix M(x^i) of multiplication by x^i: the
        #: window T[i:i+m].T of the table, column k being x^(i+k) mod the
        #: modulus.  :meth:`mul_matrices` contracts coefficient vectors with
        #: it; :meth:`moore` multiplies the points' q-powers by each x^j.
        self._basis_mul = np.lib.stride_tricks.sliding_window_view(
            table, m, axis=0).copy()
        # Frobenius matrix F: column j is (x^j)^q = (x^q)^j, m - 1 products.
        xq = self.mul_matrices(np.array(
            self._reduce(_poly_powmod([0, 1], q, self.modulus, q))))
        columns = [np.array(self._reduce([1]), dtype=np.int64)]
        for _ in range(m - 1):
            columns.append(_matmul_mod_q(xq, columns[-1], q).astype(np.int64))
        frob = np.array(columns, dtype=np.int64).T
        powers = [np.eye(m, dtype=np.int64), frob][:m]
        while len(powers) < m:                       # m - 2 more products
            powers.append(_matmul_mod_q(powers[-1], frob, q).astype(np.int64))
        #: Slice i is F^i, the F_q matrix of a -> a^(q^i), for i < m: every
        #: q-power of this module is one product with a slice or a stack.
        self._frob = np.array(powers, dtype=np.int64)
        # The field is shared by every caller: its arrays stay read-only.
        self._basis_mul.flags.writeable = self._frob.flags.writeable = False

    # -- construction helpers -----------------------------------------------

    def _reduce(self, p: Sequence[int]) -> tuple[int, ...]:
        """p mod the modulus, as a length-m coefficient vector."""
        rem = _poly_rem(p, self.modulus, self.q)
        return tuple(rem) + (0,) * (self.m - len(rem))

    # -- coefficient-level arithmetic ----------------------------------------

    def _require_same(self, other: "ExtField") -> None:
        if self is not other:
            raise ParameterError(
                f"field mismatch: GF({self.q}^{self.m}) vs GF({other.q}^{other.m})"
            )

    def _q_powers(self, columns: np.ndarray, k: int) -> np.ndarray:
        """The elements with these m x N coefficient columns raised to q^i
        for i < k, as a k x m x N int64 array: slice i is p^(q^i), column by
        column, all k in one product with F^0 .. F^(k-1)."""
        columns = np.asarray(columns, dtype=np.int64)
        return _matmul_mod_q(self._frob[:k], columns, self.q).astype(
            np.int64, copy=False)

    def mul_matrices(self, rows: np.ndarray) -> np.ndarray:
        """The F_q matrices of multiplication by the elements with these
        coefficient vectors (the last axis), one m x m int64 matrix each:
        M(u) = sum_i u_i M(x^i), column k being the coefficients of u x^k."""
        m = self.m
        rows = np.asarray(rows)
        products = _matmul_mod_q(rows, self._basis_mul.reshape(m, m * m), self.q)
        return products.astype(np.int64).reshape(*rows.shape[:-1], m, m)

    def moore(self, columns: np.ndarray, k: int) -> np.ndarray:
        """The Moore map (u_0..u_{k-1}) -> sum_i u_i p^(q^i) at the points
        with these m x N coefficient columns, as a (k m) x (N m) F_q matrix:
        row i*m + j, column c*m + r is coefficient r of x^j p_c^(q^i).  Exact
        for every q: q-powers by F^i, products by x^j by M(x^j)."""
        m = self.m
        powers = self._q_powers(columns, k).transpose(1, 0, 2)
        blocks = _matmul_mod_q(np.reshape(self._basis_mul, (m * m, m)),
                               powers.reshape(m, -1), self.q)
        return (blocks.reshape(m, m, k, -1).transpose(2, 0, 3, 1)
                .reshape(k * m, -1).astype(np.int64))

    # -- public API -----------------------------------------------------------

    def element(self, coeffs: Iterable[int]) -> FieldElement:
        c = tuple(int(v) % self.q for v in coeffs)
        if len(c) != self.m:
            raise ParameterError(
                f"element needs exactly m={self.m} coefficients, got {len(c)}"
            )
        return FieldElement(self, c)

    def zero(self) -> FieldElement:
        return FieldElement(self, tuple(0 for _ in range(self.m)))

    def one(self) -> FieldElement:
        return FieldElement(self, self._reduce([1]))

    def gen(self) -> FieldElement:
        """The power-basis generator x (only meaningful for m >= 2)."""
        return FieldElement(self, self._reduce([0, 1]))

    def from_int(self, value: int) -> FieldElement:
        """Inverse of :meth:`FieldElement.to_int` (base-q digit unpacking)."""
        if not 0 <= value < self.order:
            raise ParameterError(f"value {value} outside [0, {self.order})")
        digits = []
        for _ in range(self.m):
            digits.append(value % self.q)
            value //= self.q
        return FieldElement(self, tuple(digits))

    def elements(self) -> Iterator[FieldElement]:
        """All q^m elements, in base-q counting order."""
        for v in range(self.order):
            yield self.from_int(v)

    def random_element(self, rng) -> FieldElement:
        return self.from_int(rng.randrange(self.order))

    def polynomial_basis(self, n: int) -> tuple[FieldElement, ...]:
        """The first n power-basis elements 1, x, ..., x^{n-1}.

        These are linearly independent over F_q by construction; n may not
        exceed m.
        """
        if n > self.m:
            raise ParameterError(f"basis request n={n} exceeds m={self.m}")
        return tuple(as_elements(self, np.eye(n, self.m, dtype=np.int64)))

    def __repr__(self):
        return f"ExtField(q={self.q}, m={self.m}, modulus={self.modulus})"


@functools.lru_cache(maxsize=None)
def field(q: int, m: int) -> ExtField:
    """Return the interned F_{q^m} with the deterministic smallest modulus."""
    return ExtField(q, m)


# ---------------------------------------------------------------------------
# Linear algebra over F_q (numpy-backed; exact integer arithmetic mod q).
# ---------------------------------------------------------------------------

def coefficients(elements: Sequence[FieldElement], field: ExtField) -> np.ndarray:
    """The elements' coefficients as the rows of an (N, m) int64 array; an
    element of another field is refused."""
    for e in elements:
        field._require_same(e.field)
    return np.array([e.coeffs for e in elements],
                    dtype=np.int64).reshape(len(elements), field.m)


def as_elements(field: ExtField, rows: np.ndarray) -> list[FieldElement]:
    """One element per row of residues mod q, neither reduced nor checked."""
    return [FieldElement(field, tuple(row)) for row in rows.tolist()]


def _exact_dtype(terms: int, q: int):
    """int64 when a sum of ``terms`` products of two residues mod q stays
    below 2^63; Python ints (object) otherwise.
    Every F_q product and elimination of this module follows this rule, so
    each is exact for every q that :func:`field` accepts.  A product asks
    for its inner dimension; eliminations over F_q and the scaling by
    N(a)^-1 in :func:`_inverses` ask for one product, and
    :func:`solve_moore` for m: an entry of its step is the difference of
    two products with m x m multiplication matrices, reduced.  A step of
    :func:`subset_ranks` takes a difference of two such products, each in
    [0, (q-1)^2], and reduces; :func:`_row_reduce` subtracts them from
    entries that start in [0, q) and reduces once 2^63 // (q-1)^2 have
    piled up, so neither leaves int64."""
    return np.int64 if terms * (q - 1) ** 2 < 2 ** 63 else object


def _residues(matrix, q: int) -> np.ndarray:
    """An integer matrix mod q, in the dtype its eliminations need."""
    return np.array(matrix, dtype=_exact_dtype(1, q)) % q


def _row_reduce(matrix: np.ndarray, q: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form of an integer matrix over F_q (Gauss-Jordan).

    Returns the reduced matrix and its pivot columns: column c is a pivot
    exactly when it is independent of the columns before it.  This is the
    elimination of a single matrix: rank, pivot columns and solves.  The
    ranks of many column subsets come from :func:`subset_ranks`.

    Reduction mod q is delayed (Dumas, Gautier and Pernet, ISSAC 2002).  A
    step reduces the pivot column, which picks the lead and is the update's
    multiplier, and the pivot row; the rest of the block takes the rank-one
    update unreduced.  Entries start in [0, q) and an update subtracts a
    product of two residues, at most (q-1)^2, so an int64 block stays exact
    for 2^63 // (q-1)^2 updates: it is reduced after that many, and once at
    the end.  Python ints are reduced at every step, which keeps them small.
    """
    a = _residues(matrix, q)
    rows, cols = a.shape
    room = 2 ** 63 // (q - 1) ** 2 if a.dtype == np.int64 else 1
    pivots: list[int] = []
    for c in range(cols):
        r = len(pivots)
        if r == rows:
            break
        column = a[:, c] % q
        # Any nonzero residue may serve as pivot: the reduced form is unique.
        p = r + int(column[r:].argmax())
        lead = int(column[p])
        if not lead:
            continue
        right = a[:, c:]                     # rows r.. are zero left of c
        row = right[p] % q * pow(lead, q - 2, q) % q
        right[p] = right[r]                  # swap rows r and p ...
        column[p] = column[r]
        right -= column[:, None] * row       # ... clear column c everywhere ...
        right[r] = row                       # ... and put the pivot row at r
        pivots.append(c)
        if len(pivots) % room == 0:          # one update per pivot so far
            right %= q
    a %= q
    return a, pivots


#: Entries of stacked residues one step of :func:`subset_ranks` may hold;
#: past it the states are split and each half finishes the pass alone.
_STATE_BUDGET = 1 << 20

#: Subset tables larger than this are refused before anything is allocated.
TABLE_BUDGET = 1 << 22


def subset_ranks(matrix: np.ndarray, width: int,
                 q: int) -> tuple[np.ndarray, np.ndarray]:
    """Rank over F_q of the columns of every subset of the matrix's nodes.

    Columns j*width .. (j+1)*width - 1 belong to node j, and a subset is
    keyed by the bitmask with bit j for node j.  Returns the keys in
    ascending order and their ranks, both int64.  A table of more than
    ``TABLE_BUDGET`` keys is refused with :class:`ParameterError` before any
    state is allocated, as :func:`field` refuses a field past its budget.

    One pass visits the nodes in order.  A partial state is the residue of
    the columns still to come once its chosen columns are eliminated; at
    each node every state either skips the node's columns or eliminates
    them.  Elimination is rank-only and fraction-free: a pivot row p with
    lead a clears its column from every row, itself included, by
    R <- a R - R[:, c] R[p, :].  That is an invertible row operation
    followed by column operations against the pivot column, so the columns
    still to come keep their rank relative to the chosen ones; no rows are
    swapped, and all the states of a step are eliminated as one stacked
    array.  The keys come out sorted: the states that take node j follow
    the states that skip it.
    """
    cols = np.shape(matrix)[1]
    if width < 1 or cols % width:
        raise ParameterError(
            f"{cols} columns do not split into nodes of width {width}")
    if 1 << cols // width > TABLE_BUDGET:
        raise ParameterError(
            f"subset table of 2^{cols // width} node sets exceeds the budget "
            f"2^{TABLE_BUDGET.bit_length() - 1}; refusing")
    zero = np.zeros(1, dtype=np.int64)
    return _extend(_residues(matrix, q)[None], zero, zero, 0, width, q)


def _extend(residue, keys, ranks, node, width, q):
    """Finish the pass of :func:`subset_ranks` from ``node`` on, for the
    states with these residues, keys and ranks."""
    while residue.shape[2]:
        if residue.size > _STATE_BUDGET and len(residue) > 1:
            half = len(residue) // 2
            parts = [_extend(residue[s], keys[s], ranks[s], node, width, q)
                     for s in (slice(None, half), slice(half, None))]
            keys, ranks = (np.concatenate(p) for p in zip(*parts))
            order = np.argsort(keys)
            return keys[order], ranks[order]
        gained, taken = _eliminate(residue, width, q)
        residue = np.concatenate([residue[:, :, width:], taken])
        keys = np.concatenate([keys, keys | 1 << node])
        ranks = np.concatenate([ranks, ranks + gained])
        node += 1
    return keys, ranks


def _eliminate(residue: np.ndarray, width: int, q: int):
    """Eliminate the first ``width`` columns of each stacked residue.

    Returns the rank each state gains and the residues of the columns
    after those.
    """
    at = np.arange(len(residue))
    gained = np.zeros(len(residue), dtype=np.int64)
    for done in range(width):
        if not np.count_nonzero(residue):  # no state can gain rank any more
            return gained, residue[:, :, width - done:]
        column, rest = residue[:, :, 0], residue[:, :, 1:]
        pivot = column.argmax(axis=1)    # any nonzero entry may serve
        lead = column[at, pivot]
        found = lead != 0                # else the column is zero: no pivot
        gained += found
        lead[~found] = 1
        residue = (lead[:, None, None] * rest
                   - column[:, :, None] * rest[at, pivot][:, None, :]) % q
    return gained, residue


def rank_mod_q(matrix: np.ndarray, q: int) -> int:
    """Rank of an integer matrix over F_q."""
    return len(_row_reduce(matrix, q)[1])


def pivot_columns(matrix: np.ndarray, q: int) -> list[int]:
    """Ascending indices of the columns independent of the columns before
    them over F_q; the first k are the first k independent columns."""
    return _row_reduce(matrix, q)[1]


def solve_mod_q(matrix: np.ndarray, rhs: np.ndarray, q: int) -> np.ndarray:
    """The X with A X = B over F_q for a square nonsingular integer matrix
    A, by reducing [A | B]."""
    a = np.asarray(matrix)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ParameterError("matrix must be square")
    reduced, pivots = _row_reduce(np.concatenate([a, rhs], axis=1), q)
    if pivots != list(range(n)):
        raise ParameterError("matrix is singular over F_q")
    return reduced[:, n:]


def inv_mod_q(matrix: np.ndarray, q: int) -> np.ndarray:
    """Inverse of a square integer matrix over F_q: A X = I."""
    return solve_mod_q(matrix, np.eye(np.shape(matrix)[0], dtype=np.int64), q)


def solve_moore(fld: ExtField, points: np.ndarray,
                rhs: np.ndarray) -> np.ndarray:
    """The X with A X = B over F_{q^m}, for the K x K Moore matrix
    A[c, i] = p_c^(q^i) at the points with these m x K coefficient columns.

    B and X are K x r arrays of m-coefficient entries (K x r x m).  This
    is the F_{q^m} form of :func:`solve_mod_q` on the transposed
    :meth:`ExtField.moore` map at the points: K pivot steps instead of
    K m.  Gauss-Jordan elimination runs fraction-free on the K x (K + r)
    array [A | B]: step p takes every row to a_pp row - a_ip (row p), two
    batched products of multiplication matrices, so no entry is inverted
    on the way and no row is swapped.  That needs a nonzero pivot at every
    step, that is, nonsingular leading minors, and the leading minor of
    size s is the Moore matrix of the first s points: nonsingular exactly
    when they are independent over F_q.  A zero pivot raises
    :class:`ParameterError`.  The diagonal left at the end is inverted in
    one batch by :func:`_inverses` and scales its rows' B part.  The K
    q-powers of the points are one product with the field's table of
    Frobenius powers.  Products are exact by the rule of
    :func:`_exact_dtype`.
    """
    q, m = fld.q, fld.m
    k = points.shape[1]
    dtype = _exact_dtype(m, q)
    a = np.concatenate([fld._q_powers(points, k).transpose(2, 0, 1),
                        np.asarray(rhs, dtype=np.int64)], axis=1)
    for p in range(k):
        if not a[p, p].any():
            raise ParameterError("matrix is singular over F_q")
        mults = fld.mul_matrices(a[:, p]).astype(dtype, copy=False)
        # a_ip a_pj for every i and j, then a_pp a_ij: M(a_ip) on row p and
        # M(a_pp) on every entry.
        cross = (mults.reshape(k * m, m) @ a[p].T.astype(dtype, copy=False)
                 ).reshape(k, m, -1).transpose(0, 2, 1)
        reduced = (a.astype(dtype, copy=False) @ mults[p].T - cross) % q
        reduced[p] = a[p]
        a = reduced
    inverse = _inverses(fld, a[np.arange(k), np.arange(k)])
    return _times(fld, inverse, a[:, k:].transpose(1, 0, 2)).transpose(1, 0, 2)


def _inverses(fld: ExtField, rows: np.ndarray) -> np.ndarray:
    """The inverses of nonzero F_{q^m} elements given as rows of
    coefficients (N, m), in one batch: a^-1 = a^(q + ... + q^(m-1)) / N(a),
    with the norm N(a) = a^(1 + q + ... + q^(m-1)) in F_q.

    Itoh and Tsujii's addition chain (Inf. Comput. 1988) builds
    b_j = a^(1 + q + ... + q^(j-1)) from b_1 = a along the bits of m - 1:
    b_2j = b_j b_j^(q^j) and b_(j+1) = b_j^q a.  Then b_(m-1)^q is
    a^(q + ... + q^(m-1)), and its product with a is N(a).  Each q^j power
    is one product with F^j; the batch takes floor(log2(m-1)) +
    popcount(m-1) - 1 chain products and one norm product by
    multiplication matrices, then scales by N(a)^-1, an inversion in F_q
    and one elementwise product mod q per element."""
    q, m = fld.q, fld.m
    rows = np.asarray(rows, dtype=np.int64)

    def power(b, j):                                         # b^(q^j)
        return _matmul_mod_q(b, fld._frob[j].T, q).astype(np.int64)

    # a^(q + ... + q^(m-1)): the empty product 1 at m = 1, else b_(m-1)^q.
    conjugates = np.eye(1, m, dtype=np.int64).repeat(len(rows), axis=0)
    if m > 1:
        b, j = rows, 1                                       # b_1 = a
        for bit in bin(m - 1)[3:]:                # the bits after the lead
            b, j = _times(fld, b, power(b, j)), 2 * j
            if bit == "1":
                b, j = _times(fld, rows, power(b, 1)), j + 1
        conjugates = power(b, 1)
    norm = _times(fld, conjugates, rows)[:, 0]              # N(a) in F_q
    dtype = _exact_dtype(1, q)
    scale = np.array([pow(int(n), q - 2, q) for n in norm], dtype=dtype)
    return (conjugates.astype(dtype) * scale[:, None] % q).astype(np.int64)


def _times(fld: ExtField, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """The products of F_{q^m} elements given as rows of coefficients,
    entry by entry: left is (N, m), right (..., N, m).  Each is M(l) r, the
    multiplication matrix of one factor times the other."""
    products = _matmul_mod_q(np.asarray(right)[..., None, :],
                             np.swapaxes(fld.mul_matrices(left), -1, -2), fld.q)
    return products[..., 0, :].astype(np.int64)


def rank_over_base(elements: Sequence[FieldElement]) -> int:
    """Rank over F_q of a set of F_{q^m} elements, seen as F_q^m vectors.

    An empty input has rank 0.
    """
    elements = list(elements)
    if not elements:
        return 0
    fld = elements[0].field
    return rank_mod_q(coefficients(elements, fld).T, fld.q)


def _matmul_mod_q(matrix: np.ndarray, residues: np.ndarray, q: int) -> np.ndarray:
    """(matrix @ residues) % q for two arrays of residues in [0, q), each a
    matrix or a stack of them, exactly: in int64 when no dot product can
    reach 2^63, over Python ints otherwise.  The dtype is read off q and
    the inner dimension, the last axis of ``matrix``, alone; no entry is
    scanned."""
    dtype = _exact_dtype(matrix.shape[-1], q)
    return (matrix.astype(dtype, copy=False)
            @ residues.astype(dtype, copy=False)) % q


def apply_int_matrix(
    matrix: np.ndarray, elements: Sequence[FieldElement], out_field: ExtField
) -> list[FieldElement]:
    """Apply an F_q integer matrix to a vector of extension-field elements.

    The matrix acts F_q-linearly, on each power-basis coordinate separately,
    which is exactly the sense in which the local codes of this toolkit act
    on pre-coded symbols: the coefficient vectors are stacked as a
    cols x m array and multiplied once, mod q, exactly for every q.  The
    matrix may hold any integers: it is reduced mod q first.
    """
    cols = matrix.shape[1]
    if cols != len(elements):
        raise ParameterError(f"matrix width {cols} != vector length {len(elements)}")
    q = out_field.q
    product = _matmul_mod_q(_residues(matrix, q),
                            coefficients(elements, out_field), q)
    return as_elements(out_field, product)
