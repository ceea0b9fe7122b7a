"""Fractional-repetition local codes built from combinatorial block designs.

A t-(n, w, lambda) design is a collection of w-subsets (blocks) of an n-set
of points such that every t-subset of points lies in exactly lambda blocks.
The storage code derived from it first spreads the message over b = number
of blocks coded symbols with a Reed-Solomon code over F_q (q >= b, applied
F_q-linearly so extension-field symbols pass straight through), then places
symbol j verbatim on every node whose point belongs to block j.  Every node
thus stores alpha = lambda_1 symbols, and a failed node is repaired by
copying each of its symbols from the lowest-index surviving holder: no
arithmetic, exactly alpha symbols moved.  Coding and placement
together are one F_q-linear map, so encoding applies its generator (the
Reed-Solomon row of every stored symbol, node by node) through
:func:`galois.apply_int_matrix`.

The number of blocks through any s <= t fixed points depends only on s
(lambda_s), and every lambda_s is checked on every s-subset of points, so
by inclusion-exclusion every set of s <= t nodes has the same union size.
Capped at the message dimension, those sizes are the code's rank profile;
``lmbr verify --mode ura`` certifies that profile by the ranks of the
generator itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Mapping, Sequence

import numpy as np

from .errors import DesignError, ParameterError, RepairError
from .galois import FieldElement, apply_int_matrix, is_prime

#: The seven lines of the Fano plane over points 1..7 (a 2-(7,3,1) design).
FANO_BLOCKS = (
    (1, 2, 3),
    (1, 4, 5),
    (1, 6, 7),
    (2, 4, 6),
    (2, 5, 7),
    (3, 4, 7),
    (3, 5, 6),
)


@dataclass(frozen=True)
class Design:
    """A verified t-(n_points, block_size, index) block design.

    Construct through :func:`verify_design` (or the loaders below), which
    checks the covering condition exhaustively, including that every block
    has the same size; ``block_size`` is read off the first block.
    """

    strength: int
    n_points: int
    index: int
    blocks: tuple[tuple[int, ...], ...]

    @property
    def b(self) -> int:
        return len(self.blocks)

    @property
    def block_size(self) -> int:
        return len(self.blocks[0])

    def lambda_s(self, s: int) -> int:
        """Number of blocks through any s fixed points (0 <= s <= strength).

        Computed by the counting identity lambda * C(n-s, t-s) / C(w-s, t-s)
        and cross-checked against the stored blocks for every s-subset; a
        mismatch means the design object was tampered with.
        """
        if not 0 <= s <= self.strength:
            raise ParameterError(
                f"lambda_s defined for 0 <= s <= t={self.strength}, got {s}"
            )
        t, n, w = self.strength, self.n_points, self.block_size
        num = self.index * comb(n - s, t - s)
        den = comb(w - s, t - s)
        if num % den:
            raise DesignError(f"lambda_{s} = {num}/{den} is not an integer")
        value = num // den
        for subset, count in _coverage(self.blocks, n, s):
            if count != value:
                raise DesignError(
                    f"direct count {count} for {subset} contradicts "
                    f"lambda_{s} = {value}",
                    witness=subset,
                )
        return value


def _coverage(blocks: Sequence[Sequence[int]], n_points: int, s: int):
    """Yield each s-subset of the points 1..n_points, in ``combinations``
    order, with the number of blocks that contain it."""
    block_sets = [frozenset(blk) for blk in blocks]
    for subset in combinations(range(1, n_points + 1), s):
        yield subset, sum(1 for blk in block_sets if blk.issuperset(subset))


def verify_design(n_points: int, blocks: Sequence[Sequence[int]],
                  strength: int, index: int) -> Design:
    """Exhaustively check the design conditions and return a Design.

    Rejection names a witness: either a malformed block or the first
    t-subset of points covered a wrong number of times.
    """
    if strength < 1:
        raise ParameterError(f"design strength must be >= 1, got {strength}")
    if index < 1:
        raise ParameterError(f"design index must be >= 1, got {index}")
    norm_blocks = []
    block_size = None
    for blk in blocks:
        b = tuple(sorted(int(x) for x in blk))
        if len(set(b)) != len(b):
            raise DesignError(f"block {blk} repeats a point", witness=b)
        if any(not 1 <= x <= n_points for x in b):
            raise DesignError(
                f"block {blk} uses points outside 1..{n_points}", witness=b
            )
        if block_size is None:
            block_size = len(b)
        elif len(b) != block_size:
            raise DesignError(
                f"block {blk} has size {len(b)}, expected {block_size}", witness=b
            )
        norm_blocks.append(b)
    if block_size is None:
        raise DesignError("design has no blocks")
    if not strength <= block_size < n_points:
        raise ParameterError(
            f"need t <= w < n, got t={strength}, w={block_size}, n={n_points}"
        )
    for subset, count in _coverage(norm_blocks, n_points, strength):
        if count != index:
            raise DesignError(
                f"point set {subset} lies in {count} blocks, expected {index}",
                witness=subset,
            )
    return Design(
        strength=strength,
        n_points=n_points,
        index=index,
        blocks=tuple(norm_blocks),
    )


def infer_design(n_points: int, blocks: Sequence[Sequence[int]]) -> Design:
    """Verify blocks as a design of the largest uniform strength.

    Tries t = w, w-1, ..., 1 and accepts the first strength at which every
    t-subset is covered equally often.
    """
    sizes = {len(set(b)) for b in blocks}
    if len(sizes) != 1:
        raise DesignError(f"blocks have mixed sizes {sorted(sizes)}")
    w = sizes.pop()
    last_error = None
    for t in range(min(w, n_points - 1), 0, -1):
        # 1 <= t < n_points, so there is a first subset; the scan stops at
        # the first count that differs from it.
        counts = (count for _, count in _coverage(blocks, n_points, t))
        lam = next(counts)
        if all(count == lam for count in counts) and lam >= 1:
            return verify_design(n_points, blocks, t, lam)
        last_error = f"coverage at strength {t} is not uniform"
    raise DesignError(last_error or "no uniform strength found")


def load_design(path) -> Design:
    """Read a design file: one block per line, space-separated 1-based
    point indices; blank lines and '#' comments are skipped."""
    blocks = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise DesignError(f"design file {path} is not UTF-8 text: {exc}") from None
    for line in lines:
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            blocks.append(tuple(int(tok) for tok in line.split()))
        except ValueError:
            raise DesignError(
                f"design file {path}: non-integer point in {line!r}"
            ) from None
    if not blocks:
        raise DesignError(f"design file {path} contains no blocks")
    n_points = max(max(b) for b in blocks)
    return infer_design(n_points, blocks)


def fano_plane() -> Design:
    """The built-in 2-(7,3,1) design."""
    return verify_design(7, FANO_BLOCKS, strength=2, index=1)


class FrCode:
    """Fractional-repetition code over a verified design.

    ``k_message`` message symbols are Reed-Solomon coded to ``b`` symbols
    (evaluation points 0..b-1 in F_q) and replicated per the design's
    incidence.  ``k_rec`` is the smallest node count from which any node set
    reconstructs the message; it must exist among 1..strength, where union
    sizes are uniform.
    """

    def __init__(self, design: Design, k_message: int, q: int):
        b = design.b
        if not is_prime(q) or q < b:
            raise ParameterError(
                f"need prime q >= b for the MDS layer, got q={q}, b={b}"
            )
        if k_message < 1:
            raise ParameterError("message dimension must be positive")
        if design.block_size < 2:
            raise DesignError(
                "blocks of size 1 give each symbol one holder, so no node "
                "could be repaired by transfer"
            )
        self.design = design
        self.q = q
        self.k_message = k_message
        # node i holds the symbols of the blocks through point i+1 (0-based
        # symbol ids, ascending).
        self.node_symbols: tuple[tuple[int, ...], ...] = tuple(
            tuple(j for j, blk in enumerate(design.blocks) if point in blk)
            for point in range(1, design.n_points + 1)
        )
        self._lambdas = [design.lambda_s(s) for s in range(design.strength + 1)]
        self.alpha = self._lambdas[1]
        self.k_rec = self._solve_recovery_threshold()
        # Reed-Solomon generator: row j evaluates at point j.
        self.rs_matrix = np.array(
            [[pow(j, l, q) for l in range(k_message)] for j in range(b)],
            dtype=np.int64,
        )
        self._generator = np.concatenate(
            [self.rs_matrix[list(syms)].T for syms in self.node_symbols], axis=1
        )
        self._generator.setflags(write=False)

    # -- combinatorics -----------------------------------------------------------

    def uniform_union(self, s: int) -> int:
        """Size of the union of any s nodes, for s <= design strength.

        Inclusion-exclusion over the uniform intersection sizes lambda_s.
        """
        if not 0 <= s <= self.design.strength:
            raise ParameterError(
                f"union size is uniform only for s <= t={self.design.strength}"
            )
        return sum(
            (-1) ** (j + 1) * comb(s, j) * self._lambdas[j] for j in range(1, s + 1)
        )

    def _solve_recovery_threshold(self) -> int:
        prev = 0
        for k in range(1, self.design.strength + 1):
            cur = self.uniform_union(k)
            if prev < self.k_message <= cur:
                return k
            prev = cur
        raise ParameterError(
            f"no k <= t={self.design.strength} gives union >= k_message="
            f"{self.k_message} (max union {prev}); pick a smaller message"
        )

    # -- encode ------------------------------------------------------------------------

    def encode(self, message: Sequence[FieldElement]) -> list[tuple[FieldElement, ...]]:
        """MDS-code the message, then replicate symbols per the design.

        Both steps are one F_q map: the stored scalars are the generator
        applied to the message.
        """
        message = list(message)
        if len(message) != self.k_message:
            raise ParameterError(
                f"message length {len(message)} != k_message {self.k_message}"
            )
        stored = apply_int_matrix(self._generator.T, message, message[0].field)
        return [tuple(stored[i * self.alpha:(i + 1) * self.alpha])
                for i in range(self.design.n_points)]

    # -- repair ---------------------------------------------------------------------

    def repair(
        self, failed: int, available: Mapping[int, Sequence[FieldElement]]
    ) -> tuple[tuple[FieldElement, ...], dict[int, int]]:
        """Copy each lost symbol from its lowest-index available holder.

        Returns the rebuilt vector and the symbol -> helper assignment;
        exactly alpha symbols move and no arithmetic happens.  Each
        available payload must hold alpha symbols.  Raises
        :class:`RepairError` when some lost symbol has no available holder.
        """
        if failed in available:
            raise ParameterError("failed node listed as available")
        if not 0 <= failed < self.design.n_points:
            raise ParameterError(f"failed index {failed} out of range")
        survivors = sorted(available)
        for h in survivors:
            if not 0 <= h < self.design.n_points:
                raise ParameterError(f"helper index {h} out of range")
            if len(available[h]) != self.alpha:
                raise ParameterError(
                    f"helper {h} stores {len(available[h])} symbols, "
                    f"expected alpha={self.alpha}")
        values = []
        assignment: dict[int, int] = {}
        for sym in self.node_symbols[failed]:
            helper = next(
                (h for h in survivors if sym in self.node_symbols[h]), None
            )
            if helper is None:
                raise RepairError(
                    f"symbol {sym} is extinct: all holders unavailable"
                )
            pos = self.node_symbols[helper].index(sym)
            values.append(available[helper][pos])
            assignment[sym] = helper
        return tuple(values), assignment

    def repair_in_group(self, failed: int, stored: dict) -> tuple:
        """:meth:`repair` from the surviving alpha x m payload arrays: the
        node as a read-only int64 array, with the metrics record."""
        vector, assignment = self.repair(failed, stored)
        payload = np.array(vector, dtype=np.int64)
        payload.setflags(write=False)
        return payload, {"path": "local-transfer",
                        "helpers": sorted(set(assignment.values())),
                        "downloaded_symbols": self.alpha, "arithmetic_ops": 0}

    def helper_sets(self, survivors):
        """One helper set, every survivor: :meth:`repair` picks holders."""
        return [tuple(survivors)]

    # -- rank accumulation -------------------------------------------------------------

    def profile(self) -> tuple[int, ...]:
        """Capped-union rank profile, read off the checked lambda_s.

        The rank any i nodes expose is min(|union of their symbol sets|,
        k_message).  For i <= k_rec <= strength every i-set of nodes has
        union size uniform_union(i): inclusion-exclusion over lambda_1..
        lambda_i, each checked on every subset of points by
        :meth:`Design.lambda_s`.  Past k_rec every i-set contains a k_rec-set
        whose union already reaches k_message.  ``lmbr verify --mode ura``
        certifies the profile by the ranks of the generator itself.
        """
        values = []
        prev = 0
        for i in range(1, self.design.n_points + 1):
            if i <= self.k_rec:
                cur = min(self.uniform_union(i), self.k_message)
            else:
                cur = self.k_message
            values.append(cur - prev)
            prev = cur
        return tuple(values)

    def generator_matrix(self) -> np.ndarray:
        """k_message x (n_points * alpha) generator over F_q (read-only).

        Column node*alpha + c is the Reed-Solomon row of the node's c-th
        symbol.
        """
        return self._generator

    @property
    def n_nodes(self) -> int:
        return self.design.n_points

    def __repr__(self):
        d = self.design
        return (
            f"FrCode({d.strength}-({d.n_points},{d.block_size},{d.index}) design, "
            f"k_message={self.k_message}, q={self.q}, alpha={self.alpha}, "
            f"k_rec={self.k_rec})"
        )
