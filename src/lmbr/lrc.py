"""Two-stage locally repairable codes: rank-metric pre-code over a bank of
identical local codes.

The code first spreads the K message symbols over J = groups * k_local
(+ globals * alpha) evaluations of a linearized polynomial, then applies the
block-diagonal mixed generator G (one copy of the local generator per
group's slice of evaluations); information-locality layouts additionally
emit the remaining evaluations verbatim as global nodes, through identity
columns of G.  The local code may be any F_q-linear code: all but in-group
repair reads only its ``generator_matrix()``, ``alpha``, ``n_nodes``,
``k_message``, ``q`` and ``profile()``.

Because the local encoders act F_q-linearly and the outer polynomial is
F_q-linear, every stored scalar equals the polynomial evaluated at a known
mixed point: the matching column of Gamma = [theta_1 ... theta_J] . G,
where G is the block-diagonal local generator (plus identity columns for
global nodes).  The decoder therefore works from ANY surviving scalars:
it pairs each one with its Gamma column and interpolates, succeeding
exactly when the available columns span rank >= K over the base field.

The whole two-stage code is therefore one F_q-linear map, and
:attr:`LrcCode.generator` compiles it, on first use, into the field's
Moore map at the expanded points: a (K m) x (n alpha m) F_q matrix.
Encoding is one product with it, and each shard's payload is its node's
alpha x m block of the product: one read-only integer array of
coefficients, never a tuple of field elements.  A node rebuilt on the
decode path is one solve: the generator's square block at the K scalars
the interpolating decoder would choose is inverted once per helper set
(the inverse is cached), over F_{q^m} as the Moore system at their points
and expanded to F_q, and one more product checks the surplus scalars and
yields the lost node.  Reads still interpolate.
:class:`~lmbr.galois.FieldElement` is the type of the message in and out
and of the (point, value) pairs a read hands to interpolation; a local
code's ``repair_in_group`` receives the payload arrays and returns one.

:func:`LrcCode.measure_dmin` and :func:`LrcCode.ura_report` certify the
minimum distance and uniform rank accumulation against that same rank
criterion, exactly over every erasure pattern or column subset, without
visiting them one by one.  The outer points are the power basis, so Theta
is the first J unit columns and has full column rank (checked on every
call); the rank of any set of Gamma columns is then the rank of the same
columns of G.  G is block-diagonal, so that rank is the sum of one rank per
group (that of the group's surviving local-generator columns) plus alpha
per surviving global node.  One node-by-node
:func:`~lmbr.galois.subset_ranks` pass over the local generator fills a
table of the group ranks.  For the distance, the least rank over all
patterns of one size is the min-plus convolution of the per-group minima by
node count, one copy per group, and the witness is read off the same
table: no pattern is visited.  A decode attempt re-validates it.  For
rank accumulation, every group mask's rank is compared with the claimed
prefix sum for its node count, and that is the whole check: rank is
submodular, so matching masks make the prefix sums concave, and the least
rank of each size is then the periodic sum without being computed.  The
only limit is the table's size: a group of more nodes than the
:data:`~lmbr.galois.TABLE_BUDGET` allows is refused, never sampled.
"""

from __future__ import annotations

import functools
import operator
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from itertools import accumulate
from math import comb

import numpy as np

from .bounds import BoundContext
from .errors import InsufficientRankError, ParameterError, RepairError
from .galois import (FieldElement, _matmul_mod_q, as_elements, coefficients,
                     field, rank_mod_q, solve_moore, subset_ranks)
from .gabidulin import GabidulinCode
from .linpoly import independent_points, no_evaluations, surplus_mismatch


@dataclass(frozen=True, eq=False)
class Shard:
    """One storage node's content and its placement.

    ``payload`` is the node's alpha stored symbols as one read-only
    alpha x m integer array: row c holds the F_q coefficients of symbol c,
    constant term first.  Encode and repair give int64 arrays;
    :func:`~lmbr.cli.parse_shard` gives a uint16 view of the file's bytes.
    Shards compare and hash by value (index, role, and the payload's shape
    and entries), whatever the payload's integer dtype.
    """

    index: int
    role: tuple
    payload: np.ndarray

    @property
    def is_global(self) -> bool:
        return self.role[0] == "global"

    def __eq__(self, other):
        if not isinstance(other, Shard):
            return NotImplemented
        return (self.index == other.index and self.role == other.role
                and np.array_equal(self.payload, other.payload))

    def __hash__(self):
        payload = np.asarray(self.payload)
        return hash((self.index, self.role, payload.shape,
                     tuple(payload.ravel().tolist())))


@dataclass(frozen=True)
class DminResult:
    """Outcome of exhaustive distance measurement."""

    value: int
    witness: tuple[int, ...]
    patterns_checked: int


def _min_plus(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Min-plus convolution: entry k is the least a[i] + b[k - i]."""
    out = np.full(len(a) + len(b) - 1, np.iinfo(np.int64).max)
    for i, value in enumerate(b):
        np.minimum(out[i:i + len(a)], a + value, out=out[i:i + len(a)])
    return out


def _blocks(indices: Iterable[int], width: int) -> np.ndarray:
    """Positions of the blocks ``indices`` of ``width`` consecutive entries
    each, in order: a node's stored scalars, or a scalar's generator
    columns."""
    return (np.fromiter(indices, dtype=np.int64)[:, None] * width
            + np.arange(width)).reshape(-1)


def _nodes(mask: int) -> list[int]:
    """The nodes of a bitmask, ascending."""
    return [j for j in range(mask.bit_length()) if mask >> j & 1]


def _combinations_first(masks: np.ndarray, width: int) -> int:
    """Position of the mask whose nodes come first in ``combinations``
    order, the largest with node 0 read as the high bit: at the first node
    where two node sets differ, the set that has it comes first."""
    high_first = sum((masks >> node & 1) << (width - 1 - node)
                     for node in range(width))
    return int(np.argmax(high_first))


def _first_undecodable(keys, ranks, n_local, groups, global_nodes, alpha,
                       file_dim):
    """The first erasure pattern, by size and then in ``combinations``
    order, whose survivors have rank below ``file_dim``: (size, pattern).
    There is one, since erasing every node leaves rank 0.

    There are ``groups`` groups of ``n_local`` nodes, whose surviving
    ``keys`` (every group mask) have ``ranks``, then ``global_nodes`` nodes
    of rank ``alpha``.  rest[g][e], the least rank of groups g.. and the
    global nodes with e of their nodes erased, is a min-plus convolution;
    the size is the first e >= 1 with rest[0][e] below ``file_dim``.  Each
    group in turn loses the first, by :func:`_combinations_first`, of its
    masks that keep the running total plus rest[g + 1] at the erasures left
    below ``file_dim`` (the later erasures lie past the group); the first
    global nodes take the rest.
    """
    lost = n_local - sum(keys >> node & 1 for node in range(n_local))
    by_lost = np.full(n_local + 1, np.iinfo(np.int64).max)
    np.minimum.at(by_lost, lost, ranks)
    rest = [alpha * np.arange(global_nodes, -1, -1)]
    for _ in range(groups):
        rest.insert(0, _min_plus(rest[0], by_lost))
    erased = left = int(np.flatnonzero(rest[0][1:] < file_dim)[0]) + 1
    total, pattern, full = 0, [], (1 << n_local) - 1
    for group, after in enumerate(rest[1:]):
        fits = np.flatnonzero((lost <= left) & (left - lost < len(after)))
        fits = fits[total + ranks[fits] + after[left - lost[fits]] < file_dim]
        at = fits[_combinations_first(full ^ keys[fits], n_local)]
        pattern += [group * n_local + j for j in _nodes(int(full ^ keys[at]))]
        total, left = total + ranks[at], left - lost[at]
    first_global = groups * n_local
    return erased, (*pattern, *range(first_global, first_global + left))


class LrcCode:
    """A composed code: ``groups`` local codes plus optional global nodes."""

    def __init__(self, local, groups: int, file_dim: int,
                 global_nodes: int = 0, ext_degree: int | None = None):
        if groups < 1:
            raise ParameterError(f"need at least one local group, got {groups}")
        if global_nodes < 0:
            raise ParameterError("global node count must be >= 0")
        k_local = local.k_message
        outer_len = groups * k_local + global_nodes * local.alpha
        if ext_degree is None:
            ext_degree = outer_len
        if ext_degree < outer_len:
            raise ParameterError(
                f"extension degree too small: m >= groups*k_local"
                f"{' + globals*alpha' if global_nodes else ''} requires "
                f"m >= {outer_len}, got m={ext_degree}"
            )
        if not 1 <= file_dim <= groups * k_local:
            raise ParameterError(
                f"file size must satisfy 1 <= K <= groups*k_local = "
                f"{groups * k_local}, got K={file_dim}"
            )
        self.local = local
        self.groups = groups
        self.global_nodes = global_nodes
        self.file_dim = file_dim
        self.n_nodes = groups * local.n_nodes + global_nodes
        self.alpha = local.alpha
        self.field = field(local.q, ext_degree)
        self.outer = GabidulinCode(self.field, outer_len, file_dim)
        self.mixed_generator = self._build_mixed_generator()
        # Expanded evaluation points of every stored scalar: column c of
        # Theta . G is the coefficient vector of gamma_c.
        self.theta = coefficients(self.outer.points, self.field).T  # m x J
        self.expanded = (self.theta @ self.mixed_generator) % local.q
        self.gamma: tuple[FieldElement, ...] = tuple(
            as_elements(self.field, self.expanded.T))
        self.bound_ctx = BoundContext.for_local_code(
            local, self.n_nodes, extra=global_nodes
        )
        self.dmin_bound = self.bound_ctx.optimal_dmin(file_dim)
        #: Number of shards that guarantees decodability.
        self.decode_threshold = self.n_nodes - self.dmin_bound + 1
        # Decode-path repair solvers by helper shard indices, oldest first.
        self._solvers: dict[tuple[int, ...], tuple] = {}

    def _build_mixed_generator(self) -> np.ndarray:
        local_gen = self.local.generator_matrix()
        k_local, width = local_gen.shape
        rows = self.groups * k_local + self.global_nodes * self.alpha
        cols = self.groups * width + self.global_nodes * self.alpha
        g = np.zeros((rows, cols), dtype=np.int64)
        for grp in range(self.groups):
            g[grp * k_local:(grp + 1) * k_local,
              grp * width:(grp + 1) * width] = local_gen
        base_row = self.groups * k_local
        base_col = self.groups * width
        for i in range(self.global_nodes * self.alpha):
            g[base_row + i, base_col + i] = 1
        return g

    @functools.cached_property
    def generator(self) -> np.ndarray:
        """The composed code as one (K m) x (n alpha m) F_q matrix, built
        on first use and read-only: the field's Moore map at the expanded
        points gamma_c.  Row i*m + k is the message with u_i = x^k, and
        column c*m + r is coefficient r of stored scalar c, so a message's
        stored scalars are its coefficient row times this matrix, mod q.
        """
        g = self.field.moore(self.expanded, self.file_dim)
        g.flags.writeable = False
        return g

    # -- placement helpers -------------------------------------------------------

    @functools.cached_property
    def _roles(self) -> tuple[tuple, ...]:
        """Every node's role by index: ("local", group, position in the
        group) or ("global", j)."""
        n_local = self.local.n_nodes
        local_span = self.groups * n_local
        return tuple(("local", i // n_local, i % n_local) if i < local_span
                     else ("global", i - local_span)
                     for i in range(self.n_nodes))

    def role_of(self, index: int) -> tuple:
        if not 0 <= index < self.n_nodes:
            raise ParameterError(f"node index {index} out of range")
        return self._roles[index]

    def group_members(self, group: int) -> range:
        start = group * self.local.n_nodes
        return range(start, start + self.local.n_nodes)

    # -- encode / decode ------------------------------------------------------------

    def encode(self, message: Sequence[FieldElement]) -> list[Shard]:
        """Store a message: its coefficient row times :attr:`generator`.

        One F_q product computes every stored scalar, the pre-code's
        evaluations, each group's local encoding and the verbatim global
        nodes at once.  The product is split into one shard per node.
        """
        message = list(message)
        if len(message) != self.file_dim:
            raise ParameterError(
                f"message length {len(message)} != code dimension "
                f"{self.file_dim}"
            )
        row = coefficients(message, self.field).reshape(1, -1)
        stored = _matmul_mod_q(row, self.generator, self.local.q)
        nodes = stored.astype(np.int64, copy=False).reshape(
            self.n_nodes, self.alpha, -1)
        nodes.setflags(write=False)
        return [Shard(i, role, payload)
                for i, (role, payload) in enumerate(zip(self._roles, nodes))]

    def _check_fits(self, shards: Sequence[Shard]) -> np.ndarray:
        """Refuse the first shard whose index is not a node of the code or
        whose payload is not an alpha x m integer array, then the first
        with an entry that is not a residue mod q; return the payloads
        stacked, one row per stored scalar."""
        q, fits = self.local.q, (self.alpha, self.field.m)
        for shard in shards:
            payload = shard.payload
            shape = getattr(payload, "shape", None)
            if not 0 <= shard.index < self.n_nodes or shape != fits:
                raise ParameterError(
                    f"shard {shard.index} with payload shape {shape} does "
                    f"not fit n={self.n_nodes} nodes of alpha x m = "
                    f"{fits[0]} x {fits[1]}")
            if payload.dtype.kind not in "iu":
                raise ParameterError(
                    f"shard {shard.index} payload has dtype "
                    f"{payload.dtype}, not an integer dtype")
        if not shards:
            return np.zeros((0, fits[1]), dtype=np.int64)
        # One range check over every payload; an unsigned stack (parsed
        # shards) has no negative entry to look for.
        stacked = np.concatenate([s.payload for s in shards])
        signed = stacked.dtype.kind != "u"
        if stacked.max() >= q or signed and stacked.min() < 0:
            outside = ((stacked < 0) | (stacked >= q)).any(axis=1)
            shard = shards[int(np.argmax(outside)) // self.alpha]
            raise ParameterError(
                f"shard {shard.index} payload has a coefficient outside "
                f"[0, {q})")
        return stacked

    def decode(self, shards: Iterable[Shard]) -> tuple[FieldElement, ...]:
        """Recover the message from any shard subset of sufficient rank.

        All supplied shards are used; surplus symbols are consistency
        checks.  A corrupt shard always raises
        :class:`InconsistentDataError` when the *other* supplied shards
        alone span rank K: they pin the message down, so no message agrees
        with them and with the corrupt symbol.  Otherwise a corrupt shard
        can decode silently to a wrong message, as at the decode threshold
        with no surplus rank.
        """
        shards = list(shards)
        values = as_elements(self.field, self._check_fits(shards))
        points = _blocks([s.index for s in shards], self.alpha).tolist()
        return self.outer.decode_erasures(
            [(self.gamma[c], value) for c, value in zip(points, values)])

    def decodable(self, surviving: Iterable[int]) -> bool:
        """Rank test: do these nodes' scalar columns span the message?"""
        sub = self.expanded[:, _blocks(surviving, self.alpha)]
        return rank_mod_q(sub, self.local.q) >= self.file_dim

    # -- repair ------------------------------------------------------------------------

    def repair(self, failed: int,
               available: Mapping[int, Shard]) -> tuple[Shard, dict]:
        """Rebuild a failed node, preferring the in-group repair path.

        A local node is rebuilt by the local code's
        ``repair_in_group(failed, stored)``: it gets the given payloads of
        the node's group by position in the group, each the alpha x m array
        it was given, and returns the node as a read-only int64 array and a
        metrics record whose helpers are positions too (they are shifted to
        node indices here).  Global nodes, and local nodes whose local code
        has no such entry or raises :class:`RepairError`, fall back to the
        decode path: the first ``decode_threshold`` available shards pin
        down the message through a cached solver, and the lost node is
        rebuilt from it, with the checks and errors of :meth:`decode`
        followed by :meth:`encode`.  Returns the replacement shard
        (bit-identical to the lost one) and a metrics record of what moved.

        Repair reads only the shards it is given, so a caller picks the
        helpers by passing just those shards.  Each shard must be given
        under its own index and fit the code (see :meth:`_check_fits`), or
        :class:`ParameterError` is raised before either path runs.
        """
        if failed in available:
            raise ParameterError("failed node listed among available shards")
        self._check_fits(list(available.values()))
        for index, shard in available.items():
            if index != shard.index:
                raise ParameterError(
                    f"shard {shard.index} is given as node {index}")
        role = self.role_of(failed)
        if role[0] == "local":
            try:
                return self._repair_local(failed, role, available)
            except RepairError as exc:
                local_failure = str(exc)
        else:
            local_failure = "global nodes have no in-group path"
        try:
            return self._repair_by_decode(failed, available, local_failure)
        except InsufficientRankError as exc:
            raise RepairError(
                f"no repair path: local path failed ({local_failure}); "
                f"decode path failed ({exc})"
            )

    def _repair_local(self, failed, role, available):
        _, grp, pos = role
        repair_in_group = getattr(self.local, "repair_in_group", None)
        if repair_in_group is None:
            raise RepairError("the local code has no repair_in_group")
        offset = grp * self.local.n_nodes
        stored = {i - offset: available[i].payload
                  for i in self.group_members(grp) if i in available}
        payload, metrics = repair_in_group(pos, stored)
        metrics["helpers"] = [h + offset for h in metrics["helpers"]]
        return Shard(failed, role, payload), metrics

    def _repair_by_decode(self, failed, available, local_failure):
        """Solve for the message's coordinates X from the helpers' chosen
        scalars, check every helper scalar against X times the generator,
        and read the failed node's scalars off the same product."""
        use = sorted(available)[: self.decode_threshold]
        if not use:
            raise no_evaluations()
        seen = np.concatenate([available[i].payload for i in use],
                              dtype=np.int64)
        chosen, inverse = self._solver(tuple(use))
        q, m = self.local.q, self.field.m
        coords = _matmul_mod_q(seen[chosen].reshape(1, -1), inverse, q)
        columns = _blocks(_blocks([*use, failed], self.alpha), m)
        stored = _matmul_mod_q(coords, self.generator[:, columns],
                               q).reshape(-1, m)
        wrong = np.flatnonzero((stored[:len(seen)] != seen).any(axis=1))
        if wrong.size:
            raise surplus_mismatch(int(wrong[0]))
        payload = stored[len(seen):].astype(np.int64)
        payload.setflags(write=False)
        shard = Shard(failed, self.role_of(failed), payload)
        return shard, {
            "path": "decode-reencode",
            "helpers": [int(i) for i in use],
            "downloaded_shards": len(use),
            "downloaded_symbols": len(use) * self.alpha,
            "local_path_error": local_failure,
        }

    def _solver(self, indices: tuple[int, ...]) -> tuple[list[int], np.ndarray]:
        """For decoding from the shards ``indices``, in this order: the
        positions of the K scalars the decoder chooses among theirs, and
        the inverse of the generator's square block at those scalars'
        columns, from one :func:`~lmbr.galois.solve_moore`.  Built on a
        miss; the n_nodes newest are kept."""
        solver = self._solvers.get(indices)
        if solver is None:
            k, m = self.file_dim, self.field.m
            scalars = _blocks(indices, self.alpha)
            chosen = independent_points(self.expanded[:, scalars], k,
                                        self.local.q)
            # The generator's block at the chosen scalars' columns is the
            # F_q expansion of the Moore matrix A at their points,
            # transposed: block (i, c) is M(A[c, i])^T.  Expansion is a ring
            # homomorphism, so the block's inverse is that of A^-1: block
            # (c, i) is M(A^-1[i, c])^T.
            identity = np.zeros((k, k, m), dtype=np.int64)
            identity[np.arange(k), np.arange(k), 0] = 1
            inverse = solve_moore(self.field,
                                  self.expanded[:, scalars[chosen]], identity)
            solver = chosen, (self.field.mul_matrices(inverse)
                              .transpose(1, 3, 0, 2).reshape(k * m, k * m))
            if len(self._solvers) >= self.n_nodes:
                self._solvers.pop(next(iter(self._solvers)), None)
            self._solvers[indices] = solver
        return solver

    # -- exhaustive certification ---------------------------------------------------

    def measure_dmin(self) -> DminResult:
        """Measure the minimum distance: the least number of erased nodes
        that leaves survivors of rank below K.

        The answer is exact over every erasure pattern, and no pattern is
        visited.  The survivors' rank is the sum of its groups' entries in
        one :func:`~lmbr.galois.subset_ranks` table of the local generator,
        plus alpha per surviving global node.  That is exact because the
        outer points are independent over F_q (checked here: rank(Theta) =
        J): the survivors' expanded columns have the rank of the same
        columns of the block-diagonal mixed generator.
        :func:`_first_undecodable` reads the distance d and its witness,
        the first undecodable pattern of d erasures in ``combinations``
        order, off the table, and the real decoder re-validates the
        witness.  ``patterns_checked`` counts the patterns of the levels
        below d, all of them certified decodable.  A group too large for
        the table is refused with :class:`ParameterError`.
        """
        if rank_mod_q(self.theta, self.local.q) != self.outer.length:
            raise AssertionError(
                "outer points are dependent over F_q; survivor ranks do not "
                "split over the local groups"
            )
        local = self.local
        keys, ranks = subset_ranks(local.generator_matrix(), local.alpha,
                                   local.q)
        erased, witness = _first_undecodable(
            keys, ranks, local.n_nodes, self.groups, self.global_nodes,
            self.alpha, self.file_dim)
        self._assert_undecodable(witness)
        return DminResult(
            value=erased, witness=witness,
            patterns_checked=sum(comb(self.n_nodes, e)
                                 for e in range(1, erased)))

    def _assert_undecodable(self, pattern):
        # The decoder refuses on the survivors' points before it reads a
        # value, so zero payloads get the decision that real shards would.
        zero = np.zeros((self.alpha, self.field.m), dtype=np.int64)
        survivors = sorted(set(range(self.n_nodes)) - set(pattern))
        try:
            self.decode(Shard(i, self.role_of(i), zero) for i in survivors)
        except InsufficientRankError:
            return
        raise AssertionError(
            f"rank test and decoder disagree on pattern {pattern}"
        )

    def ura_report(self,
                   claimed_profile: Sequence[int] | None = None) -> dict:
        """Certify rank accumulation of the concatenated local bank.

        For every subset of the groups * n_local local thick columns the
        measured rank must equal the sum over groups of the claimed
        profile's prefix sums (the local generators sit on disjoint message
        coordinates, so their ranks add).  The least rank over the subsets
        of each size then equals the periodic partial sum, so the profile
        governs exactly how rank accumulates, which is what the distance
        bound consumes.

        The condition is certified over every subset, and no subset is
        enumerated.  One :func:`~lmbr.galois.subset_ranks` table of the
        local generator, filled by elimination for every group mask and
        assuming nothing about the profile, gives each group mask's
        measured rank; a subset's rank is the sum of its groups' entries,
        because the bank's generator is block-diagonal.
        Let s* be the least node count of a group mask whose rank differs
        from the claimed prefix sum.  A subset of fewer than s* columns
        matches, since each of its group parts does, and so does a subset
        of s* columns that spans two groups.  The first subset that fails,
        in ``combinations`` order, is therefore the first such mask of
        group 0, the ``block-rank`` witness.  The least rank per size needs
        no check of its own: rank is submodular, so when every group mask
        of fewer than s* nodes (of any count, when there is no s*) has its
        prefix sum, the prefix sums are concave there, hence subadditive,
        and the least rank over the subsets of each size below s* (of every
        size) is the periodic sum.  On a pass ``subsets_checked`` is
        2^(groups * n_local), the subsets certified; none of them is
        visited.  A group too large for the table is refused with
        :class:`ParameterError`.

        Entries of the claimed profile must be integers (``operator.index``,
        so numpy integers pass) between 0 and alpha.
        """
        if claimed_profile is None:
            claimed_profile = list(self.local.profile())
        try:
            claimed = [operator.index(v) for v in claimed_profile]
        except TypeError:
            raise ParameterError(
                f"claimed profile entries must be integers, got "
                f"{claimed_profile!r}"
            ) from None
        n_local = self.local.n_nodes
        if len(claimed) != n_local:
            raise ParameterError(
                f"claimed profile must have length n_local={n_local}"
            )
        # Each entry is the rank a node's alpha columns add: 0..alpha.  This
        # also keeps the prefix sums inside the int64 tables below.
        if any(not 0 <= a <= self.alpha for a in claimed):
            raise ParameterError(
                f"claimed profile entries must lie in 0..alpha={self.alpha}"
            )
        cols = self.groups * n_local
        prefix = list(accumulate(claimed, initial=0))
        local = self.local
        keys, ranks = subset_ranks(local.generator_matrix(), local.alpha,
                                   local.q)
        sizes = sum(keys >> node & 1 for node in range(n_local))
        wrong = np.flatnonzero(ranks != np.array(prefix, dtype=np.int64)[sizes])
        witness = None
        if wrong.size:
            size = int(sizes[wrong].min())
            at = wrong[sizes[wrong] == size]
            at = at[_combinations_first(keys[at], n_local)]
            witness = {
                "kind": "block-rank",
                "subset": _nodes(int(keys[at])),
                "measured": int(ranks[at]),
                "expected": prefix[size],
            }
        return {
            "mode": "ura",
            "columns": cols,
            "claimed_profile": claimed,
            "subsets_checked": 2 ** cols if witness is None else None,
            "pass": witness is None,
            "witness": witness,
        }

    def __repr__(self):
        return (
            f"LrcCode(groups={self.groups}, local={self.local!r}, "
            f"globals={self.global_nodes}, n={self.n_nodes}, K={self.file_dim}, "
            f"m={self.field.m})"
        )


def all_symbol_code(groups: int, local, file_dim: int,
                    ext_degree: int | None = None) -> LrcCode:
    """Bank of ``groups`` identical local codes under one pre-code.

    Every node lives in a local group, so every symbol is locally
    repairable.  Requires ext_degree >= groups * k_local (defaults to
    exactly that).
    """
    return LrcCode(local, groups, file_dim, global_nodes=0,
                   ext_degree=ext_degree)


def info_locality_code(groups: int, global_nodes: int, local, file_dim: int,
                       ext_degree: int | None = None) -> LrcCode:
    """Local bank plus ``global_nodes`` nodes of verbatim pre-code symbols.

    The local groups alone span the message (information locality); the
    global nodes add distance but are repaired by decode-and-reencode.
    With global_nodes = 0 this is exactly :func:`all_symbol_code`.
    """
    return LrcCode(local, groups, file_dim, global_nodes=global_nodes,
                   ext_degree=ext_degree)
