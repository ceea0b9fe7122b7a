"""Product-matrix minimum-bandwidth-regenerating (MBR) local codes.

The code stores ``k_message = d*r - C(r,2)`` message symbols across
``n_local`` nodes of ``alpha = d`` symbols each (the beta = 1 point, where a
replacement node downloads exactly one symbol from each of d helpers).  The
message fills a symmetric d x d matrix

    M = [[S, T],
         [T^t, 0]]

with S an r x r symmetric block (upper triangle, row-major) and T an
r x (d-r) block (row-major); node i stores row i of Psi . M, where Psi is an
n_local x d Vandermonde matrix with seeds 0..n_local-1.  Any r rows of the
first r columns of Psi are invertible, so any r nodes determine the message;
any d full rows are invertible, giving exact single-node repair.

All coefficients live in the base field F_q, so encoding commutes with any
F_q-linear map of the message symbols -- the property that lets these codes
sit under a rank-metric pre-code.  Message symbols themselves may belong to
any extension F_{q^m}.  Encoding therefore applies the k_message x
(n_local * alpha) generator over F_q, built once per code from the unit
messages; helper symbols apply one row of Psi and repair applies the
inverse of the helpers' rows, all through :func:`galois.apply_int_matrix`.
That inverse is built on the first repair from each helper set and kept.
"""

from __future__ import annotations

from itertools import combinations
from math import comb
from typing import Sequence

import numpy as np

from .errors import ParameterError, RepairError
from .galois import (FieldElement, apply_int_matrix, as_elements, coefficients,
                     field, inv_mod_q, is_prime, rank_mod_q)


class MbrCode:
    """Exact-repair regenerating code at the minimum-bandwidth point."""

    beta = 1

    def __init__(self, n_local: int, r: int, d: int, q: int):
        if not 1 <= r <= d:
            raise ParameterError(f"need 1 <= r <= d, got r={r}, d={d}")
        if d > n_local - 1:
            raise ParameterError(
                f"repair degree must satisfy d <= n_local - 1, got d={d}, "
                f"n_local={n_local}"
            )
        if not is_prime(q):
            raise ParameterError(f"base field order must be prime, got q={q}")
        if q < n_local:
            raise ParameterError(
                f"need q >= n_local for distinct Vandermonde seeds, got q={q}, "
                f"n_local={n_local}"
            )
        self.n_local = n_local
        self.r = r
        self.d = d
        self.q = q
        self.alpha = d
        self.k_message = d * r - comb(r, 2)
        # Vandermonde rows (1, x_i, ..., x_i^(d-1)) with x_i = i.
        self.psi = np.array(
            [[pow(i, j, q) for j in range(d)] for i in range(n_local)],
            dtype=np.int64,
        )
        # q >= n_local keeps the seeds distinct mod q, so any d rows of Psi,
        # and any r rows of its first r columns, form an invertible
        # Vandermonde matrix (Rashmi-Shah-Kumar 2011); confirm the rank.
        if rank_mod_q(self.psi, q) != d:
            raise AssertionError("Vandermonde matrix lost full column rank")
        self._generator = self._build_generator()
        # Inverses of Psi_H by sorted helper indices: at most C(n_local, d).
        self._repair_inverses: dict[tuple[int, ...], np.ndarray] = {}

    # -- message matrix packing ------------------------------------------------

    def _message_positions(self) -> list[list[tuple[int, int]]]:
        """For each message symbol, the (row, col) slots of M it occupies."""
        slots = []
        for i in range(self.r):
            for j in range(i, self.r):
                slots.append([(i, j)] if i == j else [(i, j), (j, i)])
        for i in range(self.r):
            for j in range(self.r, self.d):
                slots.append([(i, j), (j, i)])
        assert len(slots) == self.k_message
        return slots

    # -- core operations ---------------------------------------------------------

    def encode(self, message: Sequence[FieldElement]) -> list[tuple[FieldElement, ...]]:
        """Node vectors (rows of Psi . M) for a message of extension symbols.

        The stored scalars are the generator applied to the message.
        """
        message = list(message)
        if len(message) != self.k_message:
            raise ParameterError(
                f"message length {len(message)} != k_message {self.k_message}"
            )
        stored = apply_int_matrix(self._generator.T, message, message[0].field)
        return [tuple(stored[i * self.alpha:(i + 1) * self.alpha])
                for i in range(self.n_local)]

    def helper_symbol(
        self, stored: Sequence[FieldElement], failed: int
    ) -> FieldElement:
        """The single symbol a helper transmits for a failed node.

        This is the inner product of the helper's stored vector with the
        failed node's Vandermonde row: the helper computes it locally, so the
        repair bandwidth is exactly one symbol per helper.  The stored
        vector must hold alpha symbols.
        """
        if not 0 <= failed < self.n_local:
            raise ParameterError(f"failed index {failed} out of range")
        stored = tuple(stored)
        if len(stored) != self.alpha:
            raise ParameterError(
                f"helper stores {len(stored)} symbols, expected "
                f"alpha={self.alpha}")
        return apply_int_matrix(self.psi[failed:failed + 1], stored,
                                stored[0].field)[0]

    def repair(
        self, failed: int, helpers: Sequence[tuple[int, FieldElement]]
    ) -> tuple[FieldElement, ...]:
        """Rebuild the failed node from exactly d helper symbols.

        Each helper symbol must be the value :meth:`helper_symbol` computes
        from that helper's stored vector.  The result is exactly the lost
        vector, since M is symmetric: solving Psi_H z = s gives z = M psi_f^t
        and the node content is (M psi_f^t)^t = psi_f M.
        """
        indices = [i for i, _ in helpers]
        if len(indices) != self.d:
            raise ParameterError(
                f"repair needs exactly d={self.d} helpers, got {len(indices)}"
            )
        if len(set(indices)) != len(indices):
            raise ParameterError("duplicate helper index")
        for i in indices:
            if not 0 <= i < self.n_local:
                raise ParameterError(f"helper index {i} out of range")
        if failed in indices:
            raise ParameterError("helper set must not contain the failed node")
        if not 0 <= failed < self.n_local:
            raise ParameterError(f"failed index {failed} out of range")
        fld = helpers[0][1].field
        key = tuple(sorted(indices))
        inv = self._repair_inverses.get(key)
        if inv is None:
            inv = inv_mod_q(self.psi[list(key)], self.q)  # d x d, invertible
            self._repair_inverses[key] = inv
        # Psi_H is Psi_key with its rows permuted, so the inverse of Psi_H
        # is the cached one with its columns permuted the same way.
        inv_h = inv[:, [key.index(i) for i in indices]]
        symbols = [s for _, s in helpers]
        return tuple(apply_int_matrix(inv_h, symbols, fld))

    def repair_in_group(self, failed: int, stored: dict) -> tuple:
        """Rebuild node ``failed`` from the first d, by node index, of the
        alpha x m payload arrays in ``stored`` through :meth:`helper_symbol`
        and :meth:`repair`: a read-only int64 array, and the metrics record."""
        helpers = sorted(stored)[:self.d]
        if len(helpers) < self.d:
            raise RepairError(
                f"{len(stored)} survivors, repair degree requires {self.d}")
        fld = field(self.q, stored[helpers[0]].shape[1])
        vector = self.repair(failed, [
            (h, self.helper_symbol(as_elements(fld, stored[h]), failed))
            for h in helpers])
        payload = coefficients(vector, fld)
        payload.setflags(write=False)
        return payload, {"path": "local-regenerating", "helpers": helpers,
                         "downloaded_symbols": self.d * self.beta}

    def helper_sets(self, survivors):
        """Every d-set of the surviving nodes."""
        return list(combinations(survivors, self.d))

    def profile(self) -> tuple[int, ...]:
        """Rank accumulation profile (alpha, alpha - beta, ..., 0, ...)."""
        return tuple(self.alpha - j * self.beta if j < self.r else 0
                     for j in range(self.n_local))

    def generator_matrix(self) -> np.ndarray:
        """k_message x (n_local * alpha) generator over F_q (read-only).

        Column node*alpha + c is the F_q functional producing that stored
        scalar.
        """
        return self._generator

    def _build_generator(self) -> np.ndarray:
        # Row l is Psi . M for the l-th unit message, flattened node-major.
        g = np.zeros((self.k_message, self.n_local * self.alpha), dtype=np.int64)
        for l, positions in enumerate(self._message_positions()):
            unit = np.zeros((self.d, self.d), dtype=np.int64)
            for i, j in positions:
                unit[i, j] = 1
            g[l] = ((self.psi @ unit) % self.q).reshape(-1)
        g.setflags(write=False)
        return g

    @property
    def n_nodes(self) -> int:
        return self.n_local

    def __repr__(self):
        return (
            f"MbrCode(n_local={self.n_local}, r={self.r}, d={self.d}, "
            f"q={self.q}, alpha={self.alpha}, k_message={self.k_message})"
        )
