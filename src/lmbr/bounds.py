"""Rank-accumulation bookkeeping: partial sums, their inverse, and the
distance / file-size bounds they induce.

A code built from identical local codes with rank profile (a_1, ..., a_nL)
accumulates rank periodically: extending the profile with period n_L, the
partial sum P(s) is the smallest rank any s columns can have, and its
generalized inverse P_inv(v) = min{ s : P(s) >= v } is the number of columns
that guarantees rank v.  The optimal minimum distance for file size K is
then n - P_inv(K) + 1, and conversely a distance target caps the file size
at P(n - d + 1).

Everything here is plain integer arithmetic over the stored profile; the
closed form available for regenerating-code profiles is provided as a
separate routine so the two can be cross-checked rather than trusted.
"""

from __future__ import annotations

import operator
from bisect import bisect_left
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import accumulate
from math import comb

from .errors import ParameterError


@dataclass(frozen=True)
class BoundContext:
    """Length-n code assembled from local codes with the given profile.

    The profile is the integers a_1..a_nL, stored as a tuple whatever
    sequence is given; each must be a non-negative integer
    (``operator.index``, so numpy integers pass).
    n = groups * n_local + extra, where n_local = len(profile) and the local
    dimension k_local is the profile's sum; both are read off the profile.
    The caller gives ``extra``, the number of columns outside the local
    groups (the global nodes of an information-locality layout), each of
    which accumulates a full a_1 of fresh rank; it cannot be told from n,
    since extra may reach n_local.
    """

    n: int
    profile: Sequence[int]
    extra: int = 0

    def __post_init__(self):
        try:
            profile = tuple(operator.index(a) for a in self.profile)
        except TypeError:
            raise ParameterError(
                f"rank profile entries must be integers, got {self.profile!r}"
            ) from None
        if any(a < 0 for a in profile):
            raise ParameterError("rank profile entries must be non-negative")
        object.__setattr__(self, "profile", profile)
        # _prefix[s] = a_1 + ... + a_s for s = 0..n_local; every sum below
        # is read off it.
        object.__setattr__(self, "_prefix", list(accumulate(profile, initial=0)))
        if self.n_local < 1 or self.n < self.n_local:
            raise ParameterError(
                f"need n >= n_local >= 1, got n={self.n}, n_local={self.n_local}"
            )
        if not 0 <= self.extra <= self.n - self.n_local or \
                (self.n - self.extra) % self.n_local:
            raise ParameterError(
                f"need extra >= 0 and n - extra a positive multiple of "
                f"n_local, got n={self.n}, extra={self.extra}, "
                f"n_local={self.n_local}"
            )
        if self.k_local < 1:
            raise ParameterError("local dimension must be positive")

    @classmethod
    def for_local_code(cls, local, n: int, extra: int = 0) -> "BoundContext":
        """Context for copies of ``local`` plus ``extra`` further columns,
        n columns in all."""
        return cls(n=n, profile=local.profile(), extra=extra)

    @property
    def n_local(self) -> int:
        return len(self.profile)

    @property
    def k_local(self) -> int:
        return self._prefix[-1]

    @property
    def groups(self) -> int:
        return (self.n - self.extra) // self.n_local

    # -- the two basic sequence operations -------------------------------------

    def partial_sum(self, s: int) -> int:
        """P(s): sum of the first s entries of the periodic profile."""
        if s < 1:
            raise ParameterError(f"partial sums are defined for s >= 1, got {s}")
        full, rem = divmod(s, self.n_local)
        return full * self.k_local + self._prefix[rem]

    def p_inv(self, v: int) -> int:
        """Smallest s with P(s) >= v."""
        if v < 1:
            raise ParameterError(f"p_inv is defined for v >= 1, got {v}")
        full = (v - 1) // self.k_local
        v0 = v - full * self.k_local          # 1 <= v0 <= k_local
        return full * self.n_local + bisect_left(self._prefix, v0)

    # -- the bounds --------------------------------------------------------------

    def _least_ranks(self) -> list[int]:
        """least[s] for s = 0..n: the smallest rank any s thick columns of
        the assembly can have.

        Within the ``groups`` full periods this is the periodic P(s); each
        column beyond them contributes a_1 of fresh rank (those columns hold
        untouched pre-code symbols, so they never overlap a local group).
        """
        top = self.groups * self.k_local
        return ([full * self.k_local + p for full in range(self.groups)
                 for p in self._prefix[:-1]]
                + [top + j * self.profile[0] for j in range(self.extra + 1)])

    def optimal_dmin(self, file_dim: int) -> int:
        """Largest minimum distance for the given file size: n - P_inv(K) + 1."""
        least = self._least_ranks()
        if not 1 <= file_dim <= least[-1]:
            raise ParameterError(
                f"file size must satisfy 1 <= K <= {least[-1]}, got {file_dim}"
            )
        return self.n - bisect_left(least, file_dim) + 1

    def max_file_size(self, dmin: int) -> int:
        """Largest file size supporting the given minimum distance: P(n-d+1).

        For all-symbol layouts (extra = 0) this is exactly the periodic
        decomposition (ceil((n-d+1)/n_L) - 1) * k_local + P(l0).
        """
        if not 1 <= dmin <= self.n:
            raise ParameterError(
                f"distance must satisfy 1 <= dmin <= n={self.n}, got {dmin}"
            )
        return self._least_ranks()[self.n - dmin + 1]

    def p_inv_closed_form(self, v: int) -> int:
        """Direct-form P_inv for regenerating-code profiles.

        Valid only when the profile has the arithmetic-progression shape
        (alpha, alpha-beta, ..., alpha-(r-1)beta, 0, ...).  Writes
        v = v1*k_local + v0 with 1 <= v0 <= k_local and locates the unique nu
        with alpha(nu-1) - C(nu-1,2)beta < v0 <= alpha*nu - C(nu,2)beta.
        This must agree with :meth:`p_inv` everywhere; the toolkit's
        verification mode asserts exactly that.
        """
        if v < 1:
            raise ParameterError(f"p_inv is defined for v >= 1, got {v}")
        alpha, r, beta = self._regenerating_shape()
        v1 = (v - 1) // self.k_local
        v0 = v - v1 * self.k_local
        for nu in range(1, r + 1):
            low = alpha * (nu - 1) - comb(nu - 1, 2) * beta
            high = alpha * nu - comb(nu, 2) * beta
            if low < v0 <= high:
                return v1 * self.n_local + nu
        raise AssertionError("v0 <= k_local always lands in a bracket")

    def _regenerating_shape(self) -> tuple[int, int, int]:
        values = self.profile
        r = sum(1 for a in values if a > 0)
        if r == 0 or any(a > 0 for a in values[r:]):
            raise ParameterError("profile is not of regenerating shape")
        alpha = values[0]
        # At the minimum-bandwidth point beta = alpha/d >= 1, so the nonzero
        # part strictly decreases.
        beta = values[0] - values[1] if r >= 2 else 1
        if beta < 1:
            raise ParameterError("profile is not of regenerating shape")
        expected = tuple(
            alpha - j * beta if j < r else 0 for j in range(len(values))
        )
        if expected != values:
            raise ParameterError("profile is not of regenerating shape")
        return alpha, r, beta
