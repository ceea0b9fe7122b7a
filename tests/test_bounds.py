"""Partial sums, their inverse, the distance bound, and file-size bounds."""

import dataclasses
from itertools import combinations
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lmbr import (
    BoundContext,
    MbrCode,
    ParameterError,
    all_symbol_code,
    info_locality_code,
)
from lmbr.galois import rank_mod_q

DESK = BoundContext(n=6, profile=(2, 1, 0))
DESK7 = BoundContext(n=7, profile=(2, 1, 0), extra=1)
BIG = BoundContext(n=10, profile=(4, 3, 2, 0, 0))


def naive_partial_sum(profile, s):
    values = list(profile)
    return sum(values[i % len(values)] for i in range(s))


def naive_p_inv(profile, v):
    s = 1
    while naive_partial_sum(profile, s) < v:
        s += 1
    return s


def test_partial_sum_frozen_examples():
    assert DESK.partial_sum(4) == 5
    assert DESK.partial_sum(6) == 6
    assert DESK.partial_sum(3) == 3      # one full period
    assert DESK.partial_sum(2 * 3) == 6  # two periods


def test_partial_sum_matches_naive_summation():
    for ctx in (DESK, BIG):
        for s in range(1, 4 * ctx.n_local + 1):
            assert ctx.partial_sum(s) == naive_partial_sum(ctx.profile, s)


def test_partial_sum_periodic_identity():
    for u1 in range(4):
        for u0 in range(1, 4):
            s = u1 * 3 + u0
            assert DESK.partial_sum(s) == u1 * 3 + DESK.partial_sum(u0)


def test_p_inv_frozen_examples():
    assert DESK.p_inv(5) == 4
    assert DESK.p_inv(1) == 1
    assert DESK.p_inv(3) == 2            # p_inv(k_local) <= r
    assert BIG.p_inv(9) == 3


def test_p_inv_matches_naive_scan():
    for ctx in (DESK, BIG):
        for v in range(1, 3 * ctx.k_local + 1):
            assert ctx.p_inv(v) == naive_p_inv(ctx.profile, v)


def test_arguments_validated():
    with pytest.raises(ParameterError):
        DESK.partial_sum(0)
    with pytest.raises(ParameterError):
        DESK.p_inv(0)
    with pytest.raises(ParameterError):
        DESK.optimal_dmin(0)
    with pytest.raises(ParameterError):
        DESK.optimal_dmin(7)  # exceeds 2 * k_local with no extra columns
    with pytest.raises(ParameterError):
        DESK.max_file_size(0)
    with pytest.raises(ParameterError):
        DESK.max_file_size(7)


def test_optimal_dmin_frozen_examples():
    assert DESK.optimal_dmin(5) == 3       # 6 - 4 + 1
    assert DESK7.optimal_dmin(5) == 4      # 7 - 4 + 1
    # Full-rate case: p_inv(t*k_local) = (t-1)*n_local + r.
    assert DESK.p_inv(6) == 5
    assert DESK.optimal_dmin(6) == 2       # the local distance delta


def test_dmin_non_increasing_in_K():
    last = None
    for K in range(1, 7):
        d = DESK.optimal_dmin(K)
        if last is not None:
            assert d <= last
        last = d


def test_max_file_size_frozen_examples():
    assert DESK.max_file_size(3) == 5      # l0 = 1: k_local + alpha
    assert DESK.max_file_size(6) == 2      # single column: P(1) = alpha
    assert BIG.max_file_size(10) == 4


#: (n, profile, extra, optimal_dmin(K) for K = 1.., max_file_size(d) for
#: d = 1..n), recorded from the earlier capacity / min-rank / min-columns
#: implementation: DESK, DESK7, the extra=3 context, then the Fano profile
#: (K_FR = 5) and the (5,3,4) MBR profile (BIG's) over two groups with
#: 0..4 extra columns.
FROZEN_BOUNDS = [
    (6, (2, 1, 0), 0,
     [6, 6, 5, 3, 3, 2],
     [6, 6, 5, 3, 3, 2]),
    (7, (2, 1, 0), 1,
     [7, 7, 6, 4, 4, 3, 1, 1],
     [8, 6, 6, 5, 3, 3, 2]),
    (9, (2, 1, 0), 3,
     [9, 9, 8, 6, 6, 5, 3, 3, 2, 2, 1, 1],
     [12, 10, 8, 6, 6, 5, 3, 3, 2]),
    (14, (3, 2, 0, 0, 0, 0, 0), 0,
     [14, 14, 14, 13, 13, 7, 7, 7, 6, 6],
     [10, 10, 10, 10, 10, 10, 8, 5, 5, 5, 5, 5, 5, 3]),
    (15, (3, 2, 0, 0, 0, 0, 0), 1,
     [15, 15, 15, 14, 14, 8, 8, 8, 7, 7, 1, 1, 1],
     [13, 10, 10, 10, 10, 10, 10, 8, 5, 5, 5, 5, 5, 5, 3]),
    (16, (3, 2, 0, 0, 0, 0, 0), 2,
     [16, 16, 16, 15, 15, 9, 9, 9, 8, 8, 2, 2, 2, 1, 1, 1],
     [16, 13, 10, 10, 10, 10, 10, 10, 8, 5, 5, 5, 5, 5, 5, 3]),
    (17, (3, 2, 0, 0, 0, 0, 0), 3,
     [17, 17, 17, 16, 16, 10, 10, 10, 9, 9, 3, 3, 3, 2, 2, 2, 1, 1, 1],
     [19, 16, 13, 10, 10, 10, 10, 10, 10, 8, 5, 5, 5, 5, 5, 5, 3]),
    (18, (3, 2, 0, 0, 0, 0, 0), 4,
     [18, 18, 18, 17, 17, 11, 11, 11, 10, 10, 4, 4, 4, 3, 3, 3, 2, 2, 2, 1,
      1, 1],
     [22, 19, 16, 13, 10, 10, 10, 10, 10, 10, 8, 5, 5, 5, 5, 5, 5, 3]),
    (10, (4, 3, 2, 0, 0), 0,
     [10, 10, 10, 10, 9, 9, 9, 8, 8, 5, 5, 5, 5, 4, 4, 4, 3, 3],
     [18, 18, 18, 16, 13, 9, 9, 9, 7, 4]),
    (11, (4, 3, 2, 0, 0), 1,
     [11, 11, 11, 11, 10, 10, 10, 9, 9, 6, 6, 6, 6, 5, 5, 5, 4, 4, 1, 1, 1,
      1],
     [22, 18, 18, 18, 16, 13, 9, 9, 9, 7, 4]),
    (12, (4, 3, 2, 0, 0), 2,
     [12, 12, 12, 12, 11, 11, 11, 10, 10, 7, 7, 7, 7, 6, 6, 6, 5, 5, 2, 2, 2,
      2, 1, 1, 1, 1],
     [26, 22, 18, 18, 18, 16, 13, 9, 9, 9, 7, 4]),
    (13, (4, 3, 2, 0, 0), 3,
     [13, 13, 13, 13, 12, 12, 12, 11, 11, 8, 8, 8, 8, 7, 7, 7, 6, 6, 3, 3, 3,
      3, 2, 2, 2, 2, 1, 1, 1, 1],
     [30, 26, 22, 18, 18, 18, 16, 13, 9, 9, 9, 7, 4]),
    (14, (4, 3, 2, 0, 0), 4,
     [14, 14, 14, 14, 13, 13, 13, 12, 12, 9, 9, 9, 9, 8, 8, 8, 7, 7, 4, 4, 4,
      4, 3, 3, 3, 3, 2, 2, 2, 2, 1, 1, 1, 1],
     [34, 30, 26, 22, 18, 18, 18, 16, 13, 9, 9, 9, 7, 4]),
]


@pytest.mark.parametrize("n,profile,extra,dmin,max_file", FROZEN_BOUNDS)
def test_bounds_frozen_for_every_K_and_d(n, profile, extra, dmin, max_file):
    """Every K and every d, and the refusals just outside both ranges."""
    ctx = BoundContext(n=n, profile=profile, extra=extra)
    top = len(dmin)
    assert [ctx.optimal_dmin(K) for K in range(1, top + 1)] == dmin
    assert [ctx.max_file_size(d) for d in range(1, n + 1)] == max_file
    for K in (0, top + 1):
        with pytest.raises(ParameterError) as err:
            ctx.optimal_dmin(K)
        assert str(err.value) == f"file size must satisfy 1 <= K <= {top}, got {K}"
    for d in (0, n + 1):
        with pytest.raises(ParameterError) as err:
            ctx.max_file_size(d)
        assert str(err.value) == f"distance must satisfy 1 <= dmin <= n={n}, got {d}"


def test_max_file_size_non_increasing():
    vals = [DESK.max_file_size(d) for d in range(1, 7)]
    assert vals == sorted(vals, reverse=True)


def test_max_file_size_matches_ceil_decomposition():
    """Generic P(n-d+1) equals the per-period + leftover split."""
    for ctx in (DESK, BIG):
        for dmin in range(1, ctx.n + 1):
            s = ctx.n - dmin + 1
            periods = -(-s // ctx.n_local) - 1
            l0 = s - periods * ctx.n_local
            assert ctx.max_file_size(dmin) == \
                periods * ctx.k_local + sum(ctx.profile[:l0])


def test_max_file_size_matches_regenerating_closed_form():
    """P(l0) = alpha*mu - C(mu,2)*beta with mu = min(l0, r)."""
    cases = [(DESK, 2, 2, 1), (BIG, 4, 3, 1)]  # (ctx, alpha, r, beta)
    for ctx, alpha, r, beta in cases:
        for dmin in range(1, ctx.n + 1):
            s = ctx.n - dmin + 1
            periods = -(-s // ctx.n_local) - 1
            l0 = s - periods * ctx.n_local
            mu = min(l0, r)
            closed = periods * ctx.k_local + alpha * mu - comb(mu, 2) * beta
            assert ctx.max_file_size(dmin) == closed


def test_closed_form_p_inv_frozen_example():
    # K = 5 on the (3,2,2) profile: v1 = 1, v0 = 2, nu = 1 -> 4.
    assert DESK.p_inv_closed_form(5) == 4
    # K = k_local lands at nu = r.
    assert DESK.p_inv_closed_form(3) == 2
    assert BIG.p_inv_closed_form(9) == 3


@pytest.mark.parametrize("ctx", [DESK, BIG])
def test_closed_form_agrees_with_summation_everywhere(ctx):
    for v in range(1, 3 * ctx.k_local + 1):
        assert ctx.p_inv_closed_form(v) == ctx.p_inv(v)


def test_closed_form_rejects_non_regenerating_profile():
    ctx = BoundContext(n=6, profile=(2, 2, 0))
    with pytest.raises(ParameterError):
        ctx.p_inv_closed_form(3)


def test_galois_connection():
    for ctx in (DESK, BIG):
        for s in range(1, 3 * ctx.n_local + 1):
            assert ctx.p_inv(ctx.partial_sum(s)) <= s
        for v in range(1, 3 * ctx.k_local + 1):
            assert ctx.partial_sum(ctx.p_inv(v)) >= v
            s = ctx.p_inv(v)
            if s > 1:
                assert ctx.partial_sum(s - 1) < v


def test_max_dim_trigger():
    """When v0 = nu*alpha - C(nu,2)*beta, the file size meets the bound."""
    # DESK profile: alpha 2, beta 1, r 2. v0 in {2, 3} triggers.
    for ctx in (DESK, DESK7):
        for v1 in range(0, 2):
            for nu in range(1, 3):
                v0 = nu * 2 - comb(nu, 2)
                K = v1 * 3 + v0
                if not 1 <= K <= 6:
                    continue
                d = ctx.optimal_dmin(K)
                assert K == ctx.max_file_size(d)


def test_for_local_code_constructor():
    ctx = BoundContext.for_local_code(MbrCode(3, 2, 2, 3), 6)
    assert ctx == DESK
    # n_local and k_local are read off the profile, not given.
    assert [f.name for f in dataclasses.fields(BoundContext)] == \
        ["n", "profile", "extra"]
    assert (ctx.n_local, ctx.k_local, ctx.groups) == (3, 3, 2)


def test_context_validation():
    with pytest.raises(ParameterError):
        BoundContext(n=2, profile=(2, 1, 0))
    with pytest.raises(ParameterError, match="n_local=0"):
        BoundContext(n=6, profile=())
    with pytest.raises(ParameterError, match="local dimension must be positive"):
        BoundContext(n=6, profile=(0, 0, 0))
    with pytest.raises(ParameterError) as err:
        BoundContext(n=6, profile=(2, -1, 1))
    assert str(err.value) == "rank profile entries must be non-negative"
    with pytest.raises(ParameterError) as err:
        BoundContext(n=6, profile=(2, 1.0, 0))
    assert str(err.value) == (
        "rank profile entries must be integers, got (2, 1.0, 0)")
    # Any integer sequence is stored as a tuple of ints.
    listed = BoundContext(n=6, profile=[2, np.int64(1), 0])
    assert listed.profile == (2, 1, 0) and type(listed.profile) is tuple
    assert listed == DESK and hash(listed) == hash(DESK)


def test_extra_columns_are_given_and_leave_whole_groups():
    profile = (2, 1, 0)
    for n, extra in ((7, 0), (6, 1), (6, -1), (6, 4)):
        with pytest.raises(ParameterError):
            BoundContext(n=n, profile=profile,
                         extra=extra)
    ctx = BoundContext(n=9, profile=profile, extra=3)
    assert (ctx.groups, ctx.extra) == (2, 3)
    assert ctx.max_file_size(1) == 2 * 3 + 3 * 2


@pytest.mark.parametrize("build", [
    lambda local: all_symbol_code(2, local, 5, ext_degree=6),
    lambda local: info_locality_code(2, 1, local, 5, ext_degree=8),
    lambda local: info_locality_code(2, 2, local, 5),
    lambda local: info_locality_code(2, 3, local, 5),
    lambda local: info_locality_code(2, 4, local, 5),
], ids=["C1", "C2", "info-local-delta2", "info-local-delta3",
        "info-local-delta4"])
def test_max_file_size_is_min_rank_over_every_node_subset(build):
    """P(s) from the bound context equals the brute-force minimum F_q rank
    of the stored columns of any s nodes, for every s, including the sizes
    that reach into the global nodes once delta >= n_local."""
    code = build(MbrCode(3, 2, 2, 3))
    n, a = code.n_nodes, code.alpha
    for s in range(1, n + 1):
        lowest = min(
            rank_mod_q(code.expanded[:, [i * a + c for i in subset
                                         for c in range(a)]], 3)
            for subset in combinations(range(n), s)
        )
        assert code.bound_ctx.max_file_size(n - s + 1) == lowest, s


@st.composite
def contexts(draw):
    n_local = draw(st.integers(min_value=1, max_value=6))
    alpha = draw(st.integers(min_value=1, max_value=5))
    r = draw(st.integers(min_value=1, max_value=n_local))
    # Non-increasing profile with a_1 = alpha, zeros after position r.
    values = [alpha]
    for _ in range(1, r):
        values.append(draw(st.integers(min_value=0, max_value=values[-1])))
    values += [0] * (n_local - r)
    if sum(values) == 0:
        values[0] = 1
    groups = draw(st.integers(min_value=1, max_value=3))
    return BoundContext(
        n=groups * n_local,
        profile=tuple(values),
    )


@given(contexts(), st.integers(min_value=1, max_value=40))
@settings(max_examples=200, deadline=None)
def test_property_p_inv_is_least_s(ctx, v):
    if v > 3 * ctx.k_local:
        v = 1 + v % (3 * ctx.k_local)
    s = ctx.p_inv(v)
    assert ctx.partial_sum(s) >= v
    if s > 1:
        assert ctx.partial_sum(s - 1) < v


@given(contexts(), st.integers(min_value=1, max_value=60))
@settings(max_examples=200, deadline=None)
def test_property_periodicity(ctx, s):
    assert ctx.partial_sum(s + ctx.n_local) == ctx.partial_sum(s) + ctx.k_local
