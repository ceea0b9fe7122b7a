"""Partial sums, their inverse, the distance bound, and file-size bounds."""

from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lmbr import (
    BoundContext,
    MbrCode,
    ParameterError,
    RankProfile,
    all_symbol_code,
    info_locality_code,
)
from lmbr.galois import rank_mod_q

DESK = BoundContext(n=6, n_local=3, k_local=3, profile=RankProfile((2, 1, 0)))
DESK7 = BoundContext(n=7, n_local=3, k_local=3, profile=RankProfile((2, 1, 0)),
                     extra=1)
BIG = BoundContext(n=10, n_local=5, k_local=9, profile=RankProfile((4, 3, 2, 0, 0)))


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
                periods * ctx.k_local + ctx.profile.prefix(l0)


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
    ctx = BoundContext(n=6, n_local=3, k_local=4, profile=RankProfile((2, 2, 0)))
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


def test_context_validation():
    with pytest.raises(ParameterError):
        BoundContext(n=6, n_local=3, k_local=4, profile=RankProfile((2, 1, 0)))
    with pytest.raises(ParameterError):
        BoundContext(n=2, n_local=3, k_local=3, profile=RankProfile((2, 1, 0)))
    with pytest.raises(ParameterError):
        BoundContext(n=6, n_local=3, k_local=3, profile=RankProfile((2, 1)))


def test_extra_columns_are_given_and_leave_whole_groups():
    profile = RankProfile((2, 1, 0))
    for n, extra in ((7, 0), (6, 1), (6, -1), (6, 4)):
        with pytest.raises(ParameterError):
            BoundContext(n=n, n_local=3, k_local=3, profile=profile,
                         extra=extra)
    ctx = BoundContext(n=9, n_local=3, k_local=3, profile=profile, extra=3)
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
        n_local=n_local,
        k_local=sum(values),
        profile=RankProfile(tuple(values)),
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
