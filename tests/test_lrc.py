"""Composed codes: construction, decoding, repair orchestration, exhaustive
distance measurement, and the evaluate/mix commutation that makes the
two-stage decoder sound."""

import hashlib
import json
import random
import re
import time
from collections import Counter
from itertools import combinations, product
from math import comb
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lmbr import (
    FrCode,
    InconsistentDataError,
    InsufficientRankError,
    MbrCode,
    ParameterError,
    PatternCapError,
    RepairError,
    all_symbol_code,
    fano_plane,
    field,
    info_locality_code,
)
from lmbr import cli, galois, gabidulin, linpoly, lrc
from lmbr.bounds import BoundContext
from lmbr.cli import SimConfig, main
from lmbr.galois import (SIZE_BUDGET, FieldElement, apply_int_matrix,
                         as_elements, coefficients, inv_mod_q, pivot_columns,
                         rank_mod_q, solve_mod_q, subset_ranks)
from lmbr.linpoly import (LinearizedPoly, independent_points, no_evaluations,
                          surplus_mismatch)
from lmbr.lrc import DminResult, Shard
from shard_helpers import make_shard


def desk_local():
    return MbrCode(3, 2, 2, 3)


def desk_c1():
    return all_symbol_code(2, desk_local(), 5)


def desk_c2():
    return info_locality_code(2, 1, desk_local(), 5)


def random_message(code, seed):
    rng = random.Random(seed)
    return [code.field.random_element(rng) for _ in range(code.file_dim)]


def test_all_symbol_parameters():
    code = desk_c1()
    assert (code.n_nodes, code.alpha, code.field.m) == (6, 2, 6)
    assert code.outer.length == 6 and code.outer.dim == 5
    assert code.dmin_bound == 3 and code.decode_threshold == 4


def test_info_local_parameters():
    code = desk_c2()
    assert (code.n_nodes, code.field.m) == (7, 8)
    assert code.outer.length == 8
    assert code.dmin_bound == 4
    assert code.role_of(6) == ("global", 0)
    assert code.role_of(3) == ("local", 1, 0)


def test_m_too_small_rejected():
    with pytest.raises(ParameterError) as err:
        all_symbol_code(2, desk_local(), 5, ext_degree=5)
    assert "m >=" in str(err.value)
    with pytest.raises(ParameterError):
        info_locality_code(2, 1, desk_local(), 5, ext_degree=7)


def test_file_dim_bounds():
    with pytest.raises(ParameterError):
        all_symbol_code(2, desk_local(), 7)
    full = all_symbol_code(2, desk_local(), 6)  # pass-through outer code
    assert full.outer.rank_distance == 1


def test_ext_degree_override():
    """A larger field than the minimum works; the basis stays independent."""
    code = all_symbol_code(2, desk_local(), 5, ext_degree=9)
    assert code.field.m == 9
    msg = random_message(code, 21)
    shards = code.encode(msg)
    assert code.decode(shards[2:]) == tuple(msg)
    assert code.measure_dmin().value == 3


def test_zero_global_nodes_degenerates_to_all_symbol():
    a = all_symbol_code(2, desk_local(), 5)
    b = info_locality_code(2, 0, desk_local(), 5)
    msg = random_message(a, 0)
    assert a.encode(msg) == b.encode(msg)


def test_zero_message_encodes_to_zero():
    code = desk_c1()
    shards = code.encode([code.field.zero()] * 5)
    assert not any(sh.payload.any() for sh in shards)


def test_group_shards_depend_only_on_group_slice():
    """A group's shards are a function of its k_local outer symbols."""
    code = desk_c1()
    msg = random_message(code, 1)
    evaluations = code.outer.encode(msg)
    shards = code.encode(msg)
    for grp in range(2):
        slice_ = list(evaluations[grp * 3:(grp + 1) * 3])
        expect = code.local.encode(slice_)
        for pos in range(3):
            index = grp * 3 + pos
            assert shards[index] == make_shard(index, shards[index].role,
                                               expect[pos])


def test_decode_every_4_of_6():
    code = desk_c1()
    msg = random_message(code, 2)
    shards = code.encode(msg)
    for keep in combinations(range(6), 4):
        got = code.decode(shards[i] for i in keep)
        assert got == tuple(msg)


def test_decode_insufficient_rank_witness():
    code = desk_c1()
    msg = random_message(code, 3)
    shards = code.encode(msg)
    with pytest.raises(InsufficientRankError):
        code.decode(shards[i] for i in (0, 1, 2))  # one full group: rank 3


def test_some_three_shard_sets_decode():
    """Below the guarantee threshold, decodability depends on the pattern."""
    code = desk_c1()
    msg = random_message(code, 4)
    shards = code.encode(msg)
    got = code.decode(shards[i] for i in (0, 1, 3))  # 2+1 split: rank 5
    assert got == tuple(msg)


def test_corrupt_shard_detected():
    code = desk_c1()
    msg = random_message(code, 5)
    shards = code.encode(msg)
    bad = flipped(code, shards[0], 0, 0)
    with pytest.raises(InconsistentDataError):
        code.decode([bad] + [s for s in shards[1:]])


def test_decode_rejects_shard_index_or_length_outside_the_code():
    """An index outside 0..n-1, or a payload of other than alpha symbols,
    is refused instead of being paired with another node's points (a
    negative index through Python indexing, a long payload's tail through
    the next node's)."""
    code = desk_c1()
    shards = code.encode(random_message(code, 7))
    first, last = shards[0], shards[-1]
    bad_shards = [
        Shard(-1, last.role, last.payload),
        Shard(code.n_nodes, last.role, last.payload),
        Shard(0, first.role, np.concatenate([first.payload,
                                             shards[1].payload])),
        Shard(0, first.role, first.payload[:1]),
    ]
    for bad in bad_shards:
        with pytest.raises(ParameterError):
            code.decode([bad] + list(shards[1:]))


def test_corruption_detected_whenever_other_shards_span_rank_k():
    """The guarantee `LrcCode.decode` documents, exhaustively on C1: for
    every survivor set, victim shard and single flipped coefficient, decode
    raises when the other supplied shards alone span rank K.  Where they do
    not, a corruption can decode silently to a wrong message."""
    code = desk_c1()
    msg = random_message(code, 6)
    shards = code.encode(msg)
    q = code.field.q
    detected = silent = 0
    for size in range(1, code.n_nodes + 1):
        for survivors in combinations(range(code.n_nodes), size):
            for victim in survivors:
                others = [i for i in survivors if i != victim]
                guaranteed = bool(others) and code.decodable(others)
                if not guaranteed and silent:
                    continue
                for pos in range(code.alpha):
                    for c in range(code.field.m):
                        bad = flipped(code, shards[victim], pos, c)
                        supplied = [bad if i == victim else shards[i]
                                    for i in survivors]
                        if guaranteed:
                            with pytest.raises(InconsistentDataError):
                                code.decode(supplied)
                            detected += 1
                            continue
                        try:
                            silent += code.decode(supplied) != tuple(msg)
                        except (InconsistentDataError, InsufficientRankError):
                            pass
    assert detected > 0 and silent > 0


def test_construction2_decode_thresholds():
    code = desk_c2()
    msg = random_message(code, 6)
    shards = code.encode(msg)
    for keep in combinations(range(7), 4):
        assert code.decode(shards[i] for i in keep) == tuple(msg)
    survivors = (3, 4, 5)  # a full local group only: rank 3 < 5
    with pytest.raises(InsufficientRankError):
        code.decode(shards[i] for i in survivors)


def test_measured_dmin_construction1():
    result = desk_c1().measure_dmin()
    assert result.value == 3
    assert result.witness == (0, 1, 2)


def test_measured_dmin_construction2():
    result = desk_c2().measure_dmin()
    assert result.value == 4


def test_measured_dmin_full_rate():
    """K = groups * k_local: distance collapses to the local distance."""
    code = all_symbol_code(2, desk_local(), 6)
    assert code.bound_ctx.p_inv(6) == 5
    assert code.dmin_bound == 2
    assert code.measure_dmin().value == 2


def test_pattern_cap_refusal(monkeypatch):
    """The cap bounds repair-all's decode-path helper subsets per node:
    C2's global node has C(6,4) = 15 of them, so a cap of 14 refuses and a
    cap of 15 checks all of them."""
    code = desk_c2()
    monkeypatch.setattr(cli, "REPAIR_ALL_CAP", 14)
    with pytest.raises(PatternCapError, match=r"^C\(6,4\) = 15 helper "
                       r"subsets of node 6 exceed the cap 14; refusing to "
                       r"sample$"):
        cli._verify_repair_all(SimConfig(), code)
    monkeypatch.setattr(cli, "REPAIR_ALL_CAP", 15)
    assert cli._verify_repair_all(SimConfig(), code) == {
        "mode": "repair-all", "cases": 22, "pass": True, "witness": None}


def mbr_stripes_code():
    """The benchmark's mbr-stripes configuration, built as the CLI does."""
    return SimConfig(construction="info-local", q=3, t=2, delta=1,
                     file_dim=5, m=8).build()


def test_mbr_stripes_is_the_c2_code():
    """The benchmark's mbr-stripes configuration and C2 build the same
    code, so the tests that take C2 cover mbr-stripes too."""
    a, b = desk_c2(), mbr_stripes_code()
    assert (a.n_nodes, a.file_dim, a.field) == (b.n_nodes, b.file_dim, b.field)
    assert np.array_equal(a.generator, b.generator)


def fano_code():
    return all_symbol_code(2, FrCode(fano_plane(), 5, 7), 10)


def certify_code():
    """The benchmark's certify configuration: all-symbol (3,2,2), q=3, t=5,
    K=6, m=15."""
    return all_symbol_code(5, MbrCode(3, 2, 2, 3), 6, ext_degree=15)


def bank_423():
    return all_symbol_code(3, MbrCode(4, 2, 3, 5), 12)


def reference_rank(matrix, q):
    """Rank as the pivot count of the reduced form, an elimination that
    shares no code with the certifiers' rank table."""
    return len(pivot_columns(matrix, q))


def expanded_rank(code, survivors):
    """Reference: one elimination on the survivors' expanded columns."""
    cols = [i * code.alpha + c for i in survivors for c in range(code.alpha)]
    return reference_rank(code.expanded[:, cols], code.local.q)


def reference_dmin(code):
    """Per-pattern reference loop: the first undecodable erasure pattern in
    combinations order, with the patterns of the fully decodable levels."""
    n = code.n_nodes
    checked = 0
    for erased in range(1, n + 1):
        for pattern in combinations(range(n), erased):
            survivors = sorted(set(range(n)) - set(pattern))
            if expanded_rank(code, survivors) < code.file_dim:
                return DminResult(erased, pattern, checked)
        checked += comb(n, erased)
    raise AssertionError("full erasure is always undecodable")


def reference_ura(code, claimed):
    """Per-subset reference loop: eliminate every local column subset of
    the bank's generator and compare with the claimed prefix sums."""
    n_local = code.local.n_nodes
    cols = code.groups * n_local
    prefix = [0]
    for a in claimed:
        prefix.append(prefix[-1] + a)
    basic = code.mixed_generator[: code.groups * code.local.k_message,
                                 : cols * code.alpha]
    witness = None
    for size in range(1, cols + 1):
        minimum = None
        for subset in combinations(range(cols), size):
            idx = [i * code.alpha + c for i in subset for c in range(code.alpha)]
            measured = reference_rank(basic[:, idx], code.local.q)
            expected = sum(prefix[sum(1 for i in subset if i // n_local == g)]
                           for g in range(code.groups))
            if measured != expected and witness is None:
                witness = {"kind": "block-rank", "subset": list(subset),
                           "measured": measured, "expected": expected}
            minimum = measured if minimum is None else min(minimum, measured)
        periodic = (size // n_local) * prefix[-1] + prefix[size % n_local]
        if witness is None and minimum != periodic:
            witness = {"kind": "size-minimum", "size": size,
                       "measured": minimum, "expected": periodic}
        if witness is not None:
            break
    return {"mode": "ura", "columns": cols, "claimed_profile": list(claimed),
            "subsets_checked": 2 ** cols if witness is None else None,
            "pass": witness is None, "witness": witness}


def table_rank(code, rank_of, survivors):
    """Rank of the survivors' stored columns by the group rank table
    ``rank_of`` (group mask -> rank): the sum of each group's entry plus
    alpha per surviving global node."""
    n_local = code.local.n_nodes
    masks = [0] * code.groups
    for i in survivors:
        if i < code.groups * n_local:
            masks[i // n_local] |= 1 << i % n_local
    globals_ = sum(1 for i in survivors if i >= code.groups * n_local)
    return sum(rank_of[mask] for mask in masks) + code.alpha * globals_


def rank_lookup(code):
    local = code.local
    keys, ranks = subset_ranks(local.generator_matrix(), local.alpha, local.q)
    return dict(zip(keys.tolist(), ranks.tolist()))


@pytest.mark.parametrize("build", [desk_c1, desk_c2, fano_code])
def test_rank_table_matches_elimination_on_every_survivor_set(build):
    """The per-group table gives the rank of every survivor set that one
    elimination on the expanded columns gives, and decodable agrees."""
    code = build()
    n = code.n_nodes
    rank_of = rank_lookup(code)
    for size in range(n + 1):
        for survivors in combinations(range(n), size):
            got = table_rank(code, rank_of, survivors)
            want = expanded_rank(code, survivors)
            assert got == want, survivors
            assert code.decodable(survivors) == (want >= code.file_dim)


@pytest.mark.parametrize("build,claims", [
    (desk_c1, [None, [2, 2, 0], [2, 1, 1]]),
    (desk_c2, [None]),
    (bank_423, [None, [3, 2, 1, 0]]),
    (fano_code, [None]),
])
def test_certifiers_match_per_pattern_reference(build, claims):
    code = build()
    assert code.measure_dmin() == reference_dmin(code)
    for claim in claims:
        expected = reference_ura(code, claim or list(code.local.profile()))
        # The true profile passes; every override is a negative control.
        assert expected["pass"] is (claim is None)
        assert code.ura_report(claimed_profile=claim) == expected


@st.composite
def small_codes(draw):
    """Composed codes small enough for the per-pattern references: MBR
    banks of up to three groups of two or three nodes or up to two groups
    of four, or one Fano group, each with or without a global node."""
    globals_ = draw(st.integers(0, 1))
    if draw(st.booleans()):
        local = FrCode(fano_plane(), draw(st.integers(1, 5)),
                       draw(st.sampled_from([7, 11])))
        groups = 1
    else:
        n_local = draw(st.integers(2, 4))
        d = draw(st.integers(1, n_local - 1))
        r = draw(st.integers(1, d))
        q = draw(st.sampled_from([p for p in (3, 5, 7) if p >= n_local]))
        local = MbrCode(n_local, r, d, q)
        groups = draw(st.integers(1, 3 if n_local <= 3 else 2))
    outer_len = groups * local.k_message + globals_ * local.alpha
    assume(local.q ** outer_len <= SIZE_BUDGET)
    file_dim = draw(st.integers(1, groups * local.k_message))
    return info_locality_code(groups, globals_, local, file_dim)


@settings(max_examples=40, deadline=None)
@given(code=small_codes(), data=st.data())
def test_certifiers_match_references_on_drawn_codes(code, data):
    """measure_dmin and ura_report equal the per-pattern references, for
    the true profile and a perturbed one."""
    assert code.measure_dmin() == reference_dmin(code)
    true = list(code.local.profile())
    node = data.draw(st.integers(0, len(true) - 1), label="perturbed node")
    value = data.draw(st.integers(0, code.alpha).filter(
        lambda v: v != true[node]), label="perturbed value")
    perturbed = true[:node] + [value] + true[node + 1:]
    for claim in (true, perturbed):
        assert code.ura_report(claimed_profile=claim) == reference_ura(
            code, claim)


@pytest.mark.parametrize("build", [desk_c1, mbr_stripes_code])
def test_ura_report_matches_reference_for_every_claim(build):
    """Every claimed profile in {0..alpha}^n_local, 27 of them, gets the
    per-subset reference's report: the passes, and every witness."""
    code = build()
    claims = [list(c) for c in product(range(code.alpha + 1),
                                       repeat=code.local.n_nodes)]
    assert len(claims) == 27
    for claim in claims:
        assert code.ura_report(claimed_profile=claim) == reference_ura(
            code, claim)


@st.composite
def drawn_banks(draw):
    """A bank of ``groups`` copies of an arbitrary k x (n_local alpha)
    matrix over F_q, entries biased to 0, 1 and q - 1, as the stand-in
    code that ``reference_ura`` reads, with a claimed profile: drawn, or
    the rank increments of the matrix's first nodes."""
    q = draw(st.sampled_from([2, 3, 5, 7]))
    n_local = draw(st.integers(1, 5))
    alpha = draw(st.integers(1, 3))
    groups = draw(st.integers(1, min(3, 10 // n_local)))
    k = draw(st.integers(1, min(n_local * alpha, 6)))
    entry = st.sampled_from([0, 1, q - 1]) | st.integers(0, q - 1)
    local = np.array(draw(st.lists(entry, min_size=k * n_local * alpha,
                                   max_size=k * n_local * alpha)),
                     dtype=np.int64).reshape(k, n_local * alpha)
    firsts = [reference_rank(local[:, :s * alpha], q)
              for s in range(n_local + 1)]
    claim = draw(st.just([b - a for a, b in zip(firsts, firsts[1:])])
                 | st.lists(st.integers(0, alpha), min_size=n_local,
                            max_size=n_local))
    bank = SimpleNamespace(
        local=SimpleNamespace(n_nodes=n_local, k_message=k, q=q),
        groups=groups, alpha=alpha,
        mixed_generator=np.kron(np.eye(groups, dtype=np.int64), local))
    return bank, claim


@settings(max_examples=150, deadline=None)
@given(case=drawn_banks())
def test_size_minimum_never_fails_first(case):
    """Rank is submodular, so once every group mask below some size has
    its claimed prefix sum, the least rank of each such size is the
    periodic sum: the per-subset reference, on ranks from pivot_columns
    alone, never stops at a size minimum."""
    bank, claim = case
    witness = reference_ura(bank, claim)["witness"]
    assert witness is None or witness["kind"] == "block-rank"


@pytest.mark.parametrize("build", [desk_c1, desk_c2, fano_code])
def test_ura_report_makes_no_min_plus_call(build, monkeypatch):
    """URA is certified by the block ranks alone: with the min-plus
    convolution unavailable the true profile still passes, and a wrong
    claim still gets its block-rank witness."""
    code = build()
    true = list(code.local.profile())
    wrong = true[:-1] + [(true[-1] + 1) % (code.alpha + 1)]

    def refuse(*args):
        raise AssertionError("ura_report convolved the per-size minima")

    monkeypatch.setattr(lrc, "_min_plus", refuse)
    report = code.ura_report()
    assert report["pass"] is True
    assert report["subsets_checked"] == 2 ** (code.groups * code.local.n_nodes)
    report = code.ura_report(claimed_profile=wrong)
    assert report["pass"] is False
    assert report["witness"]["kind"] == "block-rank"


def test_fano_certification_makes_no_elimination_per_mask(monkeypatch):
    """The rank table comes from one subset_ranks pass: measure_dmin's only
    rank_mod_q call is the Theta check, and ura_report makes none (one
    call per group mask before, 128 and 127 of them)."""
    calls = Counter()
    real = lrc.rank_mod_q

    def counted(*args):
        calls[certifier] += 1
        return real(*args)

    monkeypatch.setattr(lrc, "rank_mod_q", counted)
    code = fano_code()
    for certifier in ("measure_dmin", "ura_report"):
        getattr(code, certifier)()
    assert calls["measure_dmin"] <= 1 and calls["ura_report"] <= 1


def test_certifiers_enumerate_nothing(monkeypatch):
    """On Fano and the certify configuration, each certifier reads its
    answer and witness off one table: each of two successive calls runs
    its own subset_ranks pass (no table is kept), and the d_min witness is
    the first pattern of its level."""
    passes = Counter()
    real_ranks = lrc.subset_ranks

    def ranks(*args, **kwargs):
        passes["subset_ranks"] += 1
        return real_ranks(*args, **kwargs)

    monkeypatch.setattr(lrc, "subset_ranks", ranks)
    for code in (fano_code(), certify_code()):
        for _ in range(2):
            passes.clear()
            assert code.ura_report()["pass"] is True
            assert passes["subset_ranks"] == 1
            result = code.measure_dmin()
            assert result.value == code.dmin_bound
            assert result.witness == tuple(range(result.value))
            assert passes["subset_ranks"] == 2


def brute_first_undecodable(rank_of, n_local, groups, global_nodes, alpha,
                            file_dim):
    """Reference: scan the erasure patterns in combinations order, summing
    each group's table entry and alpha per surviving global node, for the
    first whose rank is below file_dim."""
    local = groups * n_local
    for erased in range(1, local + global_nodes + 1):
        for pattern in combinations(range(local + global_nodes), erased):
            survivors = [(g, j) for g in range(groups) for j in range(n_local)
                         if g * n_local + j not in pattern]
            rank = alpha * (global_nodes - sum(i >= local for i in pattern))
            rank += sum(rank_of[sum(1 << j for h, j in survivors if h == g)]
                        for g in range(groups))
            if rank < file_dim:
                return erased, pattern
    raise AssertionError("erasing every node leaves rank 0")


@st.composite
def synthetic_tables(draw):
    """Full group rank tables with arbitrary, not necessarily monotone,
    ranks (rank 0 for the empty mask)."""
    n_local = draw(st.integers(1, 4), label="n_local")
    groups = draw(st.integers(1, 3), label="groups")
    global_nodes = draw(st.integers(0, 2), label="global nodes")
    alpha = draw(st.integers(1, 3), label="alpha")
    ranks = [0] + draw(st.lists(st.integers(0, 6), min_size=2 ** n_local - 1,
                                max_size=2 ** n_local - 1), label="ranks")
    file_dim = draw(st.integers(1, groups * max(ranks)
                                + global_nodes * alpha + 1), label="K")
    rank_of = dict(enumerate(ranks))
    return rank_of, n_local, groups, global_nodes, alpha, file_dim


@settings(max_examples=300, deadline=None)
@given(case=synthetic_tables())
def test_witness_read_off_the_table_is_the_first_undecodable_pattern(case):
    """The distance and witness read off a group rank table, group by
    group, equal a brute-force combinations scan, on tables whose ranks
    make the order of the masks within a group matter."""
    rank_of, *shape = case
    keys = np.array(list(rank_of), dtype=np.int64)
    ranks = np.array(list(rank_of.values()), dtype=np.int64)
    assert (lrc._first_undecodable(keys, ranks, *shape)
            == brute_first_undecodable(rank_of, *shape))


def test_dmin_witness_is_revalidated_by_the_decoder(monkeypatch):
    """A table that understates every rank yields the witness (0,), whose
    survivors decode: measure_dmin raises instead of returning it."""
    real = lrc.subset_ranks

    def understated(*args, **kwargs):
        keys, ranks = real(*args, **kwargs)
        return keys, np.zeros_like(ranks)

    monkeypatch.setattr(lrc, "subset_ranks", understated)
    with pytest.raises(AssertionError, match=r"^rank test and decoder "
                       r"disagree on pattern \(0,\)$"):
        desk_c1().measure_dmin()


def test_dmin_refuses_a_group_past_the_table_budget(monkeypatch):
    """A 23-node group would need a table of 2^23 masks, past
    TABLE_BUDGET: measure_dmin refuses it in under a second, before any
    subset_ranks elimination."""
    def refuse(*args):
        raise AssertionError("subset_ranks eliminated past the budget")

    monkeypatch.setattr(galois, "_eliminate", refuse)
    code = all_symbol_code(1, MbrCode(23, 1, 1, 23), 1)
    started = time.perf_counter()
    with pytest.raises(ParameterError, match=r"^subset table of 2\^23 node "
                       r"sets exceeds the budget 2\^22; refusing$"):
        code.measure_dmin()
    assert time.perf_counter() - started < 1.0


def test_certify_configuration_within_budget():
    """The benchmark's certify configuration (all-symbol (3,2,2), q=3, t=5,
    K=6, m=15, n=15): d_min 11 equals the bound and URA passes over all
    2^15 column subsets, both certified within 5 s."""
    started = time.perf_counter()
    code = certify_code()
    result = code.measure_dmin()
    assert result.value == 11 == code.dmin_bound
    report = code.ura_report()
    assert report["pass"] is True
    assert report["subsets_checked"] == 2 ** 15
    assert time.perf_counter() - started < 5.0


#: The banks of the paper's claim at scale: C1's (3,2,2), the (5,3,4) MBR
#: code and the Fano FR code.
SWEEP_BANKS = [
    pytest.param(MbrCode(3, 2, 2, 3), id="mbr-3-2-2"),
    pytest.param(MbrCode(5, 3, 4, 5), id="mbr-5-3-4"),
    pytest.param(FrCode(fano_plane(), 5, 7), id="fano"),
]


def table_dmin(keys, ranks, local, groups, global_nodes, file_dim):
    """d_min and its witness read off a group table as measure_dmin reads
    them, with the witness's survivors checked to be rank-short by the
    same table."""
    n_local = local.n_nodes
    erased, witness = lrc._first_undecodable(
        keys, ranks, n_local, groups, global_nodes, local.alpha, file_dim)
    assert len(witness) == erased
    rank_of = dict(zip(keys.tolist(), ranks.tolist()))
    survivors = set(range(groups * n_local + global_nodes)) - set(witness)
    masks = [sum(1 << i % n_local for i in survivors if i // n_local == g)
             for g in range(groups)]
    kept_globals = sum(i >= groups * n_local for i in survivors)
    assert (sum(rank_of[mask] for mask in masks)
            + local.alpha * kept_globals) < file_dim
    return erased


@pytest.mark.parametrize("local", SWEEP_BANKS)
def test_dmin_equals_the_bound_for_every_t_up_to_20(local):
    """The paper's claim d_min = n - P_inv(K) + 1 holds for every t up to
    20, every K up to t * k_local and 0-2 global nodes, certified from one
    subset_ranks table of the local generator.

    No F_{q^m} is built, and most of these codes would pass the field
    budget.  That is sound: the outer points are the power basis, so
    Theta is the first J unit columns and rank(Theta) = J (measure_dmin
    checks it on every code it builds).  The survivors' expanded columns
    then have the rank of the same columns of the block-diagonal mixed
    generator: their groups' table entries plus alpha per global node,
    which is what the table gives.
    """
    keys, ranks = subset_ranks(local.generator_matrix(), local.alpha, local.q)
    for groups in range(1, 21):
        for global_nodes in range(3):
            ctx = BoundContext.for_local_code(
                local, groups * local.n_nodes + global_nodes,
                extra=global_nodes)
            for file_dim in range(1, groups * local.k_message + 1):
                assert (table_dmin(keys, ranks, local, groups, global_nodes,
                                   file_dim)
                        == ctx.optimal_dmin(file_dim)), (groups, global_nodes,
                                                         file_dim)


def test_measure_dmin_is_the_table_answer_where_the_field_fits():
    """On C1's bank at t = 3..5, with 0-2 global nodes and every K, the
    full certifier (a built field, the Theta check and the decoder's
    re-validation of the witness) gives the table-level answer."""
    local = desk_local()
    keys, ranks = subset_ranks(local.generator_matrix(), local.alpha, local.q)
    for groups in range(3, 6):
        for global_nodes in range(3):
            for file_dim in range(1, groups * local.k_message + 1):
                code = info_locality_code(groups, global_nodes, local,
                                          file_dim)
                assert code.measure_dmin().value == table_dmin(
                    keys, ranks, local, groups, global_nodes, file_dim)


def test_gamma_commutation_with_generator():
    """Evaluating f at the mixed points equals mixing the evaluations:
    shard payloads are f applied to the matching columns of Gamma."""
    code = desk_c1()
    rng = random.Random(7)
    for _ in range(20):
        msg = [code.field.random_element(rng) for _ in range(5)]
        f = LinearizedPoly(code.field, msg)
        shards = code.encode(msg)
        for shard in shards:
            for c, value in enumerate(shard.payload.tolist()):
                gamma = code.gamma[shard.index * code.alpha + c]
                assert list(f.evaluate(gamma).coeffs) == value


@pytest.mark.parametrize("build", [desk_c2, fano_code])
def test_decodable_takes_any_collection_of_node_indices(build):
    """A list, a tuple, a numpy array or a set of surviving nodes, empty
    or not, gets the rank test's answer on the expanded columns."""
    code = build()
    assert lrc._blocks([], 2).dtype == np.int64
    rng = random.Random(11)
    for size in range(code.n_nodes + 1):
        nodes = sorted(rng.sample(range(code.n_nodes), size))
        cols = [i * code.alpha + c for i in nodes for c in range(code.alpha)]
        want = rank_mod_q(code.expanded[:, cols], code.local.q) >= code.file_dim
        for given in (nodes, tuple(nodes), np.array(nodes), set(nodes)):
            assert code.decodable(given) is want, (size, type(given))


def test_all_symbol_locality():
    """Erasing delta-1 nodes of a group leaves survivors that still span its
    k_local outer symbols; erasing delta nodes does not."""
    code = desk_c1()
    rank_of = rank_lookup(code)
    n_local, k_local = code.local.n_local, code.local.k_message
    delta = n_local - code.local.r + 1
    assert delta == 2
    for erased in range(delta + 1):
        for pattern in combinations(range(n_local), erased):
            for group in range(code.groups):
                survivors = [i for i in code.group_members(group)
                             if i % n_local not in pattern]
                rank = table_rank(code, rank_of, survivors)
                if erased < delta:
                    assert rank == k_local, pattern
                else:
                    assert rank < k_local, pattern


def test_repair_local_path_exhaustive():
    code = desk_c1()
    msg = random_message(code, 9)
    originals = {s.index: s for s in code.encode(msg)}
    for failed in range(6):
        available = {i: s for i, s in originals.items() if i != failed}
        shard, metrics = code.repair(failed, available)
        assert shard == originals[failed]
        assert metrics["path"] == "local-regenerating"
        assert metrics["downloaded_symbols"] == 2  # d * beta = alpha


@pytest.mark.parametrize("build", [desk_c1, desk_c2])
def test_regenerating_repair_from_every_helper_set(build, monkeypatch):
    """Every local node from every d-set of its group's survivors rebuilds
    the written shard on the regenerating path; once each helper set has
    been seen, repeating the repairs makes no elimination."""
    code = build()
    shards = {s.index: s for s in code.encode(random_message(code, 22))}
    cases = []
    for grp in range(code.groups):
        members = set(code.group_members(grp))
        for failed in members:
            for helpers in combinations(sorted(members - {failed}), code.local.d):
                lost = members - set(helpers)
                cases.append((failed, {i: s for i, s in shards.items()
                                       if i not in lost}))

    def repair_all():
        for failed, available in cases:
            shard, metrics = code.repair(failed, available)
            assert shard == shards[failed]
            assert metrics["path"] == "local-regenerating"

    repair_all()

    def no_elimination(*args):
        raise AssertionError("a repeated repair eliminated a matrix")

    monkeypatch.setattr(galois, "_row_reduce", no_elimination)
    repair_all()


def test_repair_global_node_via_decode():
    code = desk_c2()
    msg = random_message(code, 10)
    originals = {s.index: s for s in code.encode(msg)}
    available = {i: s for i, s in originals.items() if i != 6}
    shard, metrics = code.repair(6, available)
    assert shard == originals[6]
    assert metrics["path"] == "decode-reencode"
    assert metrics["downloaded_shards"] == 4  # the decode threshold
    assert metrics["downloaded_symbols"] == 8


@pytest.mark.parametrize("build", [desk_c1, desk_c2, fano_code])
def test_data_path_makes_no_field_element_arithmetic(build, monkeypatch):
    """Encode, a full-shard decode and the repair of every node run as F_q
    matrix products: not one FieldElement product or sum."""
    code = build()
    msg = random_message(code, 21)
    calls = Counter()
    for name in ("__mul__", "__rmul__", "__add__"):
        def counted(*args, _name=name, _fn=getattr(FieldElement, name)):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(FieldElement, name, counted)
    shards = code.encode(msg)
    assert code.decode(shards) == tuple(msg)
    for failed in range(code.n_nodes):
        available = {s.index: s for s in shards if s.index != failed}
        assert code.repair(failed, available)[0] == shards[failed]
    assert calls == Counter()
    code.field.one() * code.field.one() + code.field.one()
    assert calls == Counter({"__mul__": 1, "__add__": 1})


def test_write_parse_and_decode_path_repair_build_no_field_element(
        monkeypatch):
    """On C2, whose global node takes the decode path, one write (encode,
    then serialize_shard of every node), parse_shard of every blob and
    every decode-path repair (the global node from all the other shards and
    from each decode-threshold subset of them) construct not one
    FieldElement: shards are coefficient arrays from the product to the
    file and back.  A local repair by transfer builds none either (see the
    Fano test below); a regenerating one wraps the rows of its d helpers
    for the MBR family's helper_symbol and repair."""
    cfg = SimConfig(construction="info-local", q=3, t=2, n_l=3, r=2, d=2,
                    delta=1, file_dim=5)
    code = cfg.build()
    digest = cfg.digest(code)
    q, m = cfg.q, code.field.m
    message = random_message(code, 47)
    built = Counter()
    real_init = FieldElement.__init__

    def counted(self, *args):
        built["FieldElement"] += 1
        real_init(self, *args)

    monkeypatch.setattr(FieldElement, "__init__", counted)
    blobs = [cli.serialize_shard(s, q, m, digest)
             for s in code.encode(message)]
    shards = [cli.parse_shard(blob, code, digest) for blob in blobs]
    others = [s for s in shards if s.index != 6]
    helper_sets = [others, *combinations(others, code.decode_threshold)]
    for helpers in helper_sets:
        shard, metrics = code.repair(6, {s.index: s for s in helpers})
        assert metrics["path"] == "decode-reencode"
        assert cli.serialize_shard(shard, q, m, digest) == blobs[6]
    assert built == Counter()
    code.field.one()
    assert built == Counter({"FieldElement": 1})


def test_fano_transfer_repair_from_parsed_shards_builds_no_field_element(
        monkeypatch):
    """The local repair by transfer of every Fano node, from the parsed
    shards of all the others, constructs not one FieldElement and rebuilds
    the node's file bytes: the parsed payload arrays reach FrCode.repair
    unwrapped, and the rows it copies become the shard."""
    cfg = SimConfig(construction="fr-local", q=7, t=2, k_fr=5, file_dim=10)
    code = cfg.build()
    digest = cfg.digest(code)
    q, m = cfg.q, code.field.m
    blobs = [cli.serialize_shard(s, q, m, digest)
             for s in code.encode(random_message(code, 49))]
    shards = [cli.parse_shard(blob, code, digest) for blob in blobs]
    built = Counter()
    real_init = FieldElement.__init__

    def counted(self, *args):
        built["FieldElement"] += 1
        real_init(self, *args)

    monkeypatch.setattr(FieldElement, "__init__", counted)
    for failed in range(code.n_nodes):
        shard, metrics = code.repair(
            failed, {s.index: s for s in shards if s.index != failed})
        assert metrics["path"] == "local-transfer"
        assert cli.serialize_shard(shard, q, m, digest) == blobs[failed]
    assert built == Counter()
    code.field.one()
    assert built == Counter({"FieldElement": 1})


def test_shards_are_read_only_values():
    """Encode's payloads are read-only and never shared between encodes;
    shards compare and hash by index, role and payload values."""
    code = desk_c2()
    message = random_message(code, 48)
    first, second = code.encode(message), code.encode(message)
    for shard in first:
        assert shard.payload.shape == (code.alpha, code.field.m)
        assert shard.payload.dtype == np.int64
        with pytest.raises(ValueError):
            shard.payload[0, 0] = 1
        assert not any(np.shares_memory(shard.payload, other.payload)
                       for other in second)
    assert first == second
    assert [hash(s) for s in first] == [hash(s) for s in second]
    assert len(set(first) | set(second)) == code.n_nodes
    # Equal values in another integer dtype make an equal shard.
    narrow = Shard(0, first[0].role, first[0].payload.astype(np.uint16))
    assert narrow == first[0] and hash(narrow) == hash(first[0])
    for pos in range(code.alpha):
        for c in range(code.field.m):
            bad = flipped(code, first[0], pos, c)
            assert bad != first[0] and first[0] != bad
    assert first[0] != first[1]


def test_decode_and_repair_refuse_payloads_that_do_not_fit():
    """A payload of the wrong shape, of a float dtype, or with an entry
    equal to q or negative is refused by decode and by repair, on both
    repair paths, with the same ParameterError text."""
    code = desk_c2()
    shards = code.encode(random_message(code, 49))
    alpha, m, q = code.alpha, code.field.m, code.field.q
    good = shards[1].payload
    at_q, negative = good.copy(), good.copy()
    at_q[1, 2], negative[0, 3] = q, -1
    outside = f"shard 1 payload has a coefficient outside [0, {q})"
    cases = [
        (np.zeros((alpha, m + 1), dtype=np.int64),
         f"shard 1 with payload shape ({alpha}, {m + 1}) does not fit n=7 "
         f"nodes of alpha x m = {alpha} x {m}"),
        (good.ravel(),
         f"shard 1 with payload shape ({alpha * m},) does not fit n=7 "
         f"nodes of alpha x m = {alpha} x {m}"),
        (good.astype(np.float64),
         "shard 1 payload has dtype float64, not an integer dtype"),
        (at_q, outside),
        (negative, outside),
    ]
    for payload, text in cases:
        bad = Shard(1, shards[1].role, payload)
        with pytest.raises(ParameterError) as err:
            code.decode([shards[0], bad, *shards[2:]])
        assert str(err.value) == text
        for failed in (0, 6):          # local-regenerating, decode-reencode
            available = {s.index: s for s in shards if s.index != failed}
            with pytest.raises(ParameterError) as err:
                code.repair(failed, {**available, 1: bad})
            assert str(err.value) == text


def test_payloads_stay_int64_past_the_int64_products(monkeypatch):
    """Over q = 1099511627689 with m = 1, one product of two residues
    passes 2^63, and the decode-path repair's products take Python ints
    (object arrays) by _matmul_mod_q's exactness rule.  The payloads of
    encode and of both repair paths still come back read-only in int64,
    equal to the reference, and decode takes them back."""
    q = 1099511627689
    code = all_symbol_code(1, MbrCode(3, 1, 1, q), 1)
    real = lrc._matmul_mod_q
    dtypes = []

    def spy(*args):
        product = real(*args)
        dtypes.append(product.dtype)
        return product

    monkeypatch.setattr(lrc, "_matmul_mod_q", spy)
    message = [code.field.element([q - 1])]
    shards = code.encode(message)
    assert shards == reference_encode(code, message)
    assert code.decode(shards) == tuple(message)
    rebuilt = []
    for failed in range(code.n_nodes):
        available = {s.index: s for s in shards if s.index != failed}
        for shard, _ in (code.repair(failed, available),
                         code._repair_by_decode(failed, available, "")):
            assert shard == shards[failed]
            rebuilt.append(shard)
    assert object in dtypes
    for shard in shards + rebuilt:
        assert shard.payload.dtype == np.int64
        assert not shard.payload.flags.writeable


def reference_encode(code, message):
    """The readable reference encoder: evaluate the Gabidulin pre-code,
    then apply the mixed generator to the evaluations."""
    evaluations = code.outer.encode(message)
    stored = apply_int_matrix(code.mixed_generator.T, evaluations, code.field)
    a = code.alpha
    return [make_shard(i, code.role_of(i), stored[i * a:(i + 1) * a])
            for i in range(code.n_nodes)]


def assert_generator_matches_reference(code, seed):
    """Row i*m + k of the generator is the reference encoding of the unit
    message u_i = x^k, and encode equals the reference on random
    messages."""
    fld, m = code.field, code.field.m
    assert code.generator.shape == (code.file_dim * m, code.n_nodes * code.alpha * m)
    for i in range(code.file_dim):
        for k in range(m):
            unit = [fld.zero()] * code.file_dim
            unit[i] = fld.element(np.eye(m, dtype=int)[k])
            row = [c for shard in reference_encode(code, unit)
                   for c in shard.payload.ravel().tolist()]
            assert code.generator[i * m + k].tolist() == row, (i, k)
    for trial in range(3):
        message = random_message(code, seed + trial)
        assert code.encode(message) == reference_encode(code, message)


@pytest.mark.parametrize("build", [desk_c1, desk_c2, fano_code,
                                   certify_code])
def test_generator_matches_reference_encoder(build):
    assert_generator_matches_reference(build(), 30)


@settings(max_examples=40, deadline=None)
@given(code=small_codes(), seed=st.integers(0, 2 ** 16))
def test_generator_matches_reference_encoder_on_drawn_codes(code, seed):
    assert_generator_matches_reference(code, seed)


def test_generator_is_built_on_first_use():
    """Building a code compiles nothing; the generator is built once and
    is read-only."""
    code = mbr_stripes_code()
    assert "generator" not in vars(code)
    code.encode(random_message(code, 0))
    assert code.generator is code.generator
    assert not code.generator.flags.writeable


def outcome(call):
    """A call's result, or the class and text of what it raised."""
    try:
        return call()
    except (InconsistentDataError, InsufficientRankError) as exc:
        return type(exc), str(exc)


def reference_repair(code, failed, helpers):
    """Decode the helpers' message, then re-encode the failed node with the
    reference encoder."""
    return reference_encode(code, code.decode(helpers))[failed]


def compiled_repair(code, failed, helpers):
    shard, _ = code._repair_by_decode(
        failed, {s.index: s for s in helpers}, "local path skipped")
    return shard


def flipped(code, shard, pos, c):
    """The shard with coefficient c of its symbol at pos raised by one."""
    payload = shard.payload.copy()
    payload[pos, c] = (payload[pos, c] + 1) % code.field.q
    return make_shard(shard.index, shard.role, payload)


def repair_cases(code, per_node):
    """(failed node, helper set) pairs over the helper sets of the decode
    threshold's size or one less: every set and every node outside it, or
    with ``per_node`` that many seeded sets of each size per failed node."""
    rng = random.Random(46)
    for failed in range(code.n_nodes):
        others = [i for i in range(code.n_nodes) if i != failed]
        for size in (code.decode_threshold - 1, code.decode_threshold):
            sets = list(combinations(others, size))
            if per_node is not None:
                sets = rng.sample(sets, per_node)
            yield from ((failed, helper_set) for helper_set in sets)


@pytest.mark.parametrize("build,per_node", [
    (desk_c1, None), (desk_c2, None),
    # All 14 x 2,002 Fano cases would take about ten minutes on a 2-core
    # container, mostly in reference decodes of about 12 ms each.
    (fano_code, 3),
])
def test_decode_path_repair_matches_decode_and_reencode(build, per_node):
    """The compiled decode-path repair rebuilds what decode and the
    reference encoder rebuild, or raises the same error class and text,
    for every failed node and every helper set of the decode threshold's
    size or one less (on Fano, three seeded sets of each size per failed
    node).  A coefficient flipped in one helper (a seeded choice per case)
    gives the same outcome on both paths, an InconsistentDataError naming
    the same index included."""
    code = build()
    shards = code.encode(random_message(code, 40))
    rng = random.Random(41)
    outcomes = Counter()
    for failed, helper_set in repair_cases(code, per_node):
        helpers = [shards[i] for i in helper_set]
        victim = rng.randrange(len(helpers))
        corrupt = list(helpers)
        corrupt[victim] = flipped(code, helpers[victim],
                                  rng.randrange(code.alpha),
                                  rng.randrange(code.field.m))
        for supplied in (helpers, corrupt):
            want = outcome(lambda: reference_repair(code, failed, supplied))
            got = outcome(lambda: compiled_repair(code, failed, supplied))
            assert got == want, (failed, helper_set)
            outcomes[want[0] if isinstance(want, tuple) else "rebuilt"] += 1
    assert all(outcomes[kind] for kind in ("rebuilt", InconsistentDataError,
                                           InsufficientRankError))


def test_decode_path_repair_keeps_the_decode_errors():
    """Rank-short helpers make repair raise the RepairError that wraps
    decode's own error, and a corrupt helper the decoder's
    InconsistentDataError; a shard that does not fit the code is refused
    as decode refuses it."""
    code = desk_c2()
    shards = code.encode(random_message(code, 42))
    short = {i: shards[i] for i in (3, 4, 5)}          # one group: rank 3
    decode_error = outcome(lambda: code.decode(short.values()))
    assert decode_error[0] is InsufficientRankError
    with pytest.raises(RepairError) as err:
        code.repair(6, short)
    assert str(err.value) == (
        "no repair path: local path failed (global nodes have no in-group "
        f"path); decode path failed ({decode_error[1]})")
    with pytest.raises(RepairError, match=r"decode path failed \(no "
                       r"evaluations supplied\)$"):
        code.repair(6, {})
    available = {i: shards[i] for i in range(6)}
    available[0] = flipped(code, shards[0], 0, 0)
    with pytest.raises(InconsistentDataError) as got:
        code.repair(6, available)
    with pytest.raises(InconsistentDataError) as want:
        code.decode(available[i] for i in range(4))
    assert str(got.value) == str(want.value)
    for bad in (Shard(9, shards[1].role, shards[1].payload),
                Shard(1, shards[1].role, shards[1].payload[:1])):
        with pytest.raises(ParameterError) as got:
            code.repair(6, {**available, 1: bad})
        with pytest.raises(ParameterError) as want:
            code.decode([bad])
        assert str(got.value) == str(want.value)


def test_repeated_decode_path_repair_reuses_its_solver(monkeypatch):
    """A second decode-path repair of the same node from the same helpers
    makes no elimination, over F_q or over F_{q^m}, and no interpolation;
    the first one builds its solver with one F_{q^m} elimination."""
    code = mbr_stripes_code()
    shards = code.encode(random_message(code, 43))
    available = {s.index: s for s in shards[:-1]}
    calls = Counter()
    for owner, name in ((galois, "_row_reduce"), (galois, "solve_moore"),
                        (lrc, "solve_moore"), (linpoly, "solve_moore"),
                        (linpoly, "interpolate"), (gabidulin, "interpolate")):
        def counted(*args, _name=name, _fn=getattr(owner, name)):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(owner, name, counted)
    first = code.repair(6, available)
    assert first[0] == shards[-1]
    assert calls["solve_moore"] == 1 and "interpolate" not in calls
    calls.clear()
    assert code.repair(6, available) == first
    assert calls == Counter()


def fq_expansion_interpolate(points, values, max_q_degree):
    """``linpoly.interpolate`` as it was before its Moore system was solved
    over F_{q^m}: the (K m)-square F_q expansion through solve_mod_q, kept
    verbatim as the reference for decode outcomes."""
    points = list(points)
    values = list(values)
    if len(points) != len(values):
        raise ParameterError(
            f"got {len(points)} points but {len(values)} values"
        )
    if not points:
        raise no_evaluations()
    fld = points[0].field
    value_rows = coefficients(values, fld)
    needed = max_q_degree + 1
    if needed < 1:
        raise ParameterError("max_q_degree must be >= 0")
    if needed > fld.m:
        raise ParameterError(
            f"q-degree bound {max_q_degree} must stay below m={fld.m}"
        )
    columns = coefficients(points, fld).T
    chosen = independent_points(columns, needed, fld.q)
    # The unknowns are the coefficients of u_0..u_t, the equations those of
    # the chosen values; independent points make the system nonsingular.
    rhs = value_rows[chosen].reshape(-1, 1)
    solution = solve_mod_q(fld.moore(columns[:, chosen], needed).T, rhs, fld.q)
    poly = LinearizedPoly(fld, as_elements(fld, solution.reshape(needed, fld.m)))
    for idx, (p, v) in enumerate(zip(points, values)):
        if idx not in chosen and poly.evaluate(p) != v:
            raise surplus_mismatch(idx)
    return poly


def decode_outcomes(code, survivor_sets, seed):
    """Each survivor set's decode outcome, as given and with one seeded
    coefficient of one of its shards raised by one: the message, or the
    class and text of the error."""
    shards = code.encode(random_message(code, seed))
    rng = random.Random(seed)
    got = []
    for survivors in survivor_sets:
        given = [shards[i] for i in survivors]
        got.append(outcome(lambda: code.decode(given)))
        if given:
            at = rng.randrange(len(given))
            given[at] = flipped(code, given[at], rng.randrange(code.alpha),
                                rng.randrange(code.field.m))
            got.append(outcome(lambda: code.decode(given)))
    return got


def all_survivor_sets(code):
    return [s for size in range(code.n_nodes + 1)
            for s in combinations(range(code.n_nodes), size)]


def fano_survivor_sets(count, seed):
    """Seeded Fano survivor sets: all 14 nodes but 0 to 10 random ones, in
    a random order.  d_min is 6, and about a quarter of the sets of 9
    erasures and half of those of 10 are rank-short."""
    rng = random.Random(seed)
    return [rng.sample(range(14), 14 - rng.randrange(11))
            for _ in range(count)]


@pytest.mark.parametrize("build,sets", [
    (desk_c1, all_survivor_sets), (desk_c2, all_survivor_sets),
    (fano_code, lambda code: fano_survivor_sets(600, 47)),
], ids=["c1", "c2", "fano"])
def test_decode_outcomes_equal_the_fq_expansion_solve(build, sets,
                                                       monkeypatch):
    """Decoding through the F_{q^m} elimination gives the outcome the F_q
    expansion gave: the message, or the same error class and text (the
    InconsistentDataError's surplus index included), on every survivor
    set of C1 and C2 and on 600 seeded Fano sets, each as given and with
    one corrupt coefficient."""
    code = build()
    survivor_sets = sets(code)
    got = decode_outcomes(code, survivor_sets, 48)
    monkeypatch.setattr(gabidulin, "interpolate", fq_expansion_interpolate)
    want = decode_outcomes(code, survivor_sets, 48)
    assert got == want
    kinds = Counter(w[0] if isinstance(w, tuple) and isinstance(w[0], type)
                    else "message" for w in want)
    assert all(kinds[kind] for kind in ("message", InconsistentDataError,
                                        InsufficientRankError)), kinds


def reference_solver(code, indices):
    """A decode-path solver as it was built over F_q: the chosen scalars'
    positions, and inv_mod_q of the generator's block at their columns."""
    scalars = lrc._blocks(indices, code.alpha)
    chosen = independent_points(code.expanded[:, scalars], code.file_dim,
                                code.local.q)
    block = code.generator[:, lrc._blocks(scalars[chosen], code.field.m)]
    return chosen, inv_mod_q(block, code.local.q)


@pytest.mark.parametrize("build,per_node", [
    (desk_c1, None), (desk_c2, None), (fano_code, 3)])
def test_solver_is_the_fq_inverse_of_its_block(build, per_node):
    """The expanded F_{q^m} inverse equals inv_mod_q of the generator's
    square block, and the chosen scalars are the same, on every helper set
    of the decode path (on Fano, three seeded sets of each size per failed
    node); a rank-short set raises the same error."""
    code = build()
    solved = 0
    for helper_set in sorted({h for _, h in repair_cases(code, per_node)}):
        want = outcome(lambda: reference_solver(code, helper_set))
        got = outcome(lambda: code._solver(helper_set))
        if isinstance(want[0], type):
            assert got == want
            continue
        assert got[0] == want[0], helper_set
        assert got[1].dtype == np.int64
        assert np.array_equal(got[1], np.array(want[1], dtype=np.int64))
        solved += 1
    assert solved


def test_fano_decode_eliminates_no_moore_system_over_fq(monkeypatch):
    """A Fano read and a decode-path solver build eliminate over F_q only
    the m x N matrices of points whose pivot columns they choose; the
    Moore system (K m = 100 rows) is solved over F_{q^m}."""
    code = fano_code()
    shards = code.encode(random_message(code, 49))
    shapes = []
    real = galois._row_reduce

    def recorded(matrix, q):
        shapes.append(np.shape(matrix))
        return real(matrix, q)

    monkeypatch.setattr(galois, "_row_reduce", recorded)
    for survivors in fano_survivor_sets(20, 50):
        outcome(lambda: code.decode([shards[i] for i in survivors]))
    code._solver(tuple(range(code.decode_threshold)))
    assert len(shapes) > 10
    assert max(rows for rows, _ in shapes) == code.field.m


def test_solver_cache_holds_at_most_n_nodes(monkeypatch, capsys):
    """verify --mode repair-all on C2 rebuilds the global node from 15
    helper sets and the full set; the cache keeps the last n_nodes."""
    built = []
    real = SimConfig.build

    def build(self):
        built.append(real(self))
        return built[-1]

    monkeypatch.setattr(SimConfig, "build", build)
    assert main(["verify", "--construction", "info-local", "--q", "3",
                 "--t", "2", "--nl", "3", "--r", "2", "--d", "2",
                 "--delta", "1", "--K", "5", "--mode", "repair-all"]) == 0
    capsys.readouterr()
    code, = built
    assert len(code._solvers) == code.n_nodes


def test_compiled_paths_exact_past_int64():
    """Over F_q with q = 1099511627689 (m = 1, so every scalar is one
    residue), one product of two residues passes 2^63: encode and the
    decode-path repair take the Python-int products and equal the
    reference exactly."""
    q = 1099511627689
    assert (q - 1) ** 2 > 2 ** 63
    code = all_symbol_code(1, MbrCode(3, 1, 1, q), 1)
    assert (code.field.m, code.n_nodes, code.decode_threshold) == (1, 3, 1)
    assert_generator_matches_reference(code, 44)
    top = [code.field.element([q - 1])]
    for message in (top, random_message(code, 45)):
        shards = code.encode(message)
        assert shards == reference_encode(code, message)
        for failed in range(code.n_nodes):
            for helper in set(range(code.n_nodes)) - {failed}:
                assert (compiled_repair(code, failed, [shards[helper]])
                        == reference_repair(code, failed, [shards[helper]])
                        == shards[failed])


def test_repair_falls_back_when_group_degraded():
    code = desk_c1()
    msg = random_message(code, 11)
    originals = {s.index: s for s in code.encode(msg)}
    # Node 1 also lost: group 0 has a single survivor < d = 2.
    available = {i: s for i, s in originals.items() if i not in (0, 1)}
    shard, metrics = code.repair(0, available)
    assert shard == originals[0]
    assert metrics["path"] == "decode-reencode"
    assert "local_path_error" in metrics


def test_repair_uses_exactly_the_given_shards():
    code = desk_c1()
    msg = random_message(code, 20)
    originals = {s.index: s for s in code.encode(msg)}
    shard, metrics = code.repair(0, {i: originals[i] for i in (1, 2)})
    assert shard == originals[0] and metrics["helpers"] == [1, 2]


@pytest.mark.parametrize("build,failed", [(desk_c1, 0), (fano_code, 0),
                                          (desk_c2, 6)],
                         ids=["local-regenerating", "local-transfer",
                              "decode-reencode"])
def test_repair_checks_every_given_shard_first(build, failed):
    """Before either path runs, repair refuses a shard given under another
    node's index and a shard that does not fit the code: too few symbols,
    or symbols one coefficient short (as of a field of degree m - 1), on
    each repair path."""
    code = build()
    shards = code.encode(random_message(code, 21))
    available = {s.index: s for s in shards if s.index != failed}
    a, b = sorted(available)[:2]
    swapped = {**available, a: shards[b], b: shards[a]}
    short = Shard(a, shards[a].role, shards[a].payload[:-1])
    narrow = Shard(a, shards[a].role, shards[a].payload[:, :-1])
    alpha, m = code.alpha, code.field.m
    for given, text in (
            (swapped, f"shard {b} is given as node {a}"),
            ({**available, a: short},
             f"shard {a} with payload shape ({alpha - 1}, {m}) does not fit "
             f"n={code.n_nodes} nodes of alpha x m = {alpha} x {m}"),
            ({**available, a: narrow},
             f"shard {a} with payload shape ({alpha}, {m - 1}) does not fit "
             f"n={code.n_nodes} nodes of alpha x m = {alpha} x {m}")):
        with pytest.raises(ParameterError) as err:
            code.repair(failed, given)
        assert str(err.value) == text


def test_repair_unrepairable_raises():
    code = desk_c1()
    msg = random_message(code, 12)
    originals = {s.index: s for s in code.encode(msg)}
    available = {i: originals[i] for i in (3, 4, 5)}  # rank 3 < 5
    with pytest.raises(RepairError):
        code.repair(0, available)


def test_repair_chain_then_decode():
    """Sequential failure/repair cycles never disturb decodability."""
    code = desk_c1()
    msg = random_message(code, 13)
    originals = {s.index: s for s in code.encode(msg)}
    rng = random.Random(99)
    for _ in range(5):
        current = dict(originals)
        for _ in range(code.dmin_bound - 1):
            failed = rng.randrange(code.n_nodes)
            available = {i: s for i, s in current.items() if i != failed}
            shard, _ = code.repair(failed, available)
            assert shard == originals[failed]
            current[failed] = shard
        keep = rng.sample(range(code.n_nodes), code.decode_threshold)
        assert code.decode(current[i] for i in keep) == tuple(msg)


def test_fr_local_composition():
    """The repetition-layer local code slots into the same pipeline."""
    code = all_symbol_code(2, FrCode(fano_plane(), 5, 7), 10)
    assert (code.n_nodes, code.field.m, code.dmin_bound) == (14, 10, 6)
    msg = random_message(code, 14)
    shards = code.encode(msg)
    keep = [0, 1, 8, 9, 10, 11, 12, 13, 2]
    assert code.decode(shards[i] for i in keep) == tuple(msg)
    originals = {s.index: s for s in shards}
    for failed in (0, 7, 13):
        available = {i: s for i, s in originals.items() if i != failed}
        shard, metrics = code.repair(failed, available)
        assert shard == originals[failed]
        assert metrics["path"] == "local-transfer"
        assert metrics["downloaded_symbols"] == 3
        assert metrics["arithmetic_ops"] == 0


class VandermondeLocal:
    """A [5,3] Reed-Solomon local code over F_7 (alpha = 1) with only what
    encode, decode and the certifiers read: it has no in-group repair."""

    n_nodes, k_message, alpha, q = 5, 3, 1, 7

    def generator_matrix(self):
        return np.array([[pow(x, i, self.q) for x in range(self.n_nodes)]
                         for i in range(self.k_message)], dtype=np.int64)

    def profile(self):
        return (1,) * self.k_message + (0,) * (self.n_nodes - self.k_message)


def test_local_code_without_in_group_repair():
    """Any F_q-linear local code composes, its profile a plain tuple: the
    [5,3] Vandermonde bank at t=2, K=5 builds, decodes, certifies d_min =
    bound = 4 and passes URA, and its local nodes are repaired on the
    decode path, which names the missing in-group repair."""
    code = all_symbol_code(2, VandermondeLocal(), 5)
    msg = random_message(code, 24)
    shards = {s.index: s for s in code.encode(msg)}
    assert code.decode(shards[i] for i in (0, 1, 2, 5, 6, 7, 8)) == tuple(msg)
    assert code.measure_dmin().value == code.dmin_bound == 4
    assert code.ura_report()["pass"]
    for failed in (0, 7):
        shard, metrics = code.repair(
            failed, {i: s for i, s in shards.items() if i != failed})
        assert shard == shards[failed]
        assert metrics["path"] == "decode-reencode"
        assert metrics["local_path_error"] == (
            "the local code has no repair_in_group")
    report = cli._verify_repair_all(SimConfig(), code)
    assert report["pass"] and report["cases"] == 10 * (comb(9, 7) + 1)


def repair_records(code) -> list[str]:
    """One line per repair: the failed node, the given shards and the
    metrics record as JSON, or the :class:`RepairError` text.  Each failed
    node is given every subset of its group's other members, with and
    without all the other nodes, so the MBR codes meet every helper set
    and every degraded group."""
    rng = random.Random(23)
    message = [code.field.random_element(rng) for _ in range(code.file_dim)]
    shards = {s.index: s for s in code.encode(message)}
    lines = []
    for failed in range(code.n_nodes):
        role = code.role_of(failed)
        group = code.group_members(role[1]) if role[0] == "local" else []
        mates = [i for i in group if i != failed]
        rest = [i for i in shards if i != failed and i not in mates]
        for size in range(len(mates) + 1):
            for kept in combinations(mates, size):
                for others in (rest, []):
                    given = sorted((*kept, *others))
                    try:
                        shard, metrics = code.repair(
                            failed, {i: shards[i] for i in given})
                        assert shard == shards[failed]
                        out = json.dumps(metrics)
                    except RepairError as exc:
                        out = f"RepairError: {exc}"
                    lines.append(f"{failed} {given} {out}")
    return lines


EXTINCT = {f"symbol {s} is extinct: all holders unavailable" for s in range(7)}
SURVIVORS = {f"{s} survivors, repair degree requires 2" for s in (0, 1)}

#: sha256 of :func:`repair_records` and every local-path failure text in
#: it.  C2 is the mbr-stripes code: both default to m = 8.
FROZEN_REPAIR_RECORDS = {
    "C1": (desk_c1, 48, "dde4817e8aa2bd490f68d3f6d77fa73d"
                        "c23263922499f5bd3f74bc360f83ed9c", SURVIVORS),
    "C2": (desk_c2, 50, "9b1d8fe831afecaaf304ad89b15249da"
                        "56a80fc470d666541ed0954b0c716332",
           SURVIVORS | {"global nodes have no in-group path"}),
    "fano": (fano_code, 1792, "76d7b99784fe697ed023e4092e474e4f"
                              "7755d8e3f3be71e9e80ba44e1928096e", EXTINCT),
}


@pytest.mark.parametrize("name", sorted(FROZEN_REPAIR_RECORDS))
def test_repair_records_are_frozen(name):
    """Every repair's metrics record and every repair error text, on every
    failed node with every subset of its group mates, is byte for byte
    the recorded one."""
    build, count, digest, texts = FROZEN_REPAIR_RECORDS[name]
    lines = repair_records(build())
    failures = {text for line in lines for text in re.findall(
        r'local path failed \((.*?)\); |"local_path_error": "(.*?)"', line)}
    assert len(lines) == count
    assert {t for pair in failures for t in pair if t} == texts
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == digest


def test_ura_report_passes_for_true_profile():
    report = desk_c1().ura_report()
    assert report["pass"] is True
    assert report["subsets_checked"] == 64


def test_rank_accumulation_boundary_cross_group():
    """Why the bank certification is block-wise: a pair of columns from
    different groups accumulates 2*a_1 fresh rank, strictly more than the
    same-group pair's partial sum.  Uniformity proper holds per group; the
    distance bound only needs the per-size minimum, which the concentrated
    (same-group) subsets attain."""
    code = desk_c1()
    basic = code.mixed_generator
    same = [0, 1, 2, 3]        # nodes 0 and 1, both in group 0
    cross = [0, 1, 6, 7]       # node 0 (group 0) and node 3 (group 1)
    assert rank_mod_q(basic[:, same], 3) == 3 == code.bound_ctx.partial_sum(2)
    assert rank_mod_q(basic[:, cross], 3) == 4


def test_ura_report_negative_control():
    report = desk_c1().ura_report(claimed_profile=[2, 2, 0])
    assert report["pass"] is False
    assert report["witness"] is not None


@pytest.mark.parametrize("claim", [[-1, 2, 2], [2, 3, 0], [10 ** 29, 2, 0],
                                   [-10 ** 29, 2, 2]])
def test_ura_report_refuses_entries_outside_zero_to_alpha(claim):
    """A node adds between 0 and alpha to the rank; 30-digit entries used to
    overflow the int64 prefix-sum table."""
    with pytest.raises(ParameterError, match="0..alpha=2"):
        desk_c1().ura_report(claimed_profile=claim)


def test_ura_report_refuses_non_integral_entries():
    """A claimed 2.9 used to be truncated to 2, and the claim then passed;
    numpy integers are still integers."""
    with pytest.raises(ParameterError, match="must be integers"):
        desk_c1().ura_report(claimed_profile=[2.9, 1, 0])
    with pytest.raises(ParameterError, match="must be integers"):
        desk_c1().ura_report(claimed_profile=[2.0, 1, 0])
    report = desk_c1().ura_report(claimed_profile=np.array([2, 1, 0]))
    assert report["pass"] is True and report["claimed_profile"] == [2, 1, 0]
    assert all(type(v) is int for v in report["claimed_profile"])


def test_ura_report_cap():
    """ura_report's one limit is the table budget: C1's 2^6 subsets are
    certified, and a 23-node group's 2^23 masks are refused."""
    assert desk_c1().ura_report()["subsets_checked"] == 64
    with pytest.raises(ParameterError, match=r"^subset table of 2\^23 "):
        all_symbol_code(1, MbrCode(23, 1, 1, 23), 1).ura_report()
