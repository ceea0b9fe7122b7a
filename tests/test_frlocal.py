"""Block designs and the fractional-repetition codes built on them."""

import dataclasses
import json
import random
from itertools import combinations

import numpy as np
import pytest

from lmbr import (
    DesignError,
    FrCode,
    InconsistentDataError,
    InsufficientRankError,
    ParameterError,
    RepairError,
    all_symbol_code,
    fano_plane,
    field,
    infer_design,
    load_design,
    verify_design,
)
from lmbr.cli import main
from lmbr.frlocal import FANO_BLOCKS
from lmbr.galois import SIZE_BUDGET, rank_mod_q
from shard_helpers import make_shard, parsed_view, payload


def count_blocks_through(blocks, points):
    return sum(1 for b in blocks if set(points) <= set(b))


def reference_encode(code, message):
    """Reed-Solomon symbols in field arithmetic, then replication per the
    design's incidence."""
    symbols = []
    for j in range(code.design.b):
        acc = message[0].field.zero()
        for l in range(code.k_message):
            acc = acc + pow(j, l, code.q) * message[l]
        symbols.append(acc)
    return [tuple(symbols[j] for j in syms) for syms in code.node_symbols]


def fano_one_group_stripe(seed):
    """The Fano code alone under a pass-through pre-code (K = k_message), so
    that LrcCode.decode recovers the local data from the group's nodes."""
    lrc = all_symbol_code(1, FrCode(fano_plane(), 5, 7), 5)
    rng = random.Random(seed)
    msg = tuple(lrc.field.random_element(rng) for _ in range(5))
    return lrc, msg, lrc.encode(msg)


def test_fano_is_a_valid_2_7_3_1_design():
    design = fano_plane()
    assert (design.strength, design.n_points, design.block_size,
            design.index) == (2, 7, 3, 1)
    # The block size is read off the blocks, not stored beside them.
    assert "block_size" not in [f.name for f in dataclasses.fields(design)]
    assert design.b == 7
    for pair in combinations(range(1, 8), 2):
        assert count_blocks_through(design.blocks, pair) == 1


def test_complete_design_verifies_for_every_strength():
    blocks = list(combinations(range(1, 6), 3))  # all 3-subsets of 5 points
    for t in (1, 2, 3):
        lam = count_blocks_through(blocks, tuple(range(1, t + 1)))
        design = verify_design(5, blocks, t, lam)
        assert design.b == 10


def test_missing_block_rejected_with_witness():
    broken = FANO_BLOCKS[1:]
    with pytest.raises(DesignError) as err:
        verify_design(7, broken, 2, 1)
    assert err.value.witness is not None
    # The witness pair must come from the removed block {1,2,3}.
    assert set(err.value.witness) <= {1, 2, 3}


def test_malformed_blocks_rejected():
    with pytest.raises(DesignError):
        verify_design(7, [(1, 2, 2)], 2, 1)
    with pytest.raises(DesignError):
        verify_design(7, [(1, 2, 9)], 2, 1)
    with pytest.raises(DesignError) as err:
        verify_design(7, [(1, 2, 3), (1, 2)], 2, 1)
    assert str(err.value) == "block (1, 2) has size 2, expected 3"
    assert err.value.witness == (1, 2)


def test_lambda_s_fano_frozen():
    design = fano_plane()
    assert design.lambda_s(0) == 7
    assert design.lambda_s(1) == 3
    assert design.lambda_s(2) == 1
    with pytest.raises(ParameterError):
        design.lambda_s(3)


def test_lambda_s_complete_design():
    blocks = list(combinations(range(1, 5), 3))  # complete 2-(4,3,2) design
    design = verify_design(4, blocks, 2, 2)
    assert design.lambda_s(1) == 3  # lambda * C(3,1)/C(2,1) = 2*3/2
    for point in range(1, 5):
        assert count_blocks_through(blocks, (point,)) == 3


def test_infer_design_finds_maximal_strength():
    design = infer_design(7, FANO_BLOCKS)
    assert (design.strength, design.index) == (2, 1)


def test_load_design_file(tmp_path):
    path = tmp_path / "fano.txt"
    lines = ["# the seven lines"] + [
        " ".join(str(p) for p in blk) for blk in FANO_BLOCKS
    ]
    path.write_text("\n".join(lines) + "\n")
    design = load_design(path)
    assert design.blocks == fano_plane().blocks


def test_fr_recovery_thresholds():
    fano = fano_plane()
    assert FrCode(fano, 5, 7).k_rec == 2      # 3 < 5 <= 3+3-1
    assert FrCode(fano, 3, 7).k_rec == 1
    with pytest.raises(ParameterError):
        FrCode(fano, 6, 7)                     # max 2-node union is 5
    with pytest.raises(ParameterError):
        FrCode(fano, 5, 5)                     # q < b
    with pytest.raises(ParameterError):
        FrCode(fano, 5, 8)                     # q not prime


def test_fr_uniform_unions_fano():
    code = FrCode(fano_plane(), 5, 7)
    assert code.uniform_union(1) == 3
    assert code.uniform_union(2) == 5
    for s in (1, 2):
        for subset in combinations(range(7), s):
            union = set()
            for i in subset:
                union |= set(code.node_symbols[i])
            assert len(union) == code.uniform_union(s)


def test_fr_encode_shape_and_replication():
    code = FrCode(fano_plane(), 5, 7)
    F = field(7, 10)
    rng = random.Random(0)
    msg = [F.random_element(rng) for _ in range(5)]
    nodes = code.encode(msg)
    assert len(nodes) == 7
    assert all(len(v) == 3 for v in nodes)
    holders = {j: 0 for j in range(7)}
    for syms in code.node_symbols:
        for j in syms:
            holders[j] += 1
    assert all(count == 3 for count in holders.values())  # block size w


def test_fr_zero_message():
    code = FrCode(fano_plane(), 5, 7)
    F = field(7, 10)
    nodes = code.encode([F.zero()] * 5)
    assert all(s.is_zero() for vec in nodes for s in vec)


def test_fr_any_two_nodes_reconstruct():
    """Any k_rec = 2 nodes give back the data through LrcCode.decode."""
    lrc, msg, shards = fano_one_group_stripe(seed=1)
    for pair in combinations(range(7), 2):
        assert lrc.decode(shards[i] for i in pair) == msg
    with pytest.raises(InsufficientRankError):
        lrc.decode(shards[:1])


def test_fr_reconstruct_detects_replica_mismatch():
    lrc, msg, shards = fano_one_group_stripe(seed=2)
    bad = shards[1].payload.copy()
    bad[0, 0] = (bad[0, 0] + 1) % lrc.field.q
    shards[1] = make_shard(1, shards[1].role, bad)
    with pytest.raises(InconsistentDataError):
        lrc.decode(shards[:3])


def test_fr_repair_node0_uses_expected_helpers():
    """Node 1 (1-based) holds blocks {1,2,3}; table helpers are 2, 4, 6."""
    code = FrCode(fano_plane(), 5, 7)
    F = field(7, 10)
    rng = random.Random(3)
    msg = [F.random_element(rng) for _ in range(5)]
    nodes = code.encode(msg)
    available = {i: nodes[i] for i in range(1, 7)}
    vec, assignment = code.repair(0, available)
    assert vec == nodes[0]
    assert len(assignment) == code.alpha == 3
    # 0-based: symbols (0,1,2) come from nodes (1,3,5).
    assert assignment == {0: 1, 1: 3, 2: 5}


def test_fr_repair_every_single_failure():
    code = FrCode(fano_plane(), 5, 7)
    F = field(7, 10)
    rng = random.Random(4)
    msg = [F.random_element(rng) for _ in range(5)]
    nodes = code.encode(msg)
    for failed in range(7):
        available = {i: nodes[i] for i in range(7) if i != failed}
        vec, assignment = code.repair(failed, available)
        assert vec == nodes[failed]
        # Repair is verbatim transfer: the rebuilt entries ARE the copies.
        for pos, sym in enumerate(code.node_symbols[failed]):
            helper = assignment[sym]
            hpos = code.node_symbols[helper].index(sym)
            assert vec[pos] is available[helper][hpos]


def test_fr_repair_survives_any_double_failure():
    """With block size 3, one extra failure never extinguishes a symbol."""
    code = FrCode(fano_plane(), 5, 7)
    F = field(7, 10)
    rng = random.Random(5)
    msg = [F.random_element(rng) for _ in range(5)]
    nodes = code.encode(msg)
    for f1, f2 in combinations(range(7), 2):
        available = {i: nodes[i] for i in range(7) if i not in (f1, f2)}
        vec, _ = code.repair(f1, available)
        assert vec == nodes[f1]
        restored = dict(available)
        restored[f1] = vec
        vec2, _ = code.repair(f2, restored)
        assert vec2 == nodes[f2]


def test_fr_transfer_scheme_is_right_for_every_message():
    """Each of Fano's 7 transfer repairs, run on the generator's columns
    as payloads, copies for every lost symbol a column equal to the failed
    node's: the copy is right for every message."""
    code = FrCode(fano_plane(), 5, 7)
    gen = code.generator_matrix()
    columns = [tuple(tuple(gen[:, j * code.alpha + c].tolist())
                     for c in range(code.alpha)) for j in range(7)]
    for failed in range(7):
        copied, _ = code.repair(
            failed, {j: columns[j] for j in range(7) if j != failed})
        assert copied == columns[failed]


def test_fr_repair_in_group_records_the_transfer():
    """In-group repair offers one helper set, every survivor, copies from
    payload arrays (int64, or a parsed uint16 view), returns the node as a
    read-only int64 alpha x m array and records the holders that served the
    copies, alpha symbols and no arithmetic."""
    code = FrCode(fano_plane(), 5, 7)
    F = field(7, 10)
    rng = random.Random(8)
    nodes = [payload(node) for node in
             code.encode([F.random_element(rng) for _ in range(5)])]
    assert code.helper_sets([1, 2, 3, 4, 5, 6]) == [(1, 2, 3, 4, 5, 6)]
    for as_stored in (lambda a: a, parsed_view):
        rebuilt, record = code.repair_in_group(
            0, {i: as_stored(nodes[i]) for i in range(1, 7)})
        assert rebuilt.dtype == np.int64 and not rebuilt.flags.writeable
        assert rebuilt.shape == (code.alpha, F.m)
        assert np.array_equal(rebuilt, nodes[0])
        assert record == {"path": "local-transfer", "helpers": [1, 3, 5],
                          "downloaded_symbols": 3, "arithmetic_ops": 0}


def test_fr_repair_symbol_extinct():
    code = FrCode(fano_plane(), 5, 7)
    F = field(7, 10)
    rng = random.Random(6)
    msg = [F.random_element(rng) for _ in range(5)]
    nodes = code.encode(msg)
    # Block 0 is {1,2,3}: removing nodes 0,1,2 extinguishes symbol 0.
    available = {i: nodes[i] for i in range(3, 7)}
    with pytest.raises(RepairError):
        code.repair(0, available)


def test_fr_repair_refuses_helper_index_outside_the_code():
    """A helper index outside 0..n_points-1 names no node: refused with
    the index, not read as the last node's symbols."""
    code = FrCode(fano_plane(), 5, 7)
    F = field(7, 10)
    rng = random.Random(6)
    nodes = code.encode([F.random_element(rng) for _ in range(5)])
    for index in (-1, 7):
        available = {i: nodes[i] for i in range(1, 7)}
        available[index] = nodes[6]
        with pytest.raises(ParameterError,
                           match=rf"^helper index {index} out of range$"):
            code.repair(0, available)


def table_then_scan_helper(code, failed, sym, available):
    """The holder rule with a precomputed table: the lowest-index other
    holder of the symbol if it is available, else the lowest-index
    available holder, else None."""
    n = code.design.n_points
    preferred = min(h for h in range(n)
                    if h != failed and sym in code.node_symbols[h])
    if preferred in available:
        return preferred
    holders = [h for h in sorted(available) if sym in code.node_symbols[h]]
    return holders[0] if holders else None


def test_fr_repair_matches_table_then_scan_on_every_survivor_set():
    """Every failed Fano node against every subset of the other six: repair
    copies verbatim from the helpers the table-then-scan rule picks, and
    raises RepairError exactly when some lost symbol has no holder left."""
    code = FrCode(fano_plane(), 5, 7)
    F = field(7, 10)
    rng = random.Random(8)
    nodes = code.encode([F.random_element(rng) for _ in range(5)])
    cases = raised = 0
    for failed in range(7):
        others = [i for i in range(7) if i != failed]
        for size in range(7):
            for subset in combinations(others, size):
                available = {i: nodes[i] for i in subset}
                expected = {
                    sym: table_then_scan_helper(code, failed, sym, available)
                    for sym in code.node_symbols[failed]
                }
                cases += 1
                if None in expected.values():
                    raised += 1
                    with pytest.raises(RepairError):
                        code.repair(failed, available)
                    continue
                vec, assignment = code.repair(failed, available)
                assert assignment == expected
                assert vec == nodes[failed]
                for pos, sym in enumerate(code.node_symbols[failed]):
                    helper = expected[sym]
                    hpos = code.node_symbols[helper].index(sym)
                    assert vec[pos] is available[helper][hpos]
    assert cases == 7 * 64
    assert 0 < raised < cases


def test_fr_profile_frozen_and_capped_uniformity():
    assert tuple(FrCode(fano_plane(), 5, 7).profile()) == (3, 2, 0, 0, 0, 0, 0)
    assert tuple(FrCode(fano_plane(), 3, 7).profile()) == (3, 0, 0, 0, 0, 0, 0)


def reference_profile(code):
    """The exhaustive capped-union sweep: every node subset's union, capped
    at k_message, must expose the rank predicted from the uniform unions."""
    n = code.design.n_points
    values = []
    prev = 0
    for i in range(1, n + 1):
        if i <= code.k_rec:
            cur = min(code.uniform_union(i), code.k_message)
        else:
            cur = code.k_message
        values.append(cur - prev)
        prev = cur
    predicted = [0]
    for v in values:
        predicted.append(predicted[-1] + v)
    sets = [frozenset(s) for s in code.node_symbols]
    for size in range(1, n + 1):
        for subset in combinations(range(n), size):
            union = frozenset().union(*(sets[i] for i in subset))
            measured = min(len(union), code.k_message)
            if measured != predicted[size]:
                raise DesignError(
                    f"rank accumulation is not uniform: nodes {subset} "
                    f"expose {measured}, expected {predicted[size]}",
                    witness=subset,
                )
    return tuple(values)


def affine_plane_3():
    """The twelve lines of AG(2,3), a 2-(9,3,1) design; point (x, y) of
    Z_3^2 is 3x + y + 1."""
    lines = [[(x, (a * x + c) % 3) for x in range(3)]
             for a in range(3) for c in range(3)]
    lines += [[(c, y) for y in range(3)] for c in range(3)]
    return verify_design(9, [[3 * x + y + 1 for x, y in line] for line in lines],
                         strength=2, index=1)


def ring_design(n):
    """The edges (i, i % n + 1) of an n-cycle: a 1-(n, 2, 2) design."""
    return verify_design(n, [(i, i % n + 1) for i in range(1, n + 1)],
                         strength=1, index=2)


#: (name, design, prime q >= b, every k_fr up to the largest union of
#: strength-many nodes).
FR_DESIGNS = [
    ("fano", fano_plane(), 7, range(1, 6)),
    ("complete-2-4-3-2",
     verify_design(4, list(combinations(range(1, 5), 3)), 2, 2), 5, range(1, 5)),
    ("ag23", affine_plane_3(), 13, range(1, 8)),
] + [(f"ring{n}", ring_design(n), q, range(1, 3))
     for n, q in zip(range(4, 13), (5, 5, 7, 7, 11, 11, 11, 11, 13))]


@pytest.mark.parametrize("design,q,k_fr", [
    pytest.param(design, q, k, id=f"{name}-k{k}")
    for name, design, q, ks in FR_DESIGNS for k in ks
])
def test_fr_profile_matches_the_exhaustive_sweep(design, q, k_fr):
    code = FrCode(design, k_fr, q)
    assert tuple(code.profile()) == tuple(reference_profile(code))


@pytest.mark.parametrize("design,q,k_fr,t", [
    pytest.param(design, q, k, t, id=f"{name}-k{k}-t{t}")
    for name, design, q, ks in FR_DESIGNS for k in ks for t in (1, 2)
    # t = 2 wherever q^(2 k_fr) fits the field budget.
    if t == 1 or q ** (2 * k) <= SIZE_BUDGET
])
def test_fr_profile_passes_ura(design, q, k_fr, t):
    """The rank certifier, working on the real generator, accepts the
    profile as the default claim."""
    code = all_symbol_code(t, FrCode(design, k_fr, q), t * k_fr)
    report = code.ura_report()
    assert report["pass"] is True and report["witness"] is None
    assert report["claimed_profile"] == list(code.local.profile())


def test_fr_profile_of_a_23_point_design(tmp_path, capsys):
    """2^23 node subsets are no obstacle: the profile is read off the
    design's lambda_s, and the CLI builds the code."""
    ring = ring_design(23)
    assert tuple(FrCode(ring, 2, 23).profile()) == (2,) + (0,) * 22
    path = tmp_path / "ring23"
    path.write_text("".join(f"{a} {b}\n" for a, b in ring.blocks))
    rc = main(["make", "--construction", "fr-local", "--design-file", str(path),
               "--kfr", "2", "--q", "23", "--t", "1", "--K", "2",
               "--out-dir", str(tmp_path)])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert (out["dmin_bound"], out["file_size_bound"]) == (23, 2)


def test_fr_raw_unions_not_uniform_but_capped_ranks_are():
    """3-node unions of the Fano incidence are 6 or 7, yet capped at the
    message dimension every subset of equal size exposes equal rank."""
    code = FrCode(fano_plane(), 5, 7)
    sizes = set()
    for subset in combinations(range(7), 3):
        union = set()
        for i in subset:
            union |= set(code.node_symbols[i])
        sizes.add(len(union))
    assert sizes == {6, 7}
    gen = code.generator_matrix()
    prefix = [0]
    for a in code.profile():
        prefix.append(prefix[-1] + a)
    for size in range(8):
        for subset in combinations(range(7), size):
            cols = [i * 3 + c for i in subset for c in range(3)]
            got = rank_mod_q(gen[:, cols], 7) if cols else 0
            assert got == prefix[size]


def test_fr_generator_matches_encode_on_units():
    """Each generator row is the reference encoding of a unit message."""
    code = FrCode(fano_plane(), 5, 7)
    F = field(7, 1)
    gen = code.generator_matrix()
    for l in range(5):
        unit = [F.one() if i == l else F.zero() for i in range(5)]
        flat = [s.coeffs[0] for vec in reference_encode(code, unit) for s in vec]
        assert flat == list(gen[l])


def test_fr_encode_matches_reference():
    code = FrCode(fano_plane(), 5, 7)
    F = field(7, 10)
    rng = random.Random(7)
    for _ in range(5):
        msg = [F.random_element(rng) for _ in range(5)]
        assert code.encode(msg) == reference_encode(code, msg)


@pytest.mark.parametrize("length", [2, 4])
def test_fr_repair_refuses_a_payload_that_is_not_alpha_long(length):
    """Every available payload holds alpha = 3 symbols: a short or long
    one is refused with the helper named, before anything is copied."""
    code = FrCode(fano_plane(), 5, 7)
    F = field(7, 10)
    rng = random.Random(7)
    nodes = code.encode([F.random_element(rng) for _ in range(5)])
    available = {i: nodes[i] for i in range(1, 7)}
    available[3] = (nodes[3] * 2)[:length]
    with pytest.raises(ParameterError,
                       match=rf"^helper 3 stores {length} symbols, "
                             rf"expected alpha=3$"):
        code.repair(0, available)
