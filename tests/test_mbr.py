"""Product-matrix regenerating local codes: encode, data collection, repair,
and the uniform rank accumulation they provide."""

import random
import re
from itertools import combinations, permutations
from math import comb, perm
from unittest import mock

import numpy as np
import pytest

from lmbr import (
    InconsistentDataError,
    InsufficientRankError,
    MbrCode,
    ParameterError,
    RepairError,
    all_symbol_code,
    field,
    galois,
)
from lmbr.galois import apply_int_matrix, inv_mod_q, rank_mod_q
from shard_helpers import elements, make_shard, parsed_view, payload

DESK_CODES = [
    (3, 2, 2, 3),   # alpha 2, k_message 3
    (5, 3, 4, 7),   # alpha 4, k_message 9
]


def make_message(code, ext_degree, seed):
    F = field(code.q, ext_degree)
    rng = random.Random(seed)
    return F, [F.random_element(rng) for _ in range(code.k_message)]


def message_matrix(code, message, zero):
    """M = [[S, T], [T^t, 0]]: S symmetric from its upper triangle and T,
    both row-major, as the module docstring lays them out."""
    m = [[zero] * code.d for _ in range(code.d)]
    symbols = iter(message)
    for i in range(code.r):
        for j in range(i, code.r):
            m[i][j] = m[j][i] = next(symbols)
    for i in range(code.r):
        for j in range(code.r, code.d):
            m[i][j] = m[j][i] = next(symbols)
    return m


def reference_encode(code, message):
    """Rows of Psi . M, one field multiply-add at a time."""
    zero = message[0].field.zero()
    m = message_matrix(code, message, zero)
    nodes = []
    for i in range(code.n_local):
        vec = []
        for c in range(code.d):
            acc = zero
            for k in range(code.d):
                acc = acc + int(code.psi[i, k]) * m[k][c]
            vec.append(acc)
        nodes.append(tuple(vec))
    return nodes


def reference_helper_symbol(code, stored, failed):
    """Inner product of a stored vector with the failed node's Psi row."""
    acc = stored[0].field.zero()
    for c in range(code.d):
        acc = acc + int(code.psi[failed, c]) * stored[c]
    return acc


def one_group_stripe(code, seed):
    """The local code alone under a pass-through pre-code (K = k_message), so
    that LrcCode.decode recovers the local data from the group's nodes."""
    lrc = all_symbol_code(1, code, code.k_message)
    rng = random.Random(seed)
    msg = tuple(lrc.field.random_element(rng) for _ in range(lrc.file_dim))
    return lrc, msg, lrc.encode(msg)


def test_parameter_arithmetic_frozen():
    code = MbrCode(3, 2, 2, 3)
    assert (code.alpha, code.beta, code.k_message) == (2, 1, 3)
    big = MbrCode(5, 3, 4, 7)
    assert (big.alpha, big.k_message) == (4, 9)


def test_parameter_violations():
    with pytest.raises(ParameterError):
        MbrCode(3, 2, 1, 3)      # d < r
    with pytest.raises(ParameterError):
        MbrCode(3, 2, 3, 5)      # d > n_local - 1
    with pytest.raises(ParameterError):
        MbrCode(3, 2, 2, 2)      # q < n_local
    with pytest.raises(ParameterError):
        MbrCode(3, 2, 2, 4)      # composite q


def test_zero_message_encodes_to_zero():
    code = MbrCode(3, 2, 2, 3)
    F = field(3, 6)
    nodes = code.encode([F.zero()] * 3)
    assert all(sym.is_zero() for vec in nodes for sym in vec)


def test_small_code_matches_hand_formula():
    """(3,2,2): M = [[m1,m2],[m2,m3]], node i = (m1 + i*m2, m2 + i*m3)."""
    code = MbrCode(3, 2, 2, 3)
    F, msg = make_message(code, 6, seed=0)
    m1, m2, m3 = msg
    nodes = code.encode(msg)
    for i in range(3):
        assert nodes[i] == (m1 + i * m2, m2 + i * m3)


def test_generator_matches_encode_on_units():
    """Each generator row is the reference encoding of a unit message."""
    for params in DESK_CODES:
        code = MbrCode(*params)
        F = field(code.q, 1)
        gen = code.generator_matrix()
        for l in range(code.k_message):
            unit = [F.one() if i == l else F.zero()
                    for i in range(code.k_message)]
            flat = [sym.coeffs[0] for vec in reference_encode(code, unit)
                    for sym in vec]
            assert flat == list(gen[l])


@pytest.mark.parametrize("params", DESK_CODES)
def test_encode_and_helper_symbol_match_reference(params):
    """The generator path equals Psi . M computed in field arithmetic, on
    extension-field messages, and so do the helper symbols."""
    code = MbrCode(*params)
    for seed in range(5):
        F, msg = make_message(code, 6, seed=seed)
        nodes = code.encode(msg)
        assert nodes == reference_encode(code, msg)
        for failed in range(code.n_local):
            for h in range(code.n_local):
                assert (code.helper_symbol(nodes[h], failed)
                        == reference_helper_symbol(code, nodes[h], failed))


@pytest.mark.parametrize("params", [(4, 2, 3), (5, 3, 4)])
def test_repair_exact_where_int64_products_overflow(params):
    """q = 3037000493 is the largest prime that eliminates in int64; a sum
    of d >= 2 products near (q-1)^2 overflows int64, so repair must not
    take the int64 path."""
    q = 3037000493
    code = MbrCode(*params, q)
    F = field(q, 1)
    helpers = list(range(1, code.d + 1))
    top = F.element([q - 1])
    got = code.repair(0, [(h, top) for h in helpers])
    inv = inv_mod_q(code.psi[helpers], q)
    want = tuple(F.element([sum(int(v) * (q - 1) for v in row) % q])
                 for row in inv)
    assert got == want
    wrapped = (inv @ np.full(code.d, q - 1, dtype=np.int64)) % q
    assert [int(v) for v in wrapped] != [e.coeffs[0] for e in want]


@pytest.mark.parametrize("params", [(3, 2, 2, 3), (4, 2, 3, 5), (5, 3, 4, 7)])
def test_vandermonde_rows_independent_exhaustively(params):
    """Any d rows of Psi, and any r rows of its first r columns, are
    invertible: the property the constructor's single rank check relies on,
    checked here on every row set."""
    code = MbrCode(*params)
    for rows in combinations(range(code.n_local), code.d):
        assert rank_mod_q(code.psi[list(rows)], code.q) == code.d
    for rows in combinations(range(code.n_local), code.r):
        assert rank_mod_q(code.psi[list(rows), :code.r], code.q) == code.r


def test_generator_full_rank():
    for params in DESK_CODES:
        code = MbrCode(*params)
        assert rank_mod_q(code.generator_matrix(), code.q) == code.k_message


@pytest.mark.parametrize("params", DESK_CODES)
def test_reconstruct_from_every_r_subset(params):
    """Any r nodes of a group give back its data through LrcCode.decode."""
    code = MbrCode(*params)
    lrc, msg, shards = one_group_stripe(code, seed=1)
    for subset in combinations(range(code.n_local), code.r):
        assert lrc.decode(shards[i] for i in subset) == msg


def test_reconstruct_superset_and_errors():
    code = MbrCode(3, 2, 2, 3)
    lrc, msg, shards = one_group_stripe(code, seed=2)
    assert lrc.decode(shards) == msg
    with pytest.raises(InsufficientRankError):
        lrc.decode(shards[:1])


def test_reconstruct_detects_corrupt_surplus():
    code = MbrCode(3, 2, 2, 3)
    lrc, msg, shards = one_group_stripe(code, seed=3)
    bad = shards[2].payload.copy()
    bad[0, 0] = (bad[0, 0] + 1) % lrc.field.q
    shards[2] = make_shard(2, shards[2].role, bad)
    with pytest.raises(InconsistentDataError):
        lrc.decode(shards)


@pytest.mark.parametrize("params", DESK_CODES)
def test_repair_exhaustive_all_helper_sets(params):
    """Every failure, every admissible d-helper set in every order: exact
    rebuild from exactly d transmitted symbols, equal to what the inverse
    of Psi_H taken in that order gives.  Psi_H is inverted once per helper
    set, so repeating every repair makes no elimination at all."""
    code = MbrCode(*params)
    F, msg = make_message(code, code.k_message, seed=4)
    nodes = code.encode(msg)
    cases = []
    for failed in range(code.n_local):
        others = [i for i in range(code.n_local) if i != failed]
        for helpers in combinations(others, code.d):
            for order in permutations(helpers):
                cases.append((failed, [(h, code.helper_symbol(nodes[h], failed))
                                       for h in order]))
    with mock.patch.object(galois, "_row_reduce",
                           wraps=galois._row_reduce) as eliminations:
        rebuilt = [code.repair(failed, symbols) for failed, symbols in cases]
    assert eliminations.call_count == comb(code.n_local, code.d)
    for (failed, symbols), got in zip(cases, rebuilt):
        assert len(symbols) == code.d * code.beta
        assert got == nodes[failed]
        inv = inv_mod_q(code.psi[[h for h, _ in symbols]], code.q)
        assert got == tuple(apply_int_matrix(inv, [s for _, s in symbols], F))
    with mock.patch.object(galois, "_row_reduce", side_effect=AssertionError):
        for failed, symbols in cases:
            assert code.repair(failed, symbols) == nodes[failed]


@pytest.mark.parametrize("params", [(3, 2, 2, 3), (4, 2, 3, 5), (5, 3, 4, 7)])
def test_repair_scheme_is_right_for_every_message(params):
    """For every failed node f and ordered helper set H, each helper h
    sends psi_f . G_h^T and repair applies inv(Psi_H), where G_j is node
    j's k_message x alpha block of the generator.  Stacked over H this is
    G_f^T over F_q, so the repair rebuilds node f for every message.  The
    code's own helper_symbol and repair give the same G_f^T on the message
    whose stored scalars have the generator's columns as coefficients."""
    code = MbrCode(*params)
    q, alpha, k = code.q, code.alpha, code.k_message
    blocks = [code.generator_matrix()[:, j * alpha:(j + 1) * alpha].T
              for j in range(code.n_local)]
    F = field(q, k)
    nodes = code.encode([F.element([int(i == l) for i in range(k)])
                         for l in range(k)])
    schemes = 0
    for failed in range(code.n_local):
        others = [j for j in range(code.n_local) if j != failed]
        for helpers in permutations(others, code.d):
            downloads = np.array([code.psi[failed] @ blocks[h] % q
                                  for h in helpers])
            combine = inv_mod_q(code.psi[list(helpers)], q)
            assert (combine @ downloads % q == blocks[failed]).all()
            rebuilt = code.repair(failed, [
                (h, code.helper_symbol(nodes[h], failed)) for h in helpers])
            assert [e.coeffs for e in rebuilt] == [
                tuple(row) for row in blocks[failed].tolist()]
            schemes += 1
    assert schemes == code.n_local * perm(code.n_local - 1, code.d)


def test_repair_in_group_takes_the_first_d_survivors():
    """In-group repair offers every d-set of the survivors, repairs from
    the first d payload arrays it is given (int64, or a parsed uint16
    view), returns the node as a read-only int64 alpha x m array, records
    the helpers by node index and refuses fewer than d."""
    code = MbrCode(5, 3, 4, 7)
    F, msg = make_message(code, 9, seed=6)
    nodes = [payload(node) for node in code.encode(msg)]
    assert list(code.helper_sets([0, 2, 3, 4])) == [(0, 2, 3, 4)]
    assert len(list(code.helper_sets(range(5)))) == 5
    for as_stored in (lambda a: a, parsed_view):
        rebuilt, record = code.repair_in_group(
            1, {h: as_stored(nodes[h]) for h in (4, 3, 2, 0)})
        assert rebuilt.dtype == np.int64 and not rebuilt.flags.writeable
        assert rebuilt.shape == (code.alpha, F.m)
        assert np.array_equal(rebuilt, nodes[1])
        assert record == {"path": "local-regenerating",
                          "helpers": [0, 2, 3, 4], "downloaded_symbols": 4}
    with pytest.raises(RepairError,
                       match="^3 survivors, repair degree requires 4$"):
        code.repair_in_group(1, {h: nodes[h] for h in (0, 2, 3)})


def test_repair_helper_count_enforced():
    code = MbrCode(3, 2, 2, 3)
    F, msg = make_message(code, 6, seed=5)
    nodes = code.encode(msg)
    one_sym = [(2, code.helper_symbol(nodes[2], 0))]
    with pytest.raises(ParameterError):
        code.repair(0, one_sym)
    with pytest.raises(ParameterError):
        code.repair(0, [(0, nodes[0][0]), (2, nodes[2][0])])  # helper == failed


def test_repair_error_texts_hold_with_a_kept_inverse():
    """Each refusal keeps its text, before and after the inverse of the
    helper set {1, 2} is kept."""
    code = MbrCode(3, 2, 2, 3)
    F, msg = make_message(code, 6, seed=5)
    nodes = code.encode(msg)
    sym = {h: code.helper_symbol(nodes[h], 0) for h in (1, 2)}
    refusals = [
        (0, [(1, sym[1])], "repair needs exactly d=2 helpers, got 1"),
        (0, [(1, sym[1]), (1, sym[1])], "duplicate helper index"),
        (0, [(1, sym[1]), (3, sym[2])], "helper index 3 out of range"),
        (0, [(0, sym[1]), (2, sym[2])],
         "helper set must not contain the failed node"),
        (3, [(1, sym[1]), (2, sym[2])], "failed index 3 out of range"),
        (0, [(1, sym[1]), (2, field(3, 2).one())],
         "field mismatch: GF(3^6) vs GF(3^2)"),
    ]
    for _ in range(2):
        for failed, helpers, text in refusals:
            with pytest.raises(ParameterError, match=f"^{re.escape(text)}$"):
                code.repair(failed, helpers)
        assert code.repair(0, [(2, sym[2]), (1, sym[1])]) == nodes[0]


@pytest.mark.parametrize("index", [-1, 3])
def test_repair_refuses_helper_index_outside_the_code(index):
    """A helper index outside 0..n_local-1 names no row of Psi: refused
    with the index, not read as Psi's last row or an IndexError."""
    code = MbrCode(3, 2, 2, 3)
    F, msg = make_message(code, 6, seed=5)
    nodes = code.encode(msg)
    helpers = [(1, code.helper_symbol(nodes[1], 0)),
               (index, code.helper_symbol(nodes[2], 0))]
    with pytest.raises(ParameterError,
                       match=rf"^helper index {index} out of range$"):
        code.repair(0, helpers)


@pytest.mark.parametrize("length", [0, 1, 3])
def test_helper_symbol_refuses_a_vector_that_is_not_alpha_long(length):
    """A helper's stored vector holds alpha = 2 symbols: an empty, short or
    long one is refused with alpha named, before any symbol is read."""
    code = MbrCode(3, 2, 2, 3)
    F, msg = make_message(code, 6, seed=5)
    stored = (code.encode(msg)[1] * 2)[:length]
    with pytest.raises(ParameterError,
                       match=rf"^helper stores {length} symbols, "
                             rf"expected alpha=2$"):
        code.helper_symbol(stored, 0)


def test_profiles_frozen():
    assert MbrCode(3, 2, 2, 3).profile() == (2, 1, 0)
    assert MbrCode(5, 3, 4, 7).profile() == (4, 3, 2, 0, 0)
    for params in DESK_CODES:
        code = MbrCode(*params)
        assert sum(code.profile()) == code.k_message


@pytest.mark.parametrize("params", DESK_CODES)
def test_uniform_rank_accumulation_exhaustive(params):
    """Rank of every thick-column subset equals the profile prefix sum."""
    code = MbrCode(*params)
    gen = code.generator_matrix()
    prof = list(code.profile())
    prefix = [0]
    for a in prof:
        prefix.append(prefix[-1] + a)
    for size in range(code.n_local + 1):
        for subset in combinations(range(code.n_local), size):
            cols = [i * code.alpha + c for i in subset
                    for c in range(code.alpha)]
            got = rank_mod_q(gen[:, cols], code.q) if cols else 0
            assert got == prefix[size], (subset, got, prefix[size])


@pytest.mark.parametrize("params", DESK_CODES)
def test_repair_then_reconstruct(params):
    code = MbrCode(*params)
    lrc, msg, shards = one_group_stripe(code, seed=6)
    for failed in range(code.n_local):
        helpers = [i for i in range(code.n_local) if i != failed][: code.d]
        symbols = [(h, code.helper_symbol(elements(lrc.field, shards[h]),
                                          failed))
                   for h in helpers]
        rebuilt = list(shards)
        rebuilt[failed] = make_shard(failed, shards[failed].role,
                                     code.repair(failed, symbols))
        for subset in combinations(range(code.n_local), code.r):
            assert lrc.decode(rebuilt[i] for i in subset) == msg


def test_encode_is_base_field_linear():
    code = MbrCode(3, 2, 2, 3)
    F = field(3, 6)
    rng = random.Random(7)
    m1 = [F.random_element(rng) for _ in range(3)]
    m2 = [F.random_element(rng) for _ in range(3)]
    for lam in range(3):
        mixed = [lam * a + b for a, b in zip(m1, m2)]
        got = code.encode(mixed)
        expect = [
            tuple(lam * a + b for a, b in zip(va, vb))
            for va, vb in zip(code.encode(m1), code.encode(m2))
        ]
        assert got == expect
