"""Command-line front end: shard files on disk, command round trips,
verification reports, and exit-code discipline."""

import contextlib
import functools
import hashlib
import io
import json
import os
import random
import shlex
import struct
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import lmbr
from lmbr import (
    ConfigMismatchError,
    FieldElement,
    LrcCode,
    MbrCode,
    ParameterError,
    Shard,
    ShardFormatError,
    field,
)
from lmbr import cli
from lmbr.cli import (
    CONSTRUCTIONS,
    SimConfig,
    main,
    parse_shard,
    serialize_shard,
)
from lmbr.frlocal import FANO_BLOCKS
from shard_helpers import elements, make_shard

DESK_ARGS = ["--construction", "all-symbol", "--q", "3", "--t", "2",
             "--nl", "3", "--r", "2", "--d", "2", "--K", "5"]
C2_ARGS = ["--construction", "info-local", "--q", "3", "--t", "2",
           "--nl", "3", "--r", "2", "--d", "2", "--delta", "1", "--K", "5"]
FR_ARGS = ["--construction", "fr-local", "--q", "7", "--t", "2",
           "--kfr", "5", "--K", "10"]


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out.strip()
    return code, json.loads(out.splitlines()[-1]) if out else None


def write_message(path, code_cfg: SimConfig, seed=0):
    code = code_cfg.build()
    rng = random.Random(seed)
    msg = [code.field.random_element(rng) for _ in range(code.file_dim)]
    path.write_bytes(b"".join(e.to_bytes() for e in msg))
    return msg


def test_shard_round_trip_bytes():
    cfg = SimConfig()
    code = cfg.build()
    digest = cfg.digest(code)
    rng = random.Random(1)
    msg = [code.field.random_element(rng) for _ in range(5)]
    for shard in code.encode(msg):
        blob = serialize_shard(shard, cfg.q, code.field.m, digest)
        back = parse_shard(blob, code, digest)
        assert back == shard
        assert serialize_shard(back, cfg.q, code.field.m, digest) == blob


def test_shard_header_golden_bytes():
    """Freeze the on-disk layout: 24-byte header, then alpha*m uint16 LE."""
    cfg = SimConfig()
    code = cfg.build()
    digest = cfg.digest(code)
    shard = code.encode([code.field.zero()] * 5)[1]
    blob = serialize_shard(shard, cfg.q, code.field.m, digest)
    assert blob[:4] == b"LMBR"
    assert blob[4] == 1                                   # format version
    assert blob[5:13] == digest
    assert blob[13:17] == (3).to_bytes(4, "little")       # q
    assert blob[17:19] == (6).to_bytes(2, "little")       # m
    assert blob[19:21] == (1).to_bytes(2, "little")       # node index
    assert blob[21] == 0                                  # role: local
    assert blob[22:24] == (2).to_bytes(2, "little")       # alpha
    assert len(blob) == 24 + 2 * 6 * 2


def test_shard_digest_mismatch_rejected():
    cfg = SimConfig()
    code = cfg.build()
    digest = cfg.digest(code)
    shard = code.encode([code.field.zero()] * 5)[0]
    blob = serialize_shard(shard, cfg.q, code.field.m, b"\x00" * 8)
    with pytest.raises(ConfigMismatchError):
        parse_shard(blob, code, digest)


def test_shard_truncation_rejected():
    cfg = SimConfig()
    code = cfg.build()
    digest = cfg.digest(code)
    shard = code.encode([code.field.zero()] * 5)[0]
    blob = serialize_shard(shard, cfg.q, code.field.m, digest)
    with pytest.raises(ShardFormatError):
        parse_shard(blob[:-1], code, digest)
    with pytest.raises(ShardFormatError):
        parse_shard(b"XXXX" + blob[4:], code, digest)


def test_make_prints_summary(tmp_path, capsys):
    rc, out = run(capsys, "make", *DESK_ARGS, "--out-dir", str(tmp_path))
    assert rc == 0
    assert (out["n"], out["dmin_bound"], out["file_size_bound"]) == (6, 3, 5)
    descriptor = json.loads((tmp_path / "code.json").read_text())
    assert descriptor["derived"]["digest"] == out["digest"]


def test_make_info_local(tmp_path, capsys):
    rc, out = run(capsys, "make", *C2_ARGS, "--out-dir", str(tmp_path))
    assert rc == 0
    assert (out["n"], out["dmin_bound"]) == (7, 4)


def test_make_m_too_small_exit2(tmp_path, capsys):
    rc = main(["make", *DESK_ARGS, "--m", "5", "--out-dir", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "m >=" in err


def test_encode_decode_round_trip(tmp_path, capsys):
    cfg = SimConfig(out_dir=str(tmp_path / "shards"))
    msg_path = tmp_path / "msg.bin"
    write_message(msg_path, cfg, seed=2)
    rc, out = run(capsys, "encode", *DESK_ARGS, "--in", str(msg_path),
                  "--out-dir", str(tmp_path / "shards"))
    assert rc == 0 and out["shards"] == 6
    back = tmp_path / "back.bin"
    rc, _ = run(capsys, "decode", *DESK_ARGS,
                "--shard-dir", str(tmp_path / "shards"), "--out", str(back))
    assert rc == 0
    assert back.read_bytes() == msg_path.read_bytes()


def test_encode_zero_message_zero_payloads(tmp_path, capsys):
    cfg = SimConfig()
    code = cfg.build()
    msg_path = tmp_path / "zeros.bin"
    msg_path.write_bytes(b"\x00" * (code.file_dim * code.field.m * 2))
    rc, _ = run(capsys, "encode", *DESK_ARGS, "--in", str(msg_path),
                "--out-dir", str(tmp_path / "s"))
    assert rc == 0
    for i in range(6):
        blob = (tmp_path / "s" / f"shard_{i:04d}.lmbr").read_bytes()
        assert blob[24:] == b"\x00" * (code.alpha * code.field.m * 2)


def test_encode_is_deterministic(tmp_path, capsys):
    cfg = SimConfig()
    msg_path = tmp_path / "msg.bin"
    write_message(msg_path, cfg, seed=3)
    for d in ("a", "b"):
        rc, _ = run(capsys, "encode", *DESK_ARGS, "--in", str(msg_path),
                    "--out-dir", str(tmp_path / d))
        assert rc == 0
    for i in range(6):
        name = f"shard_{i:04d}.lmbr"
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()


def test_encode_hex_input(tmp_path, capsys):
    cfg = SimConfig()
    msg_path = tmp_path / "msg.bin"
    write_message(msg_path, cfg, seed=4)
    hex_path = tmp_path / "msg.hex"
    hex_path.write_text(msg_path.read_bytes().hex() + "\n")
    for src, d in ((msg_path, "raw"), (hex_path, "hex")):
        rc, _ = run(capsys, "encode", *DESK_ARGS, "--in", str(src),
                    "--out-dir", str(tmp_path / d))
        assert rc == 0
    assert (tmp_path / "raw" / "shard_0000.lmbr").read_bytes() == \
        (tmp_path / "hex" / "shard_0000.lmbr").read_bytes()


def test_encode_size_mismatch_exit3(tmp_path, capsys):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"\x00" * 7)
    rc = main(["encode", *DESK_ARGS, "--in", str(bad),
               "--out-dir", str(tmp_path)])
    assert rc == 3


def test_encode_out_of_range_coefficient_exit3(tmp_path, capsys):
    """A coefficient q or above, here the last one of the last symbol, is
    refused with the message-symbol error record; q - 1 there encodes."""
    code = SimConfig().build()
    msg_path = tmp_path / "msg.bin"
    size = code.file_dim * code.field.m
    for last, rc in ((code.field.q, 3), (code.field.q - 1, 0)):
        msg_path.write_bytes(b"\x00\x00" * (size - 1)
                             + last.to_bytes(2, "little"))
        assert main(["encode", *DESK_ARGS, "--in", str(msg_path),
                     "--out-dir", str(tmp_path / "s")]) == rc
        if rc:
            assert error_record(capsys) == {
                "error": "ShardFormatError",
                "detail": "bad message symbol: coefficient out of range for "
                          "the field"}
    capsys.readouterr()


def test_decode_with_erasures(tmp_path, capsys):
    cfg = SimConfig()
    msg_path = tmp_path / "msg.bin"
    write_message(msg_path, cfg, seed=5)
    shard_dir = tmp_path / "shards"
    run(capsys, "encode", *DESK_ARGS, "--in", str(msg_path),
        "--out-dir", str(shard_dir))
    (shard_dir / "shard_0000.lmbr").unlink()
    (shard_dir / "shard_0003.lmbr").unlink()
    back = tmp_path / "back.bin"
    rc, _ = run(capsys, "decode", *DESK_ARGS, "--shard-dir", str(shard_dir),
                "--out", str(back))
    assert rc == 0
    assert back.read_bytes() == msg_path.read_bytes()


def test_decode_undecodable_exit1(tmp_path, capsys):
    cfg = SimConfig()
    msg_path = tmp_path / "msg.bin"
    write_message(msg_path, cfg, seed=6)
    shard_dir = tmp_path / "shards"
    run(capsys, "encode", *DESK_ARGS, "--in", str(msg_path),
        "--out-dir", str(shard_dir))
    for i in (3, 4, 5):
        (shard_dir / f"shard_{i:04d}.lmbr").unlink()
    rc = main(["decode", *DESK_ARGS, "--shard-dir", str(shard_dir),
               "--out", str(tmp_path / "x.bin")])
    assert rc == 1


def test_decode_wrong_config_exit2(tmp_path, capsys):
    cfg = SimConfig()
    msg_path = tmp_path / "msg.bin"
    write_message(msg_path, cfg, seed=7)
    shard_dir = tmp_path / "shards"
    run(capsys, "encode", *DESK_ARGS, "--in", str(msg_path),
        "--out-dir", str(shard_dir))
    rc = main(["decode", *C2_ARGS, "--shard-dir", str(shard_dir),
               "--out", str(tmp_path / "x.bin")])
    assert rc == 2


def test_repair_replaces_shard_bit_exact(tmp_path, capsys):
    cfg = SimConfig()
    msg_path = tmp_path / "msg.bin"
    write_message(msg_path, cfg, seed=8)
    shard_dir = tmp_path / "shards"
    run(capsys, "encode", *DESK_ARGS, "--in", str(msg_path),
        "--out-dir", str(shard_dir))
    original = (shard_dir / "shard_0000.lmbr").read_bytes()
    (shard_dir / "shard_0000.lmbr").unlink()
    rc, metrics = run(capsys, "repair", *DESK_ARGS,
                      "--shard-dir", str(shard_dir), "--failed", "0")
    assert rc == 0
    assert metrics["path"] == "local-regenerating"
    assert metrics["downloaded_symbols"] == 2
    assert (shard_dir / "shard_0000.lmbr").read_bytes() == original


def test_repair_global_node_metrics(tmp_path, capsys):
    msg_path = tmp_path / "msg.bin"
    write_message(msg_path, SimConfig(construction="info-local"), seed=9)
    shard_dir = tmp_path / "shards"
    run(capsys, "encode", *C2_ARGS, "--in", str(msg_path),
        "--out-dir", str(shard_dir))
    original = (shard_dir / "shard_0006.lmbr").read_bytes()
    (shard_dir / "shard_0006.lmbr").unlink()
    rc, metrics = run(capsys, "repair", *C2_ARGS,
                      "--shard-dir", str(shard_dir), "--failed", "6")
    assert rc == 0
    assert metrics["path"] == "decode-reencode"
    assert metrics["downloaded_shards"] == 4
    assert (shard_dir / "shard_0006.lmbr").read_bytes() == original


def test_repair_fr_metrics(tmp_path, capsys):
    msg_path = tmp_path / "msg.bin"
    write_message(msg_path, SimConfig(construction="fr-local", q=7,
                                      file_dim=10), seed=10)
    shard_dir = tmp_path / "shards"
    run(capsys, "encode", *FR_ARGS, "--in", str(msg_path),
        "--out-dir", str(shard_dir))
    original = (shard_dir / "shard_0002.lmbr").read_bytes()
    (shard_dir / "shard_0002.lmbr").unlink()
    rc, metrics = run(capsys, "repair", *FR_ARGS,
                      "--shard-dir", str(shard_dir), "--failed", "2")
    assert rc == 0
    assert metrics["path"] == "local-transfer"
    assert metrics["downloaded_symbols"] == 3
    assert metrics["arithmetic_ops"] == 0
    assert (shard_dir / "shard_0002.lmbr").read_bytes() == original


@pytest.mark.parametrize("mode,expect", [
    ("dmin", {"claimed": 3, "measured": 3}),
    ("ura", {"measured": "all-subsets-match"}),
    ("repair-all", {}),
    ("bounds-crosscheck", {}),
])
def test_verify_modes_pass(capsys, mode, expect):
    rc, report = run(capsys, "verify", *DESK_ARGS, "--mode", mode)
    assert rc == 0
    assert report["pass"] is True
    for key, value in expect.items():
        assert report[key] == value


def test_verify_dmin_construction2(capsys):
    rc, report = run(capsys, "verify", *C2_ARGS, "--mode", "dmin")
    assert rc == 0
    assert (report["claimed"], report["measured"]) == (4, 4)


def test_verify_negative_control_exit1(capsys):
    rc, report = run(capsys, "verify", *DESK_ARGS, "--mode", "ura",
                     "--claim-profile", "2,2,0")
    assert rc == 1
    assert report["pass"] is False
    assert report["witness"]["subset"] is not None


def test_verify_repair_all_negative_control_exit1(monkeypatch, capsys):
    """A decode repair that goes wrong whenever node 0 is not among its
    shards passes a single repair call but fails repair-all, which repairs
    the global node from every threshold-sized helper subset."""
    real = LrcCode._repair_by_decode

    def flawed(self, failed, available, local_failure):
        shard, metrics = real(self, failed, available, local_failure)
        if 0 not in available:
            payload = shard.payload.copy()
            payload[0, 0] = (payload[0, 0] + 1) % self.field.q
            shard = make_shard(shard.index, shard.role, payload)
        return shard, metrics

    monkeypatch.setattr(LrcCode, "_repair_by_decode", flawed)
    rc, report = run(capsys, "verify", *C2_ARGS, "--mode", "repair-all")
    assert rc == 1
    assert report["pass"] is False
    witness = report["witness"]
    assert witness["failed"] == 6
    assert witness["metrics"]["path"] == "decode-reencode"
    assert witness["metrics"]["helpers"] == [1, 2, 3, 4]


def test_verify_repair_all_checks_every_mbr_helper_set(monkeypatch, capsys):
    """repair-all checks the shard and the helpers of every regenerating
    repair it makes: one that goes wrong whenever local helper 2 is used
    makes it exit 1, and the witness names that node among its helpers."""
    real = MbrCode.repair

    def flawed(self, failed, helpers):
        vec = real(self, failed, helpers)
        if 2 in [i for i, _ in helpers]:
            vec = (vec[0] + vec[0].field.one(),) + vec[1:]
        return vec

    monkeypatch.setattr(MbrCode, "repair", flawed)
    rc, report = run(capsys, "verify", *DESK_ARGS, "--mode", "repair-all")
    assert rc == 1
    assert report["pass"] is False
    metrics = report["witness"]["metrics"]
    assert metrics["path"] == "local-regenerating"
    assert 2 in metrics["helpers"]


def test_verify_repair_all_repairs_from_each_mbr_helper_set(monkeypatch,
                                                            capsys):
    """With n_local = 4 and d = 2 each local node has three helper sets.
    A regenerating repair that goes wrong on every set but the first d
    survivors, the set a repair given every shard uses, passes such a
    repair and fails repair-all, which gives it each set's shards alone."""
    real = MbrCode.repair

    def flawed(self, failed, helpers):
        vec = real(self, failed, helpers)
        first = [i for i in range(self.n_local) if i != failed][:self.d]
        if [i for i, _ in helpers] != first:
            vec = (vec[0] + vec[0].field.one(),) + vec[1:]
        return vec

    monkeypatch.setattr(MbrCode, "repair", flawed)
    argv = ["--construction", "all-symbol", "--q", "5", "--t", "2", "--nl",
            "4", "--r", "2", "--d", "2", "--K", "5"]
    code = SimConfig(q=5, n_l=4, r=2, d=2, file_dim=5).build()
    rng = random.Random(0)
    shards = code.encode([code.field.random_element(rng)
                          for _ in range(code.file_dim)])
    shard, _ = code.repair(0, {s.index: s for s in shards[1:]})
    assert shard == shards[0]
    rc, report = run(capsys, "verify", *argv, "--mode", "repair-all")
    assert rc == 1
    assert report["witness"]["failed"] == 0
    assert report["witness"]["metrics"]["helpers"] == [1, 3]


MBR_STRIPES_ARGS = ["--construction", "info-local", "--q", "3", "--t", "2",
                    "--delta", "1", "--K", "5", "--m", "8"]
CERTIFY_ARGS = ["--construction", "all-symbol", "--q", "3", "--t", "5",
                "--K", "6", "--m", "15"]
#: Info-local (3,2,2) over F_3, three groups and one global node, K=4: the
#: d_min witness erases two whole groups and the global node.
THREE_GROUP_ARGS = ["--construction", "info-local", "--q", "3", "--t", "3",
                    "--nl", "3", "--r", "2", "--d", "2", "--delta", "1",
                    "--K", "4"]

#: stdout, stderr and exit code of verify runs, frozen byte for byte.
FROZEN_VERIFY = [
    pytest.param(
        DESK_ARGS + ["--mode", "dmin"], 0,
        '{"mode": "dmin", "claimed": 3, "measured": 3, "patterns_checked": '
        '21, "pass": true, "witness": [0, 1, 2]}\n', "", id="C1-dmin"),
    pytest.param(
        DESK_ARGS + ["--mode", "ura"], 0,
        '{"mode": "ura", "claimed": [2, 1, 0], "measured": '
        '"all-subsets-match", "columns": 6, "subsets_checked": 64, '
        '"pass": true, "witness": null}\n', "", id="C1-ura"),
    pytest.param(
        C2_ARGS + ["--mode", "dmin"], 0,
        '{"mode": "dmin", "claimed": 4, "measured": 4, "patterns_checked": '
        '63, "pass": true, "witness": [0, 1, 2, 6]}\n', "", id="C2-dmin"),
    pytest.param(
        C2_ARGS + ["--mode", "ura"], 0,
        '{"mode": "ura", "claimed": [2, 1, 0], "measured": '
        '"all-subsets-match", "columns": 6, "subsets_checked": 64, '
        '"pass": true, "witness": null}\n', "", id="C2-ura"),
    pytest.param(
        FR_ARGS + ["--mode", "dmin"], 0,
        '{"mode": "dmin", "claimed": 6, "measured": 6, "patterns_checked": '
        '3472, "pass": true, "witness": [0, 1, 2, 3, 4, 5]}\n', "",
        id="fano-dmin"),
    pytest.param(
        FR_ARGS + ["--mode", "ura"], 0,
        '{"mode": "ura", "claimed": [3, 2, 0, 0, 0, 0, 0], "measured": '
        '"all-subsets-match", "columns": 14, "subsets_checked": 16384, '
        '"pass": true, "witness": null}\n', "", id="fano-ura"),
    pytest.param(
        MBR_STRIPES_ARGS + ["--mode", "dmin"], 0,
        '{"mode": "dmin", "claimed": 4, "measured": 4, "patterns_checked": '
        '63, "pass": true, "witness": [0, 1, 2, 6]}\n', "",
        id="mbr-stripes-dmin"),
    pytest.param(
        MBR_STRIPES_ARGS + ["--mode", "ura"], 0,
        '{"mode": "ura", "claimed": [2, 1, 0], "measured": '
        '"all-subsets-match", "columns": 6, "subsets_checked": 64, '
        '"pass": true, "witness": null}\n', "", id="mbr-stripes-ura"),
    pytest.param(
        DESK_ARGS + ["--mode", "repair-all"], 0,
        '{"mode": "repair-all", "cases": 6, "pass": true, "witness": '
        'null}\n', "", id="C1-repair-all"),
    pytest.param(
        C2_ARGS + ["--mode", "repair-all"], 0,
        '{"mode": "repair-all", "cases": 22, "pass": true, "witness": '
        'null}\n', "", id="C2-repair-all"),
    pytest.param(
        MBR_STRIPES_ARGS + ["--mode", "repair-all"], 0,
        '{"mode": "repair-all", "cases": 22, "pass": true, "witness": '
        'null}\n', "", id="mbr-stripes-repair-all"),
    pytest.param(
        FR_ARGS + ["--mode", "repair-all"], 0,
        '{"mode": "repair-all", "cases": 14, "pass": true, "witness": '
        'null}\n', "", id="fano-repair-all"),
    pytest.param(
        DESK_ARGS + ["--mode", "ura", "--claim-profile", "2,2,0"], 1,
        '{"mode": "ura", "claimed": [2, 2, 0], "measured": "mismatch", '
        '"columns": 6, "subsets_checked": null, "pass": false, "witness": '
        '{"kind": "block-rank", "subset": [0, 1], "measured": 3, '
        '"expected": 4}}\n', "", id="C1-ura-claim-2,2,0"),
    pytest.param(
        FR_ARGS + ["--mode", "ura", "--claim-profile", "3,1,1,0,0,0,0"], 1,
        '{"mode": "ura", "claimed": [3, 1, 1, 0, 0, 0, 0], "measured": '
        '"mismatch", "columns": 14, "subsets_checked": null, "pass": false, '
        '"witness": {"kind": "block-rank", "subset": [0, 1], "measured": 5, '
        '"expected": 4}}\n', "", id="fano-ura-claim-3,1,1,0,0,0,0"),
    pytest.param(
        CERTIFY_ARGS + ["--mode", "dmin"], 0,
        '{"mode": "dmin", "claimed": 11, "measured": 11, "patterns_checked": '
        '30826, "pass": true, "witness": [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, '
        '10]}\n', "", id="certify-dmin"),
    pytest.param(
        THREE_GROUP_ARGS + ["--mode", "dmin"], 0,
        '{"mode": "dmin", "claimed": 7, "measured": 7, "patterns_checked": '
        '847, "pass": true, "witness": [0, 1, 2, 3, 4, 5, 9]}\n', "",
        id="three-group-dmin"),
    pytest.param(
        ["--construction", "all-symbol", "--q", "67", "--nl", "64", "--r",
         "1", "--d", "1", "--t", "1", "--K", "1", "--m", "1", "--mode",
         "dmin"], 2, "",
        '{"error": "ParameterError", "detail": "subset table of 2^64 node '
        'sets exceeds the budget 2^22; refusing"}\n', id="n-local-64-dmin"),
]


@pytest.mark.parametrize("argv,rc,out,err", FROZEN_VERIFY)
def test_verify_output_is_frozen(argv, rc, out, err, capsys):
    """verify --mode dmin, --mode ura and --mode repair-all on C1, C2,
    Fano and mbr-stripes, --mode dmin on the certify and three-group
    configurations, claimed-profile negative controls and a 64-node
    group's refusal print exactly the recorded bytes and exit with the
    recorded code."""
    assert main(["verify", *argv]) == rc
    assert capsys.readouterr() == (out, err)


def test_verify_cap_refusal_exit2(capsys, monkeypatch):
    """repair-all on C2 tries C(6,4) = 15 decode-path helper subsets of the
    global node; under a cap of 14 it refuses with exit 2 rather than check
    fewer, and under a cap of 15 it checks all 22 cases."""
    argv = ["verify", *C2_ARGS, "--mode", "repair-all"]
    monkeypatch.setattr(cli, "REPAIR_ALL_CAP", 14)
    assert main(argv) == 2
    assert capsys.readouterr() == ("", json.dumps({
        "error": "PatternCapError",
        "detail": "C(6,4) = 15 helper subsets of node 6 exceed the cap 14; "
                  "refusing to sample"}) + "\n")
    monkeypatch.setattr(cli, "REPAIR_ALL_CAP", 15)
    assert main(argv) == 0
    assert capsys.readouterr() == (
        '{"mode": "repair-all", "cases": 22, "pass": true, "witness": '
        'null}\n', "")


def test_verify_bounds_crosscheck_fr_profile_agrees(capsys):
    # The Fano profile (3,2,0,...) happens to be an arithmetic progression
    # (alpha 3, beta 1, r 2), so the closed form applies and must agree.
    rc, report = run(capsys, "verify", *FR_ARGS, "--mode", "bounds-crosscheck")
    assert rc == 0 and report["pass"] is True


def test_verify_bounds_crosscheck_refused_off_shape(tmp_path, capsys):
    """A 3-design whose capped profile is not an arithmetic progression
    makes the closed form inapplicable: the mode refuses, it does not guess."""
    from itertools import combinations
    path = tmp_path / "complete.txt"
    path.write_text("\n".join(
        " ".join(str(p) for p in blk)
        for blk in combinations(range(1, 7), 4)
    ) + "\n")
    rc = main(["verify", "--construction", "fr-local", "--q", "17",
               "--t", "2", "--kfr", "15", "--K", "15",
               "--design-file", str(path), "--mode", "bounds-crosscheck"])
    assert rc == 2  # profile (10, 4, 1, 0, 0, 0) has no uniform step


def test_bounds_record(capsys):
    rc, out = run(capsys, "bounds", *DESK_ARGS)
    assert rc == 0
    assert out == {"n": 6, "K": 5, "dmin_bound": 3, "file_size_bound": 5,
                   "pinv": 4}


def test_missing_input_paths_exit3(tmp_path):
    assert main(["encode", *DESK_ARGS, "--in", str(tmp_path / "absent.bin"),
                 "--out-dir", str(tmp_path)]) == 3
    assert main(["decode", *DESK_ARGS, "--shard-dir", str(tmp_path / "nope"),
                 "--out", str(tmp_path / "o.bin")]) == 3


def test_corrupt_shard_file_exit3(tmp_path, capsys):
    cfg = SimConfig()
    msg_path = tmp_path / "msg.bin"
    write_message(msg_path, cfg, seed=11)
    shard_dir = tmp_path / "shards"
    run(capsys, "encode", *DESK_ARGS, "--in", str(msg_path),
        "--out-dir", str(shard_dir))
    target = shard_dir / "shard_0000.lmbr"
    target.write_bytes(target.read_bytes()[:-3])  # truncate payload
    rc = main(["decode", *DESK_ARGS, "--shard-dir", str(shard_dir),
               "--out", str(tmp_path / "o.bin")])
    assert rc == 3


def test_console_script_installed():
    import shutil
    import subprocess

    exe = shutil.which("lmbr")
    if exe is None:
        pytest.skip("console script not on PATH in this environment")
    out = subprocess.run([exe, "bounds", *DESK_ARGS],
                         capture_output=True, text=True)
    assert out.returncode == 0
    assert json.loads(out.stdout)["dmin_bound"] == 3


def test_python_dash_m_lmbr_keeps_the_exit_code_contract():
    """``python -m lmbr`` runs the CLI from a source tree, without an
    installed script: a pass exits 0 with its JSON on stdout, a refusal
    exits 2 with the JSON error record on stderr."""
    src = Path(lmbr.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}

    def run_module(*argv):
        return subprocess.run([sys.executable, "-m", "lmbr", *argv],
                              capture_output=True, text=True, timeout=60,
                              env=env)

    ok = run_module("bounds", *DESK_ARGS)
    assert ok.returncode == 0
    assert json.loads(ok.stdout)["dmin_bound"] == 3
    refused = run_module("bounds", *DESK_ARGS, "--q", "4")
    assert refused.returncode == 2
    assert refused.stdout == ""
    assert json.loads(refused.stderr) == {
        "error": "ParameterError",
        "detail": "base field order must be prime, got q=4",
    }


def test_design_file_flag(tmp_path, capsys):
    from lmbr.frlocal import FANO_BLOCKS
    path = tmp_path / "design.txt"
    path.write_text(
        "\n".join(" ".join(str(p) for p in b) for b in FANO_BLOCKS) + "\n"
    )
    rc, out = run(capsys, "make", *FR_ARGS, "--design-file", str(path),
                  "--out-dir", str(tmp_path))
    assert rc == 0
    assert out["n"] == 14 and out["dmin_bound"] == 6
    # An explicit Fano file and the built-in produce identical digests.
    rc2, out2 = run(capsys, "make", *FR_ARGS, "--out-dir", str(tmp_path))
    assert out2["digest"] == out["digest"]


def test_fr_cli_round_trip_with_erasures(tmp_path, capsys):
    cfg = SimConfig(construction="fr-local", q=7, file_dim=10)
    msg_path = tmp_path / "msg.bin"
    write_message(msg_path, cfg, seed=12)
    shard_dir = tmp_path / "shards"
    rc, out = run(capsys, "encode", *FR_ARGS, "--in", str(msg_path),
                  "--out-dir", str(shard_dir))
    assert rc == 0 and out["shards"] == 14
    for i in (0, 1, 2, 7, 8):  # five erasures: within the guarantee
        (shard_dir / f"shard_{i:04d}.lmbr").unlink()
    back = tmp_path / "back.bin"
    rc, _ = run(capsys, "decode", *FR_ARGS, "--shard-dir", str(shard_dir),
                "--out", str(back))
    assert rc == 0
    assert back.read_bytes() == msg_path.read_bytes()


def test_digest_depends_on_extension_degree(tmp_path, capsys):
    rc1, out1 = run(capsys, "make", *DESK_ARGS, "--out-dir", str(tmp_path))
    rc2, out2 = run(capsys, "make", *DESK_ARGS, "--m", "7",
                    "--out-dir", str(tmp_path))
    assert rc1 == rc2 == 0
    assert out1["digest"] != out2["digest"]


def error_record(capsys):
    """The one-line JSON error record on stderr; stdout stays empty."""
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1
    return json.loads(lines[0])


def test_bad_design_file_exit2_with_witness(tmp_path, capsys):
    from lmbr.frlocal import FANO_BLOCKS
    path = tmp_path / "design.txt"
    # One block repeats a point: every pair still lies in one block, so the
    # design is inferred and then rejected with that block as the witness.
    blocks = [" ".join(str(p) for p in b) for b in FANO_BLOCKS]
    blocks[0] += f" {FANO_BLOCKS[0][-1]}"
    path.write_text("\n".join(blocks) + "\n")
    rc = main(["make", *FR_ARGS, "--design-file", str(path),
               "--out-dir", str(tmp_path)])
    assert rc == 2
    record = error_record(capsys)
    assert record["error"] == "DesignError"
    assert "witness [1, 2, 3, 3]" in record["detail"]
    path.write_text("1 2 x\n")
    assert main(["make", *FR_ARGS, "--design-file", str(path),
                 "--out-dir", str(tmp_path)]) == 2
    assert error_record(capsys)["error"] == "DesignError"
    path.write_bytes(b"1 2 3\n\xff\xfe\n")
    assert main(["make", *FR_ARGS, "--design-file", str(path),
                 "--out-dir", str(tmp_path)]) == 2
    record = error_record(capsys)
    assert record["error"] == "DesignError"
    assert "UTF-8" in record["detail"]


def test_single_point_blocks_exit2(tmp_path, capsys):
    """Blocks of size 1 leave every symbol with one holder, so nothing can
    be repaired by transfer: a refusal, not a traceback."""
    path = tmp_path / "d"
    path.write_text("1\n2\n3\n")
    rc = main(["make", "--construction", "fr-local", "--design-file",
               str(path), "--kfr", "1", "--q", "3", "--t", "1", "--K", "1",
               "--out-dir", str(tmp_path)])
    assert rc == 2
    record = error_record(capsys)
    assert record["error"] == "DesignError"
    assert "one holder" in record["detail"]


def test_non_integer_claim_profile_exit2(capsys):
    rc = main(["verify", *DESK_ARGS, "--mode", "ura",
               "--claim-profile", "2,x"])
    assert rc == 2
    record = error_record(capsys)
    assert record["error"] == "ParameterError"
    assert "'2,x'" in record["detail"]


@pytest.mark.parametrize("mode", ["dmin", "repair-all", "bounds-crosscheck"])
def test_claim_profile_outside_ura_exit2(mode, capsys):
    """A claimed profile is read only by the ura mode; every other mode
    refuses it rather than drop it and report its own claim."""
    rc = main(["verify", *DESK_ARGS, "--mode", mode, "--claim-profile", "9,9,9"])
    assert rc == 2
    record = error_record(capsys)
    assert record == {
        "error": "ParameterError",
        "detail": f"--claim-profile applies only to --mode ura, not --mode {mode}",
    }


@pytest.mark.parametrize("mode", ["dmin", "repair-all", "bounds-crosscheck"])
def test_cmd_verify_refuses_claim_profile_outside_ura(mode, capsys):
    """The refusal lives in cmd_verify, so an API call that bypasses main
    cannot drop the claim either: it raises before building or printing."""
    with pytest.raises(ParameterError) as err:
        cli.cmd_verify(SimConfig(), mode, [9, 9, 9])
    assert str(err.value) == (
        f"--claim-profile applies only to --mode ura, not --mode {mode}")
    assert capsys.readouterr() == ("", "")


def test_bench_command_is_refused(capsys):
    """The retired throughput timer is refused like any unknown command."""
    assert main(["bench", *DESK_ARGS]) == 2
    record = error_record(capsys)
    assert record["error"] == "ParameterError"
    assert "invalid choice: 'bench'" in record["detail"]


def test_empty_claim_profile_exit2(capsys):
    rc = main(["verify", *DESK_ARGS, "--mode", "ura", "--claim-profile", ""])
    assert rc == 2
    record = error_record(capsys)
    assert record["error"] == "ParameterError"
    assert "--claim-profile" in record["detail"]


@pytest.mark.parametrize("argv", [
    ["make", "--q", "abc"],
    ["verify", *DESK_ARGS, "--mode", "ura", "--claim-profile", "-1,2,2"],
    ["verify", *DESK_ARGS],
    ["make", "--construction", "nope"],
    ["frobnicate"],
    [],
])
def test_argument_errors_exit2_with_json_record(argv, capsys):
    assert main(argv) == 2
    record = error_record(capsys)
    assert record["error"] == "ParameterError"
    assert "usage" not in record["detail"]


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["make", "--help"])
    assert exc.value.code == 0
    assert "--construction" in capsys.readouterr().out


README = Path(__file__).resolve().parents[1] / "README.md"


def doc_commands(text):
    """The argv of each ``lmbr ...`` line in the text's ``sh`` blocks."""
    commands, in_sh = [], False
    for line in text.splitlines():
        if line.startswith("```"):
            in_sh = not in_sh and line.strip() == "```sh"
        elif in_sh and line.startswith("lmbr "):
            commands.append(shlex.split(line, comments=True)[1:])
    return commands


def unparsed_doc_commands(text):
    """The documented commands the CLI's parser refuses, with its detail."""
    parser = cli._build_parser()
    refused = []
    for argv in doc_commands(text):
        try:
            parser.parse_args(argv)
        except ParameterError as exc:
            refused.append((argv, str(exc)))
    return refused


def test_readme_commands_parse():
    """Every command README shows parses; a retired command or flag left
    in the docs fails here.  Nothing is run."""
    text = README.read_text()
    assert doc_commands(text)
    assert unparsed_doc_commands(text) == []


def test_retired_doc_command_is_reported():
    text = ("```sh\nlmbr bounds --q 3 --K 5\n"
            "lmbr bench --q 3 --K 5 --trials 100 --seed 1\n```\n"
            "```\nlmbr bench --q 3\n```\n")
    assert doc_commands(text) == [
        ["bounds", "--q", "3", "--K", "5"],
        ["bench", "--q", "3", "--K", "5", "--trials", "100", "--seed", "1"],
    ]
    [(argv, detail)] = unparsed_doc_commands(text)
    assert argv[0] == "bench"
    assert "invalid choice: 'bench'" in detail


def test_huge_extension_degree_refused_quickly(tmp_path, capsys):
    start = time.perf_counter()
    rc = main(["make", *DESK_ARGS, "--m", "100000000",
               "--out-dir", str(tmp_path)])
    assert time.perf_counter() - start < 0.5
    assert rc == 2
    record = error_record(capsys)
    assert record["error"] == "ParameterError"
    assert "budget" in record["detail"]


def test_wide_mbr_layout_refused_quickly(tmp_path):
    """Building MbrCode(30, 1, 15, 31) costs one rank test, not one per
    C(30, 15) row set, so the oversized field F_{31^15} is refused at once.
    Run in a child process so that a slow build fails the test instead of
    stalling the suite."""
    src = Path(lmbr.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-m", "lmbr.cli", "make", "--nl", "30", "--d", "15",
         "--r", "1", "--q", "31", "--t", "1", "--K", "1",
         "--out-dir", str(tmp_path)],
        capture_output=True, text=True, timeout=3,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    record = json.loads(proc.stderr)
    assert record["error"] == "ParameterError"
    assert "budget" in record["detail"]


@pytest.mark.parametrize("command", [["make"], ["bounds"],
                                     ["verify", "--mode", "bounds-crosscheck"]])
def test_info_local_without_global_nodes_exit2(tmp_path, capsys, command):
    """bounds-crosscheck refuses the layout that make refuses."""
    argv = [*command, "--construction", "info-local", "--delta", "-1",
            "--out-dir", str(tmp_path)]
    assert main(argv) == 2
    assert error_record(capsys) == {
        "error": "ParameterError",
        "detail": "info-local layout needs delta >= 1 global nodes",
    }
    with pytest.raises(ParameterError):
        SimConfig(construction="info-local", delta=0)
    SimConfig(construction="all-symbol", delta=0)     # delta unused there


def test_duplicate_shard_index_exit3(tmp_path, capsys):
    cfg = SimConfig()
    msg_path = tmp_path / "msg.bin"
    write_message(msg_path, cfg, seed=13)
    shard_dir = tmp_path / "shards"
    run(capsys, "encode", *DESK_ARGS, "--in", str(msg_path),
        "--out-dir", str(shard_dir))
    copy = shard_dir / "shard_0009.lmbr"
    copy.write_bytes((shard_dir / "shard_0001.lmbr").read_bytes())
    rc = main(["decode", *DESK_ARGS, "--shard-dir", str(shard_dir),
               "--out", str(tmp_path / "o.bin")])
    assert rc == 3
    record = error_record(capsys)
    assert record["error"] == "ShardFormatError"
    assert "shard_0001.lmbr" in record["detail"]
    assert "shard_0009.lmbr" in record["detail"]
    assert "node index 1" in record["detail"]


def test_oversized_q_refused_exit2(tmp_path, capsys):
    rc = main(["make", "--construction", "all-symbol", "--q", "1099511627689",
               "--t", "1", "--nl", "2", "--r", "1", "--d", "1", "--K", "1",
               "--out-dir", str(tmp_path)])
    assert rc == 2
    assert error_record(capsys)["error"] == "ParameterError"


#: SHA-256 over the shard files of one fixed and twenty seeded messages per
#: configuration.  Frozen: a change to the modulus search, an encoder or the
#: file layout shows up here.
FROZEN_SHARD_HASHES = {
    "C1": (dict(construction="all-symbol", q=3, t=2, file_dim=5),
           "10901f6f254fc49472fbdb9422038481ad336a73186298a62550b8f99bd91b8e"),
    "C2": (dict(construction="info-local", q=3, t=2, delta=1, file_dim=5),
           "ea64a86425745d26346d79d8137d501e80b5bbdb17060baf00c254413d6b4f8d"),
    "fano": (dict(construction="fr-local", q=7, t=2, k_fr=5, file_dim=10),
             "4d7f1ea82be4e5fa707514eee44bc9b7ce6c6efd7af10b21f59b550dfcba493e"),
    "mbr-stripes": (
        dict(construction="info-local", q=3, t=2, delta=1, file_dim=5, m=8),
        "ea64a86425745d26346d79d8137d501e80b5bbdb17060baf00c254413d6b4f8d"),
}


@pytest.mark.parametrize("name", sorted(FROZEN_SHARD_HASHES))
def test_serialized_shards_match_frozen_hashes(name):
    config, want = FROZEN_SHARD_HASHES[name]
    cfg = SimConfig(**config)
    code = cfg.build()
    digest = cfg.digest(code)
    messages = [[code.field.from_int((7 * i + 1) % code.field.order)
                 for i in range(code.file_dim)]]
    rng = random.Random(0)
    messages += [[code.field.random_element(rng) for _ in range(code.file_dim)]
                 for _ in range(20)]
    h = hashlib.sha256()
    for msg in messages:
        for shard in code.encode(msg):
            h.update(serialize_shard(shard, cfg.q, code.field.m, digest))
    assert h.hexdigest() == want


C2_CFG = SimConfig(construction="info-local", q=3, t=2, delta=1, file_dim=5)
C2_CODE = C2_CFG.build()
C2_DIGEST = C2_CFG.digest(C2_CODE)
#: A valid C2 header (node 0, local); index bytes 19-20, role tag byte 21.
C2_HEADER = serialize_shard(C2_CODE.encode([C2_CODE.field.zero()] * 5)[0],
                            3, C2_CODE.field.m, C2_DIGEST)[:24]


def shard_blob(index, role_tag, payload):
    head = bytearray(C2_HEADER)
    head[19:21] = index.to_bytes(2, "little")
    head[21] = role_tag
    return bytes(head) + payload


def reference_parse_shard(data, code, digest):
    """The per-coefficient parse: one ``int.from_bytes`` per coefficient and
    a range check per symbol, with every check in parse_shard's order.  It
    is the reference for the one-call unpack."""
    if len(data) < 24:
        raise ShardFormatError("shard file shorter than its header")
    magic, version, got_digest, q, m, index, role_tag, alpha = struct.unpack(
        "<4sB8sIHHBH", data[:24])
    if magic != b"LMBR":
        raise ShardFormatError(f"bad magic {magic!r}")
    if version != 1:
        raise ShardFormatError(f"unsupported format version {version}")
    if got_digest != digest:
        raise ConfigMismatchError(
            "shard was produced by a different configuration "
            f"(digest {got_digest.hex()} != {digest.hex()})")
    if q != code.local.q or m != code.field.m:
        raise ConfigMismatchError(
            f"shard field GF({q}^{m}) != code field "
            f"GF({code.local.q}^{code.field.m})")
    if alpha != code.alpha:
        raise ShardFormatError(f"alpha {alpha} != code alpha {code.alpha}")
    body = data[24:]
    if len(body) != alpha * m * 2:
        raise ShardFormatError(
            f"payload is {len(body)} bytes, expected {alpha * m * 2}")
    if index >= code.n_nodes:
        raise ShardFormatError(
            f"node index {index} out of range for n={code.n_nodes}")
    payload = []
    for i in range(alpha):
        symbol = body[i * 2 * m:(i + 1) * 2 * m]
        coeffs = tuple(int.from_bytes(symbol[2 * j:2 * j + 2], "little")
                       for j in range(m))
        if any(c >= code.field.q for c in coeffs):
            raise ShardFormatError(
                "bad payload symbol: coefficient out of range for the field")
        payload.append(coeffs)
    role = code.role_of(index)
    if role_tag != (1 if role[0] == "global" else 0):
        raise ShardFormatError(
            f"role tag {role_tag} contradicts node index {index}")
    return make_shard(index, role, payload)


def parse_outcome(parse, blob):
    """The parsed shard, or the refusal's class and text."""
    try:
        return parse(blob, C2_CODE, C2_DIGEST)
    except (ShardFormatError, ConfigMismatchError) as exc:
        return type(exc), str(exc)


#: C2 payloads of the right size whose coefficients straddle q = 3.
_NEAR_Q_PAYLOAD = st.lists(st.integers(0, 4), min_size=16,
                           max_size=16).map(lambda c: struct.pack("<16H", *c))
#: Node 6 is C2's global node: a local role tag contradicts it, and the
#: first coefficient is out of range too.
BAD_COEFF_AND_ROLE = dict(index=6, role_tag=0,
                          payload=b"\xff\xff" + bytes(30))


@settings(max_examples=300, deadline=None)
@given(index=st.one_of(st.integers(0, 0xFFFF),
                      st.integers(0, C2_CODE.n_nodes)),
       role_tag=st.integers(0, 0xFF),
       payload=st.one_of(st.binary(min_size=32, max_size=32),
                         st.binary(max_size=48), _NEAR_Q_PAYLOAD))
@example(**BAD_COEFF_AND_ROLE)
def test_parse_shard_outcomes_on_arbitrary_index_and_payload(index, role_tag,
                                                              payload):
    """Behind a valid header, any index, role tag and payload parse to a
    shard or are refused as a format error; nothing else escapes.  The
    outcome, shard or error class and text, is the per-coefficient
    reference's."""
    blob = shard_blob(index, role_tag, payload)
    shard = parse_outcome(parse_shard, blob)
    assert shard == parse_outcome(reference_parse_shard, blob)
    if not isinstance(shard, Shard):
        return
    assert shard.index == index < C2_CODE.n_nodes
    assert shard.payload.dtype == np.uint16
    assert not shard.payload.flags.writeable


def test_parsed_payload_is_read_only_and_owns_its_bytes():
    """parse_shard's payload cannot be written, and a caller that changes
    the mutable buffer it parsed does not change the shard."""
    shard = C2_CODE.encode([C2_CODE.field.one()] * 5)[6]
    assert shard.payload.any()
    blob = bytearray(serialize_shard(shard, 3, C2_CODE.field.m, C2_DIGEST))
    parsed = parse_shard(blob, C2_CODE, C2_DIGEST)
    assert parsed == shard
    with pytest.raises(ValueError):
        parsed.payload[0, 0] = 0
    blob[24:] = bytes(len(blob) - 24)
    assert parsed == shard


def test_payload_range_is_checked_before_the_role_tag():
    assert parse_outcome(parse_shard, shard_blob(**BAD_COEFF_AND_ROLE)) == (
        ShardFormatError,
        "bad payload symbol: coefficient out of range for the field")
    fixed = dict(BAD_COEFF_AND_ROLE, payload=bytes(32))
    assert parse_outcome(parse_shard, shard_blob(**fixed)) == (
        ShardFormatError, "role tag 0 contradicts node index 6")


@pytest.mark.parametrize("index,tag", [(0, 0), (6, 1)])
@pytest.mark.parametrize("role_tag", [2, 255])
def test_role_tags_past_one_are_refused(index, tag, role_tag):
    """The role tag is a u8 that is 0 (local) or 1 (global): any other
    value is refused, on C2's local node 0 and on its global node 6."""
    assert isinstance(parse_outcome(parse_shard,
                                    shard_blob(index, tag, bytes(32))), Shard)
    assert parse_outcome(parse_shard, shard_blob(index, role_tag, bytes(32))) == (
        ShardFormatError, f"role tag {role_tag} contradicts node index {index}")


def test_out_of_range_coefficient_or_index_exit3(tmp_path, capsys):
    msg_path = tmp_path / "msg.bin"
    write_message(msg_path, SimConfig(), seed=14)
    shard_dir = tmp_path / "shards"
    run(capsys, "encode", *DESK_ARGS, "--in", str(msg_path),
        "--out-dir", str(shard_dir))
    target = shard_dir / "shard_0000.lmbr"
    blob = target.read_bytes()
    decode = ["decode", *DESK_ARGS, "--shard-dir", str(shard_dir),
              "--out", str(tmp_path / "o.bin")]
    target.write_bytes(blob[:-2] + b"\xff\xff")     # coefficient 65535 >= q
    assert main(decode) == 3
    assert error_record(capsys)["error"] == "ShardFormatError"
    target.write_bytes(blob[:19] + (500).to_bytes(2, "little") + blob[21:])
    assert main(decode) == 3
    assert error_record(capsys)["error"] == "ShardFormatError"
    target.write_bytes(blob[:21] + b"\x02" + blob[22:])   # role tag 2
    assert main(decode) == 3
    assert error_record(capsys)["detail"] == (
        "role tag 2 contradicts node index 0")


def test_serialize_refuses_coefficients_past_uint16():
    """Through the Python API a code over q = 65537 can hold the
    coefficient 65536, which no uint16 slot stores: serialize_shard refuses
    it, and a negative one, with a ParameterError instead of packing a
    wrapped value.  65535 still packs."""
    code = lmbr.all_symbol_code(1, MbrCode(2, 1, 1, 65537), 1, ext_degree=1)
    digest = bytes(8)
    top = code.encode([code.field.from_int(65535)])[0]
    assert serialize_shard(top, 65537, 1, digest)[24:] == b"\xff\xff"
    for shard in code.encode([code.field.from_int(65536)]):
        assert shard.payload.tolist() == [[65536]]
        with pytest.raises(ParameterError) as err:
            serialize_shard(shard, 65537, 1, digest)
        assert str(err.value) == (
            f"shard {shard.index} has a coefficient outside 0..65535: "
            "shard files store each coefficient as a uint16")
    negative = make_shard(0, ("local", 0, 0), [[-1]])
    with pytest.raises(ParameterError, match="outside 0..65535"):
        serialize_shard(negative, 65537, 1, digest)


def test_serialize_refuses_payloads_parse_shard_would_refuse():
    """On the default code (q=3, m=6, alpha=2) serialize_shard refuses,
    with a ParameterError, each payload whose file parse_shard would
    refuse: one of width m passed with m + 1, one with the coefficient 5,
    the right entries as one flat row of 12, and halves of them as floats,
    which a uint16 cast would truncate.  The shard itself still writes the
    file that parses back to it."""
    cfg = SimConfig()
    code = cfg.build()
    digest = cfg.digest(code)
    q, m = cfg.q, code.field.m
    shard = code.encode([code.field.from_int(v) for v in range(5)])[0]
    assert (q, m, code.alpha) == (3, 6, 2)
    assert parse_shard(serialize_shard(shard, q, m, digest), code,
                       digest) == shard
    shape_text = ("shard 0 payload with shape {} is not an alpha x {} "
                  "integer array")
    with pytest.raises(ParameterError) as err:
        serialize_shard(shard, q, m + 1, digest)
    assert str(err.value) == shape_text.format((2, 6), 7)
    five = make_shard(0, shard.role, [[5, 0, 0, 0, 0, 0], [0] * 6])
    with pytest.raises(ParameterError) as err:
        serialize_shard(five, q, m, digest)
    assert str(err.value) == "shard 0 payload has a coefficient outside [0, 3)"
    flat = Shard(0, shard.role, shard.payload.reshape(-1))
    with pytest.raises(ParameterError) as err:
        serialize_shard(flat, q, m, digest)
    assert str(err.value) == shape_text.format((12,), 6)
    halves = Shard(0, shard.role, shard.payload / 2)
    with pytest.raises(ParameterError) as err:
        serialize_shard(halves, q, m, digest)
    assert str(err.value) == shape_text.format((2, 6), 6)


def _alpha_code(alpha):
    """An all-symbol code over GF(7^5) of one local (alpha + 1, 1, alpha)
    MBR group: its configuration, the code and its digest."""
    cfg = SimConfig(q=7, m=5, t=1, n_l=alpha + 1, r=1, d=alpha, file_dim=1)
    code = cfg.build()
    return cfg, code, cfg.digest(code)


_ALPHA_CODES = {alpha: _alpha_code(alpha) for alpha in range(1, 6)}


@st.composite
def _any_payload(draw):
    """An integer array of any shape up to 3 dimensions of up to 5 entries
    each, mostly (rows, 5); its entries are residues mod 7, or any values
    the dtype holds between -70000 and 70000."""
    dtype = np.dtype(draw(st.sampled_from([np.int64, np.int32, np.uint16])))
    info = np.iinfo(dtype)
    shape = draw(st.one_of(
        st.tuples(st.integers(0, 5), st.just(5)),
        hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=5)))
    entries = st.integers(0, 6)
    if draw(st.booleans()):
        entries = st.one_of(entries, st.integers(max(info.min, -70000),
                                                 min(info.max, 70000)))
    return draw(hnp.arrays(dtype, shape, elements=entries))


@settings(max_examples=300, deadline=None)
@given(payload=_any_payload(), data=st.data())
def test_serialized_shards_parse_back_equal(payload, data):
    """For any payload shape and entries, serialize_shard raises a
    ParameterError or writes a file that parse_shard reads back as an equal
    shard.  The file is parsed with a code whose alpha is the payload's row
    count when there is one: the header's alpha is that count, and a code
    of another alpha, like one of another digest, is another
    configuration."""
    rows = payload.shape[0] if payload.ndim == 2 else 2
    cfg, code, digest = _ALPHA_CODES.get(rows, _ALPHA_CODES[2])
    index = data.draw(st.integers(0, code.n_nodes - 1))
    shard = Shard(index, code.role_of(index), payload)
    try:
        blob = serialize_shard(shard, cfg.q, code.field.m, digest)
    except ParameterError:
        return
    assert parse_shard(blob, code, digest) == shard


def test_q_beyond_uint16_coefficients_refused_exit2(tmp_path, capsys):
    msg_path = tmp_path / "msg.bin"
    msg_path.write_bytes(b"".join(c.to_bytes(2, "little")
                                  for c in (65535, 1, 1, 1)))
    rc = main(["encode", "--construction", "all-symbol", "--q", "65537",
               "--t", "2", "--nl", "2", "--r", "1", "--d", "1", "--K", "2",
               "--in", str(msg_path), "--out-dir", str(tmp_path / "shards")])
    assert rc == 2
    record = error_record(capsys)
    assert record["error"] == "ParameterError"
    assert "uint16" in record["detail"]
    assert not (tmp_path / "shards").exists()
    SimConfig(q=65521)                    # the largest prime that fits
    with pytest.raises(ParameterError):
        SimConfig(q=65537)


Q_MAX_ARGS = ["--construction", "all-symbol", "--q", "65521", "--t", "1",
              "--nl", "2", "--r", "1", "--d", "1", "--K", "1"]


def test_largest_uint16_coefficient_round_trips_and_above_is_refused(
        tmp_path, capsys):
    """Over q = 65521 the coefficient 65520 comes back bit-exactly through
    the message and shard files, and each of 65521..65535 is refused with
    exit 3 from either file."""
    cfg = SimConfig(construction="all-symbol", q=65521, t=1, n_l=2, r=1,
                    d=1, file_dim=1)
    code = cfg.build()
    digest = cfg.digest(code)
    top = code.field.element([65520])
    msg_path = tmp_path / "msg.bin"
    cli.write_message(msg_path, [top])
    assert msg_path.read_bytes() == b"\xf0\xff"
    assert cli.read_message(msg_path, code) == [top]
    for shard in code.encode([top]):
        assert shard.payload.tolist() == [[65520]]
        blob = serialize_shard(shard, cfg.q, code.field.m, digest)
        assert blob[24:] == b"\xf0\xff"
        assert parse_shard(blob, code, digest) == shard
    shard_dir = tmp_path / "shards"
    out_path = tmp_path / "out.bin"
    decode = ["decode", *Q_MAX_ARGS, "--shard-dir", str(shard_dir),
              "--out", str(out_path)]
    assert main(["encode", *Q_MAX_ARGS, "--in", str(msg_path),
                 "--out-dir", str(shard_dir)]) == 0
    assert main(decode) == 0
    assert out_path.read_bytes() == b"\xf0\xff"
    capsys.readouterr()
    target = shard_dir / "shard_0000.lmbr"
    blob = target.read_bytes()
    for value in range(65521, 1 << 16):
        coeff = struct.pack("<H", value)
        msg_path.write_bytes(coeff)
        assert main(["encode", *Q_MAX_ARGS, "--in", str(msg_path),
                     "--out-dir", str(tmp_path / "refused")]) == 3
        assert error_record(capsys) == {
            "error": "ShardFormatError",
            "detail": "bad message symbol: coefficient out of range for "
                      "the field"}
        target.write_bytes(blob[:-2] + coeff)
        assert main(decode) == 3
        assert error_record(capsys) == {
            "error": "ShardFormatError",
            "detail": "bad payload symbol: coefficient out of range for "
                      "the field"}
    assert not (tmp_path / "refused").exists()


@pytest.mark.parametrize("name", sorted(FROZEN_SHARD_HASHES))
def test_file_writers_make_no_per_element_to_bytes(name, tmp_path,
                                                    monkeypatch):
    """serialize_shard and write_message pack every coefficient in one
    call: not one FieldElement.to_bytes, and the same bytes as the
    per-element encoding."""
    config, _ = FROZEN_SHARD_HASHES[name]
    cfg = SimConfig(**config)
    code = cfg.build()
    digest = cfg.digest(code)
    rng = random.Random(5)
    message = [code.field.random_element(rng) for _ in range(code.file_dim)]
    shards = code.encode(message)
    per_element = FieldElement.to_bytes
    calls = []

    def counted(self):
        calls.append(self)
        return per_element(self)

    monkeypatch.setattr(FieldElement, "to_bytes", counted)
    for shard in shards:
        blob = serialize_shard(shard, cfg.q, code.field.m, digest)
        assert blob[24:] == b"".join(per_element(e)
                                     for e in elements(code.field, shard))
    cli.write_message(tmp_path / "msg.bin", message)
    assert (tmp_path / "msg.bin").read_bytes() == b"".join(
        per_element(e) for e in message)
    assert calls == []
    message[0].to_bytes()
    assert calls == [message[0]]


def _flag_value(ints):
    """An integer flag's value: a number, or any short text at all."""
    return st.one_of(ints.map(str), st.text(max_size=6))


_ANY_INT = st.one_of(st.integers(-2, 45),
                     st.sampled_from([2, 3, 5, 7, 11, 13, 65521, 65537]),
                     st.integers())
#: --nl and --d reach a (30, 29, 29) MBR code, which builds or refuses in a
#: fraction of a second.
_SMALL_INT = st.integers(-1, 30)
_CONFIG_FLAGS = st.fixed_dictionaries({}, optional={
    "--construction": st.one_of(st.sampled_from(CONSTRUCTIONS),
                                st.text(max_size=12)),
    **{flag: _flag_value(_ANY_INT)
       for flag in ("--q", "--m", "--t", "--r", "--delta", "--K", "--kfr",
                    "--seed")},
    **{flag: _flag_value(_SMALL_INT) for flag in ("--nl", "--d")},
})


@settings(max_examples=250, deadline=None)
@given(command=st.sampled_from([["make"], ["bounds"],
                                ["verify", "--mode", "bounds-crosscheck"]]),
       flags=_CONFIG_FLAGS)
def test_cli_contract_holds_for_arbitrary_config_flags(command, flags):
    """Any value of any config flag ends in exit 0, 2 or 3, with stderr empty
    or exactly one JSON error record: never a traceback or usage text.

    Path flags (--design-file, --out-dir) are left out: their values name
    files, not configurations.
    """
    argv = list(command)
    for flag, value in flags.items():
        argv += [flag, value]
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as out_dir, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv + ["--out-dir", out_dir])
    assert rc in (0, 2, 3), (argv, rc, err.getvalue())
    err = err.getvalue()
    assert "Traceback" not in err and "usage:" not in err
    if err:
        lines = err.splitlines()
        assert len(lines) == 1, err
        record = json.loads(lines[0])
        assert sorted(record) == ["detail", "error"]
    else:
        assert rc == 0
        assert isinstance(json.loads(out.getvalue()), dict)


FUZZ_CONFIGS = {
    "C1": (DESK_ARGS, SimConfig()),
    "fano": (FR_ARGS, SimConfig(construction="fr-local", q=7, file_dim=10)),
}


@functools.lru_cache(maxsize=None)
def encoded_files(name):
    """The message file and the shard files of one seeded message."""
    args, cfg = FUZZ_CONFIGS[name]
    with tempfile.TemporaryDirectory() as tmp:
        msg_path = Path(tmp) / "message.bin"
        write_message(msg_path, cfg, seed=15)
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["encode", *args, "--in", str(msg_path),
                         "--out-dir", tmp]) == 0
        shards = {p.name: p.read_bytes()
                  for p in sorted(Path(tmp).glob("shard_*.lmbr"))}
        return msg_path.read_bytes(), shards


def mutate(draw, blob):
    """One byte flip in the header or the payload, a truncation, an
    extension, or random bytes in place of the file."""
    header = min(24, len(blob))
    kind = draw(st.sampled_from(["header", "payload", "truncate", "extend",
                                 "random"]))
    if kind in ("header", "payload"):
        low, high = (0, header) if kind == "header" else (header, len(blob))
        if low == high:
            return blob
        out = bytearray(blob)
        out[draw(st.integers(low, high - 1))] ^= draw(st.integers(1, 255))
        return bytes(out)
    if kind == "truncate":
        return blob[:draw(st.integers(0, max(len(blob) - 1, 0)))]
    if kind == "extend":
        return blob + draw(st.binary(min_size=1, max_size=8))
    return draw(st.binary(max_size=64))


@st.composite
def file_fuzz_cases(draw):
    name = draw(st.sampled_from(sorted(FUZZ_CONFIGS)))
    message, shards = encoded_files(name)
    shards = dict(shards)
    n = len(shards)
    command = draw(st.sampled_from(["decode", "repair", "encode"]))
    if command == "encode":
        message = mutate(draw, message)
    else:
        for _ in range(draw(st.integers(1, 3))):
            target = draw(st.sampled_from(sorted(shards) + ["stray"]))
            if target == "stray":
                stray = draw(st.sampled_from(
                    ["shard_0099.lmbr", "shard_x.lmbr", "shard_.lmbr"]))
                source = draw(st.sampled_from(sorted(shards) or ["-"]))
                shards[stray] = mutate(draw, shards.get(source, b""))
            elif draw(st.booleans()):
                shards[target] = mutate(draw, shards[target])
            else:
                del shards[target]
    return name, command, message, shards, draw(st.integers(-2, n + 1))


@settings(max_examples=100, deadline=None)
@given(case=file_fuzz_cases())
def test_cli_contract_holds_for_corrupt_shard_and_message_files(case):
    """Whole shard and message files, corrupted, truncated, extended,
    replaced, dropped or joined by a stray shard file, run through encode,
    decode and repair: exit 0-3, and a non-zero exit writes exactly one JSON
    error record to stderr, never a traceback."""
    name, command, message, shards, failed = case
    args = FUZZ_CONFIGS[name][0]
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "message.bin").write_bytes(message)
        shard_dir = tmp / "shards"
        shard_dir.mkdir()
        for file_name, blob in shards.items():
            (shard_dir / file_name).write_bytes(blob)
        argv = {
            "encode": ["--in", str(tmp / "message.bin"),
                       "--out-dir", str(tmp / "out")],
            "decode": ["--shard-dir", str(shard_dir),
                       "--out", str(tmp / "decoded.bin")],
            "repair": ["--shard-dir", str(shard_dir),
                       "--failed", str(failed)],
        }[command]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main([command, *args, *argv])
    err = err.getvalue()
    assert rc in (0, 1, 2, 3), (command, rc, err)
    if rc:
        lines = err.splitlines()
        assert len(lines) == 1, err
        record = json.loads(lines[0])
        assert isinstance(record, dict) and "error" in record
    else:
        assert err == ""
        assert isinstance(json.loads(out.getvalue()), dict)


#: Design-file lines: Fano blocks, blank and comment lines, non-integer
#: tokens, and blocks of small points that may be zero, negative, repeated
#: or of mixed sizes.
_DESIGN_LINE = st.one_of(
    st.sampled_from([" ".join(map(str, b)) for b in FANO_BLOCKS]),
    st.sampled_from(["", "   ", "# comment", "1 2 3 # tail", "1 x 3", "1.5 2",
                     "0 1 2", "-1 2 3", "1 1 2", "1 2", "1 2 3 4"]),
    st.lists(st.integers(-2, 9), max_size=4).map(
        lambda points: " ".join(map(str, points))),
)
_DESIGN_FILE = st.one_of(
    st.lists(_DESIGN_LINE, max_size=9).map(lambda lines: "\n".join(lines).encode()),
    st.binary(max_size=16),
    st.just(b"\xff\xfe1 2 3\n"),
)
_CLAIM_PROFILE = st.one_of(
    st.sampled_from(["", ",", "1,,2", "-1,2,2", "2,2,1", "2,2", "2,1,1,1",
                     "3,3,3,3,3,3,3", "9" * 30 + ",2,2", "-" + "9" * 30 + ",1,1"]),
    st.lists(st.sampled_from([-1, 0, 1, 2, 3, 10 ** 30, -10 ** 30]),
             min_size=1, max_size=8).map(lambda entries: ",".join(map(str, entries))),
    st.text(alphabet="0123456789,- x", max_size=12),
)
#: Values of the small config flags; None leaves the flag out, so that the
#: defaults (a buildable code) come up often.
_SMALL_FLAGS = {
    "--q": [None, None, 3, 7, 11, -1, 0, 1, 4],
    "--t": [None, None, 1, 2, 3, -1, 0],
    "--kfr": [None, None, 1, 3, 5, -1, 0, 6],
    "--K": [None, None, 1, 3, 5, 10, -1, 0, 12],
}


@st.composite
def verify_and_bounds_argv(draw):
    argv = draw(st.sampled_from([
        ["verify", "--mode", mode]
        for mode in ("dmin", "ura", "repair-all", "bounds-crosscheck")
    ] + [["bounds"]]))
    argv += ["--construction", draw(st.sampled_from(CONSTRUCTIONS))]
    for flag, values in _SMALL_FLAGS.items():
        value = draw(st.sampled_from(values))
        if value is not None:
            argv += [flag, str(value)]
    if argv[0] == "verify" and draw(st.booleans()):
        profile = draw(_CLAIM_PROFILE)
        # The joined form lets a leading minus through argparse.
        argv += (["--claim-profile=" + profile] if draw(st.booleans())
                 else ["--claim-profile", profile])
    design = draw(st.one_of(st.none(), st.just("missing"), _DESIGN_FILE))
    return argv, design


@settings(max_examples=120, deadline=None)
@given(case=verify_and_bounds_argv())
def test_cli_contract_holds_for_verify_and_bounds_on_corrupt_inputs(case):
    """verify and bounds with arbitrary design-file contents, claimed
    profiles and small configurations: exit 0-3 and exactly one JSON
    object, on stdout for a result or on stderr for an error, never a
    traceback."""
    argv, design = case
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        if design is not None:
            path = Path(tmp) / "design.txt"
            if design != "missing":
                path.write_bytes(design)
            argv = argv + ["--design-file", str(path)]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
    assert rc in (0, 1, 2, 3), (argv, rc, err.getvalue())
    outputs = [text for text in (out.getvalue(), err.getvalue()) if text]
    assert len(outputs) == 1, (argv, outputs)
    lines = outputs[0].splitlines()
    assert len(lines) == 1, (argv, outputs)
    record = json.loads(lines[0])
    assert isinstance(record, dict)
    if err.getvalue():
        assert rc != 0 and sorted(record) == ["detail", "error"]
