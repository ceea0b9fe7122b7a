"""Batch front end: construct codes, move shards on disk, inject failures,
repair, and certify optimality claims exhaustively.

All machine output is single-object JSON with a fixed key order so reports
can be diffed.  Exit codes: 0 success/pass, 1 verification failure or
unrepairable data (a witness is always included), 2 refusal (bad parameters,
a group too large for the certifiers' subset table, or, in ``verify --mode
repair-all``, more than :data:`REPAIR_ALL_CAP` decode-path helper subsets of
one node), 3 I/O or file format trouble.

Shard file format (little-endian):

    magic "LMBR" | version u8 | config digest 8 bytes | q u32 | m u16 |
    node index u16 | role tag u8 (0 local, 1 global) | alpha u16 |
    payload: alpha elements, each m uint16 coefficients, constant term first

The digest is the first 8 bytes of SHA-256 over the canonical JSON of the
generating configuration, so shards from a different code are rejected as a
configuration mismatch rather than surfacing as corrupt data.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import struct
import sys
from dataclasses import dataclass, fields
from itertools import combinations
from math import comb
from pathlib import Path

import numpy as np

from .bounds import BoundContext
from .errors import (
    ConfigMismatchError,
    DesignError,
    InconsistentDataError,
    InsufficientRankError,
    ParameterError,
    PatternCapError,
    RepairError,
    ShardFormatError,
)
from .frlocal import FrCode, fano_plane, load_design
from .galois import as_elements, coefficients
from .lrc import LrcCode, Shard
from .mbr import MbrCode

MAGIC = b"LMBR"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<4sB8sIHHBH")

CONSTRUCTIONS = ("all-symbol", "info-local", "fr-local")

#: Most decode-path helper subsets ``verify --mode repair-all`` checks per
#: node; past it the mode refuses with :class:`PatternCapError`, never
#: samples, as :func:`~lmbr.galois.subset_ranks` refuses past its budget.
REPAIR_ALL_CAP = 10 ** 6


@dataclass
class SimConfig:
    """Everything that pins down one code and one simulation run."""

    construction: str = "all-symbol"
    q: int = 3
    m: int | None = None
    t: int = 2
    n_l: int = 3
    r: int = 2
    d: int = 2
    delta: int = 1
    file_dim: int = 5
    k_fr: int = 5
    design_file: str | None = None
    seed: int = 0
    out_dir: str = "."

    def __post_init__(self):
        if self.construction not in CONSTRUCTIONS:
            raise ParameterError(
                f"construction must be one of {CONSTRUCTIONS}, "
                f"got {self.construction!r}"
            )
        if self.q > 1 << 16:
            # Coefficients 0..q-1 must fit the files' uint16 slots.
            raise ParameterError(
                f"q={self.q} exceeds 65536: shard and message files store "
                "each coefficient as a uint16"
            )
        if self.construction == "info-local" and self.delta < 1:
            raise ParameterError(
                "info-local layout needs delta >= 1 global nodes"
            )

    def local_code(self):
        if self.construction == "fr-local":
            design = (
                load_design(self.design_file) if self.design_file else fano_plane()
            )
            return FrCode(design, self.k_fr, self.q)
        return MbrCode(self.n_l, self.r, self.d, self.q)

    @property
    def global_nodes(self) -> int:
        """Nodes outside the local groups: delta for info-local, else 0."""
        return self.delta if self.construction == "info-local" else 0

    def build(self) -> LrcCode:
        return LrcCode(self.local_code(), self.t, self.file_dim,
                       global_nodes=self.global_nodes, ext_degree=self.m)

    def identity(self, code: LrcCode) -> dict:
        """Construction-determining fields, with the effective m."""
        ident = {
            "construction": self.construction,
            "q": self.q,
            "m": code.field.m,
            "t": self.t,
            "K": self.file_dim,
        }
        if self.construction == "fr-local":
            ident["kfr"] = self.k_fr
            ident["design"] = [list(b) for b in code.local.design.blocks]
        else:
            ident["nl"] = self.n_l
            ident["r"] = self.r
            ident["d"] = self.d
        if self.construction == "info-local":
            ident["delta"] = self.delta
        return ident

    def digest(self, code: LrcCode) -> bytes:
        canon = json.dumps(self.identity(code), sort_keys=True).encode()
        return hashlib.sha256(canon).digest()[:8]


# ---------------------------------------------------------------------------
# Shard file serialization.
# ---------------------------------------------------------------------------

def serialize_shard(shard: Shard, q: int, m: int, digest: bytes) -> bytes:
    """The shard's file over GF(q^m); a payload whose file :func:`parse_shard`
    would refuse is refused with :class:`ParameterError` before packing."""
    payload = shard.payload
    if (getattr(payload, "ndim", None) != 2 or payload.shape[1] != m
            or not len(payload) or payload.dtype.kind not in "iu"):
        raise ParameterError(
            f"shard {shard.index} payload with shape "
            f"{getattr(payload, 'shape', None)} is not an alpha x {m} "
            "integer array")
    # One pass: for q < 2^16, c // q is 0 exactly when c is a residue;
    # past it, c >> 16 is 0 exactly when a uint16 holds c.
    if np.count_nonzero(payload >> 16 if q >> 16 else payload // q):
        if np.count_nonzero(payload >> 16):  # a cast alone would wrap it
            raise ParameterError(
                f"shard {shard.index} has a coefficient outside 0..65535: "
                "shard files store each coefficient as a uint16")
        raise ParameterError(
            f"shard {shard.index} payload has a coefficient outside [0, {q})")
    role_tag = 1 if shard.is_global else 0
    head = _HEADER.pack(
        MAGIC, FORMAT_VERSION, digest, q, m, shard.index, role_tag,
        len(payload)
    )
    return head + payload.astype("<u2").tobytes()


def parse_shard(data: bytes, code: LrcCode, digest: bytes) -> Shard:
    if len(data) < _HEADER.size:
        raise ShardFormatError("shard file shorter than its header")
    magic, version, got_digest, q, m, index, role_tag, alpha = (
        _HEADER.unpack_from(data)
    )
    if magic != MAGIC:
        raise ShardFormatError(f"bad magic {magic!r}")
    if version != FORMAT_VERSION:
        raise ShardFormatError(f"unsupported format version {version}")
    if got_digest != digest:
        raise ConfigMismatchError(
            "shard was produced by a different configuration "
            f"(digest {got_digest.hex()} != {digest.hex()})"
        )
    if q != code.local.q or m != code.field.m:
        raise ConfigMismatchError(
            f"shard field GF({q}^{m}) != code field "
            f"GF({code.local.q}^{code.field.m})"
        )
    if alpha != code.alpha:
        raise ShardFormatError(f"alpha {alpha} != code alpha {code.alpha}")
    size = alpha * m
    if len(data) - _HEADER.size != 2 * size:
        raise ShardFormatError(
            f"payload is {len(data) - _HEADER.size} bytes, expected {2 * size}"
        )
    if index >= code.n_nodes:
        raise ShardFormatError(
            f"node index {index} out of range for n={code.n_nodes}"
        )
    # The whole payload in one call, range-checked once (alpha, m >= 1).
    # It is a view of immutable bytes (bytes() copies only other buffers),
    # so it is read-only and nothing can change it under the shard.
    coeffs = np.frombuffer(bytes(data), "<u2", size, _HEADER.size)
    if coeffs.max() >= q:
        raise ShardFormatError(
            "bad payload symbol: coefficient out of range for the field"
        )
    role = code.role_of(index)
    # The tag is exactly 0 or 1, as serialize_shard writes it: 2..255 are
    # refused on every node.
    if role_tag != (1 if role[0] == "global" else 0):
        raise ShardFormatError(
            f"role tag {role_tag} contradicts node index {index}"
        )
    return Shard(index, role, coeffs.reshape(alpha, m))


def _shard_path(out_dir: Path, index: int) -> Path:
    return out_dir / f"shard_{index:04d}.lmbr"


def _load_shards(shard_dir: Path, code: LrcCode, digest: bytes,
                 skip: int | None = None) -> dict[int, Shard]:
    if not shard_dir.is_dir():
        raise FileNotFoundError(f"shard directory {shard_dir} does not exist")
    shards = {}
    sources = {}
    for path in sorted(shard_dir.glob("shard_*.lmbr")):
        if skip is not None and path == _shard_path(shard_dir, skip):
            continue        # the node being rebuilt: replaced, never read
        shard = parse_shard(path.read_bytes(), code, digest)
        if shard.index in sources:
            raise ShardFormatError(
                f"{sources[shard.index]} and {path} both claim node index "
                f"{shard.index}"
            )
        sources[shard.index] = path
        if shard.index != skip:
            shards[shard.index] = shard
    return shards


# ---------------------------------------------------------------------------
# Message file I/O: K elements, each m uint16 LE coefficients; raw or hex.
# ---------------------------------------------------------------------------

def read_message(path: Path, code: LrcCode) -> list:
    expected = code.file_dim * code.field.m * 2
    raw = path.read_bytes()
    if len(raw) != expected:
        try:
            text = raw.decode("ascii")
            raw = bytes.fromhex("".join(text.split()))
        except (UnicodeDecodeError, ValueError):
            raise ShardFormatError(
                f"message must be {expected} raw bytes or hex text, got "
                f"{len(raw)} bytes"
            )
        if len(raw) != expected:
            raise ShardFormatError(
                f"hex message decodes to {len(raw)} bytes, expected {expected}"
            )
    coeffs = np.frombuffer(raw, "<u2").reshape(code.file_dim, code.field.m)
    if (coeffs >= code.field.q).any():
        raise ShardFormatError(
            "bad message symbol: coefficient out of range for the field")
    return as_elements(code.field, coeffs)


def write_message(path: Path, message) -> None:
    coeffs = coefficients(message, message[0].field)
    if np.count_nonzero(coeffs >> 16):  # a cast alone would wrap it
        raise ParameterError("message has a coefficient outside 0..65535: "
                             "message files store each as a uint16")
    path.write_bytes(coeffs.astype("<u2").tobytes())


# ---------------------------------------------------------------------------
# Commands.
# ---------------------------------------------------------------------------

def cmd_make(cfg: SimConfig) -> int:
    code = cfg.build()
    ctx = code.bound_ctx
    summary = {
        "construction": cfg.construction,
        "n": code.n_nodes,
        "alpha": code.alpha,
        "k_local": code.local.k_message,
        "K": cfg.file_dim,
        "m": code.field.m,
        "dmin_bound": code.dmin_bound,
        "file_size_bound": ctx.max_file_size(code.dmin_bound),
        "digest": cfg.digest(code).hex(),
    }
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    descriptor = {"config": cfg.identity(code), "derived": summary}
    (out_dir / "code.json").write_text(json.dumps(descriptor, indent=2) + "\n")
    print(json.dumps(summary))
    return 0


def cmd_encode(cfg: SimConfig, input_path: str) -> int:
    code = cfg.build()
    digest = cfg.digest(code)
    message = read_message(Path(input_path), code)
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for shard in code.encode(message):
        _shard_path(out_dir, shard.index).write_bytes(
            serialize_shard(shard, cfg.q, code.field.m, digest)
        )
    print(json.dumps({"shards": code.n_nodes, "out_dir": str(out_dir),
                      "digest": digest.hex()}))
    return 0


def cmd_decode(cfg: SimConfig, shard_dir: str, output_path: str) -> int:
    code = cfg.build()
    digest = cfg.digest(code)
    shards = _load_shards(Path(shard_dir), code, digest)
    message = code.decode(shards.values())
    write_message(Path(output_path), message)
    print(json.dumps({"symbols": len(message), "shards_used": len(shards),
                      "out": output_path}))
    return 0


def cmd_repair(cfg: SimConfig, shard_dir: str, failed: int) -> int:
    code = cfg.build()
    digest = cfg.digest(code)
    available = _load_shards(Path(shard_dir), code, digest, skip=failed)
    shard, metrics = code.repair(failed, available)
    _shard_path(Path(shard_dir), failed).write_bytes(
        serialize_shard(shard, cfg.q, code.field.m, digest)
    )
    record = {"failed": failed}
    record.update(metrics)
    print(json.dumps(record))
    return 0


def _verify_dmin(code: LrcCode) -> dict:
    claimed = code.dmin_bound
    result = code.measure_dmin()
    return {
        "mode": "dmin",
        "claimed": claimed,
        "measured": result.value,
        "patterns_checked": result.patterns_checked,
        "pass": result.value == claimed,
        "witness": [int(i) for i in result.witness],
    }


def _verify_ura(code: LrcCode, claim_profile: list[int] | None) -> dict:
    report = code.ura_report(claimed_profile=claim_profile)
    return {
        "mode": "ura",
        "claimed": report["claimed_profile"],
        "measured": "all-subsets-match" if report["pass"] else "mismatch",
        "columns": report["columns"],
        "subsets_checked": report["subsets_checked"],
        "pass": report["pass"],
        "witness": report["witness"],
    }


def _verify_repair_all(cfg: SimConfig, code: LrcCode) -> dict:
    rng = random.Random(cfg.seed)
    message = [code.field.random_element(rng) for _ in range(code.file_dim)]
    originals = {s.index: s for s in code.encode(message)}
    cases = 0
    failures = []

    def check(failed, shard, metrics, expect_symbols=None):
        nonlocal cases
        cases += 1
        ok = shard == originals[failed]
        if expect_symbols is not None:
            ok = ok and metrics.get("downloaded_symbols") == expect_symbols
        if not ok:
            failures.append({"failed": failed, "metrics": metrics})

    helper_sets = getattr(code.local, "helper_sets", None)
    for failed in range(code.n_nodes):
        available = {i: s for i, s in originals.items() if i != failed}
        role = code.role_of(failed)
        if role[0] == "local" and helper_sets is not None:
            # Alpha symbols from each helper set (d * beta at the MBR point).
            survivors = [i for i in code.group_members(role[1]) if i != failed]
            for helper_set in helper_sets(survivors):
                check(failed, *code.repair(
                    failed, {h: available[h] for h in helper_set}),
                      expect_symbols=code.alpha)
        else:
            # Decode path: every threshold-sized helper subset, each through
            # the repair call itself (it decodes from exactly the shards it
            # is given when there are no more than needed).
            subsets = comb(len(available), code.decode_threshold)
            if subsets > REPAIR_ALL_CAP:
                raise PatternCapError(
                    f"C({len(available)},{code.decode_threshold}) = {subsets} "
                    f"helper subsets of node {failed} exceed the cap "
                    f"{REPAIR_ALL_CAP}; refusing to sample")
            for subset in combinations(sorted(available),
                                       code.decode_threshold):
                check(failed, *code.repair(
                    failed, {i: available[i] for i in subset}))
            shard, metrics = code.repair(failed, available)
            check(failed, shard, metrics)
    return {
        "mode": "repair-all",
        "cases": cases,
        "pass": not failures,
        "witness": failures[0] if failures else None,
    }


def _verify_bounds_crosscheck(ctx) -> dict:
    top = 3 * ctx.k_local
    witness = None
    for v in range(1, top + 1):
        direct = ctx.p_inv(v)
        closed = ctx.p_inv_closed_form(v)
        if direct != closed:
            witness = {"K": v, "summation": direct, "closed_form": closed}
            break
    return {
        "mode": "bounds-crosscheck",
        "range": [1, top],
        "pass": witness is None,
        "witness": witness,
    }


def cmd_verify(cfg: SimConfig, mode: str,
               claim_profile: list[int] | None = None) -> int:
    if claim_profile is not None and mode != "ura":
        raise ParameterError(
            f"--claim-profile applies only to --mode ura, not --mode {mode}")
    if mode == "bounds-crosscheck":
        # Pure profile arithmetic; no extension field is needed.
        local = cfg.local_code()
        extra = cfg.global_nodes
        ctx = BoundContext.for_local_code(local, cfg.t * local.n_nodes + extra,
                                          extra=extra)
        report = _verify_bounds_crosscheck(ctx)
    elif mode == "dmin":
        report = _verify_dmin(cfg.build())
    elif mode == "ura":
        report = _verify_ura(cfg.build(), claim_profile)
    elif mode == "repair-all":
        report = _verify_repair_all(cfg, cfg.build())
    else:
        raise ParameterError(f"unknown verify mode {mode!r}")
    print(json.dumps(report))
    return 0 if report["pass"] else 1


def cmd_bounds(cfg: SimConfig) -> int:
    code = cfg.build()
    ctx = code.bound_ctx
    print(json.dumps({
        "n": ctx.n,
        "K": cfg.file_dim,
        "dmin_bound": code.dmin_bound,
        "file_size_bound": ctx.max_file_size(code.dmin_bound),
        "pinv": ctx.p_inv(cfg.file_dim),
    }))
    return 0


# ---------------------------------------------------------------------------
# Argument parsing.
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Argument parser whose errors are refusals, not usage text.

    Subparsers are built from the parent's class, so a malformed flag in
    any command reaches :func:`main` as a :class:`ParameterError` and
    leaves as the JSON error record with exit 2.
    """

    def error(self, message):
        raise ParameterError(f"{self.prog}: {message}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="lmbr",
        description="Locally repairable storage codes with regenerating or "
                    "repair-by-transfer local layers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config(p):
        # Each flag's dest is its SimConfig field; a flag left unset stays
        # off the namespace, so the field's own default applies.
        def flag(name, **kwargs):
            p.add_argument(name, default=argparse.SUPPRESS, **kwargs)

        flag("--construction", choices=CONSTRUCTIONS)
        flag("--q", type=int, help="base field order")
        flag("--m", type=int,
             help="extension degree (default: outer code length)")
        flag("--t", type=int, help="local group count")
        flag("--nl", type=int, dest="n_l", metavar="NL",
             help="local code length")
        flag("--r", type=int, help="local reconstruction threshold")
        flag("--d", type=int, help="repair degree")
        flag("--delta", type=int, help="global node count (info-local only)")
        flag("--K", type=int, dest="file_dim",
             help="file size (message symbols)")
        flag("--kfr", type=int, dest="k_fr", metavar="KFR",
             help="message dimension of the repetition layer")
        flag("--design-file",
             help="block design, one block per line, 1-based points")
        flag("--seed", type=int)
        flag("--out-dir")

    p = sub.add_parser("make", help="construct a code and print its summary")
    add_config(p)

    p = sub.add_parser("encode", help="encode a message file into shards")
    add_config(p)
    p.add_argument("--in", dest="input_path", required=True)

    p = sub.add_parser("decode", help="decode a message from surviving shards")
    add_config(p)
    p.add_argument("--shard-dir", required=True)
    p.add_argument("--out", dest="output_path", required=True)

    p = sub.add_parser("repair", help="rebuild one failed shard in place")
    add_config(p)
    p.add_argument("--shard-dir", required=True)
    p.add_argument("--failed", type=int, required=True)

    p = sub.add_parser("verify", help="run an exhaustive certification mode")
    add_config(p)
    p.add_argument("--mode", required=True,
                   choices=("dmin", "ura", "repair-all", "bounds-crosscheck"))
    p.add_argument("--claim-profile", default=None,
                   help="comma-separated rank profile override, a negative "
                        "control; --mode ura only")

    p = sub.add_parser("bounds", help="print the bound record for K")
    add_config(p)

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        cfg = SimConfig(**{f.name: getattr(args, f.name)
                           for f in fields(SimConfig) if hasattr(args, f.name)})
        if args.command == "make":
            return cmd_make(cfg)
        if args.command == "encode":
            return cmd_encode(cfg, args.input_path)
        if args.command == "decode":
            return cmd_decode(cfg, args.shard_dir, args.output_path)
        if args.command == "repair":
            return cmd_repair(cfg, args.shard_dir, args.failed)
        if args.command == "verify":
            claim = None
            if args.claim_profile is not None:
                try:
                    claim = [int(tok) for tok in args.claim_profile.split(",")]
                except ValueError:
                    raise ParameterError(
                        "--claim-profile must be comma-separated integers, "
                        f"got {args.claim_profile!r}"
                    ) from None
            return cmd_verify(cfg, args.mode, claim)
        if args.command == "bounds":
            return cmd_bounds(cfg)
        raise AssertionError(f"unhandled command {args.command}")
    except (PatternCapError, ParameterError, ConfigMismatchError,
            DesignError) as exc:
        detail = str(exc)
        if isinstance(exc, DesignError) and exc.witness is not None:
            detail += f"; witness {[int(p) for p in exc.witness]}"
        print(json.dumps({"error": type(exc).__name__, "detail": detail}),
              file=sys.stderr)
        return 2
    except (InsufficientRankError, InconsistentDataError, RepairError) as exc:
        print(json.dumps({"error": type(exc).__name__, "detail": str(exc)}),
              file=sys.stderr)
        return 1
    except (OSError, ShardFormatError) as exc:
        print(json.dumps({"error": type(exc).__name__, "detail": str(exc)}),
              file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
