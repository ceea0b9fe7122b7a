"""Closed-loop stripe traffic and certification against lmbr's public API.

One client, one thread: each op starts only after the previous one ends.
A run of a workload interleaves three kinds of work on one code
configuration:

* set-up: ``SimConfig.build()`` plus the config digest, each time in a
  fresh process with nothing built or interned, repeated over the run and
  reported as a high percentile;
* stripe traffic: write, read, repair and (every 8th stripe) corrupt-read,
  each mirroring the CLI command of the same name without disk or
  subprocess, every output checked bit-exactly;
* certification: ``measure_dmin`` and ``ura_report``, each result checked
  against the bound.

Every workload runs every kind so that every end-to-end metric exists on
every workload; the workloads differ in configuration and in how the run's
seconds are split between traffic and certification.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field as dc_field
from pathlib import Path
from time import perf_counter, perf_counter_ns

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from lmbr import cli, galois  # noqa: E402
from lmbr.errors import InconsistentDataError  # noqa: E402
from tracer import Tracer  # noqa: E402


@dataclass(frozen=True)
class Workload:
    config: dict
    #: Share of the run's seconds spent certifying; the rest is traffic.
    cert_share: float
    #: Set-ups per run, spread evenly over it.
    setup_reps: int
    #: SHA-256 of the serialized shards of ``golden_message``; pins the
    #: shard format, the field modulus and the encoding across changes.
    golden: str


#: The workloads; ``BENCHMARK.json`` gates all but ``certify``, whose
#: 6-7 s certifications fit only two or three of each into a run, so that
#: their times spread by up to 20% over ten runs.  It stays runnable for
#: before/after numbers on the certification path.
WORKLOADS = {
    "fano-stripes": Workload(
        dict(construction="fr-local", q=7, t=2, k_fr=5, file_dim=10, m=10),
        cert_share=0.25,
        setup_reps=16,
        golden="15ba579d2736b60c6ed098b18297c5916c50c76eb5b8eff07b19e04c342f5644",
    ),
    "mbr-stripes": Workload(
        dict(construction="info-local", q=3, t=2, delta=1, file_dim=5, m=8),
        cert_share=0.1,
        setup_reps=60,
        golden="a51339d55d5b34117a784ba4863d2d868ded064269b33f8dd134185d6e485b34",
    ),
    "certify": Workload(
        dict(construction="all-symbol", q=3, t=5, file_dim=6, m=15),
        cert_share=0.85,
        setup_reps=30,
        golden="d8d7f4acbe9173f76b78b9adcaca3be4f6ef198a4610a0e76eb8ecfdbaed842c",
    ),
}

#: Every 8th stripe also carries a corrupt-read.
CORRUPT_EVERY = 8
#: Op time per window of the windowed goodput.
GOODPUT_WINDOW_S = 0.25
#: Hard stop for one measurement, this long after its ``seconds``, whatever
#: the sample minimums ask for.
HARD_EXTRA_S = 20.0

#: A set-up server: it imports lmbr once and never builds a code, then forks
#: one child per request.  Each child starts with everything imported and
#: nothing built or interned, like a fresh ``lmbr`` process after its
#: imports, so a cache that a later change adds anywhere in the program is
#: cold in every sample.  A fork costs milliseconds where a fresh interpreter
#: costs a third of a second, so a run can take many samples; in exchange
#: each sample also pays the child's copy-on-write page faults.
_SETUP_SERVER = """
import gc, json, os, sys, time
sys.path.insert(0, sys.argv[1])
from lmbr.cli import SimConfig
cfg = SimConfig(**json.loads(sys.argv[2]))
gc.freeze()  # keep the collector off the shared pages in every child
for _ in sys.stdin:
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            start = time.perf_counter()
            cfg.digest(cfg.build())
            os.write(write_fd, repr(time.perf_counter() - start).encode())
            code = 0
        finally:
            os._exit(code)
    os.close(write_fd)
    with os.fdopen(read_fd) as fh:
        seconds = fh.read()
    os.waitpid(pid, 0)
    print(seconds or "failed", flush=True)
"""


class SetupProbe:
    """Times ``SimConfig.build()`` plus the config digest in fresh processes
    with nothing built yet, excluding interpreter start-up and imports."""

    def __init__(self, wl: Workload):
        self.proc = subprocess.Popen(
            [sys.executable, "-I", "-c", _SETUP_SERVER, str(SRC),
             json.dumps(wl.config)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def sample(self) -> float:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline().strip()
        if line in ("", "failed"):
            raise RuntimeError("set-up failed in a fresh process")
        return float(line)

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def golden_digest(cfg, code) -> str:
    digest = cfg.digest(code)
    message = [code.field.from_int((7 * i + 1) % code.field.order)
               for i in range(code.file_dim)]
    blobs = [cli.serialize_shard(s, cfg.q, code.field.m, digest)
             for s in code.encode(message)]
    return hashlib.sha256(b"".join(blobs)).hexdigest()


@dataclass
class Measurement:
    """What one measurement saw: latencies, outcomes and input properties."""

    latency_ns: dict = dc_field(default_factory=lambda: {
        "write": [], "read": [], "repair": [], "corrupt-read": []})
    attempted: Counter = dc_field(default_factory=Counter)
    failed: Counter = dc_field(default_factory=Counter)
    errors: list = dc_field(default_factory=list)
    stripes: int = 0
    erasures: Counter = dc_field(default_factory=Counter)
    survivor_repeats: int = 0
    surplus_symbols: int = 0
    repair_paths: Counter = dc_field(default_factory=Counter)
    downloaded: list = dc_field(default_factory=list)
    #: (op ns, message symbols delivered) per stripe, in run order.
    stripe_log: list = dc_field(default_factory=list)
    setup_s: list = dc_field(default_factory=list)
    dmin_s: list = dc_field(default_factory=list)
    ura_s: list = dc_field(default_factory=list)

    def outcome(self, op: str, ok: bool, detail: str = "") -> bool:
        self.attempted[op] += 1
        if not ok:
            self.failed[op] += 1
            if len(self.errors) < 5:
                self.errors.append(f"{op}: {detail}")
        return ok


def _timed(tracer, op, fn):
    """Run ``fn`` as op ``op``; return (ns, result, exception)."""
    ctx = tracer.op(op) if tracer else nullcontext()
    start = perf_counter_ns()
    try:
        with ctx:
            result = fn()
    except Exception as exc:  # the oracle judges every exception
        return perf_counter_ns() - start, None, exc
    return perf_counter_ns() - start, result, None


def _flip(blob: bytes, payload_bytes: int, pos: int, delta: int, q: int) -> bytes:
    """Add ``delta`` mod q to payload coefficient ``pos`` of a shard file."""
    off = len(blob) - payload_bytes + 2 * pos
    bad = bytearray(blob)
    value = int.from_bytes(bad[off:off + 2], "little")
    bad[off:off + 2] = ((value + delta) % q).to_bytes(2, "little")
    return bytes(bad)


class Traffic:
    """Seeded stripe traffic: each call of :meth:`stripe` writes one stripe,
    reads it back, repairs one node and, every 8th stripe, reads a copy with
    one flipped coefficient."""

    def __init__(self, meas: Measurement, cfg, code, seed: int, tracer=None):
        self.meas, self.cfg, self.code, self.tracer = meas, cfg, code, tracer
        self.rng = random.Random(seed)
        self.digest = cfg.digest(code)
        self.seen_sets = set()

    def stripe(self) -> None:
        meas, code, rng, digest = self.meas, self.code, self.rng, self.digest
        n, q, m, alpha = code.n_nodes, self.cfg.q, code.field.m, code.alpha
        message = tuple(code.field.random_element(rng)
                        for _ in range(code.file_dim))
        erased = set(rng.sample(range(n), rng.randint(0, code.dmin_bound - 1)))
        survivors = [i for i in range(n) if i not in erased]
        failed = rng.randrange(n)
        corrupt = None
        if meas.stripes % CORRUPT_EVERY == CORRUPT_EVERY - 1:
            # One surplus shard beyond the threshold: the others still span
            # rank K, so the flipped coefficient must be detected.
            c_erased = set(rng.sample(
                range(n), rng.randint(0, n - code.decode_threshold - 1)))
            c_survivors = [i for i in range(n) if i not in c_erased]
            corrupt = (c_survivors, rng.choice(c_survivors),
                       rng.randrange(alpha * m), rng.randint(1, q - 1))
        meas.stripes += 1

        def write():
            return [cli.serialize_shard(s, q, m, digest)
                    for s in code.encode(message)]

        ns, blobs, exc = _timed(self.tracer, "write", write)
        meas.latency_ns["write"].append(ns)
        stripe_ns = ns
        if not meas.outcome("write", exc is None, repr(exc)):
            meas.stripe_log.append((stripe_ns, 0))
            return

        def read():
            parsed = [cli.parse_shard(blobs[i], code, digest) for i in survivors]
            return code.decode(parsed)

        ns, got, exc = _timed(self.tracer, "read", read)
        ok = meas.outcome(
            "read", exc is None and tuple(got) == message,
            repr(exc) if exc else "decoded message differs from the written one")
        meas.latency_ns["read"].append(ns)
        stripe_ns += ns
        meas.erasures[len(erased)] += 1
        meas.survivor_repeats += tuple(survivors) in self.seen_sets
        self.seen_sets.add(tuple(survivors))
        meas.surplus_symbols += len(survivors) * alpha - code.file_dim

        def repair():
            available = {}
            for i in range(n):
                if i != failed:
                    shard = cli.parse_shard(blobs[i], code, digest)
                    available[shard.index] = shard
            rebuilt, metrics = code.repair(failed, available)
            return cli.serialize_shard(rebuilt, q, m, digest), metrics

        ns, result, exc = _timed(self.tracer, "repair", repair)
        ok &= meas.outcome(
            "repair", exc is None and result[0] == blobs[failed],
            repr(exc) if exc else f"rebuilt node {failed} differs")
        meas.latency_ns["repair"].append(ns)
        stripe_ns += ns
        if exc is None:
            meas.repair_paths[result[1]["path"]] += 1
            meas.downloaded.append(result[1]["downloaded_symbols"])

        if corrupt is not None:
            c_survivors, victim, pos, delta = corrupt
            bad = {i: blobs[i] for i in c_survivors}
            bad[victim] = _flip(bad[victim], alpha * m * 2, pos, delta, q)

            def corrupt_read():
                parsed = [cli.parse_shard(bad[i], code, digest)
                          for i in c_survivors]
                return code.decode(parsed)

            ns, _, exc = _timed(self.tracer, "corrupt-read", corrupt_read)
            ok &= meas.outcome(
                "corrupt-read", isinstance(exc, InconsistentDataError),
                repr(exc) if exc else "corruption went undetected")
            meas.latency_ns["corrupt-read"].append(ns)
            stripe_ns += ns
        meas.stripe_log.append((stripe_ns, code.file_dim if ok else 0))


def _certify_dmin(meas: Measurement, code, tracer) -> None:
    ns, result, exc = _timed(tracer, "dmin", code.measure_dmin)
    meas.outcome("dmin", exc is None and result.value == code.dmin_bound,
                  repr(exc) if exc else
                  f"measured d_min {result.value} != bound {code.dmin_bound}")
    meas.dmin_s.append(ns / 1e9)


def _certify_ura(meas: Measurement, code, tracer) -> None:
    ns, report, exc = _timed(tracer, "ura", code.ura_report)
    meas.outcome("ura", exc is None and report["pass"],
                  repr(exc) if exc else f"URA witness {report['witness']}")
    meas.ura_s.append(ns / 1e9)


def measure(wl: Workload, cfg, code, seed: int, seconds: float,
            min_samples: int, setup_reps: int = 0, tracer=None) -> Measurement:
    """Interleave stripes, certifications and set-ups for ``seconds``.

    The machine's speed drifts over tens of seconds, so every metric draws
    its samples from the whole run rather than from one contiguous stretch.
    Certification gets ``wl.cert_share`` of the time, split evenly between
    d_min and URA; ``setup_reps`` set-ups are spread evenly.  The run ends once
    ``seconds`` have passed and every op has its minimum number of samples,
    and in any case ``HARD_EXTRA_S`` after ``seconds``.
    """
    meas = Measurement()
    traffic = Traffic(meas, cfg, code, seed, tracer)
    cert_s = {_certify_dmin: 0.0, _certify_ura: 0.0}
    probe = SetupProbe(wl) if setup_reps else None
    try:
        start = perf_counter()
        while True:
            spent = perf_counter() - start
            over = spent >= seconds
            need_setup = len(meas.setup_s) < setup_reps
            need_cert = not (meas.dmin_s and meas.ura_s)
            if spent >= seconds + HARD_EXTRA_S or (
                    over and not need_setup and not need_cert
                    and meas.stripes >= min_samples):
                break
            if need_setup and len(meas.setup_s) * seconds <= spent * setup_reps:
                meas.setup_s.append(probe.sample())
            elif (need_cert if over
                  else sum(cert_s.values()) < wl.cert_share * spent):
                certify = min(cert_s, key=cert_s.get)
                t0 = perf_counter()
                certify(meas, code, tracer)
                cert_s[certify] += perf_counter() - t0
            else:
                traffic.stripe()
    finally:
        if probe:
            probe.close()
    return meas


# ---------------------------------------------------------------------------
# Metrics.
# ---------------------------------------------------------------------------

def upper(values, share: float):
    """Nearest-rank value with at least ``share`` of the samples beyond it:
    p99 for ``share=0.01``."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil((1 - share) * len(ordered)) - 1)]


def p95(values):
    return upper(values, 0.05)


PERCENTILES = {"p95": p95, "p99": lambda values: upper(values, 0.01)}


def p10(values):
    """Lowest-rank value with at least 10% of the samples below or at it."""
    ordered = sorted(values)
    return ordered[int(0.1 * len(ordered))]


def goodput(meas: Measurement) -> float:
    """Message symbols delivered per second of op time, over the whole run."""
    ns = sum(n for n, _ in meas.stripe_log)
    return sum(d for _, d in meas.stripe_log) / (ns / 1e9)


def window_goodputs(meas: Measurement) -> list:
    """Goodput of consecutive stripes grouped into windows of
    ``GOODPUT_WINDOW_S`` of op time; a shorter run is one window."""
    rates, ns, symbols = [], 0, 0
    for stripe_ns, delivered in meas.stripe_log:
        ns += stripe_ns
        symbols += delivered
        if ns >= GOODPUT_WINDOW_S * 1e9:
            rates.append(symbols / (ns / 1e9))
            ns = symbols = 0
    return rates or [goodput(meas)]


def _or_zero(stat, values):
    """``stat(values)``, or 0 when every op of the kind failed early."""
    return stat(values) if values else 0.0


def end_to_end(meas: Measurement) -> tuple[dict, dict]:
    """Bounded end-to-end metrics, and the ones that are reported only.

    The host's CPU flips between a fast and a slow speed every few seconds,
    and a run's share of slow time varies, so medians and means land on
    either speed from run to run.  The bounded timings are therefore tail
    statistics, which fall in the slow speed on every run: the p90 set-up
    time, p95 write and read latencies, the p99 repair latency, the p95
    certification time and the 10th-percentile goodput over quarter-second
    windows.  Repair takes p99 because on ``mbr-stripes`` one repair in
    seven takes the slow decode path, and the repair p95 sits in the middle
    of that path's times; write and read take p95 because their p99 catches
    more one-off stalls.  The other percentiles, medians and the whole-run
    goodput are printed beside them.
    """
    bounded = {"setup_s": (upper(meas.setup_s, 0.1), "s")}
    reported = {"setup_p50_s": (statistics.median(meas.setup_s), "s")}
    for op, tail, other in (("write", "p95", "p99"), ("read", "p95", "p99"),
                            ("repair", "p99", "p95")):
        ms = [v / 1e6 for v in meas.latency_ns[op]]
        bounded[f"{op}_{tail}_ms"] = (_or_zero(PERCENTILES[tail], ms), "ms")
        reported[f"{op}_p50_ms"] = (_or_zero(statistics.median, ms), "ms")
        reported[f"{op}_{other}_ms"] = (_or_zero(PERCENTILES[other], ms), "ms")
    bounded["goodput_p10_sym_per_s"] = (p10(window_goodputs(meas)), "sym/s")
    reported["goodput_sym_per_s"] = (goodput(meas), "sym/s")
    bounded["repair_download_sym"] = (
        _or_zero(statistics.fmean, meas.downloaded), "sym")
    for op in ("dmin", "ura"):
        times = getattr(meas, f"{op}_s")
        bounded[f"{op}_p95_s"] = (p95(times), "s")
        reported[f"{op}_s"] = (statistics.median(times), "s")
    bounded["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    return bounded, reported


#: Per-layer metrics from the traced run: (name, unit, op, quantity, key).
#: The value is per op of kind ``op``: span time ("total", or "self" minus
#: child spans), span "calls", a counter ("count"), or "nested" calls of
#: the key's child span under its parent span.
LAYER_METRICS = (
    ("galois.field_s", "s", "setup", "total", "galois.field"),
    ("galois.mul_calls.write", "count", "write", "count", "galois.mul"),
    ("galois.mul_calls.read", "count", "read", "count", "galois.mul"),
    ("galois.mul_calls.repair", "count", "repair", "count", "galois.mul"),
    ("galois.rank_mod_q_calls.dmin", "count", "dmin", "calls", "galois.rank_mod_q"),
    ("galois.rank_mod_q_s.dmin", "s", "dmin", "total", "galois.rank_mod_q"),
    ("galois.rank_mod_q_calls.ura", "count", "ura", "calls", "galois.rank_mod_q"),
    ("galois.rank_mod_q_s.ura", "s", "ura", "total", "galois.rank_mod_q"),
    ("linpoly.interpolate_self_ms", "ms", "read", "self", "linpoly.interpolate"),
    ("linpoly.evaluate_calls.write", "count", "write", "calls", "linpoly.evaluate"),
    ("linpoly.evaluate_ms.write", "ms", "write", "total", "linpoly.evaluate"),
    ("linpoly.evaluate_calls.read", "count", "read", "calls", "linpoly.evaluate"),
    ("linpoly.evaluate_ms.read", "ms", "read", "total", "linpoly.evaluate"),
    ("linpoly.surplus_per_read", "count", "read", "nested",
     ("linpoly.interpolate", "linpoly.evaluate")),
    ("gabidulin.encode_ms", "ms", "write", "total", "gabidulin.encode"),
    ("gabidulin.decode_self_ms", "ms", "read", "self", "gabidulin.decode"),
    ("mbr.encode_ms", "ms", "write", "total", "mbr.encode"),
    ("mbr.repair_ms", "ms", "repair", "total", "mbr.repair"),
    ("frlocal.encode_ms", "ms", "write", "total", "frlocal.encode"),
    ("frlocal.repair_ms", "ms", "repair", "total", "frlocal.repair"),
    ("bounds.setup_ms", "ms", "setup", "total", "bounds.setup"),
    ("lrc.build_self_s", "s", "setup", "self", "lrc.build"),
    ("lrc.encode_self_ms", "ms", "write", "self", "lrc.encode"),
    ("lrc.decode_self_ms", "ms", "read", "self", "lrc.decode"),
    ("lrc.repair_self_ms", "ms", "repair", "self", "lrc.repair"),
    ("lrc.decodable_calls", "count", "dmin", "calls", "lrc.decodable"),
    ("lrc.decodable_s", "s", "dmin", "total", "lrc.decodable"),
    ("cli.serialize_ms", "ms", "write", "total", "cli.serialize"),
    ("cli.parse_ms.read", "ms", "read", "total", "cli.parse"),
    ("cli.parse_ms.repair", "ms", "repair", "total", "cli.parse"),
    ("cli.bytes_parsed.read", "B", "read", "count", "cli.bytes_parsed"),
    ("cli.bytes_parsed.repair", "B", "repair", "count", "cli.bytes_parsed"),
)

REPAIR_PATHS = ("local-regenerating", "local-transfer", "decode-reencode")
_SCALE = {"s": 1e-9, "ms": 1e-6}


def per_layer(tracer, traced: Measurement, plain: Measurement) -> dict:
    out = {}
    for name, unit, op, quantity, key in LAYER_METRICS:
        stats = tracer.stats[op]
        if quantity == "nested":
            value = stats.nested[key]
        elif quantity in ("total", "self"):
            ns = stats.total_ns if quantity == "total" else stats.self_ns
            value = ns[key] * _SCALE[unit]
        else:
            value = (stats.calls if quantity == "calls" else stats.counts)[key]
        out[name] = (value / max(stats.ops, 1), unit)
    for path in REPAIR_PATHS:
        out[f"lrc.repair_path.{path}"] = (traced.repair_paths[path], "count")
    out["lrc.survivor_set_repeat_share"] = (
        properties(traced)["survivor_set_repeat_share"], "share")
    for label, meas in (("", traced), ("untraced_", plain)):
        out[f"trace.{label}goodput_sym_per_s"] = (goodput(meas), "sym/s")
        out[f"trace.{label}dmin_s"] = (statistics.median(meas.dmin_s), "s")
    return out


def properties(meas: Measurement) -> dict:
    """What the workload's inputs look like, for claims that depend on it."""
    reads = len(meas.latency_ns["read"])
    repairs = sum(meas.repair_paths.values())
    return {
        "samples": {op: len(v) for op, v in meas.latency_ns.items()},
        "erasure_histogram": {str(k): v for k, v in sorted(meas.erasures.items())},
        "survivor_set_repeat_share": meas.survivor_repeats / max(reads, 1),
        "repair_path_mix": {p: meas.repair_paths[p] / max(repairs, 1)
                            for p in REPAIR_PATHS},
        "surplus_symbols_per_read": meas.surplus_symbols / max(reads, 1),
        "certification_rounds": len(meas.dmin_s),
    }


# ---------------------------------------------------------------------------
# Run metadata and noise diagnostics (reported, never used to rescale).
# ---------------------------------------------------------------------------

def cpu_ticks() -> dict | None:
    """iowait and steal ticks from the aggregate line of /proc/stat."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
    except OSError:
        return None
    return {"iowait": int(fields[5]), "steal": int(fields[8])}


def calibration_s() -> float:
    """Wall time of a fixed pure-Python loop."""
    start = perf_counter()
    acc = 0
    for i in range(300_000):
        acc = (acc + i * i) % 1_000_003
    return perf_counter() - start


def metadata() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "calibration_s": calibration_s(),
    }


# ---------------------------------------------------------------------------
# One benchmark run.
# ---------------------------------------------------------------------------

@dataclass
class RunResult:
    metrics: dict
    #: Printed beside the metrics but carrying no bound.
    reported: dict
    attempted: int
    failed: int
    errors: list
    properties: dict
    meta: dict


def _build(wl: Workload):
    cfg = cli.SimConfig(**wl.config)
    code = cfg.build()
    cfg.digest(code)
    return cfg, code


def run(name: str, seed: int, seconds: float, trace: bool,
        setup_reps: int | None = None, min_samples: int = 1000) -> RunResult:
    wl = WORKLOADS[name]
    meta = metadata()
    ticks_before = cpu_ticks()
    cfg, code = _build(wl)
    golden = golden_digest(cfg, code)
    if not trace:
        meas = measure(wl, cfg, code, seed, seconds, min_samples,
                       wl.setup_reps if setup_reps is None else setup_reps)
        metrics, reported = end_to_end(meas)
        measurements = [meas]
    else:
        # Per-layer metrics are means, which need fewer samples than a p99.
        min_samples //= 5
        plain = measure(wl, cfg, code, seed, seconds / 2, min_samples)
        tracer = Tracer()
        with tracer.installed():
            for _ in range(3):
                galois.field.cache_clear()
                with tracer.op("setup"):
                    cfg, code = _build(wl)
            traced = measure(wl, cfg, code, seed, seconds / 2, min_samples,
                             tracer=tracer)
        metrics, reported = per_layer(tracer, traced, plain), {}
        meta["unpatched_entry_points"] = tracer.missing
        measurements = [plain, traced]
        meas = traced
    meas.outcome("golden", golden == wl.golden,
                  f"shard bytes of the golden stripe hash to {golden}")
    ticks_after = cpu_ticks()
    if ticks_before and ticks_after:
        meta["ticks"] = {k: ticks_after[k] - ticks_before[k] for k in ticks_before}
    return RunResult(
        metrics=metrics,
        reported=reported,
        attempted=sum(sum(p.attempted.values()) for p in measurements),
        failed=sum(sum(p.failed.values()) for p in measurements),
        errors=[e for p in measurements for e in p.errors],
        properties=properties(meas),
        meta=meta,
    )
