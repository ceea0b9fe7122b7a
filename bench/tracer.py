"""Spans and counters recorded around lmbr's public entry points.

The program itself carries no instrumentation, so the tracer patches module
functions and methods where their callers look them up (``lrc`` imports
``rank_mod_q`` and ``field`` by name, ``gabidulin`` imports ``interpolate``
by name) and restores the originals afterwards.

Every span records its name, start, end and parent span.  Spans belong to
the benchmark op that is open when they start; when the op ends its spans
are folded into a per-op table of calls, total time and self time, where
self time is the span's duration minus the time its child spans cover.
Counters (multiplications, bytes parsed) are attributed the same way.
"""

from __future__ import annotations

import contextlib
import functools
from collections import Counter, defaultdict
from time import perf_counter_ns

from lmbr import bounds, cli, frlocal, gabidulin, galois, linpoly, lrc, mbr

#: (owner, attribute, span name).  Several attributes may share a name.
SPANS = (
    (lrc, "field", "galois.field"),
    (lrc, "rank_mod_q", "galois.rank_mod_q"),
    (mbr, "rank_mod_q", "galois.rank_mod_q"),
    (gabidulin, "interpolate", "linpoly.interpolate"),
    (linpoly.LinearizedPoly, "evaluate", "linpoly.evaluate"),
    (gabidulin.GabidulinCode, "encode", "gabidulin.encode"),
    (gabidulin.GabidulinCode, "decode_erasures", "gabidulin.decode"),
    (mbr.MbrCode, "encode", "mbr.encode"),
    (mbr.MbrCode, "helper_symbol", "mbr.repair"),
    (mbr.MbrCode, "repair", "mbr.repair"),
    (frlocal.FrCode, "encode", "frlocal.encode"),
    (frlocal.FrCode, "repair", "frlocal.repair"),
    (bounds.BoundContext, "for_local_code", "bounds.setup"),
    (lrc.LrcCode, "__init__", "lrc.build"),
    (lrc.LrcCode, "encode", "lrc.encode"),
    (lrc.LrcCode, "decode", "lrc.decode"),
    (lrc.LrcCode, "repair", "lrc.repair"),
    (lrc.LrcCode, "decodable", "lrc.decodable"),
    (lrc.LrcCode, "measure_dmin", "lrc.measure_dmin"),
    (lrc.LrcCode, "ura_report", "lrc.ura_report"),
    (cli, "serialize_shard", "cli.serialize"),
    (cli, "parse_shard", "cli.parse"),
    (cli.SimConfig, "build", "cli.build"),
    (cli.SimConfig, "digest", "cli.digest"),
)

#: (owner, attribute, counter name): counted, not timed, because they are
#: called far too often for a span each.
COUNTED = (
    (galois.FieldElement, "__mul__", "galois.mul"),
    (galois.FieldElement, "__rmul__", "galois.mul"),
)


class OpStats:
    """Per-op aggregate: op count plus per-span and per-counter totals."""

    def __init__(self):
        self.ops = 0
        self.calls = Counter()
        self.total_ns = Counter()
        self.self_ns = Counter()
        self.counts = Counter()
        #: calls of a span under a parent span, keyed (parent, child).
        self.nested = Counter()


class Tracer:
    def __init__(self):
        self.stats: dict[str, OpStats] = defaultdict(OpStats)
        self.counts = Counter()
        #: Patch targets absent from the program.
        self.missing: list[str] = []
        # Spans of the open op: [name, parent index, start ns, end ns].
        self._spans: list[list] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def op(self, name: str):
        """Attribute every span and count inside the block to op ``name``."""
        if self._open:
            raise RuntimeError("benchmark ops do not nest")
        before = self.counts.copy()
        self._spans = [[name, -1, perf_counter_ns(), 0]]
        self._open = [0]
        try:
            yield
        finally:
            self._spans[0][3] = perf_counter_ns()
            self._open = []
            self._fold(self.stats[name], before)

    def _fold(self, stats: OpStats, before: Counter) -> None:
        stats.ops += 1
        spans = self._spans
        child_ns = [0] * len(spans)
        for name, parent, start, end in spans[1:]:
            child_ns[parent] += end - start
            stats.nested[(spans[parent][0], name)] += 1
        for (name, _, start, end), covered in zip(spans[1:], child_ns[1:]):
            stats.calls[name] += 1
            stats.total_ns[name] += end - start
            stats.self_ns[name] += end - start - covered
        stats.counts.update(self.counts - before)
        self._spans = []

    def span(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            open_ = self._open
            if not open_:                 # outside any op: not traced
                return fn(*args, **kwargs)
            spans = self._spans
            idx = len(spans)
            spans.append([name, open_[-1], perf_counter_ns(), 0])
            open_.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx][3] = perf_counter_ns()
                open_.pop()

        return wrapper

    def counted(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)

        return wrapper

    def parse_counter(self, fn):
        """``cli.parse_shard`` also counts the bytes it is handed."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(data, *args, **kwargs):
            counts["cli.bytes_parsed"] += len(data)
            return fn(data, *args, **kwargs)

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Patch every entry point for the duration of the block."""
        targets = [(o, a, lambda f, n=n: self.span(n, f)) for o, a, n in SPANS]
        targets += [(o, a, lambda f, n=n: self.counted(n, f))
                    for o, a, n in COUNTED]
        targets.append((cli, "parse_shard", self.parse_counter))
        saved = []
        try:
            for owner, attr, make in targets:
                original = owner.__dict__.get(attr)
                if original is None:
                    # The program no longer has this entry point: its
                    # metrics read 0 and the run reports the name.
                    self.missing.append(f"{owner.__name__}.{attr}")
                    continue
                if isinstance(original, classmethod):
                    setattr(owner, attr, classmethod(make(original.__func__)))
                else:
                    setattr(owner, attr, make(original))
                saved.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)
