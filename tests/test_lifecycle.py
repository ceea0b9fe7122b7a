"""Model-based test of one stripe's lifecycle through the API: long mixed
sequences of node failures, coefficient corruptions, repairs, reads and
shard-file round trips on C1, C2 and Fano."""

import functools
import random

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize,
                                 precondition, rule)

from lmbr import InconsistentDataError, InsufficientRankError, RepairError
from lmbr.cli import SimConfig, parse_shard, serialize_shard
from lmbr.lrc import Shard

CONFIGS = {
    "C1": dict(construction="all-symbol", q=3, t=2, file_dim=5),
    "C2": dict(construction="info-local", q=3, t=2, delta=1, file_dim=5),
    "fano": dict(construction="fr-local", q=7, t=2, k_fr=5, file_dim=10),
}


@functools.lru_cache(maxsize=None)
def built(name):
    """The configuration, its code and its digest, built once per name."""
    cfg = SimConfig(**CONFIGS[name])
    code = cfg.build()
    return cfg, code, cfg.digest(code)


class StripeLifecycle(RuleBasedStateMachine):
    """One written stripe.  The model is the written shards and what each
    live node holds now: a lost node holds nothing, and a node is corrupt
    exactly when what it holds differs from what was written."""

    @initialize(name=st.sampled_from(sorted(CONFIGS)),
                seed=st.integers(0, 2 ** 32 - 1))
    def write(self, name, seed):
        self.cfg, self.code, self.digest = built(name)
        rng = random.Random(seed)
        self.message = tuple(self.code.field.random_element(rng)
                             for _ in range(self.code.file_dim))
        self.written = self.code.encode(self.message)
        self.stored = dict(enumerate(self.written))

    def clean(self) -> dict:
        return {i: s for i, s in self.stored.items() if s == self.written[i]}

    @precondition(lambda self: self.stored)
    @rule(data=st.data())
    def fail_node(self, data):
        del self.stored[data.draw(st.sampled_from(sorted(self.stored)))]

    @precondition(lambda self: self.clean())
    @rule(data=st.data())
    def corrupt_coefficient(self, data):
        node = data.draw(st.sampled_from(sorted(self.clean())))
        shard, q = self.stored[node], self.cfg.q
        payload = shard.payload.copy()
        row = data.draw(st.integers(0, payload.shape[0] - 1))
        col = data.draw(st.integers(0, payload.shape[1] - 1))
        payload[row, col] = (int(payload[row, col])
                             + data.draw(st.integers(1, q - 1))) % q
        payload.setflags(write=False)
        self.stored[node] = Shard(node, shard.role, payload)

    @precondition(lambda self: len(self.stored) < self.code.n_nodes)
    @rule(data=st.data())
    def repair_node(self, data):
        lost = sorted(set(range(self.code.n_nodes)) - set(self.stored))
        failed = data.draw(st.sampled_from(lost))
        available = self.clean()
        try:
            shard, record = self.code.repair(failed, available)
        except RepairError:
            # The decode path reads the first decode_threshold shards, and
            # any that many decode: it fails only when all of them fall short.
            assert not self.code.decodable(available)
            return
        assert shard == self.written[failed]
        self.check_download(failed, available, shard, record)
        self.stored[failed] = shard

    def check_download(self, failed, available, shard, record):
        """The record's download is what its helpers sent, and those
        helpers alone rebuild the same node."""
        helpers = record["helpers"]
        assert set(helpers) <= set(available)
        path, downloaded = record["path"], record["downloaded_symbols"]
        if path == "local-transfer":               # one holder per symbol
            assert downloaded == self.code.alpha
        elif path == "local-regenerating":
            assert downloaded == len(helpers) * self.code.local.beta
        else:
            assert path == "decode-reencode"
            assert record["downloaded_shards"] == len(helpers)
            assert downloaded == len(helpers) * self.code.alpha
        again, replay = self.code.repair(failed,
                                         {h: available[h] for h in helpers})
        assert again == shard
        assert (replay["helpers"], replay["downloaded_symbols"]) == (
            helpers, downloaded)

    @rule()
    def read(self):
        clean = self.clean()
        decodable = self.code.decodable(clean)
        if self.code.n_nodes - len(clean) < self.code.dmin_bound:
            assert decodable
        if decodable:
            assert self.code.decode(clean.values()) == self.message
        else:
            with pytest.raises(InsufficientRankError):
                self.code.decode(clean.values())
        for node, shard in self.stored.items():
            if node not in clean and decodable:
                with pytest.raises(InconsistentDataError):
                    self.code.decode([shard, *clean.values()])

    @precondition(lambda self: self.stored)
    @rule(data=st.data())
    def round_trip(self, data):
        node = data.draw(st.sampled_from(sorted(self.stored)))
        shard, m = self.stored[node], self.code.field.m
        blob = serialize_shard(shard, self.cfg.q, m, self.digest)
        back = parse_shard(blob, self.code, self.digest)
        assert back == shard
        assert serialize_shard(back, self.cfg.q, m, self.digest) == blob
        self.stored[node] = back        # later ops see the file's uint16 view


TestStripeLifecycle = StripeLifecycle.TestCase
TestStripeLifecycle.settings = settings(
    max_examples=150, stateful_step_count=30, deadline=None,
    suppress_health_check=[HealthCheck.too_slow])
