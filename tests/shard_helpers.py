"""Hand-built shards for the tests, with payloads as the codes store them."""

import numpy as np

from lmbr.galois import FieldElement
from lmbr.lrc import Shard


def payload(rows) -> np.ndarray:
    """A read-only int64 payload from rows of coefficients or from
    FieldElements (one row per stored symbol)."""
    array = np.array([getattr(row, "coeffs", row) for row in rows],
                     dtype=np.int64)
    array.setflags(write=False)
    return array


def make_shard(index: int, role: tuple, rows) -> Shard:
    """A shard whose payload is :func:`payload` of ``rows``."""
    return Shard(index, role, payload(rows))


def elements(field, shard: Shard) -> tuple[FieldElement, ...]:
    """A shard's stored symbols as FieldElements, for the local families'
    own methods."""
    return tuple(FieldElement(field, tuple(row))
                 for row in shard.payload.tolist())
