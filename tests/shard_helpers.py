"""Hand-built shards for the tests, with payloads as the codes store them."""

import numpy as np

from lmbr.galois import FieldElement, as_elements
from lmbr.lrc import Shard


def payload(rows) -> np.ndarray:
    """A read-only int64 payload from rows of coefficients or from
    FieldElements (one row per stored symbol)."""
    array = np.array([getattr(row, "coeffs", row) for row in rows],
                     dtype=np.int64)
    array.setflags(write=False)
    return array


def parsed_view(array: np.ndarray) -> np.ndarray:
    """An array's coefficients as ``parse_shard`` gives them: a read-only
    uint16 view of their little-endian bytes."""
    return np.frombuffer(array.astype("<u2").tobytes(),
                         "<u2").reshape(array.shape)


def make_shard(index: int, role: tuple, rows) -> Shard:
    """A shard whose payload is :func:`payload` of ``rows``."""
    return Shard(index, role, payload(rows))


def elements(field, shard: Shard) -> tuple[FieldElement, ...]:
    """A shard's stored symbols as FieldElements, for the local families'
    own methods."""
    return tuple(as_elements(field, shard.payload))
