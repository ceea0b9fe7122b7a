"""Locally repairable storage codes: rank-metric pre-coding over
minimum-bandwidth regenerating or fractional-repetition local codes,
with exhaustive desk-scale certification of distance and repair
bandwidth optimality."""

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
    ToolkitError,
)
from .frlocal import Design, FrCode, fano_plane, infer_design, load_design, verify_design
from .gabidulin import GabidulinCode
from .galois import ExtField, FieldElement, field, rank_over_base
from .linpoly import LinearizedPoly, interpolate
from .lrc import DminResult, LrcCode, Shard, all_symbol_code, info_locality_code
from .mbr import MbrCode

__all__ = [
    "BoundContext",
    "ConfigMismatchError",
    "Design",
    "DesignError",
    "DminResult",
    "ExtField",
    "FieldElement",
    "FrCode",
    "GabidulinCode",
    "InconsistentDataError",
    "InsufficientRankError",
    "LinearizedPoly",
    "LrcCode",
    "MbrCode",
    "ParameterError",
    "PatternCapError",
    "RepairError",
    "Shard",
    "ShardFormatError",
    "ToolkitError",
    "all_symbol_code",
    "fano_plane",
    "field",
    "infer_design",
    "info_locality_code",
    "interpolate",
    "load_design",
    "rank_over_base",
    "verify_design",
]
