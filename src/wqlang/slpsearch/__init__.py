"""Regular-expression search on grammar-compressed text."""

from .counting import SearchEngine
from .regex import (
    EmptyMatchError,
    RegexSyntaxError,
    compile_regex,
    homogeneous_dfa,
    homogeneous_kind,
    parse_regex,
)
from .slp import Slp, decompress, repair_compress

__all__ = [
    "EmptyMatchError",
    "RegexSyntaxError",
    "SearchEngine",
    "Slp",
    "compile_regex",
    "decompress",
    "homogeneous_dfa",
    "homogeneous_kind",
    "parse_regex",
    "repair_compress",
]
