"""Regular-expression search on grammar-compressed text.

Each name below is imported from its defining module on first access, so
loading an SLP (``slp``) loads neither the regex compiler nor the counting
engine.
"""

from .. import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(
    globals(),
    {
        "counting": ("SearchEngine",),
        "regex": (
            "EmptyMatchError",
            "RegexSyntaxError",
            "compile_regex",
            "homogeneous_dfa",
            "homogeneous_kind",
            "parse_regex",
        ),
        "slp": ("Slp", "decompress", "repair_compress"),
    },
)
