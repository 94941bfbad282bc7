"""Quasiorder-based formal-language toolkit.

Three algorithm families under one roof: language-inclusion decision
procedures driven by well-quasiorders (regular in regular, context-free in
regular, regular in one-counter traces), regular-expression search with
line counting on grammar-compressed text, and residual-automata
constructions including canonicalization, double reversal and active
learning.

Importing the package loads none of them: each name below is imported from
its defining module on first access (PEP 562), so a program that uses one
family loads only that family's modules.
"""

from importlib import import_module


def _lazy_exports(namespace: dict, homes: dict[str, tuple[str, ...]]):
    """``__all__``, ``__getattr__`` and ``__dir__`` for the module whose
    globals are ``namespace``: each name in ``homes`` (a submodule of the
    package, relative to it, to names) is looked up in that submodule,
    imported on first access.

    ``python -X importtime`` logs only modules loaded by an ``import``
    statement, not those loaded by ``import_module``: a start-up profile
    read off it omits every module reached through these exports (the
    modules they import by statement still appear). Measure start-up by
    the ``sys.modules`` a run leaves, as ``tests/test_startup.py`` does,
    and by the ``cli_p50_ms`` of ``bench/run.py``."""
    module_name, package = namespace["__name__"], namespace["__package__"]
    module_of = {name: module for module, names in homes.items() for name in names}

    def __getattr__(name: str):
        module = module_of.get(name)
        if module is None:
            raise AttributeError(f"module {module_name!r} has no attribute {name!r}")
        return getattr(import_module(f".{module}", package), name)

    def __dir__() -> list[str]:
        return sorted({*namespace, *module_of})

    return sorted(module_of), __getattr__, __dir__


__all__, __getattr__, __dir__ = _lazy_exports(
    globals(),
    {
        "automata": (
            "CnfGrammar",
            "Dfa",
            "Ocn",
            "Verdict",
            "cfg_in_regular_oracle",
            "equivalence_counterexample",
            "naive_inclusion",
        ),
        "fixpoint": ("Antichain", "KleeneResult", "ac_below", "kleene"),
        "inclusion": (
            "cfg_inc_antichain",
            "cfg_inc_word",
            "fa_inc_antichain",
            "fa_inc_gfp",
            "fa_inc_word",
            "nfa_in_ocn",
        ),
        "learn": ("ObservationState", "nl_learn"),
        "nfa": ("Nfa",),
        "quasiorder": (
            "QuasiorderHandle",
            "ctx_handle",
            "myhill_handle",
            "nerode_handle",
            "ocn_handle",
            "sim_handle",
            "state_handle",
        ),
        "residual": (
            "canonical",
            "check_dr_condition",
            "denis_residualize",
            "double_reversal_canonical",
            "is_composite",
            "is_rfa",
            "principals",
            "res",
            "right_inclusion",
        ),
        "slpsearch.counting": ("SearchEngine",),
        "slpsearch.regex": ("compile_regex", "homogeneous_dfa", "homogeneous_kind", "parse_regex"),
        "slpsearch.slp": ("Slp", "decompress", "repair_compress"),
    }
)
