"""Quasiorder-based formal-language toolkit.

Three algorithm families under one roof: language-inclusion decision
procedures driven by well-quasiorders (regular in regular, context-free in
regular, regular in one-counter traces), regular-expression search with
line counting on grammar-compressed text, and residual-automata
constructions including canonicalization, double reversal and active
learning.
"""

from .automata import (
    CnfGrammar,
    Dfa,
    Nfa,
    Ocn,
    Verdict,
    cfg_in_regular_oracle,
    equivalence_counterexample,
    naive_inclusion,
)
from .fixpoint import Antichain, KleeneResult, ac_below, kleene
from .inclusion import (
    QuasiorderHandle,
    cfg_inc_antichain,
    cfg_inc_word,
    ctx_handle,
    fa_inc_antichain,
    fa_inc_gfp,
    fa_inc_word,
    myhill_handle,
    nerode_handle,
    nfa_in_ocn,
    ocn_handle,
    sim_handle,
    state_handle,
)
from .learn import ObservationState, nl_learn
from .residual import (
    canonical,
    check_dr_condition,
    denis_residualize,
    double_reversal_canonical,
    is_composite,
    is_rfa,
    principals,
    res,
    right_inclusion,
)
from .slpsearch.counting import SearchEngine
from .slpsearch.regex import (
    compile_regex,
    homogeneous_dfa,
    homogeneous_kind,
    parse_regex,
)
from .slpsearch.slp import Slp, decompress, repair_compress

__all__ = [
    "Antichain",
    "CnfGrammar",
    "Dfa",
    "KleeneResult",
    "Nfa",
    "ObservationState",
    "Ocn",
    "QuasiorderHandle",
    "SearchEngine",
    "Slp",
    "Verdict",
    "ac_below",
    "canonical",
    "cfg_in_regular_oracle",
    "cfg_inc_antichain",
    "cfg_inc_word",
    "check_dr_condition",
    "compile_regex",
    "ctx_handle",
    "decompress",
    "denis_residualize",
    "double_reversal_canonical",
    "equivalence_counterexample",
    "fa_inc_antichain",
    "fa_inc_gfp",
    "fa_inc_word",
    "homogeneous_dfa",
    "homogeneous_kind",
    "is_composite",
    "is_rfa",
    "kleene",
    "myhill_handle",
    "naive_inclusion",
    "nerode_handle",
    "nfa_in_ocn",
    "nl_learn",
    "ocn_handle",
    "parse_regex",
    "principals",
    "repair_compress",
    "res",
    "right_inclusion",
    "sim_handle",
    "state_handle",
]
