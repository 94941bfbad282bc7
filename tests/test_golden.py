"""Golden outputs: digests of verdicts, witnesses, dumped automata, RePair
grammars and compressed-search results on seeded inputs.

The pinned digests must not change by accident: the checks,
constructions and the compressor may be restructured freely, but every
verdict, every witness word, every output automaton (byte for byte, as
``dump_nfa`` prints it) and every compressed grammar (as
``dump_slp_binary`` writes it) and every search result (match flag, line
count and reported lines) has to stay the same.

The one deliberate re-pin: the inclusion digests (``antichain-fwd``,
``word-*``, ``cfg-word-*``, ``cfg-antichain``, ``nfa-in-ocn``) changed
when the fixpoints became layered worklists that stop at the first
failing layer; every verdict stayed, no witness got longer, and each
automaton witness has the length of ``naive_inclusion``'s shortest one.
"""

import hashlib
import random

import pytest

from wqlang import (
    Ocn,
    canonical,
    cfg_inc_antichain,
    cfg_inc_word,
    ctx_handle,
    denis_residualize,
    double_reversal_canonical,
    equivalence_counterexample,
    fa_inc_antichain,
    fa_inc_word,
    myhill_handle,
    nerode_handle,
    nfa_in_ocn,
    nl_learn,
    res,
    sim_handle,
    state_handle,
)
from wqlang.formats import dump_nfa, dump_slp_binary
from wqlang.slpsearch.counting import SearchEngine
from wqlang.slpsearch.regex import (
    compile_regex,
    homogeneous_dfa,
    homogeneous_kind,
    parse_regex,
)
from wqlang.slpsearch.slp import repair_compress

from conftest import A, B, log_text, rand_cnf, rand_nfa, run_heavy_text

PAIRS = 250
GRAMMARS = 200
NETS = 150
AUTOMATA = 120
LOG_SIZES = (512, 1024, 4096, 8192)
RUN_HEAVY = 60
SEARCH_TEXTS = 60
# the query patterns of the search-logs benchmark workload
LOG_PATTERNS = (
    "ERROR",
    "timeout",
    "cache mis+",
    "status=50[0-9]",
    "took=[0-9][0-9][0-9][0-9]ms",
    "[0-2][0-9]:[0-5]9:0[0-9]",
    "(GET|POST) /api",
    "id=9[0-9]{3,4} ",
    "WARN.*disk",
    "[a-z]+-7\\]",
    "reset|expired",
    "v[12]/(users|orders)",
    "(auth|billing)-[1-3]\\] (PUT|DELETE)",
    "status=(404|503) took=[0-9]{1,2}ms",
)
AB_PATTERNS = ("ba", "a+b", "[ab]{3}")

PINNED = {
    "antichain-fwd": "ff4d876c33cd0a261c92a78ac6b6469d7d416a5a7d858e3c85a6b7dcd30c9429",
    "word-nerode": "0ccf013fe4685d74c4698dcef6034687b0ec96871575b0af66cc1a8439e13463",
    "word-state": "0ccf013fe4685d74c4698dcef6034687b0ec96871575b0af66cc1a8439e13463",
    "word-sim": "0ccf013fe4685d74c4698dcef6034687b0ec96871575b0af66cc1a8439e13463",
    "cfg-antichain": "9bcb59125f864745fcc66aa3ff4b150ea78109bcd96723fe6b0df629867ca0d9",
    "cfg-word-myhill": "9bcb59125f864745fcc66aa3ff4b150ea78109bcd96723fe6b0df629867ca0d9",
    "cfg-word-ctx": "9bcb59125f864745fcc66aa3ff4b150ea78109bcd96723fe6b0df629867ca0d9",
    "nfa-in-ocn": "d97406b91135713d1da8aee0fd5980cd06e6300aaa8992eed38bbab51ec6ab5e",
    "res": "ed692c573acec809431908cc11ce622f291217663571e75971235d95f4518226",
    "canonical": "f73178e037f26e87159ffea30614e58d60f8d67071105ebe68ea2110b9faf9fa",
    "denis": "b860ab3b2a6a85196a9c7ffbb2f573a528f85d0b5681cadb57bc7674be5943a9",
    "double-reversal": "f9f04ca08713d3bc6ce1eb42c0c009f4e582795ebb7b67af9edbb8b7302f51cb",
    "nl-learn": "eccd0eabd0c6bdcf537d32ea251d970996ef785397f09f6efc8b84d576aa7b6d",
    "repair-logs": "378a064e7abbad95661f8a028a95e6ba033e2163730763badb1f69ecc517af7f",
    "repair-small-alphabet": "ac0cc42e41565e2cf1ca9a45afb70fbe9641b002f18eb89564a5a81388d93bce",
    "repair-long-runs": "f1b4b23cdf6ac2fcb6d1f9c2bd2a010a9297af73f67aa14709cbb65ed0a07b51",
    "search-outputs": "8771ffe68eb5d2fe2b69adc06ac06d27e7e5a05617321c26962225290a2c7a39",
}


def _digest(outputs) -> str:
    h = hashlib.sha256()
    for out in outputs:
        if isinstance(out, bytes):
            h.update(out)
        else:
            h.update(repr((out.included, out.witness)).encode())
        h.update(b"\0")
    return h.hexdigest()


def _nfa_pairs():
    rng = random.Random(2008_08828)
    return [
        (rand_nfa(rng, max_states=6), rand_nfa(rng, max_states=6))
        for _ in range(PAIRS)
    ]


def _grammar_pairs():
    rng = random.Random(4_51)
    return [(rand_cnf(rng), rand_nfa(rng, max_states=5)) for _ in range(GRAMMARS)]


def _rand_ocn(rng: random.Random) -> Ocn:
    count = rng.randint(1, 3)
    return Ocn(
        count,
        [
            (p, sym, d, q)
            for p in range(count)
            for sym in (A, B)
            for d in (-1, 0, 1)
            for q in range(count)
            if rng.random() < 0.2
        ],
    )


def _ocn_cases():
    rng = random.Random(1_0_1)
    cases = []
    for _ in range(NETS):
        o = _rand_ocn(rng)
        start = (rng.randrange(o.state_count), rng.randint(0, 2))
        cases.append((rand_nfa(rng, max_states=4), o, start))
    return cases


def _automata():
    rng = random.Random(6_2)
    return [rand_nfa(rng, max_states=6, density=0.3) for _ in range(AUTOMATA)]


def _repair_inputs(name: str) -> list[bytes]:
    if name == "repair-logs":
        rng = random.Random(8_08828)
        return [log_text(rng, size) for size in LOG_SIZES]
    if name == "repair-small-alphabet":
        rng = random.Random(19_99)
        return [run_heavy_text(rng, rng.randint(1, 400)) for _ in range(RUN_HEAVY)]
    # long runs: the skip rule and leftmost replacement inside runs
    return [b"a" * 65536, b"ab" * 32768, b"aab" * 20000]


def _automata_of(pattern: str):
    """The compiled NFA, plus the homogeneous DFA when the pattern has one."""
    ast = parse_regex(pattern)
    kind = homogeneous_kind(ast)
    out = [compile_regex(ast)]
    if kind is not None:
        out.append(homogeneous_dfa(ast, kind))
    return out


def _search_cases():
    rng = random.Random(2_019)
    logs = [log_text(rng, size) for size in LOG_SIZES]
    texts = [
        bytes(rng.choice(b"ab\n") for _ in range(rng.randint(1, 400)))
        for _ in range(SEARCH_TEXTS)
    ]
    automata = [n for p in LOG_PATTERNS for n in _automata_of(p)]
    ab_automata = [n for p in AB_PATTERNS for n in _automata_of(p)]
    return [(t, automata) for t in logs] + [(t, ab_automata) for t in texts]


def _search_outputs():
    for text, automata in _search_cases():
        slp = repair_compress(text)
        for nfa in automata:
            engine = SearchEngine(slp, nfa)
            yield repr(
                (
                    engine.match_exists(),
                    engine.line_count(),
                    list(engine.report()),
                )
            ).encode()


def _learn(target):
    return nl_learn(
        target.member,
        lambda candidate: equivalence_counterexample(candidate, target),
        sorted(target.alphabet),
    )


def _outputs(name: str):
    if name == "antichain-fwd":
        return [fa_inc_antichain(a, b, "forward") for a, b in _nfa_pairs()]
    if name.startswith("word-"):
        factory = {
            "word-nerode": nerode_handle,
            "word-state": state_handle,
            "word-sim": sim_handle,
        }[name]
        return [
            fa_inc_word(a, factory(b, direction), b.member)
            for a, b in _nfa_pairs()
            for direction in ("left", "right")
        ]
    if name == "cfg-antichain":
        return [cfg_inc_antichain(g, n) for g, n in _grammar_pairs()]
    if name.startswith("cfg-word-"):
        factory = myhill_handle if name == "cfg-word-myhill" else ctx_handle
        return [cfg_inc_word(g, factory(n), n.member) for g, n in _grammar_pairs()]
    if name == "nfa-in-ocn":
        return [nfa_in_ocn(n, o, start) for n, o, start in _ocn_cases()]
    if name == "res":
        return [dump_nfa(res(n, d)) for n in _automata() for d in ("right", "left")]
    if name == "canonical":
        return [
            dump_nfa(canonical(n, d)) for n in _automata() for d in ("right", "left")
        ]
    if name == "denis":
        return [dump_nfa(denis_residualize(n)) for n in _automata()]
    if name == "double-reversal":
        return [dump_nfa(double_reversal_canonical(n)) for n in _automata()]
    if name == "nl-learn":
        return [dump_nfa(_learn(n)) for n in _automata()]
    if name.startswith("repair-"):
        return [dump_slp_binary(repair_compress(t)) for t in _repair_inputs(name)]
    if name == "search-outputs":
        return list(_search_outputs())
    raise KeyError(name)


@pytest.mark.parametrize("name", sorted(PINNED))
def test_golden_digest(name):
    assert _digest(_outputs(name)) == PINNED[name]
