"""Golden outputs: digests of verdicts, witnesses and dumped automata on
seeded random inputs.

The pinned digests were computed once and must never change: the checks
and constructions may be restructured freely, but every verdict, every
witness word and every output automaton (byte for byte, as ``dump_nfa``
prints it) has to stay the same.
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
from wqlang.formats import dump_nfa

from conftest import A, B, rand_cnf, rand_nfa

PAIRS = 250
GRAMMARS = 200
NETS = 150
AUTOMATA = 120

PINNED = {
    "antichain-fwd": "718ca851575b2aca8e4a18c49a1dea8e4b736a10cb9a8849869863f2cda6f39d",
    "antichain-bwd": "718ca851575b2aca8e4a18c49a1dea8e4b736a10cb9a8849869863f2cda6f39d",
    "word-nerode": "0cd8759a620adc93493d3cc9b0f7b0bc4cb4aab68bc6e12129eefb6fa861437b",
    "word-state": "caffc9160e9f32753f5b8431222c2031f827fcfb3b954ab4da9895bc865d9bb6",
    "word-sim": "619301658a8120b7977e1f1cfad3d43dbdd4518010dd421289eafb75ad24a68a",
    "cfg-antichain": "11f1abe0fdfbaa3c0cdf953b56742878ecc09893f991b72ba72be3c66fcad6af",
    "cfg-word-myhill": "2326aeaeb89cb23b130b15daedb233d356a556832c241dc6d421bbe4e433099c",
    "cfg-word-ctx": "11f1abe0fdfbaa3c0cdf953b56742878ecc09893f991b72ba72be3c66fcad6af",
    "nfa-in-ocn": "4e52f57735d1c68402ed1ad0c6b4df144b3d2c8a5fca6fc032de0439b55adcfc",
    "res": "ed692c573acec809431908cc11ce622f291217663571e75971235d95f4518226",
    "canonical": "f73178e037f26e87159ffea30614e58d60f8d67071105ebe68ea2110b9faf9fa",
    "denis": "b860ab3b2a6a85196a9c7ffbb2f573a528f85d0b5681cadb57bc7674be5943a9",
    "double-reversal": "f9f04ca08713d3bc6ce1eb42c0c009f4e582795ebb7b67af9edbb8b7302f51cb",
    "nl-learn": "eccd0eabd0c6bdcf537d32ea251d970996ef785397f09f6efc8b84d576aa7b6d",
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


def _learn(target):
    return nl_learn(
        target.member,
        lambda candidate: equivalence_counterexample(candidate, target),
        sorted(target.alphabet),
    )


def _outputs(name: str):
    if name == "antichain-fwd":
        return [fa_inc_antichain(a, b, "forward") for a, b in _nfa_pairs()]
    if name == "antichain-bwd":
        return [fa_inc_antichain(a, b, "backward") for a, b in _nfa_pairs()]
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
    raise KeyError(name)


@pytest.mark.parametrize("name", sorted(PINNED))
def test_golden_digest(name):
    assert _digest(_outputs(name)) == PINNED[name]
