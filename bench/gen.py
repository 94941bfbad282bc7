"""Seeded input generators for the benchmark workloads.

Every generator takes a ``random.Random`` and returns plain library objects
(``Nfa``, ``CnfGrammar``, ``Ocn``, ``Slp``) or bytes; nothing else of the
benchmark reaches the program. The same seed gives the same inputs.

Random automata follow Tabakov & Vardi (LPAR 2005): one initial state,
``round(r * n)`` distinct transitions per symbol drawn uniformly from the
``n * n`` state pairs (transition density ``r``), and ``round(f * n)`` final
states drawn uniformly (final density ``f``).
"""

from __future__ import annotations

import random

from wqlang import CnfGrammar, Nfa, Ocn, Slp

A, B = ord("a"), ord("b")
SYMBOLS = (A, B)


def tv_nfa(rng: random.Random, n: int, density: float, final_density: float = 0.5) -> Nfa:
    """A Tabakov–Vardi random NFA over {a, b} with ``n`` states."""
    triples = []
    per_symbol = max(1, round(density * n))
    for sym in SYMBOLS:
        for cell in rng.sample(range(n * n), per_symbol):
            triples.append((cell // n, sym, cell % n))
    finals = rng.sample(range(n), max(1, round(final_density * n)))
    return Nfa(n, triples, [0], finals)


def nfa_union(a: Nfa, b: Nfa) -> Nfa:
    """Disjoint union: ``b``'s states are shifted past ``a``'s."""
    shift = a.state_count
    triples = [(p, s, q) for (p, s), qs in a.transitions.items() for q in qs]
    triples += [(p + shift, s, q + shift) for (p, s), qs in b.transitions.items() for q in qs]
    return Nfa(
        a.state_count + b.state_count,
        triples,
        [*a.initial, *(q + shift for q in b.initial)],
        [*a.final, *(q + shift for q in b.final)],
    )


def cnf_grammar(rng: random.Random, variables: int) -> CnfGrammar:
    """A random CNF grammar over {a, b}. Each variable but the last gets one
    or two terminal rules with probability 0.7 and one to three binary
    rules; the last gets terminal rules only, so derivations can end. The
    axiom is nullable with probability 0.2."""
    terms: dict[int, set[int]] = {}
    bins: dict[int, set[tuple[int, int]]] = {}
    for v in range(variables):
        if rng.random() < 0.7 or v == variables - 1:
            terms[v] = set(rng.sample(SYMBOLS, rng.randint(1, 2)))
        if v < variables - 1:
            bins[v] = {
                (rng.randrange(variables), rng.randrange(variables))
                for _ in range(rng.randint(1, 3))
            }
    return CnfGrammar(variables, terms, bins, axiom_nullable=rng.random() < 0.2)


def ocn(rng: random.Random, states: int, transitions: int) -> Ocn:
    """A random one-counter net over {a, b}; counter deltas are uniform over
    {-1, 0, +1}. State 0 reads both symbols with delta 0 or +1, so short
    words stay traces and inclusion is not trivially refuted."""
    trans = {(0, A, rng.choice((0, 1)), rng.randrange(states)), (0, B, rng.choice((0, 1)), 0)}
    while len(trans) < transitions:
        trans.add(
            (rng.randrange(states), rng.choice(SYMBOLS), rng.choice((-1, 0, 1)), rng.randrange(states))
        )
    return Ocn(states, trans)


# -- log text ---------------------------------------------------------------

_LEVELS = ("INFO", "INFO", "INFO", "DEBUG", "WARN", "ERROR")
_SERVICES = ("auth", "billing", "search", "gateway", "worker", "cache")
_PATHS = ("/api/v1/users", "/api/v1/orders", "/api/v2/search", "/health", "/login", "/static/app.js")
_METHODS = ("GET", "GET", "POST", "PUT", "DELETE")
_MESSAGES = (
    "request served",
    "cache miss",
    "retrying upstream",
    "connection reset by peer",
    "timeout waiting for lock",
    "disk usage above threshold",
    "user session expired",
)


def log_text(rng: random.Random, size: int) -> bytes:
    """Synthetic service log of at least ``size`` bytes, whole lines only:
    timestamp, level, service, request line, status, latency, message."""
    lines = []
    total = 0
    second = rng.randrange(86400)
    while total < size:
        second += rng.randint(0, 3)
        h, m, s = second // 3600 % 24, second // 60 % 60, second % 60
        status = rng.choice((200, 200, 200, 201, 204, 301, 404, 500, 503))
        line = (
            f"2024-03-{1 + second // 86400 % 28:02d} {h:02d}:{m:02d}:{s:02d} "
            f"{rng.choice(_LEVELS)} [{rng.choice(_SERVICES)}-{rng.randint(1, 8)}] "
            f"{rng.choice(_METHODS)} {rng.choice(_PATHS)} status={status} "
            f"took={rng.randint(1, 2500)}ms id={rng.randint(1000, 99999)} "
            f"{rng.choice(_MESSAGES)}\n"
        ).encode("ascii")
        lines.append(line)
        total += len(line)
    return b"".join(lines)


def deep_chain_slp(rng: random.Random, depth: int) -> Slp:
    """A valid SLP whose rule i+1 is (rule i, byte): expansion depth equals
    ``depth`` and the text is ``depth + 1`` random lowercase bytes."""
    letters = [rng.randrange(ord("a"), ord("z") + 1) for _ in range(depth + 1)]
    rules = [(letters[0], letters[1])]
    for i in range(1, depth):
        rules.append((257 + i - 1, letters[i + 1]))
    return Slp(rules)


def balanced_slp(text: bytes) -> Slp:
    """An SLP for ``text`` built by pairing adjacent symbols level by level
    (equal pairs share a rule): logarithmic depth, made without RePair."""
    seq = list(text)
    rules: list[tuple[int, int]] = []
    index: dict[tuple[int, int], int] = {}
    while len(seq) > 2:
        paired = []
        for i in range(0, len(seq) - 1, 2):
            pair = (seq[i], seq[i + 1])
            if pair not in index:
                index[pair] = 257 + len(rules)
                rules.append(pair)
            paired.append(index[pair])
        if len(seq) % 2:
            paired.append(seq[-1])
        seq = paired
    return Slp([*rules, tuple(seq)])


def deep_chain_text(slp: Slp) -> bytes:
    """The expansion of a ``deep_chain_slp``, read off without recursion."""
    first = slp.rules[0]
    return bytes([first[0], first[1], *(rule[1] for rule in slp.rules[1:])])
