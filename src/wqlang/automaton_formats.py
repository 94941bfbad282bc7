"""Text formats of automata, grammars in CNF and one-counter nets.

``states N`` / ``alphabet ...`` / ``initial q ...`` / ``final q ...`` /
``trans p <sym> q`` for automata, ``vars N`` / ``term Xi <sym>`` /
``bin Xi Xj Xk`` / ``eps`` for grammars, and ``states N`` /
``trans p <sym> <-1|0|+1> q`` for nets, in the line syntax of
``wqlang.formats``, which resolves these readers and writers by name. Only
the automaton subcommands load this module.
"""

from __future__ import annotations

from .automata import CnfGrammar, Ocn
from .formats import (
    MAX_FILE_STATES,
    MAX_FILE_TABLE_CELLS,
    FormatError,
    _build,
    _dump_symbol,
    _int,
    _lines,
    _parse_symbol,
)
from .nfa import Nfa

__all__ = ["parse_nfa", "dump_nfa", "parse_cnf", "dump_cnf", "parse_ocn", "dump_ocn"]


def _state_count(token: str, offset: int) -> int:
    count = _int(token, offset, "state count")
    if not 0 <= count <= MAX_FILE_STATES:
        raise FormatError(offset, f"state count {count} out of range 0..{MAX_FILE_STATES}")
    return count


def parse_nfa(data: bytes) -> Nfa:
    count = None
    initial: list[int] = []
    final: list[int] = []
    triples: list[tuple[int, int, int]] = []
    for offset, tokens in _lines(data, ("states",)):
        kind = tokens[0]
        if kind == "states" and len(tokens) == 2:
            count = _state_count(tokens[1], offset)
        elif kind == "alphabet":
            for t in tokens[1:]:
                _parse_symbol(t, offset)
        elif kind == "initial":
            initial += [_int(t, offset, "state") for t in tokens[1:]]
        elif kind == "final":
            final += [_int(t, offset, "state") for t in tokens[1:]]
        elif kind == "trans" and len(tokens) == 4:
            p = _int(tokens[1], offset, "state")
            sym = _parse_symbol(tokens[2], offset)
            q = _int(tokens[3], offset, "state")
            triples.append((p, sym, q))
        else:
            raise FormatError(offset, f"bad automaton line {' '.join(tokens)!r}")
    if count is None:
        raise FormatError(0, "missing 'states N' line")
    symbols = len({sym for _p, sym, _q in triples})
    if count * symbols > MAX_FILE_TABLE_CELLS:
        raise FormatError(
            0,
            f"{count} states times {symbols} transition symbols exceeds "
            f"{MAX_FILE_TABLE_CELLS} table cells",
        )
    return _build(Nfa, count, triples, initial, final)


def dump_nfa(n: Nfa) -> bytes:
    out = [f"states {n.state_count}"]
    if n.alphabet:
        out.append("alphabet " + " ".join(_dump_symbol(s) for s in sorted(n.alphabet)))
    if n.initial:
        out.append("initial " + " ".join(str(q) for q in sorted(n.initial)))
    if n.final:
        out.append("final " + " ".join(str(q) for q in sorted(n.final)))
    for p, sym, q in sorted(n._triples):
        out.append(f"trans {p} {_dump_symbol(sym)} {q}")
    return ("\n".join(out) + "\n").encode("ascii")


def _parse_var(token: str, offset: int) -> int:
    if not token.startswith("X"):
        raise FormatError(offset, f"bad variable {token!r}")
    return _int(token[1:], offset, "variable")


def parse_cnf(data: bytes) -> CnfGrammar:
    count = None
    terms: dict[int, set[int]] = {}
    bins: dict[int, set[tuple[int, int]]] = {}
    nullable = False
    for offset, tokens in _lines(data, ("vars",)):
        kind = tokens[0]
        if kind == "vars" and len(tokens) == 2:
            count = _int(tokens[1], offset, "variable count")
        elif kind == "term" and len(tokens) == 3:
            v = _parse_var(tokens[1], offset)
            terms.setdefault(v, set()).add(_parse_symbol(tokens[2], offset))
        elif kind == "bin" and len(tokens) == 4:
            v = _parse_var(tokens[1], offset)
            y = _parse_var(tokens[2], offset)
            z = _parse_var(tokens[3], offset)
            bins.setdefault(v, set()).add((y, z))
        elif kind == "eps" and len(tokens) == 1:
            nullable = True
        else:
            raise FormatError(offset, f"bad grammar line {' '.join(tokens)!r}")
    if count is None:
        raise FormatError(0, "missing 'vars N' line")
    return _build(CnfGrammar, count, terms, bins, nullable)


def dump_cnf(g: CnfGrammar) -> bytes:
    out = [f"vars {g.variable_count}"]
    if g.axiom_nullable:
        out.append("eps")
    for v in range(g.variable_count):
        for t in sorted(g.terminal_rules.get(v, ())):
            out.append(f"term X{v} {_dump_symbol(t)}")
        for y, z in sorted(g.binary_rules.get(v, ())):
            out.append(f"bin X{v} X{y} X{z}")
    return ("\n".join(out) + "\n").encode("ascii")


def parse_ocn(data: bytes) -> Ocn:
    count = None
    trans: list[tuple[int, int, int, int]] = []
    for offset, tokens in _lines(data, ("states",)):
        kind = tokens[0]
        if kind == "states" and len(tokens) == 2:
            count = _state_count(tokens[1], offset)
        elif kind == "trans" and len(tokens) == 5:
            p = _int(tokens[1], offset, "state")
            sym = _parse_symbol(tokens[2], offset)
            d = _int(tokens[3], offset, "counter delta")
            q = _int(tokens[4], offset, "state")
            trans.append((p, sym, d, q))
        else:
            raise FormatError(offset, f"bad net line {' '.join(tokens)!r}")
    if count is None:
        raise FormatError(0, "missing 'states N' line")
    return _build(Ocn, count, trans)


def dump_ocn(o: Ocn) -> bytes:
    out = [f"states {o.state_count}"]
    for p, sym, d, q in sorted(o.transitions):
        out.append(f"trans {p} {_dump_symbol(sym)} {d:+d} {q}")
    return ("\n".join(out) + "\n").encode("ascii")
