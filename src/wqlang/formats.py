"""Text and binary file formats for automata, grammars, nets and SLPs.

Text formats are line-based: ``states N`` / ``alphabet ...`` / ``initial
q ...`` / ``final q ...`` / ``trans p <sym> q`` for automata, ``vars N`` /
``term Xi <sym>`` / ``bin Xi Xj Xk`` / ``eps`` for grammars in CNF, and
``states N`` / ``trans p <sym> <-1|0|+1> q`` for one-counter nets. Symbols
are decimal byte values or quoted characters like 'a'. A header line
(``states``, ``vars``, ``rules``, ``axiom``) may come only once. Parse
errors carry the byte offset of the offending line.

The binary SLP format: magic ``SLP1``, little-endian u32 rule count t and
axiom arity k, then t-1 binary rules of two u32 symbol ids, then the k
axiom ids. Ids 0..255 are terminals and 256+i is rule i (1-based).
"""

from __future__ import annotations

import struct
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .automata import CnfGrammar, Nfa, Ocn
    from .slpsearch.slp import Slp

__all__ = [
    "MAX_FILE_STATES",
    "MAX_FILE_TABLE_CELLS",
    "FormatError",
    "parse_nfa",
    "dump_nfa",
    "parse_cnf",
    "dump_cnf",
    "parse_ocn",
    "dump_ocn",
    "parse_slp_text",
    "dump_slp_text",
    "parse_slp_binary",
    "dump_slp_binary",
    "load_slp",
]


class FormatError(ValueError):
    def __init__(self, offset: int, message: str):
        super().__init__(f"byte offset {offset}: {message}")
        self.offset = offset


_CHAR_ESCAPES = {"n": 0x0A, "t": 0x09, "r": 0x0D, "0": 0x00, "\\": 0x5C, "'": 0x27}
_REVERSE_ESCAPES = {v: k for k, v in _CHAR_ESCAPES.items()}


def _parse_symbol(token: str, offset: int, limit: int = 255) -> int:
    if len(token) >= 3 and token[0] == "'" and token[-1] == "'":
        body = token[1:-1]
        if len(body) == 1:
            value = ord(body)
        elif len(body) == 2 and body[0] == "\\" and body[1] in _CHAR_ESCAPES:
            value = _CHAR_ESCAPES[body[1]]
        else:
            raise FormatError(offset, f"bad quoted symbol {token}")
    else:
        try:
            value = int(token)
        except ValueError:
            raise FormatError(offset, f"bad symbol {token!r}") from None
    if not (0 <= value <= limit):
        raise FormatError(offset, f"symbol {value} out of range 0..{limit}")
    return value


def _dump_symbol(value: int) -> str:
    if value in _REVERSE_ESCAPES:
        return f"'\\{_REVERSE_ESCAPES[value]}'"
    # a quoted space would split into two tokens: 0x20 is written in decimal
    if 0x20 < value <= 0x7E:
        return f"'{chr(value)}'"
    return str(value)


def _int(token: str, offset: int, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise FormatError(offset, f"bad {what} {token!r}") from None


# the largest ``states N`` an automaton or net file may declare, refused
# before anything is allocated: an automaton keeps N ints per symbol
MAX_FILE_STATES = 1 << 16
# the most cells, declared states times distinct transition symbols, that
# an automaton file's successor tables may take, refused before they are
# built: within MAX_FILE_STATES, 256 symbols would take 2^24 cells
MAX_FILE_TABLE_CELLS = 1 << 22


def _state_count(token: str, offset: int) -> int:
    count = _int(token, offset, "state count")
    if not 0 <= count <= MAX_FILE_STATES:
        raise FormatError(offset, f"state count {count} out of range 0..{MAX_FILE_STATES}")
    return count


def _lines(data: bytes, headers: tuple[str, ...]):
    """The offset and tokens of each line that is not blank or a comment. A
    line of a kind in ``headers`` may come once: a second one is refused."""
    offset, seen = 0, set()
    for raw in data.split(b"\n"):
        try:
            text = raw.decode("ascii").strip()
        except UnicodeDecodeError:
            raise FormatError(offset, "non-ASCII line") from None
        if text and not text.startswith("#"):
            tokens = text.split()
            if tokens[0] in seen:
                raise FormatError(offset, f"repeated {tokens[0]!r} line")
            if tokens[0] in headers:
                seen.add(tokens[0])
            yield offset, tokens
        offset += len(raw) + 1


def _build(make, *args, offset: int = 0):
    """``make(*args)``, its ``ValueError`` reported as a ``FormatError``."""
    try:
        return make(*args)
    except ValueError as exc:
        raise FormatError(offset, str(exc)) from None


def parse_nfa(data: bytes) -> Nfa:
    # each class is imported by the parsers that build it, so the SLP
    # subcommands never load the automata and the automaton subcommands
    # never load the SLP
    from .automata import Nfa

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
    from .automata import CnfGrammar

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
    from .automata import Ocn

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


def _rule_count(count: int, offset: int) -> int:
    """An SLP header's rule count t, which counts the axiom rule: at least 1."""
    if count < 1:
        raise FormatError(offset, f"rule count {count} is below 1")
    return count


def parse_slp_text(data: bytes) -> Slp:
    count = None
    rules: list[tuple[int, ...]] = []
    axiom: tuple[int, ...] | None = None
    for offset, tokens in _lines(data, ("rules", "axiom")):
        kind = tokens[0]
        if kind == "rules" and len(tokens) == 2:
            count = _rule_count(_int(tokens[1], offset, "rule count"), offset)
        elif kind == "rule" and len(tokens) == 3:
            rules.append(
                (
                    _parse_symbol(tokens[1], offset, 1 << 31),
                    _parse_symbol(tokens[2], offset, 1 << 31),
                )
            )
        elif kind == "axiom" and len(tokens) >= 3:
            axiom = tuple(_parse_symbol(t, offset, 1 << 31) for t in tokens[1:])
        else:
            raise FormatError(offset, f"bad SLP line {' '.join(tokens)!r}")
    if count is None:
        raise FormatError(0, "missing 'rules N' line")
    if axiom is None:
        raise FormatError(0, "missing axiom line")
    if len(rules) != count - 1:
        raise FormatError(0, f"expected {count - 1} binary rules, got {len(rules)}")
    from .slpsearch.slp import Slp

    return _build(Slp, [*rules, axiom])


def dump_slp_text(p: Slp) -> bytes:
    out = [f"rules {p.rule_count}"]
    for rule in p.rules[:-1]:
        out.append(f"rule {rule[0]} {rule[1]}")
    out.append("axiom " + " ".join(str(s) for s in p.axiom))
    return ("\n".join(out) + "\n").encode("ascii")


_SLP_MAGIC = b"SLP1"


def dump_slp_binary(p: Slp) -> bytes:
    out = [_SLP_MAGIC, struct.pack("<II", p.rule_count, len(p.axiom))]
    for rule in p.rules[:-1]:
        out.append(struct.pack("<II", rule[0], rule[1]))
    for sym in p.axiom:
        out.append(struct.pack("<I", sym))
    return b"".join(out)


def parse_slp_binary(data: bytes) -> Slp:
    if data[:4] != _SLP_MAGIC:
        raise FormatError(0, "bad magic, expected SLP1")
    if len(data) < 12:
        raise FormatError(4, "truncated header")
    count, arity = struct.unpack_from("<II", data, 4)
    _rule_count(count, 4)
    need = 12 + 8 * (count - 1) + 4 * arity
    if len(data) != need:
        raise FormatError(12, f"expected {need} bytes for {count} rules")
    rules: list[tuple[int, ...]] = []
    pos = 12
    for _ in range(count - 1):
        rules.append(struct.unpack_from("<II", data, pos))
        pos += 8
    axiom = struct.unpack_from(f"<{arity}I", data, pos)
    from .slpsearch.slp import Slp

    return _build(Slp, [*rules, axiom], offset=12)


def load_slp(data: bytes) -> Slp:
    """Binary if the magic matches, text otherwise."""
    if data[:4] == _SLP_MAGIC:
        return parse_slp_binary(data)
    return parse_slp_text(data)
