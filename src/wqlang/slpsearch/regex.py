"""Regular-expression surface syntax and compilation to epsilon-free NFAs.

Grammar (lowest to highest precedence): alternation ``|``, concatenation,
postfix ``*`` ``+`` ``?`` ``{m}`` ``{m,n}``; atoms are literals, escapes,
``.``, ``[...]`` classes with ranges and ``^`` negation, and groups.

The newline byte is excluded from ``.`` and from character classes unless
a class lists it explicitly, and patterns that can match the empty word
are rejected by default: line counting needs a nonempty, newline-free
match language. Groups and postfix operators may nest at most
``MAX_REGEX_DEPTH`` deep, so that parsing and compiling never exhaust the
interpreter stack. Patterns compile to their position automaton, which
has one initial state and one state per atom, and whose states and
transitions are all it holds: it may have at most ``MAX_REGEX_STATES``
states and ``MAX_REGEX_TRANSITIONS`` transitions, so that bounded
repetitions such as ``a{99999}``, ``.{5000}`` or ``(a{1000}){1000}`` are
refused instead of expanded. Every pattern takes that one route: the
shape test ``homogeneous_kind`` and ``homogeneous_dfa``, an alias of
``compile_regex``, remain only as names the benchmark looks up.

Syntax-tree nodes are named tuples, so importing the module loads no
``dataclasses``. Like any tuples, nodes of two types with equal fields
compare equal (``Star(Lit(97)) == Plus(Lit(97))``); the compiler and the
shape tests tell nodes apart by type, never by equality.
"""

from __future__ import annotations

from typing import NamedTuple

from ..automata import Nfa, mask_of

__all__ = [
    "MAX_REGEX_DEPTH",
    "MAX_REGEX_STATES",
    "MAX_REGEX_TRANSITIONS",
    "RegexSyntaxError",
    "EmptyMatchError",
    "parse_regex",
    "compile_regex",
    "homogeneous_kind",
    "homogeneous_dfa",
    "Lit",
    "ClassAtom",
    "Concat",
    "Alt",
    "Star",
    "Plus",
    "Opt",
    "Repeat",
]

NEWLINE = 0x0A
# groups plus postfix operators enclosing one atom; both the parser and the
# compiler recurse once or twice per level
MAX_REGEX_DEPTH = 100
# states of the compiled automaton, the initial one and one per atom;
# bounded repetition copies its operand, so nesting multiplies
MAX_REGEX_STATES = 1 << 13
# transitions of the compiled automaton; concatenation joins every last
# atom of the left operand to every first-atom move of the right, so dense
# classes and optional copies grow them faster than states
MAX_REGEX_TRANSITIONS = 1 << 17


class RegexSyntaxError(ValueError):
    def __init__(self, offset: int, message: str):
        super().__init__(f"offset {offset}: {message}")
        self.offset = offset


class EmptyMatchError(ValueError):
    """The pattern can match the empty string."""


class Lit(NamedTuple):
    byte: int


class ClassAtom(NamedTuple):
    bytes_: frozenset[int]


class Concat(NamedTuple):
    parts: tuple


class Alt(NamedTuple):
    branches: tuple


class Star(NamedTuple):
    inner: object


class Plus(NamedTuple):
    inner: object


class Opt(NamedTuple):
    inner: object


class Repeat(NamedTuple):
    inner: object
    low: int
    high: int


_ESCAPES = {
    ord("n"): 0x0A,
    ord("t"): 0x09,
    ord("r"): 0x0D,
    ord("f"): 0x0C,
    ord("v"): 0x0B,
    ord("0"): 0x00,
}
_HEX_DIGITS = b"0123456789abcdefABCDEF"


class _Parser:
    def __init__(self, text: str):
        try:
            self.data = text.encode("ascii")
        except UnicodeEncodeError as exc:
            raise RegexSyntaxError(0, "pattern must be ASCII") from exc
        self.pos = 0
        self.depth = 0  # enclosing groups

    def error(self, message: str, offset: int | None = None):
        raise RegexSyntaxError(self.pos if offset is None else offset, message)

    def peek(self) -> int | None:
        return self.data[self.pos] if self.pos < len(self.data) else None

    def take(self) -> int:
        b = self.data[self.pos]
        self.pos += 1
        return b

    def parse(self):
        node = self.alternation()
        if self.pos != len(self.data):
            self.error(f"unexpected {chr(self.data[self.pos])!r}")
        return node

    def alternation(self):
        branches = [self.concat()]
        while self.peek() == ord("|"):
            self.take()
            branches.append(self.concat())
        if len(branches) == 1:
            return branches[0]
        return Alt(tuple(branches))

    def concat(self):
        parts = []
        while True:
            b = self.peek()
            if b is None or b in (ord("|"), ord(")")):
                break
            parts.append(self.postfix())
        if not parts:
            if not self.data:
                self.error("empty pattern")
            if self.peek() == ord(")") and not self.depth:
                self.error("unexpected ')'")
            if self.data[self.pos - 1 : self.pos + 1] == b"()":
                self.error("empty group", self.pos - 1)
            self.error("empty alternation branch")
        if len(parts) == 1:
            return parts[0]
        return Concat(tuple(parts))

    def postfix(self):
        node = self.atom()
        depth = self.depth
        while True:
            b = self.peek()
            if b in (ord("*"), ord("+"), ord("?"), ord("{")):
                depth += 1
                self.check_depth(depth, self.pos)
            if b == ord("*"):
                self.take()
                node = Star(node)
            elif b == ord("+"):
                self.take()
                node = Plus(node)
            elif b == ord("?"):
                self.take()
                node = Opt(node)
            elif b == ord("{"):
                node = self.repetition(node)
            else:
                return node

    def check_depth(self, depth: int, offset: int) -> None:
        if depth > MAX_REGEX_DEPTH:
            self.error(f"nesting deeper than {MAX_REGEX_DEPTH}", offset)

    def repetition(self, node):
        start = self.pos
        self.take()  # '{'
        low = self.number(start)
        high = low
        if self.peek() == ord(","):
            self.take()
            high = self.number(start)
        if self.peek() != ord("}"):
            self.error("unterminated repetition", start)
        self.take()
        if low > high:
            self.error(f"repetition {{{low},{high}}} has m > n", start)
        return Repeat(node, low, high)

    def number(self, start: int) -> int:
        digits = []
        while (b := self.peek()) is not None and ord("0") <= b <= ord("9"):
            digits.append(self.take())
        if not digits:
            self.error("expected a number in repetition", start)
        return int(bytes(digits))

    def atom(self):
        start = self.pos
        b = self.take()
        if b == ord("("):
            if self.peek() is None:
                self.error("unbalanced group", start)
            self.depth += 1
            self.check_depth(self.depth, start)
            node = self.alternation()
            if self.peek() != ord(")"):
                self.error("unbalanced group", start)
            self.take()
            self.depth -= 1
            return node
        if b == ord("."):
            return ClassAtom(frozenset(range(256)) - {NEWLINE})
        if b == ord("["):
            return self.char_class(start)
        if b == ord("\\"):
            return Lit(self.escape(start))
        if b in (ord("*"), ord("+"), ord("?"), ord(")"), ord("|"), ord("{")):
            self.error(f"unexpected {chr(b)!r}", start)
        return Lit(b)

    def escape(self, start: int) -> int:
        """The byte of the escape whose backslash is at offset ``start``, the
        offset its errors carry."""
        if self.peek() is None:
            self.error("dangling escape", start)
        b = self.take()
        if b in _ESCAPES:
            return _ESCAPES[b]
        if b == ord("x"):
            if self.pos + 2 > len(self.data):
                self.error("truncated \\x escape", start)
            digits = self.data[self.pos : self.pos + 2]
            # int() alone would also take a sign or a space
            if not all(d in _HEX_DIGITS for d in digits):
                self.error("bad \\x escape: expected two hex digits", start)
            self.pos += 2
            return int(digits, 16)
        return b  # identity escape for punctuation

    def char_class(self, start: int):
        negate = False
        if self.peek() == ord("^"):
            self.take()
            negate = True
        members: set[int] = set()
        explicit_newline = False
        first = True
        while True:
            b = self.peek()
            if b is None:
                self.error("unterminated class", start)
            if b == ord("]") and not first:
                self.take()
                break
            first = False
            b = self.take()
            if b == ord("\\"):
                b = self.escape(self.pos - 1)
            lo = b
            if self.peek() == ord("-") and self.pos + 1 < len(self.data) and self.data[
                self.pos + 1
            ] != ord("]"):
                self.take()
                hi = self.take()
                if hi == ord("\\"):
                    hi = self.escape(self.pos - 1)
                if lo > hi:
                    self.error("bad class range", start)
                # a range sweeping over the newline does not list it explicitly
                members.update(range(lo, hi + 1))
            else:
                members.add(lo)
                if lo == NEWLINE:
                    explicit_newline = True
        if negate:
            members = set(range(256)) - members
            explicit_newline = False
        if not explicit_newline:
            members -= {NEWLINE}
        if not members:
            self.error("class matches no byte", start)
        return ClassAtom(frozenset(members))


def parse_regex(text: str):
    """Parse a pattern into its syntax tree; errors carry byte offsets."""
    return _Parser(text).parse()


# -- compilation --------------------------------------------------------------


class _Frag(NamedTuple):
    """Fragment of the position automaton: one state per atom, entered only
    on that atom's bytes."""

    trans: list  # (p, sym, q)
    entry: list  # (sym, q) into the first atoms
    ends: set  # the last atoms
    eps: bool  # accepts the empty word


def _atom_bytes(node) -> set[int] | None:
    """Bytes of a literal, a class or an alternation of them, the nodes
    that compile to one atom; None for any other node."""
    out: set[int] = set()
    for branch in node.branches if isinstance(node, Alt) else (node,):
        if isinstance(branch, Lit):
            out.add(branch.byte)
        elif isinstance(branch, ClassAtom):
            out |= branch.bytes_
        else:
            return None
    return out


class _Builder:
    def __init__(self):
        self.next_state = 0
        self.transitions = 0

    def fresh(self) -> int:
        s = self.next_state
        if s == MAX_REGEX_STATES:
            raise RegexSyntaxError(
                0, f"pattern needs more than {MAX_REGEX_STATES} states"
            )
        self.next_state += 1
        return s

    def edges(self, sources, moves) -> list[tuple[int, int, int]]:
        """Transitions from every state of ``sources`` along every
        ``(sym, q)`` of ``moves``."""
        self.transitions += len(sources) * len(moves)
        if self.transitions > MAX_REGEX_TRANSITIONS:
            raise RegexSyntaxError(
                0, f"pattern needs more than {MAX_REGEX_TRANSITIONS} transitions"
            )
        return [(src, sym, q) for src in sources for sym, q in moves]

    def atom(self, byte_set) -> _Frag:
        s = self.fresh()
        return _Frag([], [(b, s) for b in sorted(byte_set)], {s}, False)

    def concat(self, a: _Frag, b: _Frag) -> _Frag:
        bridge = self.edges(a.ends, b.entry)
        entry = a.entry + b.entry if a.eps else a.entry
        ends = set(b.ends) | (set(a.ends) if b.eps else set())
        # a fragment is consumed once, so the longer list can grow in place
        trans, other = a.trans, b.trans
        if len(other) > len(trans):
            trans, other = other, trans
        trans += other
        trans += bridge
        return _Frag(trans, entry, ends, a.eps and b.eps)

    def alt(self, frags) -> _Frag:
        trans, entry, ends, eps = [], [], set(), False
        for f in frags:
            trans += f.trans
            entry += f.entry
            ends |= f.ends
            eps = eps or f.eps
        return _Frag(trans, entry, ends, eps)

    def plus(self, a: _Frag) -> _Frag:
        return a._replace(trans=a.trans + self.edges(a.ends, a.entry))

    def build(self, node) -> _Frag:
        byte_set = _atom_bytes(node)
        if byte_set is not None:
            return self.atom(byte_set)
        if isinstance(node, Concat):
            frag = self.build(node.parts[0])
            for part in node.parts[1:]:
                frag = self.concat(frag, self.build(part))
            return frag
        if isinstance(node, Alt):
            return self.alt([self.build(b) for b in node.branches])
        if isinstance(node, Star):
            return self.plus(self.build(node.inner))._replace(eps=True)
        if isinstance(node, Plus):
            return self.plus(self.build(node.inner))
        if isinstance(node, Opt):
            return self.build(node.inner)._replace(eps=True)
        if isinstance(node, Repeat):
            first = self.build(node.inner) if node.high else None
            if first is None or not first.entry:
                # x{0}, or an operand that matches only the empty word,
                # whatever the bound: no copy is built past the first
                return _Frag([], [], set(), True)
            copies = [first] + [self.build(node.inner) for _ in range(node.high - 1)]
            low = node.low
            if first.eps:
                # x{m,n} with x nullable is (x minus the empty word){0,n}:
                # nullable copies would each be enterable from every earlier
                # one, which takes quadratically many transitions
                copies = [copy._replace(eps=False) for copy in copies]
                low = 0
            # x{m,n} is m copies followed by (x(x(...)?)?)?, folded from the
            # right, so that each optional copy is entered only from the
            # copy before it
            frag = None
            for i in reversed(range(node.high)):
                frag = copies[i] if frag is None else self.concat(copies[i], frag)
                if i >= low:
                    frag = frag._replace(eps=True)
            return frag
        raise TypeError(f"unknown AST node {node!r}")


def compile_regex(ast, allow_empty: bool = False) -> Nfa:
    """Compile a syntax tree to its position automaton, an epsilon-free NFA
    for the same language: state 0 is the only initial state, and each atom
    of the pattern has one state, entered only on that atom's bytes.

    Rejects patterns that match the empty word unless ``allow_empty``; the
    search pipeline requires nonempty matches. Raises ``RegexSyntaxError``
    when the automaton would have more than ``MAX_REGEX_STATES`` states or
    ``MAX_REGEX_TRANSITIONS`` transitions.
    """
    builder = _Builder()
    start = _Frag([], [], {builder.fresh()}, False)
    body = builder.build(ast)
    # state 0 enters the body's first atoms and is final when it is nullable
    frag = builder.concat(start, body)
    if body.eps and not allow_empty:
        raise EmptyMatchError("pattern matches the empty string")
    count = builder.next_state
    rows: dict[int, list[int]] = {}
    for p, sym, q in frag.trans:
        row = rows.get(sym)
        if row is None:
            row = rows[sym] = [0] * count
        row[p] |= 1 << q
    return Nfa._of_tables(
        count,
        {sym: tuple(rows[sym]) for sym in sorted(rows)},
        1,
        mask_of(frag.ends),
    )


# -- homogeneous shapes --------------------------------------------------------


def homogeneous_kind(ast) -> str | None:
    """Classify concatenations whose operators all agree: ``plus`` for
    sequences of letters with optional ``+``, ``alt`` for chains of
    single-letter alternation groups, None for anything else.

    Search compiles every pattern with ``compile_regex``, whatever its
    shape. This name stays only because the benchmark and the golden tests
    choose their automata by it; ROADMAP item 2 deletes it, with
    ``homogeneous_dfa``, when the benchmark changes."""
    parts = ast.parts if isinstance(ast, Concat) else (ast,)
    plus_ok = alt_ok = True
    for part in parts:
        if isinstance(part, Plus) and isinstance(part.inner, Lit):
            alt_ok = False
        elif isinstance(part, Lit):
            continue
        elif isinstance(part, ClassAtom) or (
            isinstance(part, Alt) and all(isinstance(b, Lit) for b in part.branches)
        ):
            plus_ok = False
        else:
            return None
    if plus_ok:
        return "plus"
    if alt_ok:
        return "alt"
    return None


# ``homogeneous_dfa(ast, kind)`` is ``compile_regex`` itself, ``kind``
# landing in ``allow_empty``, which no homogeneous shape needs: it matches
# only nonempty words. The benchmark looks the name up and traces it as one
# compilation, so it is an alias and not a wrapper, which a traced run would
# count twice. ROADMAP item 2 deletes it with ``homogeneous_kind``.
homogeneous_dfa = compile_regex
