"""Regular-expression surface syntax and compilation to epsilon-free NFAs.

Grammar (lowest to highest precedence): alternation ``|``, concatenation,
postfix ``*`` ``+`` ``?`` ``{m}`` ``{m,n}``; atoms are literals, escapes,
``.``, ``[...]`` classes with ranges and ``^`` negation, and groups.

The newline byte is excluded from ``.`` and from character classes unless
a class lists it explicitly, and patterns that can match the empty word
are rejected by default: line counting needs a nonempty, newline-free
match language.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..automata import Dfa, Nfa

__all__ = [
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


class RegexSyntaxError(ValueError):
    def __init__(self, offset: int, message: str):
        super().__init__(f"offset {offset}: {message}")
        self.offset = offset


class EmptyMatchError(ValueError):
    """The pattern can match the empty string."""


@dataclass(frozen=True)
class Lit:
    byte: int


@dataclass(frozen=True)
class ClassAtom:
    bytes_: frozenset[int]


@dataclass(frozen=True)
class Concat:
    parts: tuple


@dataclass(frozen=True)
class Alt:
    branches: tuple


@dataclass(frozen=True)
class Star:
    inner: object


@dataclass(frozen=True)
class Plus:
    inner: object


@dataclass(frozen=True)
class Opt:
    inner: object


@dataclass(frozen=True)
class Repeat:
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


class _Parser:
    def __init__(self, text: str):
        try:
            self.data = text.encode("ascii")
        except UnicodeEncodeError as exc:
            raise RegexSyntaxError(0, "pattern must be ASCII") from exc
        self.pos = 0

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
            self.error("empty alternation branch")
        if len(parts) == 1:
            return parts[0]
        return Concat(tuple(parts))

    def postfix(self):
        node = self.atom()
        while True:
            b = self.peek()
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
            node = self.alternation()
            if self.peek() != ord(")"):
                self.error("unbalanced group", start)
            self.take()
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
        if self.peek() is None:
            self.error("dangling escape", start)
        b = self.take()
        if b in _ESCAPES:
            return _ESCAPES[b]
        if b == ord("x"):
            if self.pos + 2 > len(self.data):
                self.error("truncated \\x escape", start)
            try:
                value = int(self.data[self.pos : self.pos + 2], 16)
            except ValueError:
                self.error("bad \\x escape", start)
            self.pos += 2
            return value
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
                b = self.escape(start)
            lo = b
            if self.peek() == ord("-") and self.pos + 1 < len(self.data) and self.data[
                self.pos + 1
            ] != ord("]"):
                self.take()
                hi = self.take()
                if hi == ord("\\"):
                    hi = self.escape(start)
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


class _Frag:
    """Epsilon-free fragment: transitions over a private state space plus a
    flag recording whether the fragment accepts the empty word."""

    __slots__ = ("trans", "starts", "ends", "eps")

    def __init__(self, trans, starts, ends, eps):
        self.trans = trans  # list of (p, sym, q)
        self.starts = starts  # frozenset of entry states
        self.ends = ends  # frozenset of exit states
        self.eps = eps


class _Builder:
    def __init__(self):
        self.next_state = 0

    def fresh(self) -> int:
        s = self.next_state
        self.next_state += 1
        return s

    def atom(self, byte_set) -> _Frag:
        s, t = self.fresh(), self.fresh()
        return _Frag([(s, b, t) for b in sorted(byte_set)], {s}, {t}, False)

    def concat(self, a: _Frag, b: _Frag) -> _Frag:
        bridge = [
            (end, sym, q) for end in a.ends for (p, sym, q) in b.trans if p in b.starts
        ]
        starts = set(a.starts) | (set(b.starts) if a.eps else set())
        ends = set(b.ends) | (set(a.ends) if b.eps else set())
        return _Frag(a.trans + b.trans + bridge, starts, ends, a.eps and b.eps)

    def alt(self, frags) -> _Frag:
        trans, starts, ends, eps = [], set(), set(), False
        for f in frags:
            trans += f.trans
            starts |= f.starts
            ends |= f.ends
            eps = eps or f.eps
        return _Frag(trans, starts, ends, eps)

    def loop(self, a: _Frag) -> list[tuple[int, int, int]]:
        return [
            (end, sym, q) for end in a.ends for (p, sym, q) in a.trans if p in a.starts
        ]

    def star(self, a: _Frag) -> _Frag:
        return _Frag(a.trans + self.loop(a), a.starts, a.ends, True)

    def plus(self, a: _Frag) -> _Frag:
        return _Frag(a.trans + self.loop(a), a.starts, a.ends, a.eps)

    def build(self, node) -> _Frag:
        if isinstance(node, Lit):
            return self.atom({node.byte})
        if isinstance(node, ClassAtom):
            return self.atom(node.bytes_)
        if isinstance(node, Concat):
            frag = self.build(node.parts[0])
            for part in node.parts[1:]:
                frag = self.concat(frag, self.build(part))
            return frag
        if isinstance(node, Alt):
            return self.alt([self.build(b) for b in node.branches])
        if isinstance(node, Star):
            return self.star(self.build(node.inner))
        if isinstance(node, Plus):
            return self.plus(self.build(node.inner))
        if isinstance(node, Opt):
            inner = self.build(node.inner)
            return _Frag(inner.trans, inner.starts, inner.ends, True)
        if isinstance(node, Repeat):
            if node.low == 0 and node.high == 0:
                empty = _Frag([], set(), set(), True)
                return empty
            frag = None
            for i in range(node.high):
                copy = self.build(node.inner)
                if i >= node.low:
                    copy = _Frag(copy.trans, copy.starts, copy.ends, True)
                frag = copy if frag is None else self.concat(frag, copy)
            return frag
        raise TypeError(f"unknown AST node {node!r}")


def compile_regex(ast, allow_empty: bool = False) -> Nfa:
    """Compile a syntax tree to an epsilon-free NFA for the same language.

    Rejects patterns that match the empty word unless ``allow_empty``; the
    search pipeline requires nonempty matches.
    """
    builder = _Builder()
    frag = builder.build(ast)
    if frag.eps and not allow_empty:
        raise EmptyMatchError("pattern matches the empty string")
    # keep only states reachable from an entry or reaching an exit
    fwd: dict[int, list[tuple[int, int]]] = {}
    for p, sym, q in frag.trans:
        fwd.setdefault(p, []).append((sym, q))
    reachable = set(frag.starts)
    stack = list(frag.starts)
    while stack:
        p = stack.pop()
        for _, q in fwd.get(p, ()):
            if q not in reachable:
                reachable.add(q)
                stack.append(q)
    bwd: dict[int, list[int]] = {}
    for p, sym, q in frag.trans:
        bwd.setdefault(q, []).append(p)
    useful = set(frag.ends)
    stack = list(frag.ends)
    while stack:
        q = stack.pop()
        for p in bwd.get(q, ()):
            if p not in useful:
                useful.add(p)
                stack.append(p)
    keep = sorted(reachable & useful)
    number = {s: i for i, s in enumerate(keep)}
    triples = [
        (number[p], sym, number[q])
        for p, sym, q in frag.trans
        if p in number and q in number
    ]
    initial = [number[s] for s in frag.starts if s in number]
    final = [number[s] for s in frag.ends if s in number]
    count = len(keep)
    if frag.eps and allow_empty:
        # a fresh state that is initial and final and has the entry moves
        extra = count
        entry_moves = []
        for s in frag.starts:
            if s in number:
                src = number[s]
                entry_moves += [
                    (extra, sym, q) for (p, sym, q) in triples if p == src
                ]
        triples += entry_moves
        initial = [extra]
        final = final + [extra]
        count += 1
    return Nfa(count, triples, initial, final)


# -- homogeneous shapes --------------------------------------------------------


def _letter_of(node) -> int | None:
    return node.byte if isinstance(node, Lit) else None


def _group_letters(node) -> list[int] | None:
    """Single letters of an alternation group, or None if not that shape."""
    if isinstance(node, Lit):
        return [node.byte]
    if isinstance(node, ClassAtom):
        return sorted(node.bytes_)
    if isinstance(node, Alt):
        out: list[int] = []
        for b in node.branches:
            if not isinstance(b, Lit):
                return None
            out.append(b.byte)
        return sorted(set(out))
    return None


def homogeneous_kind(ast) -> str | None:
    """Classify concatenations whose operators all agree: ``plus`` for
    sequences of letters with optional ``+``, ``alt`` for chains of
    single-letter alternation groups. Both shapes match only nonempty
    words, so the fast path never bypasses the empty-match rejection."""
    parts = ast.parts if isinstance(ast, Concat) else (ast,)
    plus_ok = alt_ok = True
    for part in parts:
        if isinstance(part, Plus) and _letter_of(part.inner) is not None:
            alt_ok = False
        elif isinstance(part, Lit):
            continue
        elif _group_letters(part) is not None:
            plus_ok = False
        else:
            return None
    if plus_ok:
        return "plus"
    if alt_ok:
        return "alt"
    return None


def homogeneous_dfa(ast, kind: str) -> Dfa:
    """Specialized linear-size DFA for a homogeneous expression.

    plus: a chain with a self-loop after each plussed letter; a plussed
    letter followed by the same letter hands its repetition to the
    successor so the chain stays deterministic.
    alt: a plain chain consuming one group per step.
    """
    parts = ast.parts if isinstance(ast, Concat) else (ast,)
    if kind == "plus":
        letters = []
        plused = []
        for part in parts:
            if isinstance(part, Plus):
                letters.append(part.inner.byte)
                plused.append(True)
            else:
                letters.append(part.byte)
                plused.append(False)
        for i in range(len(letters) - 1):
            if plused[i] and letters[i] == letters[i + 1]:
                plused[i] = False
                plused[i + 1] = True
        n = len(letters)
        triples = []
        for i, (a, loop) in enumerate(zip(letters, plused), start=1):
            triples.append((i - 1, a, i))
            if loop:
                triples.append((i, a, i))
        return Dfa(n + 1, triples, [0], [n])
    if kind == "alt":
        groups = [_group_letters(part) for part in parts]
        n = len(groups)
        triples = []
        for i, letters in enumerate(groups, start=1):
            for a in letters:
                triples.append((i - 1, a, i))
        return Dfa(n + 1, triples, [0], [n])
    raise ValueError(f"bad homogeneous kind {kind!r}")
