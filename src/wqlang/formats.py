"""The line syntax of the text file formats, and every reader and writer
by name.

Text formats are line-based: ``states N`` / ``alphabet ...`` / ``initial
q ...`` / ``final q ...`` / ``trans p <sym> q`` for automata, ``vars N`` /
``term Xi <sym>`` / ``bin Xi Xj Xk`` / ``eps`` for grammars in CNF,
``states N`` / ``trans p <sym> <-1|0|+1> q`` for one-counter nets, and
``rules t`` / ``rule <sym> <sym>`` / ``axiom <sym> ...`` for SLPs. Symbols
are decimal byte values or quoted characters like 'a'. A header line
(``states``, ``vars``, ``rules``, ``axiom``) may come only once. Parse
errors carry the byte offset of the offending line.

This module holds what every format shares: ``FormatError``, the
``MAX_FILE_*`` caps, symbols and tokenized lines. Each family's readers
and writers live with it, in ``automaton_formats`` (automata, grammars,
nets) and in ``slpsearch.slp_formats`` (SLPs, with the binary format);
their names below are imported from there on first access, so a program
that reads one family compiles only that family's formats.
"""

from __future__ import annotations

from . import _lazy_exports

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


__all__, __getattr__, __dir__ = _lazy_exports(
    globals(),
    {
        "automaton_formats": (
            "dump_cnf",
            "dump_nfa",
            "dump_ocn",
            "parse_cnf",
            "parse_nfa",
            "parse_ocn",
        ),
        "slpsearch.slp_formats": (
            "dump_slp_binary",
            "dump_slp_text",
            "load_slp",
            "parse_slp_binary",
            "parse_slp_text",
        ),
    },
)
__all__ = ["FormatError", "MAX_FILE_STATES", "MAX_FILE_TABLE_CELLS", *__all__]
