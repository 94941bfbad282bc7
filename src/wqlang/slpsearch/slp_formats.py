"""Text and binary files of SLPs.

The text format is ``rules t`` / ``rule <sym> <sym>`` (t-1 of them) /
``axiom <sym> ...``, in the line syntax of ``wqlang.formats``, which
resolves these readers and writers by name. The binary format: magic
``SLP1``, little-endian u32 rule count t and axiom arity k, then t-1
binary rules of two u32 symbol ids, then the k axiom ids. Ids 0..255 are
terminals and 256+i is rule i (1-based). Only the SLP subcommands load
this module.
"""

from __future__ import annotations

import struct

from ..formats import FormatError, _build, _int, _lines, _parse_symbol
from .slp import Slp

__all__ = [
    "parse_slp_text",
    "dump_slp_text",
    "parse_slp_binary",
    "dump_slp_binary",
    "load_slp",
]


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
    return _build(Slp, [*rules, axiom], offset=12)


def load_slp(data: bytes) -> Slp:
    """Binary if the magic matches, text otherwise."""
    if data[:4] == _SLP_MAGIC:
        return parse_slp_binary(data)
    return parse_slp_text(data)
