"""Command-line front end.

Subcommands: ``include nfa|cfg|ocn`` for the inclusion checkers, ``search``
for counting (and reporting) matching lines in SLP-compressed text,
``compress``/``decompress`` for the built-in pair compressor,
``residualize``/``canonical``/``double-reversal``/``check-dr`` for the
residual constructions, and ``learn`` to run the active learner against a
target automaton file.

Exit codes: 0 success, 1 a requested --fail-on-miss inclusion does not
hold, 2 usage error (including a search pattern that matches the empty
string, nests deeper than ``MAX_REGEX_DEPTH`` or compiles to more than
``MAX_REGEX_STATES`` states or ``MAX_REGEX_TRANSITIONS`` transitions), 3
malformed input file (including an automaton or net file that declares
more than ``MAX_FILE_STATES`` states, an automaton file whose states times
distinct transition symbols exceed ``MAX_FILE_TABLE_CELLS``, and a file of
fewer than two bytes given to ``compress``), a path that cannot be opened
as an input or as ``-o`` (missing, a directory, not permitted: any
``OSError``) or a computation stopped by its cap
(fixpoint layers, learner queries, decompressed size, ``MAX_DFA_STATES``
subset-construction states).
``TOOL_ITER_CAP``, a nonnegative integer, overrides the cap on fixpoint
layers (each extends the entries the one before added; a witness found
within the cap is still reported) of ``include nfa`` (every ``--algo``,
``gfp`` included), ``include cfg`` and ``include ocn``; any other value is
a usage error, and so is a negative ``decompress --cap``.

Start-up loads only the file formats and builds only the argument parser
of the subcommand the command line names; each subcommand imports its own
algorithm family when it runs. ``compress`` and ``decompress`` load the SLP
module alone, ``search`` adds the regex compiler and the counting engine,
``include`` the automata and the inclusion checkers, and the residual
constructions and ``learn`` the automata and the residual core.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import TYPE_CHECKING

from . import _lazy_exports
from .formats import (
    FormatError,
    dump_nfa,
    dump_slp_binary,
    dump_slp_text,
    load_slp,
    parse_cnf,
    parse_nfa,
    parse_ocn,
)

if TYPE_CHECKING:
    from .automata import Verdict

USAGE_ERROR = 2
INPUT_ERROR = 3

# Functions that other code reads off this module (the benchmark's tracer
# wraps them here). Each resolves to its defining module's current binding
# on access; the handlers below call them through that module, so a wrapper
# installed there sees each call once.
_, __getattr__, __dir__ = _lazy_exports(
    globals(),
    {
        "automata": ("equivalence_counterexample",),
        "learn": ("nl_learn",),
        "slpsearch.regex": ("compile_regex", "homogeneous_dfa"),
        "slpsearch.slp": ("decompress", "repair_compress"),
    },
)


def _iter_cap() -> int:
    from .inclusion import DEFAULT_ITER_CAP

    value = os.environ.get("TOOL_ITER_CAP")
    if not value:
        return DEFAULT_ITER_CAP
    try:
        cap = int(value)
    except ValueError:
        raise ValueError(f"TOOL_ITER_CAP must be a nonnegative integer, got {value!r}") from None
    if cap < 0:
        raise ValueError(f"TOOL_ITER_CAP must be nonnegative, got {cap}")
    return cap


def _read(path: str) -> bytes:
    with open(path, "rb") as handle:
        return handle.read()


def _write_out(data: bytes, path: str | None) -> None:
    if path is None:
        sys.stdout.buffer.write(data)
    else:
        with open(path, "wb") as handle:
            handle.write(data)


def _render_word(word: bytes) -> str:
    return word.decode("latin-1")


def _emit(args, human: str, payload: dict) -> None:
    if args.json:
        import json

        base = {"verdict": None, "count": None, "witness": None, "stats": None}
        base.update(payload)
        print(json.dumps(base))
    else:
        print(human)


def _verdict_output(args, verdict: Verdict, stats: dict | None) -> int:
    if verdict.included:
        human = "INCLUDED"
    elif verdict.witness is not None:
        human = f"NOT INCLUDED witness={_render_word(verdict.witness)}"
    else:
        human = "NOT INCLUDED"
    if args.stats and stats and not args.json:
        human += "  " + " ".join(f"{k}={v}" for k, v in stats.items())
    _emit(
        args,
        human,
        {
            "verdict": "included" if verdict.included else "not_included",
            "witness": None if verdict.witness is None else _render_word(verdict.witness),
            "stats": stats if args.stats else None,
        },
    )
    if not verdict.included and args.fail_on_miss:
        return 1
    return 0


# One table per include flavor: the --algo choices, in order, and the call
# each makes with (the inclusion module, left, right, cap). The handler
# imports the module when it runs and passes it in, so only ``include``
# loads the inclusion checkers, and a wrapper installed on the module sees
# every call. The handles come from ``inc.qo``, the quasiorder module.
NFA_ALGOS = {
    "word-nerode": lambda inc, n1, n2, cap: inc.fa_inc_word(n1, inc.qo.nerode_handle(n2), cap),
    "word-state": lambda inc, n1, n2, cap: inc.fa_inc_word(n1, inc.qo.state_handle(n2), cap),
    "word-sim": lambda inc, n1, n2, cap: inc.fa_inc_word(n1, inc.qo.sim_handle(n2), cap),
    "antichain-fwd": lambda inc, n1, n2, cap: inc.fa_inc_antichain(n1, n2, "forward", cap),
    "gfp": lambda inc, n1, n2, cap: inc.fa_inc_gfp(n1, n2, cap),
}
CFG_ALGOS = {
    "antichain": lambda inc, g, n, cap: inc.cfg_inc_antichain(g, n, cap),
    "word-myhill": lambda inc, g, n, cap: inc.cfg_inc_word(g, inc.qo.myhill_handle(n), cap),
    "word-ctx": lambda inc, g, n, cap: inc.cfg_inc_word(g, inc.qo.ctx_handle(n), cap),
}


def _cmd_include_nfa(args) -> int:
    from . import inclusion

    left = parse_nfa(_read(args.left))
    right = parse_nfa(_read(args.right))
    verdict = NFA_ALGOS[args.algo](inclusion, left, right, _iter_cap())
    return _verdict_output(args, verdict, {"algo": args.algo})


def _cmd_include_cfg(args) -> int:
    from . import inclusion

    grammar = parse_cnf(_read(args.left))
    right = parse_nfa(_read(args.right))
    verdict = CFG_ALGOS[args.algo](inclusion, grammar, right, _iter_cap())
    return _verdict_output(args, verdict, {"algo": args.algo})


def _cmd_include_ocn(args) -> int:
    from . import inclusion

    left = parse_nfa(_read(args.left))
    net = parse_ocn(_read(args.right))
    verdict = inclusion.nfa_in_ocn(left, net, (args.state, args.counter), _iter_cap())
    return _verdict_output(args, verdict, {"algo": "word-macro"})


def _cmd_search(args) -> int:
    """Count, and with ``--report`` list, the lines of an SLP file that hold
    a match of the pattern. Every pattern is searched with its position
    automaton, ``compile_regex``."""
    from .slpsearch.counting import NEWLINE, SearchEngine
    from .slpsearch.regex import compile_regex, parse_regex

    slp = load_slp(_read(args.file))
    nfa = compile_regex(parse_regex(args.expression))
    if NEWLINE in nfa.alphabet:
        print("error: pattern must not match the newline byte", file=sys.stderr)
        return USAGE_ERROR
    engine = SearchEngine(slp, nfa)
    count = engine.line_count()
    stats = {
        "rules": engine.stats.rules,
        "automaton_states": engine.stats.automaton_states,
        "compose_steps": engine.stats.compose_steps,
        "inner_iters": engine.stats.inner_iters,
    }
    lines = list(engine.report()) if args.report else None
    if args.json:
        payload = {"count": count, "stats": stats if args.stats else None}
        if lines is not None:
            payload["lines"] = [
                {"line": no, "text": _render_word(text)} for no, text in lines
            ]
        _emit(args, "", payload)
    else:
        print(count)
        if lines is not None:
            for no, text in lines:
                print(f"{no}:{_render_word(text)}")
        if args.stats:
            print(" ".join(f"{k}={v}" for k, v in stats.items()), file=sys.stderr)
    return 0


def _cmd_compress(args) -> int:
    from .slpsearch.slp import repair_compress

    try:
        slp = repair_compress(_read(args.file))
    except ValueError as exc:  # fewer than two bytes: the file is at fault
        print(f"error: {exc}", file=sys.stderr)
        return INPUT_ERROR
    data = dump_slp_text(slp) if args.text else dump_slp_binary(slp)
    _write_out(data, args.output)
    return 0


def _cmd_decompress(args) -> int:
    from .slpsearch.slp import decompress

    if args.cap < 0:
        raise ValueError(f"--cap must be nonnegative, got {args.cap}")
    slp = load_slp(_read(args.file))
    _write_out(decompress(slp, cap=args.cap), args.output)
    return 0


def _cmd_construction(args) -> int:
    from . import residual

    nfa = parse_nfa(_read(args.file))
    if args.construction == "residualize":
        out = residual.res(nfa, args.direction)
    elif args.construction == "canonical":
        out = residual.canonical(nfa, args.direction)
    else:  # double-reversal
        out = residual.double_reversal_canonical(nfa)
    _write_out(dump_nfa(out), args.output)
    return 0


def _cmd_check_dr(args) -> int:
    from . import residual

    nfa = parse_nfa(_read(args.file))
    holds = residual.check_dr_condition(nfa)
    _emit(
        args,
        "HOLDS" if holds else "DOES NOT HOLD",
        {"verdict": "holds" if holds else "does-not-hold"},
    )
    return 0


def _cmd_learn(args) -> int:
    from .automata import equivalence_counterexample
    from .learn import nl_learn

    target = parse_nfa(_read(args.file))
    learned = nl_learn(
        target.member,
        lambda candidate: equivalence_counterexample(candidate, target),
        sorted(target.alphabet),
    )
    _write_out(dump_nfa(learned), args.output)
    return 0


def _add_include(sub, name: str) -> None:
    include = sub.add_parser(name, help="decide a language inclusion")
    inc_sub = include.add_subparsers(dest="flavor", required=True)
    inc_nfa = inc_sub.add_parser("nfa")
    inc_nfa.add_argument("left")
    inc_nfa.add_argument("right")
    inc_nfa.add_argument("--algo", default="antichain-fwd", choices=NFA_ALGOS)
    _common_verdict_flags(inc_nfa)
    inc_nfa.set_defaults(func=_cmd_include_nfa)

    inc_cfg = inc_sub.add_parser("cfg")
    inc_cfg.add_argument("left")
    inc_cfg.add_argument("right")
    inc_cfg.add_argument("--algo", default="antichain", choices=CFG_ALGOS)
    _common_verdict_flags(inc_cfg)
    inc_cfg.set_defaults(func=_cmd_include_cfg)

    inc_ocn = inc_sub.add_parser("ocn")
    inc_ocn.add_argument("left")
    inc_ocn.add_argument("right")
    inc_ocn.add_argument("--state", type=int, default=0)
    inc_ocn.add_argument("--counter", type=int, default=0)
    _common_verdict_flags(inc_ocn)
    inc_ocn.set_defaults(func=_cmd_include_ocn)


def _add_search(sub, name: str) -> None:
    search = sub.add_parser(name, help="count matching lines in an SLP file")
    search.add_argument("-e", "--expression", required=True)
    search.add_argument("file")
    search.add_argument("--report", action="store_true")
    search.add_argument("--stats", action="store_true")
    search.add_argument("--json", action="store_true")
    search.set_defaults(func=_cmd_search)


def _add_compress(sub, name: str) -> None:
    compress = sub.add_parser(name, help="compress a file into an SLP")
    compress.add_argument("file")
    compress.add_argument("-o", "--output")
    compress.add_argument("--text", action="store_true", help="text SLP format")
    compress.set_defaults(func=_cmd_compress)


def _add_decompress(sub, name: str) -> None:
    decompress_p = sub.add_parser(name, help="expand an SLP file")
    decompress_p.add_argument("file")
    decompress_p.add_argument("-o", "--output")
    decompress_p.add_argument("--cap", type=int, default=1 << 26)
    decompress_p.set_defaults(func=_cmd_decompress)


def _add_construction(sub, name: str) -> None:
    c = sub.add_parser(name, help=f"{name} an automaton")
    c.add_argument("file")
    c.add_argument("-o", "--output")
    if name != "double-reversal":
        c.add_argument("--direction", default="right", choices=["right", "left"])
    c.set_defaults(func=_cmd_construction, construction=name)


def _add_check_dr(sub, name: str) -> None:
    check = sub.add_parser(name, help="does residualization give the canonical automaton?")
    check.add_argument("file")
    check.add_argument("--json", action="store_true")
    check.add_argument("--stats", action="store_true")
    check.set_defaults(func=_cmd_check_dr)


def _add_learn(sub, name: str) -> None:
    learn = sub.add_parser(name, help="learn the canonical RFA of a target")
    learn.add_argument("file")
    learn.add_argument("-o", "--output")
    learn.set_defaults(func=_cmd_learn)


# Each subcommand, in the order the help lists them, with the function that
# adds its parser.
SUBCOMMANDS = {
    "include": _add_include,
    "search": _add_search,
    "compress": _add_compress,
    "decompress": _add_decompress,
    "residualize": _add_construction,
    "canonical": _add_construction,
    "double-reversal": _add_construction,
    "check-dr": _add_check_dr,
    "learn": _add_learn,
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The command-line parser. Given one of the ``SUBCOMMANDS``, only that
    subcommand's parser is built; it prints what the full parser prints for
    a command line that starts with that subcommand."""
    parser = argparse.ArgumentParser(
        prog="wqlang",
        description="Language inclusion, compressed search and residual automata.",
    )
    # the usage line lists every subcommand; the full parser lists its own
    # choices, since a metavar would also rename the action in its errors
    metavar = None if command is None else "{" + ",".join(SUBCOMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, add in SUBCOMMANDS.items():
        if command in (None, name):
            add(sub, name)
    return parser


def _common_verdict_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--fail-on-miss", action="store_true")
    p.add_argument("--json", action="store_true")
    p.add_argument("--stats", action="store_true")


def _input_errors() -> tuple[type[Exception], ...]:
    """Malformed input, paths that cannot be opened (``OSError``) and
    computations stopped by their caps. The classes are imported only once
    an exception propagates, so a subcommand that succeeds loads no family
    but its own."""
    from .automata import DeterminizationCap
    from .fixpoint import KleeneDivergence
    from .learn import LearnerDiverged
    from .slpsearch.slp import DecompressionCap

    return (
        FormatError,
        OSError,
        KleeneDivergence,
        LearnerDiverged,
        DeterminizationCap,
        DecompressionCap,
    )


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    command = argv[0] if argv and argv[0] in SUBCOMMANDS else None
    args = build_parser(command).parse_args(argv)
    try:
        return args.func(args)
    except _input_errors() as exc:
        print(f"error: {exc}", file=sys.stderr)
        return INPUT_ERROR
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
