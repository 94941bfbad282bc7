"""Active learning of the canonical residual automaton.

The learner maintains a prefix-closed set P and a suffix-closed set S of
words and approximates the residual-inclusion quasiorder of the target
language by comparing residuals restricted to S. When the approximation is
closed and consistent over P it builds the prime-principal automaton and
asks the equivalence oracle; counterexample suffixes refine S. The
hypothesis is the ``residual.build_H`` core under the restricted order:
``build_H`` picks the primes, the learner supplies only its composite test
(a row that is the join of the rows ``build_H`` passes as below it).
"""

from __future__ import annotations

from functools import reduce
from operator import or_
from typing import Callable, Iterable

from . import residual
from .automata import Nfa

__all__ = ["ObservationState", "nl_learn", "LearnerDiverged"]


class LearnerDiverged(RuntimeError):
    """Equivalence-query cap exceeded; the teacher and oracle disagree or
    the target is not regular."""


class ObservationState:
    """The learner's bookkeeping: P, S, and cached membership answers.

    The row of a word u is an int bitmask whose bit i is the teacher's
    answer for u extended by the i-th suffix in S; row containment
    (``a & b == a``) decides the restricted residual-inclusion quasiorder
    and OR joins rows.

    Rows are cached per word with the number of suffixes they cover. S only
    grows by appending (``add_suffix``), so a cached row stays right on the
    suffixes it covers and ``row`` fills in only the bits of suffixes added
    since; the membership answers asked for, and their order, are those of
    rebuilding the row on every call.
    """

    def __init__(self, teacher: Callable[[bytes], bool], alphabet: Iterable[int]):
        self.teacher = teacher
        self.alphabet = sorted(alphabet)
        self.prefixes: list[bytes] = [b""]
        self.suffixes: list[bytes] = [b""]
        self._member: dict[bytes, bool] = {}
        self._rows: dict[bytes, tuple[int, int]] = {}

    def member(self, word: bytes) -> bool:
        cached = self._member.get(word)
        if cached is None:
            cached = bool(self.teacher(word))
            self._member[word] = cached
        return cached

    def row(self, word: bytes) -> int:
        suffixes = self.suffixes
        row, covered = self._rows.get(word, (0, 0))
        if covered < len(suffixes):
            for i in range(covered, len(suffixes)):
                if self.member(word + suffixes[i]):
                    row |= 1 << i
            self._rows[word] = row, len(suffixes)
        return row

    def row_leq(self, u: bytes, v: bytes) -> bool:
        a = self.row(u)
        return a & self.row(v) == a

    def add_prefix(self, word: bytes) -> None:
        if word not in self.prefixes:
            self.prefixes.append(word)

    def add_suffix(self, word: bytes) -> None:
        if word not in self.suffixes:
            self.suffixes.append(word)

    # -- primality over P --------------------------------------------------

    def join_below(self, word: bytes) -> int:
        """Join of the rows of P-words strictly below the given word."""
        target = self.row(word)
        acc = 0
        for p in self.prefixes:
            r = self.row(p)
            if r != target and r & target == r:
                acc |= r
        return acc

    def is_prime(self, word: bytes) -> bool:
        return self.row(word) != self.join_below(word)

    # -- closedness and consistency ----------------------------------------

    def closedness_defect(self) -> bytes | None:
        """A one-letter extension of P whose principal is prime but matches
        no P-row, scanned in insertion/byte order."""
        p_rows = {self.row(p) for p in self.prefixes}
        for u in self.prefixes:
            for a in self.alphabet:
                ua = u + bytes([a])
                if self.row(ua) not in p_rows and self.is_prime(ua):
                    return ua
        return None

    def consistency_defect(self) -> bytes | None:
        """A suffix a·x witnessing that row containment of two P-words is
        not preserved by extension with the letter a; x is the first suffix
        in S on which u·a accepts and v·a rejects."""
        for u in self.prefixes:
            for v in self.prefixes:
                if u == v or not self.row_leq(u, v):
                    continue
                for a in self.alphabet:
                    row_ua = self.row(u + bytes([a]))
                    if not row_ua:
                        continue
                    diff = row_ua & ~self.row(v + bytes([a]))
                    if diff:
                        return bytes([a]) + self.suffixes[(diff & -diff).bit_length() - 1]
        return None

    # -- hypothesis ----------------------------------------------------------

    def build_automaton(self) -> Nfa:
        """Prime-principal automaton over the current P and S: ``build_H``
        over the first P-word of each distinct row, with row containment as
        the order and appending a letter as the extension. A row is
        composite when it is the OR of the rows ``build_H`` lists below it;
        every P-row has a representative, so this is ``not is_prime``."""
        firsts: dict[int, bytes] = {}
        for p in self.prefixes:
            firsts.setdefault(self.row(p), p)
        return residual.build_H(
            list(firsts.values()),
            self.row_leq,
            lambda u, below: self.row(u) == reduce(or_, map(self.row, below), 0),
            lambda u, a: u + bytes([a]),
            b"",
            self.member,
            self.alphabet,
        )


def nl_learn(
    teacher: Callable[[bytes], bool],
    oracle: Callable[[Nfa], bytes | None],
    alphabet: Iterable[int],
    max_queries: int = 10_000,
    on_hypothesis: Callable[[ObservationState, Nfa], None] | None = None,
) -> Nfa:
    """Learn the canonical residual automaton of a regular target language.

    ``teacher`` answers membership; ``oracle`` answers equivalence with a
    counterexample word or None. Defects are repaired deterministically and
    every suffix of a counterexample enters S, shortest first.
    ``on_hypothesis`` observes each intermediate table and hypothesis.
    """
    obs = ObservationState(teacher, alphabet)
    for _ in range(max_queries):
        while True:
            ua = obs.closedness_defect()
            if ua is not None:
                obs.add_prefix(ua)
                continue
            ax = obs.consistency_defect()
            if ax is not None:
                obs.add_suffix(ax)
                continue
            break
        hypothesis = obs.build_automaton()
        if on_hypothesis is not None:
            on_hypothesis(obs, hypothesis)
        counterexample = oracle(hypothesis)
        if counterexample is None:
            return hypothesis
        for cut in range(len(counterexample), -1, -1):
            obs.add_suffix(counterexample[cut:])
    raise LearnerDiverged(f"no stable hypothesis after {max_queries} queries")
