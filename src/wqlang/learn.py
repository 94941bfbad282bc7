"""Active learning of the canonical residual automaton.

The learner maintains a prefix-closed set P and a suffix-closed set S of
words and approximates the residual-inclusion quasiorder of the target
language by comparing residuals restricted to S. When the approximation is
closed and consistent over P it builds the prime-principal automaton (the
``residual.build_H`` core, under the restricted order) and asks the
equivalence oracle; counterexample suffixes refine S.
"""

from __future__ import annotations

from typing import Callable, Iterable

from . import residual
from .automata import Nfa

__all__ = ["ObservationState", "nl_learn", "LearnerDiverged"]


class LearnerDiverged(RuntimeError):
    """Equivalence-query cap exceeded; the teacher and oracle disagree or
    the target is not regular."""


class ObservationState:
    """The learner's bookkeeping: P, S, and cached membership rows.

    The row of a word u is the bit vector of teacher answers for u
    extended by each suffix in S; row containment decides the restricted
    residual-inclusion quasiorder.
    """

    def __init__(self, teacher: Callable[[bytes], bool], alphabet: Iterable[int]):
        self.teacher = teacher
        self.alphabet = sorted(alphabet)
        self.prefixes: list[bytes] = [b""]
        self.suffixes: list[bytes] = [b""]
        self._member: dict[bytes, bool] = {}

    def member(self, word: bytes) -> bool:
        cached = self._member.get(word)
        if cached is None:
            cached = bool(self.teacher(word))
            self._member[word] = cached
        return cached

    def row(self, word: bytes) -> tuple[bool, ...]:
        return tuple(self.member(word + s) for s in self.suffixes)

    def row_leq(self, u: bytes, v: bytes) -> bool:
        return all(b or not a for a, b in zip(self.row(u), self.row(v)))

    def add_prefix(self, word: bytes) -> None:
        if word not in self.prefixes:
            self.prefixes.append(word)

    def add_suffix(self, word: bytes) -> None:
        if word not in self.suffixes:
            self.suffixes.append(word)

    # -- primality over P --------------------------------------------------

    def join_below(self, word: bytes) -> tuple[bool, ...]:
        """Join of the rows of P-words strictly below the given word."""
        target = self.row(word)
        acc = [False] * len(self.suffixes)
        for p in self.prefixes:
            r = self.row(p)
            if r != target and all(b or not a for a, b in zip(r, target)):
                acc = [x or y for x, y in zip(acc, r)]
        return tuple(acc)

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
        not preserved by extension with the letter a."""
        for u in self.prefixes:
            for v in self.prefixes:
                if u == v or not self.row_leq(u, v):
                    continue
                for a in self.alphabet:
                    ua, va = u + bytes([a]), v + bytes([a])
                    for i, x in enumerate(self.suffixes):
                        if self.row(ua)[i] and not self.row(va)[i]:
                            return bytes([a]) + x
        return None

    # -- hypothesis ----------------------------------------------------------

    def build_automaton(self) -> Nfa:
        """Prime-principal automaton over the current P and S: ``build_H``
        with one representative word per distinct prime row as keys, row
        containment as the order and appending a letter as the extension."""
        reps: list[bytes] = []
        seen_rows = set()
        for p in self.prefixes:
            r = self.row(p)
            if r not in seen_rows and self.is_prime(p):
                seen_rows.add(r)
                reps.append(p)
        return residual.build_H(
            reps,
            self.row_leq,
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
