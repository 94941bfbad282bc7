"""The antichain shared by the inclusion fixpoints: ``Antichain`` keeps a
minor of key sets under a decidable quasiorder, and ``subset``, the order
of int masks by inclusion, is the order it runs inline.

``kleene`` (with its ``KleeneResult``) and ``ac_below`` drive no fixpoint
of the package, only the from-scratch test oracles ``word_fixpoint_oracle``
and ``cfg_word_fixpoint_oracle`` (``tests/conftest.py``). They stay because
the benchmark tracer patches them by name, until ROADMAP item 2 moves its
patch sites, deletes them and moves their loop into the tests.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, NamedTuple

__all__ = [
    "Antichain",
    "subset",
    "ac_below",
    "kleene",
    "KleeneResult",
    "KleeneDivergence",
]

Leq = Callable[[Any, Any], bool]


def subset(a: int, b: int) -> bool:
    """Inclusion of int masks: every bit set in ``a`` is set in ``b``."""
    return a & b == a


class Antichain:
    """A minor of everything ever inserted, under the quasiorder ``leq``.

    Inserting a key dominated by a present one is a no-op; inserting a key
    that dominates present ones evicts them. Ties between equivalent keys
    keep the first inserted, which makes fixpoints deterministic. Each key
    may carry a representative word; comparisons ignore it. Under the order
    ``subset`` the comparisons run inline, one ``&`` per entry.
    """

    __slots__ = ("leq", "_entries")

    def __init__(self, leq: Leq, items: Iterable[tuple[Any, bytes | None]] = ()):
        self.leq = leq
        self._entries: list[tuple[Any, bytes | None]] = []
        for key, word in items:
            self.insert(key, word)

    def insert(self, key: Any, word: bytes | None = None) -> bool:
        entries = self._entries
        if self.leq is subset:
            # one scan: the entries are pairwise incomparable, so none after
            # the first one above the key lies below it, and none before it
            # is above the key
            for k, _ in entries:
                common = k & key
                if common == k:
                    return False
                if common == key:
                    entries[:] = [e for e in entries if e[0] & key != key]
                    break
            entries.append((key, word))
            return True
        leq = self.leq
        for k, _ in entries:
            if leq(k, key):
                return False
        for i, (k, _) in enumerate(entries):
            if leq(key, k):
                entries[i:] = [e for e in entries[i + 1 :] if not leq(key, e[0])]
                break
        entries.append((key, word))
        return True

    def keys(self) -> list[Any]:
        return [k for k, _ in self._entries]

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self):
        return iter(self._entries)

    def __repr__(self) -> str:
        return f"Antichain({self.keys()!r})"


def ac_below(x, y, leq: Leq | None = None) -> bool:
    """The antichain order: every element of ``x`` is dominated by some
    element of ``y``."""
    if leq is None:
        leq = x.leq if isinstance(x, Antichain) else y.leq
    xs = x.keys() if isinstance(x, Antichain) else list(x)
    ys = y.keys() if isinstance(y, Antichain) else list(y)
    return all(any(leq(b, a) for b in ys) for a in xs)


class KleeneResult(NamedTuple):
    value: Any
    iterations: int  # number of step-function evaluations performed


class KleeneDivergence(RuntimeError):
    """Iteration cap exceeded; the supplied abstraction is not ACC (or the
    cap was set too low for the instance)."""


def kleene(
    step_fn: Callable[[Any], Any],
    bottom: Any,
    abs_eq: Callable[[Any, Any], bool],
    max_iter: int = 1 << 20,
) -> KleeneResult:
    """Iterate ``step_fn`` from ``bottom`` until the abstraction of two
    consecutive iterates coincides; returns the first stable iterate.

    ``step_fn`` must be monotone for the quasiorder underlying ``abs_eq``
    and the abstract domain must have no infinite ascending chains; the cap
    exists only to turn violations of that contract into a clean failure.
    """
    x = bottom
    calls = 0
    while True:
        fx = step_fn(x)
        calls += 1
        if abs_eq(fx, x):
            return KleeneResult(x, calls)
        x = fx
        if calls > max_iter:
            raise KleeneDivergence(f"no fixpoint after {calls} iterations")
