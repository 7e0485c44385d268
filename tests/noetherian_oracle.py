"""Brute-force oracles for well-partial-order combinatorics.

Desk-scale falsifiers, not proofs: bad-sequence search is bounded by an
explicit length, star closure by an explicit depth.  The series engine's
tests use these as independent cross-checks (product fibers against Cauchy
convolution, closure enumeration against geometric certificates).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Sequence

from transseries.errors import PreconditionError

DEFAULT_MAX_LEN = 6
DEFAULT_DEPTH = 5


class InvalidInputError(ValueError):
    """Malformed input to an oracle."""


@dataclass(frozen=True)
class FinitePoset:
    """A finite strict partial order given by its relation pairs."""

    elements: tuple
    relation: frozenset  # ordered pairs (a, b) meaning a < b

    @staticmethod
    def of(elements: Sequence, relation) -> "FinitePoset":
        p = FinitePoset(tuple(elements), frozenset(relation))
        p.validate()
        return p

    @staticmethod
    def chain(elements: Sequence) -> "FinitePoset":
        rel = {(a, b) for i, a in enumerate(elements)
               for b in elements[i + 1:]}
        return FinitePoset.of(elements, rel)

    @staticmethod
    def antichain(elements: Sequence) -> "FinitePoset":
        return FinitePoset.of(elements, set())

    def validate(self):
        if len(set(self.elements)) != len(self.elements):
            raise InvalidInputError("poset labels must be unique")
        elems = set(self.elements)
        for a, b in self.relation:
            if a not in elems or b not in elems:
                raise InvalidInputError(f"relation pair ({a}, {b}) uses unknown labels")
            if a == b:
                raise InvalidInputError(f"relation is not irreflexive at {a}")
        for a, b in self.relation:
            for c, d in self.relation:
                if b == c and (a, d) not in self.relation:
                    raise InvalidInputError(
                        f"relation is not transitive: {a}<{b}<{d} but not {a}<{d}")

    def leq(self, a, b) -> bool:
        return a == b or (a, b) in self.relation


@dataclass(frozen=True)
class SequenceWitness:
    verdict: str                # 'bad_sequence_found' | 'none_up_to_bound'
    indices: tuple = field(default_factory=tuple)

    @property
    def found(self) -> bool:
        return self.verdict == "bad_sequence_found"


def find_bad_sequence(p: FinitePoset, multiset: Sequence,
                      max_len: int = DEFAULT_MAX_LEN) -> SequenceWitness:
    """Exhaustively search index sequences over the multiset for a bad one.

    A bad sequence has u_i <= u_j for no i < j; the trivial length-1 case
    is excluded.  Returns the first hit in (length, lexicographic) order.
    """
    if max_len < 1:
        raise InvalidInputError("max_len must be >= 1")
    elems = set(p.elements)
    for v in multiset:
        if v not in elems:
            raise InvalidInputError(f"multiset element {v!r} is not in the poset")
    n = len(multiset)
    for length in range(2, max_len + 1):
        for idx in itertools.product(range(n), repeat=length):
            vals = [multiset[i] for i in idx]
            if all(not p.leq(vals[i], vals[j])
                   for i in range(length) for j in range(i + 1, length)):
                return SequenceWitness("bad_sequence_found", idx)
    return SequenceWitness("none_up_to_bound")


def _leq_from_cmp(comparator: Callable) -> Callable:
    def leq(a, b):
        return a == b or comparator(a, b) < 0
    return leq


@dataclass(frozen=True)
class ProductReport:
    verdict: str                       # 'ok' | 'bad_sequence_found'
    fibers: dict                       # product -> tuple of (u, v) factor pairs
    witness: SequenceWitness | None = None

    def fiber_size(self, m) -> int:
        return len(self.fibers.get(m, ()))


def check_product_noetherian(s, t, comparator: Callable,
                             product=None,
                             max_len: int = DEFAULT_MAX_LEN) -> ProductReport:
    """Pairwise products of two finite monomial sets: bad-sequence scan plus
    the full factorization fiber of every product."""
    from transseries.monomial import mono_mul
    prod = product or mono_mul
    s, t = list(s), list(t)
    fibers: dict = {}
    for u in s:
        for v in t:
            fibers.setdefault(prod(u, v), []).append((u, v))
    fibers = {m: tuple(pairs) for m, pairs in fibers.items()}
    products = list(fibers)
    witness = _scan_antichain(comparator, products, max_len)
    verdict = "bad_sequence_found" if witness.found else "ok"
    return ProductReport(verdict, fibers, witness if witness.found else None)


def _scan_antichain(comparator, values, max_len) -> SequenceWitness:
    # enumeration order of a *set* is ours to choose, so position-ordered
    # descents are vacuous; the Noetherian failure mode visible at desk
    # scale is a pairwise-incomparable pattern
    leq = _leq_from_cmp(comparator)

    def incomparable(a, b):
        return not leq(a, b) and not leq(b, a)

    n = len(values)
    for length in range(2, max_len + 1):
        for idx in itertools.combinations(range(n), length):
            if all(incomparable(values[i], values[j])
                   for i in idx for j in idx if i < j):
                return SequenceWitness("bad_sequence_found", idx)
    return SequenceWitness("none_up_to_bound")


@dataclass(frozen=True)
class StarReport:
    verdict: str
    enumerated: tuple                  # all products up to the depth
    level_counts: dict                 # monomial -> tuple of depths realizing it
    witness: SequenceWitness | None = None


def check_star_closure(s, comparator: Callable, depth: int = DEFAULT_DEPTH,
                       product=None, identity=None,
                       max_len: int = DEFAULT_MAX_LEN) -> StarReport:
    """Enumerate S^0 u ... u S^depth for infinitesimal S and scan for bad
    sequences; reports which depths realize each enumerated product."""
    from transseries.monomial import ONE, mono_mul
    prod = product or mono_mul
    one = identity if identity is not None else ONE
    s = list(s)
    for z in s:
        if not comparator(z, one) < 0:
            raise PreconditionError(
                f"star closure requires infinitesimal generators; got {z}")
    levels: dict = {one: {0}}
    frontier = {one}
    for n in range(1, depth + 1):
        nxt = set()
        for m in frontier:
            for z in s:
                w = prod(m, z)
                levels.setdefault(w, set()).add(n)
                nxt.add(w)
        frontier = nxt
    enumerated = list(levels)
    witness = _scan_antichain(comparator, enumerated, max_len)
    verdict = "bad_sequence_found" if witness.found else "ok"
    return StarReport(verdict, tuple(enumerated),
                      {m: tuple(sorted(d)) for m, d in levels.items()},
                      witness if witness.found else None)
