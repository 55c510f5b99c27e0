"""Provenance: recorded derivations of IDB facts.

The paper computes repairs "by building a derivation tree for each
consistency violation and subsequent combination of its leaves into a
repair" (citing Moerkotte & Lockemann, TODS 1991).  To support this, the
evaluation engine records every *derivation* of every derived fact: the
rule used, the substitution, the ground positive body facts (supports) and
the ground negated atoms whose absence the derivation relies on.

:class:`ProvenanceIndex` stores all derivations of the current
materialization and offers the reverse indexes the incremental maintainer
and the repair generator need.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Set, Tuple

from repro.datalog.terms import Atom, Substitution


@dataclass(frozen=True)
class Derivation:
    """One way a derived fact was obtained.

    ``positive_supports`` are the ground facts (base or derived) matched by
    the rule's positive body literals; ``negative_supports`` are the ground
    atoms whose *absence* the rule's negated literals require.
    """

    fact: Atom
    rule_name: str
    positive_supports: Tuple[Atom, ...]
    negative_supports: Tuple[Atom, ...]

    def key(self) -> Tuple:
        return (self.fact, self.rule_name, self.positive_supports,
                self.negative_supports)


@dataclass
class DerivationTree:
    """A derivation tree for display: the paper's step-7 explanations."""

    fact: Atom
    is_edb: bool
    rule_name: str = ""
    children: List["DerivationTree"] = None  # type: ignore[assignment]
    negated_leaves: Tuple[Atom, ...] = ()

    def render(self, indent: int = 0) -> str:
        pad = "  " * indent
        if self.is_edb:
            return f"{pad}{self.fact!r}   [EDB]"
        lines = [f"{pad}{self.fact!r}   [by {self.rule_name}]"]
        for child in self.children or ():
            lines.append(child.render(indent + 1))
        for atom in self.negated_leaves:
            lines.append(f"{'  ' * (indent + 1)}not {atom!r}   [absent]")
        return "\n".join(lines)


class ProvenanceIndex:
    """All derivations of the current materialization, with reverse maps."""

    def __init__(self) -> None:
        self._by_fact: Dict[Atom, List[Derivation]] = {}
        self._keys: Set[Tuple] = set()
        self._by_support: Dict[Atom, Set[Atom]] = {}
        self._by_negative: Dict[Atom, Set[Atom]] = {}
        self._by_pred: Dict[str, Set[Atom]] = {}

    def __len__(self) -> int:
        return len(self._keys)

    def clear(self) -> None:
        self._by_fact.clear()
        self._keys.clear()
        self._by_support.clear()
        self._by_negative.clear()
        self._by_pred.clear()

    def record(self, derivation: Derivation) -> bool:
        """Store a derivation; returns True when it is new."""
        key = derivation.key()
        if key in self._keys:
            return False
        self._keys.add(key)
        self._by_fact.setdefault(derivation.fact, []).append(derivation)
        self._by_pred.setdefault(derivation.fact.pred,
                                 set()).add(derivation.fact)
        for support in derivation.positive_supports:
            self._by_support.setdefault(support, set()).add(derivation.fact)
        for absent in derivation.negative_supports:
            self._by_negative.setdefault(absent, set()).add(derivation.fact)
        return True

    def derivations(self, fact: Atom) -> List[Derivation]:
        return list(self._by_fact.get(fact, ()))

    def facts_supported_by(self, support: Atom) -> Set[Atom]:
        """Derived facts with at least one derivation using *support*."""
        return set(self._by_support.get(support, ()))

    def facts_blocked_by(self, atom: Atom) -> Set[Atom]:
        """Derived facts with a derivation relying on the absence of *atom*."""
        return set(self._by_negative.get(atom, ()))

    def drop_fact(self, fact: Atom) -> None:
        """Forget every derivation of *fact* (used by partial recompute)."""
        derivations = self._by_fact.pop(fact, [])
        if derivations:
            _discard(self._by_pred, fact.pred, fact)
        self._forget(fact, derivations)

    def clear_predicate(self, pred: str) -> int:
        """Forget every derivation of every fact of predicate *pred*.

        Bulk counterpart of :meth:`drop_fact` for clear-and-recompute:
        one pass over the predicate's facts instead of a per-fact call
        from the engine.  Returns the number of facts dropped.
        """
        facts = self._by_pred.pop(pred, None)
        if not facts:
            return 0
        for fact in facts:
            self._forget(fact, self._by_fact.pop(fact, ()))
        return len(facts)

    def _forget(self, fact: Atom, derivations) -> None:
        """Unlink *fact*'s dropped derivations from the reverse maps,
        deleting buckets they leave empty so the maps track the live
        derivations and not every fact ever derived."""
        for derivation in derivations:
            self._keys.discard(derivation.key())
            for support in derivation.positive_supports:
                _discard(self._by_support, support, fact)
            for absent in derivation.negative_supports:
                _discard(self._by_negative, absent, fact)

    def tree(self, fact: Atom, is_derived, max_depth: int = 16) -> DerivationTree:
        """Build a derivation tree for *fact* for explanation purposes.

        ``is_derived`` is a predicate-name test supplied by the engine.
        Only the first derivation of each derived fact is expanded; the
        tree is for human display, the repair generator works on the full
        derivation set directly.
        """
        if not is_derived(fact.pred):
            return DerivationTree(fact=fact, is_edb=True)
        derivations = self._by_fact.get(fact)
        if not derivations or max_depth <= 0:
            return DerivationTree(fact=fact, is_edb=False, rule_name="?",
                                  children=[])
        derivation = derivations[0]
        children = [
            self.tree(support, is_derived, max_depth - 1)
            for support in derivation.positive_supports
        ]
        return DerivationTree(
            fact=fact,
            is_edb=False,
            rule_name=derivation.rule_name,
            children=children,
            negated_leaves=derivation.negative_supports,
        )


def _discard(index: Dict, key, fact: Atom) -> None:
    """Remove *fact* from ``index[key]``, dropping the bucket once empty."""
    bucket = index.get(key)
    if bucket is not None:
        bucket.discard(fact)
        if not bucket:
            del index[key]
