"""Unit tests for builtin comparisons and the provenance index."""

import pytest

from repro.datalog.builtins import Comparison
from repro.datalog.provenance import Derivation, ProvenanceIndex
from repro.datalog.terms import Atom, Variable

X, Y = Variable("X"), Variable("Y")


class TestComparison:
    def test_unknown_operator_rejected(self):
        with pytest.raises(ValueError):
            Comparison("~", 1, 2)

    @pytest.mark.parametrize("op,left,right,expected", [
        ("=", 1, 1, True), ("=", 1, 2, False),
        ("!=", 1, 2, True), ("!=", 1, 1, False),
        ("<", 1, 2, True), ("<=", 2, 2, True),
        (">", 3, 2, True), (">=", 1, 2, False),
    ])
    def test_holds(self, op, left, right, expected):
        assert Comparison(op, left, right).holds() is expected

    def test_holds_with_substitution(self):
        assert Comparison("<", X, 5).holds({X: 3})
        assert not Comparison("<", X, 5).holds({X: 7})

    def test_unbound_side_raises(self):
        with pytest.raises(ValueError):
            Comparison("=", X, 1).holds()

    def test_incomparable_kinds(self):
        from repro.gom.ids import Id
        tid = Id("tid", number=1)
        assert not Comparison("=", tid, 3).holds()
        assert Comparison("!=", tid, 3).holds()
        with pytest.raises(TypeError):
            Comparison("<", tid, 3).holds()

    def test_negate_complements(self):
        pairs = [("=", "!="), ("<", ">="), ("<=", ">")]
        for op, complement in pairs:
            comparison = Comparison(op, 1, 2)
            assert comparison.negate().op == complement
            assert comparison.negate().negate().op == op

    def test_substitute(self):
        bound = Comparison("<", X, Y).substitute({X: 1, Y: 2})
        assert bound.is_ground() and bound.holds()

    def test_variables(self):
        assert set(Comparison("<", X, Y).variables()) == {X, Y}
        assert list(Comparison("<", 1, 2).variables()) == []


def derivation(fact, rule="r", pos=(), neg=()):
    return Derivation(fact=fact, rule_name=rule,
                      positive_supports=tuple(pos),
                      negative_supports=tuple(neg))


class TestProvenanceIndex:
    def test_record_and_dedupe(self):
        index = ProvenanceIndex()
        entry = derivation(Atom("p", (1,)), pos=[Atom("q", (1,))])
        assert index.record(entry)
        assert not index.record(entry)
        assert len(index) == 1

    def test_reverse_support_index(self):
        index = ProvenanceIndex()
        support = Atom("q", (1,))
        index.record(derivation(Atom("p", (1,)), pos=[support]))
        index.record(derivation(Atom("r", (1,)), pos=[support]))
        assert index.facts_supported_by(support) == {Atom("p", (1,)),
                                                     Atom("r", (1,))}

    def test_negative_support_index(self):
        index = ProvenanceIndex()
        absent = Atom("blocked", (1,))
        index.record(derivation(Atom("p", (1,)), neg=[absent]))
        assert index.facts_blocked_by(absent) == {Atom("p", (1,))}
        assert index.facts_blocked_by(Atom("blocked", (2,))) == set()

    def test_drop_fact_cleans_reverse_indexes(self):
        index = ProvenanceIndex()
        support = Atom("q", (1,))
        fact = Atom("p", (1,))
        index.record(derivation(fact, pos=[support]))
        index.drop_fact(fact)
        assert index.derivations(fact) == []
        assert index.facts_supported_by(support) == set()
        assert len(index) == 0

    def test_dropped_facts_leave_no_empty_buckets(self):
        """Dropping every derivation empties the reverse maps, so they
        do not grow with the number of facts ever derived."""
        index = ProvenanceIndex()
        for number in range(50):
            fact = Atom("p", (number,))
            index.record(derivation(fact, pos=[Atom("q", (number,))],
                                    neg=[Atom("r", (number,))]))
        for number in range(25):
            index.drop_fact(Atom("p", (number,)))
        assert index.clear_predicate("p") == 25
        assert index._by_support == {}
        assert index._by_negative == {}
        assert index._by_pred == {}

    def test_multiple_derivations_listed(self):
        index = ProvenanceIndex()
        fact = Atom("p", (1,))
        index.record(derivation(fact, rule="r1", pos=[Atom("a", (1,))]))
        index.record(derivation(fact, rule="r2", pos=[Atom("b", (1,))]))
        assert len(index.derivations(fact)) == 2

    def test_clear(self):
        index = ProvenanceIndex()
        index.record(derivation(Atom("p", (1,)), pos=[Atom("q", (1,))]))
        index.clear()
        assert len(index) == 0


class TestDerivationTree:
    def test_tree_marks_edb_and_rules(self):
        from repro.datalog.engine import DeductiveDatabase
        from repro.datalog.facts import PredicateDecl
        from repro.datalog.parser import parse_rules
        db = DeductiveDatabase([PredicateDecl("e", ("s", "d")),
                                PredicateDecl("mark", ("n",))])
        db.add_rules(parse_rules("""
        p(X, Y) :- e(X, Y), not mark(X).
        q(X, Y) :- p(X, Y).
        """))
        db.add_fact(Atom("e", (1, 2)))
        tree = db.derivation_tree(Atom("q", (1, 2)))
        rendered = tree.render()
        assert "[by q]" in rendered
        assert "[by p]" in rendered
        assert "[EDB]" in rendered
        assert "not mark(1)" in rendered and "[absent]" in rendered

    def test_tree_for_edb_leaf(self):
        from repro.datalog.provenance import ProvenanceIndex
        index = ProvenanceIndex()
        tree = index.tree(Atom("e", (1,)), is_derived=lambda pred: False)
        assert tree.is_edb
        assert "[EDB]" in tree.render()
