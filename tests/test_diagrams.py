"""Diagram predicates, enumeration, and serialization."""

import itertools
from math import comb
from typing import Iterator

import pytest

from mbgram.diagrams import (ENUMERATION_BOUND, Arc, Diagram, Stratum, arcs_cross,
                             enumerate_stratum, fixed_point_blocked, parse_diagram, rotate,
                             validate_diagram)
from mbgram.errors import BoundExceededError, ParseError, SharedEndpointError
from mbgram.gram import GramVariant, gram_basis


def gap_set(arc, n2):
    """Boundary gaps swept by the arc: gap g sits between vertices g and g+1."""
    out = set()
    g = arc.tail
    while g != arc.head:
        out.add(g)
        g = g % n2 + 1
    return out


def crossing_oracle(a, b, n2):
    """Independent predicate: two near-boundary sweeps can be drawn at
    different depths iff their gap sets are nested or disjoint."""
    ga, gb = gap_set(a, n2), gap_set(b, n2)
    return not (ga <= gb or gb <= ga or not (ga & gb))


def _arc_systems(free: tuple, fixed: tuple, placed: list, n2: int) -> Iterator[tuple]:
    """Yield all non-crossing oriented arc systems covering `free`.

    Backtracking on the smallest uncovered vertex; every tentative arc is
    filtered against the placed arcs and the fixed points immediately, so
    the search only ever walks valid prefixes.
    """
    if not free:
        yield tuple(placed)
        return
    v = free[0]
    rest = free[1:]
    for i, u in enumerate(rest):
        remaining = rest[:i] + rest[i + 1:]
        for arc in (Arc(v, u), Arc(u, v)):
            if any(fixed_point_blocked(arc, f, n2) for f in fixed):
                continue
            if any(arcs_cross(arc, other, n2) for other in placed):
                continue
            placed.append(arc)
            yield from _arc_systems(remaining, fixed, placed, n2)
            placed.pop()


def searched_diagrams(n, fixed_counts):
    """Every valid diagram on 2n points with one of the given numbers of
    fixed points, found by the predicate-driven search, in no set order."""
    n2 = 2 * n
    return [Diagram.build(n, arcs, fixed)
            for k in fixed_counts if k <= n2
            for fixed in itertools.combinations(range(1, n2 + 1), k)
            for arcs in _arc_systems(
                tuple(v for v in range(1, n2 + 1) if v not in fixed), fixed, [], n2)]


def interior_oracle(arc, n2):
    """Vertices strictly inside the swept interval, by explicit walking."""
    out = []
    v = arc.tail % n2 + 1
    while v != arc.head:
        out.append(v)
        v = v % n2 + 1
    return out


class TestArcsCross:
    def test_interleaved_endpoints_cross(self):
        assert arcs_cross(Arc(1, 3), Arc(2, 4), 4) is True

    def test_nested_intervals_disjoint(self):
        assert arcs_cross(Arc(2, 1), Arc(3, 4), 4) is False

    def test_opposite_winding_crosses(self):
        # underlying chords {1,2} and {3,4} do not interleave, but the two
        # arcs wind around the crosscap in opposite directions
        assert arcs_cross(Arc(2, 1), Arc(4, 3), 4) is True

    def test_symmetry(self):
        for n2 in (4, 6, 8):
            vs = range(1, n2 + 1)
            for quad in itertools.permutations(vs, 4):
                a, b = Arc(*quad[:2]), Arc(*quad[2:])
                assert arcs_cross(a, b, n2) == arcs_cross(b, a, n2)

    def test_matches_gap_set_oracle_exhaustively(self):
        for n2 in (4, 6, 8, 10, 12):
            vs = range(1, n2 + 1)
            for quad in itertools.permutations(vs, 4):
                a, b = Arc(*quad[:2]), Arc(*quad[2:])
                assert arcs_cross(a, b, n2) == crossing_oracle(a, b, n2), (a, b, n2)

    def test_shared_endpoint_rejected(self):
        with pytest.raises(SharedEndpointError):
            arcs_cross(Arc(1, 2), Arc(2, 3), 6)


class TestFixedPointBlocked:
    def test_inside_interval(self):
        assert fixed_point_blocked(Arc(1, 4), 2, 4) is True

    def test_empty_interval_wrap(self):
        assert fixed_point_blocked(Arc(4, 1), 2, 4) is False

    def test_adjacent_interval_empty(self):
        assert fixed_point_blocked(Arc(3, 4), 1, 4) is False

    def test_matches_walking_oracle(self):
        for n2 in (4, 6, 8, 10):
            for t, h in itertools.permutations(range(1, n2 + 1), 2):
                arc = Arc(t, h)
                inside = set(interior_oracle(arc, n2))
                for f in range(1, n2 + 1):
                    if f in (t, h):
                        continue
                    assert fixed_point_blocked(arc, f, n2) == (f in inside)

    def test_endpoint_rejected(self):
        with pytest.raises(SharedEndpointError):
            fixed_point_blocked(Arc(1, 4), 4, 8)


class TestValidate:
    def test_six_point_fixture_is_valid(self):
        m = Diagram.build(3, [(2, 5), (3, 4)], [1, 6])
        assert validate_diagram(m) == []

    def test_blocked_fixed_points(self):
        m = Diagram.build(2, [(1, 4)], [2, 3])
        violations = validate_diagram(m)
        assert len(violations) == 2
        assert all("blocks fixed point" in v for v in violations)

    def test_reused_vertex(self):
        m = Diagram.build(2, [(1, 2), (1, 3)], [4])
        assert any("used 2 times" in v for v in validate_diagram(m))

    def test_stratum_membership(self):
        m = Diagram.build(2, [(3, 4)], [1, 2])
        assert validate_diagram(m, Stratum.ONE_CROSSCAP) == []
        assert validate_diagram(m, Stratum.ZERO_CROSSCAP) != []

    def test_four_fixed_points_valid_but_not_in_strata(self):
        m = parse_diagram("(6 1)(2)(3)(4)(5)")
        assert validate_diagram(m) == []
        assert validate_diagram(m, Stratum.ONE_CROSSCAP) != []


class TestEnumerate:
    def test_n1_zero_crosscap_exact(self):
        diagrams = enumerate_stratum(1, Stratum.ZERO_CROSSCAP)
        assert [m.serialize() for m in diagrams] == ["(1 2)", "(2 1)"]

    def test_n2_one_crosscap_exact_set(self):
        diagrams = enumerate_stratum(2, Stratum.ONE_CROSSCAP)
        expected = {
            ((Arc(3, 4),), (1, 2)),
            ((Arc(1, 2),), (3, 4)),
            ((Arc(4, 1),), (2, 3)),
            ((Arc(2, 3),), (1, 4)),
        }
        assert {(m.chords, m.fixed) for m in diagrams} == expected
        assert len(diagrams) == comb(4, 1)

    @pytest.mark.parametrize("n", range(1, ENUMERATION_BOUND + 1))
    def test_counts_match_binomials(self, n):
        assert len(enumerate_stratum(n, Stratum.ZERO_CROSSCAP)) == comb(2 * n, n)
        assert len(enumerate_stratum(n, Stratum.ONE_CROSSCAP)) == comb(2 * n, n - 1)

    @pytest.mark.parametrize("n", range(1, ENUMERATION_BOUND + 1))
    def test_tail_sets_equal_the_search(self, n):
        # the tail-set construction against the search it replaced, order included
        for stratum in Stratum:
            searched = sorted(searched_diagrams(n, (stratum.fixed_count(),)),
                              key=lambda m: m.serialize())
            assert enumerate_stratum(n, stratum) == searched, (n, stratum)

    def test_every_enumerated_diagram_validates(self):
        for n in range(1, ENUMERATION_BOUND + 1):
            for stratum in Stratum:
                for m in enumerate_stratum(n, stratum):
                    assert validate_diagram(m, stratum) == []

    def test_one_crosscap_shape(self):
        for m in enumerate_stratum(3, Stratum.ONE_CROSSCAP):
            assert len(m.fixed) == 2
            assert len(m.chords) == 2

    def test_canonical_order_sorted(self):
        for stratum in Stratum:
            texts = [m.serialize() for m in enumerate_stratum(3, stratum)]
            assert texts == sorted(texts)

    def test_joint_basis_order(self):
        basis = gram_basis(2, GramVariant.MB1_FULL)
        assert [len(m.fixed) for m in basis] == [0] * 6 + [2] * 4

    def test_bound_enforced(self):
        with pytest.raises(BoundExceededError):
            enumerate_stratum(7, Stratum.ZERO_CROSSCAP)


class TestRotate:
    def test_one_step(self):
        assert rotate(parse_diagram("(2 5)(3 4)(1)(6)")) == parse_diagram("(3 6)(4 5)(1)(2)")

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_permutes_each_stratum(self, n):
        for stratum in Stratum:
            basis = enumerate_stratum(n, stratum)
            assert sorted(map(str, map(rotate, basis))) == list(map(str, basis))


class TestSerialization:
    def test_fixture_text(self):
        m = Diagram.build(3, [(2, 5), (3, 4)], [1, 6])
        assert m.serialize() == "(2 5)(3 4)(1)(6)"

    def test_parse_tail_not_smaller(self):
        m = parse_diagram("(6 1)(2)(3)(4)(5)")
        assert m.chords == (Arc(6, 1),)
        assert m.fixed == (2, 3, 4, 5)

    def test_roundtrip(self):
        for n in range(1, 4):
            for stratum in Stratum:
                for m in enumerate_stratum(n, stratum):
                    assert parse_diagram(m.serialize()) == m

    def test_json_roundtrip(self):
        m = Diagram.build(3, [(2, 5), (3, 4)], [1, 6])
        assert Diagram.from_json_obj(m.to_json_obj()) == m
        assert m.to_json_obj() == {"n": 3, "chords": [[2, 5], [3, 4]], "fixed": [1, 6]}

    def test_parse_errors(self):
        with pytest.raises(ParseError):
            parse_diagram("(1 1)")
        with pytest.raises(ParseError):
            parse_diagram("(1 2)(2)(3)")   # label 2 reused
        with pytest.raises(ParseError):
            parse_diagram("(1 2)(4)")      # label 3 missing
        with pytest.raises(ParseError):
            parse_diagram("(1 2)(3)")      # odd label count
        with pytest.raises(ParseError):
            parse_diagram("(1 2]")
        with pytest.raises(ParseError):
            parse_diagram("")

    def test_parse_error_position(self):
        try:
            parse_diagram("(1 2)x(3 4)")
        except ParseError as err:
            assert err.position == 5
        else:
            pytest.fail("expected ParseError")

    def test_unclosed_group_reports_missing_parenthesis_at_end(self):
        with pytest.raises(ParseError, match=r"missing '\)' at the end") as err:
            parse_diagram("(1 2")
        assert err.value.position == 4
        with pytest.raises(ParseError, match=r"missing '\)' at the end") as err:
            parse_diagram("(1 2)(3 4")
        assert err.value.position == 9
