"""Pairing graph construction, component classification, and the form values."""

import os
import pickle
from collections import Counter
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mbgram import diagrams, gram, pairing
from mbgram.diagrams import Diagram, enumerate_stratum, parse_diagram, Stratum
from mbgram.errors import (MalformedComponentError, SizeMismatchError,
                           UnclassifiableComponentError)
from mbgram.pairing import (antipodal_pairs, bilinear_form, build_pairing_graph,
                            component_walk, components, curve_class,
                            curve_profile, pair_exponents, pair_trace)
from mbgram.gram import GramVariant, assemble_gram, gram_basis
from mbgram.polynomial import VARIABLES, Polynomial
from test_diagrams import searched_diagrams

D = Polynomial.variable("d")
W = Polynomial.variable("w")
X = Polynomial.variable("x")
Y = Polynomial.variable("y")
Z = Polynomial.variable("z")

FIG_M1 = parse_diagram("(2 5)(3 4)(1)(6)")
FIG_M2 = parse_diagram("(6 1)(2)(3)(4)(5)")


class TestGraph:
    def test_six_point_fixture_edge_sets(self):
        trace = pair_trace(FIG_M1, FIG_M2)
        t = {(min(u, v), max(u, v), s) for u, v, s in trace["t_edges"]}
        assert t == {(2, 5, "m1"), (3, 4, "m1"), (1, 6, "m2")}
        assert {frozenset(p) for p in trace["ef1"]} == {frozenset({1, 6})}
        assert {frozenset(p) for p in trace["ef2"]} == {frozenset({2, 4}), frozenset({3, 5})}
        g = build_pairing_graph(FIG_M1, FIG_M2)
        assert g.partner1[1:] == (6, 5, 4, 3, 2, 1)
        assert g.partner2[1:] == (6, 4, 5, 2, 3, 1)
        assert g.sweep1[1:] == (None, 3, 1, -1, -3, None)
        assert g.sweep2[1:] == (-1, None, None, None, None, 1)
        # tuples compare unequal to lists: the cached tables are tuples
        assert FIG_M1.tables == (g.partner1, g.sweep1)

    def test_doubled_chord(self):
        m = Diagram.build(1, [(1, 2)], [])
        trace = pair_trace(m, m)
        assert sorted(s for _, _, s in trace["t_edges"]) == ["m1", "m2"]
        assert trace["ef1"] == [] and trace["ef2"] == []
        g = build_pairing_graph(m, m)
        assert g.partner1 == g.partner2 and g.sweep1 == g.sweep2

    def test_two_fixed_pairs(self):
        m1 = Diagram.build(2, [(3, 4)], [1, 2])
        m2 = Diagram.build(2, [(1, 2)], [3, 4])
        trace = pair_trace(m1, m2)
        assert trace["ef1"] == [[1, 2]]
        assert trace["ef2"] == [[3, 4]]

    def test_antipodal_indexing(self):
        assert antipodal_pairs((2, 3, 4, 5)) == [(2, 4), (3, 5)]
        assert antipodal_pairs((1, 6)) == [(1, 6)]
        with pytest.raises(ValueError):
            antipodal_pairs((1, 2, 3))

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatchError):
            build_pairing_graph(Diagram.build(1, [(1, 2)], []),
                                Diagram.build(2, [(1, 2), (3, 4)], []))

    def test_reused_label_is_malformed(self):
        reused = Diagram.build(2, [(1, 2), (2, 3)], [4, 1])
        full = Diagram.build(2, [(1, 2), (3, 4)], [])
        # the same object twice: a failed table build caches nothing
        for m1, m2 in ((reused, full), (full, reused)):
            with pytest.raises(MalformedComponentError):
                bilinear_form(m1, m2)

    def test_missing_label_is_malformed(self):
        missing = Diagram.build(2, [(1, 2)], [])
        full = Diagram.build(2, [(1, 2), (3, 4)], [])
        for m1, m2 in ((missing, full), (full, missing)):
            with pytest.raises(MalformedComponentError):
                bilinear_form(m1, m2)

    def test_label_above_boundary_is_malformed(self):
        high = Diagram.build(1, [(1, 3)], [])
        chord = Diagram.build(1, [(1, 2)], [])
        for m1, m2 in ((high, high), (high, chord), (chord, high)):
            with pytest.raises(MalformedComponentError):
                bilinear_form(m1, m2)


class TestTables:
    def test_built_once_per_diagram(self, monkeypatch):
        build, built = diagrams.pairing_tables, []
        pair, paired = gram.pair_exponents, set()

        def spy(m):
            built.append(m)
            return build(m)

        def pair_spy(left, right, pairs=None):
            paired.update(left, right)
            return pair(left, right, pairs)

        monkeypatch.setattr(diagrams, "pairing_tables", spy)
        monkeypatch.setattr(gram, "pair_exponents", pair_spy)
        matrix = assemble_gram(3, GramVariant.MB1_FULL)
        assert len(matrix.basis) == 35
        # assembly hands the basis to the kernel, which stacks the tables
        # of every diagram it is given; each builds them exactly once
        assert paired <= set(matrix.basis)
        assert sorted(built, key=str) == sorted(paired, key=str)

    def test_paired_diagram_is_unchanged_as_a_value(self):
        text = "(2 5)(3 4)(1)(6)"
        paired = parse_diagram(text)
        bilinear_form(paired, FIG_M2)
        fresh = parse_diagram(text)
        assert "tables" in vars(paired) and "tables" not in vars(fresh)
        assert paired == fresh and hash(paired) == hash(fresh)
        assert repr(paired) == repr(fresh)
        assert paired.serialize() == fresh.serialize() == text
        assert paired.to_json_obj() == fresh.to_json_obj()
        assert pickle.dumps(paired) == pickle.dumps(fresh)
        restored = pickle.loads(pickle.dumps(paired))
        assert restored == fresh and "tables" not in vars(restored)

    def test_form_counts_the_profile(self):
        # bilinear_form counts classes itself; curve_profile is the reference
        basis = gram_basis(3, GramVariant.MB1_FULL)
        for m_i in basis:
            for m_j in basis:
                (exps, coef), = bilinear_form(m_i, m_j).sorted_terms()
                counts = Counter(curve_profile(m_i, m_j))
                assert coef == 1
                assert exps == tuple(counts[v] for v in VARIABLES)


def _classes(g) -> dict:
    """Curve class by component vertex set."""
    return {frozenset(vertices): curve_class(g.n2, on1, on2, psi)
            for vertices, on1, on2, psi in components(g)}


class TestWalk:
    def test_diagonal_component_sweeps_zero(self):
        m = Diagram.build(2, [(1, 2), (3, 4)], [])
        g = build_pairing_graph(m, m)
        comp = next(c for c in components(g) if set(c[0]) == {1, 2})
        assert comp == ((1, 2), False, False, 0)
        psi, sweeps = component_walk(g, comp[0])
        assert [s[3] for s in sweeps] == [1, -1]
        assert psi == 0

    def test_opposed_winding_sweeps_full_turn(self):
        m1 = Diagram.build(1, [(1, 2)], [])
        m2 = Diagram.build(1, [(2, 1)], [])
        g = build_pairing_graph(m1, m2)
        assert components(g) == [((1, 2), False, False, 2)]
        psi, sweeps = component_walk(g, (1, 2))
        assert [s[3] for s in sweeps] == [1, 1]
        assert psi == 2

    def test_diagonal_always_trivial(self):
        for n in range(1, 4):
            for m in enumerate_stratum(n, Stratum.ZERO_CROSSCAP):
                g = build_pairing_graph(m, m)
                for vertices, _, _, psi in components(g):
                    assert psi == 0
                    assert component_walk(g, vertices)[0] == 0


class TestClassification:
    def test_fixture_components(self):
        classes = _classes(build_pairing_graph(FIG_M1, FIG_M2))
        assert classes[frozenset({1, 6})] == "x"
        assert classes[frozenset({2, 3, 4, 5})] == "y"

    def test_both_sides_fixed_gives_w(self):
        m = Diagram.build(1, [], [1, 2])
        classes = _classes(build_pairing_graph(m, m))
        assert list(classes.values()) == ["w"]

    def test_opposed_winding_gives_z(self):
        m1 = Diagram.build(1, [(1, 2)], [])
        m2 = Diagram.build(1, [(2, 1)], [])
        assert _classes(build_pairing_graph(m1, m2)) == {frozenset({1, 2}): "z"}

    def test_partial_sweep_is_unclassifiable(self):
        assert curve_class(4, False, False, 4) == "z"
        with pytest.raises(UnclassifiableComponentError):
            curve_class(4, False, False, 1)


class TestBilinearForm:
    def test_trivial_diagonal(self):
        m = Diagram.build(1, [(1, 2)], [])
        assert bilinear_form(m, m) == D

    def test_six_point_fixture_value(self):
        assert bilinear_form(FIG_M1, FIG_M2) == X * Y

    def test_four_vertex_w_component(self):
        m1 = Diagram.build(2, [(3, 4)], [1, 2])
        m2 = Diagram.build(2, [(4, 1)], [2, 3])
        assert bilinear_form(m1, m2) == W

    def test_one_crosscap_vs_chord(self):
        chord = Diagram.build(1, [(1, 2)], [])
        fixed = Diagram.build(1, [], [1, 2])
        assert bilinear_form(chord, fixed) == Y
        assert bilinear_form(fixed, chord) == X

    def test_transpose_symmetry_small(self):
        swap = {"x": "y", "y": "x"}
        for n in (1, 2, 3):
            basis = (enumerate_stratum(n, Stratum.ZERO_CROSSCAP)
                     + enumerate_stratum(n, Stratum.ONE_CROSSCAP))
            for m_i in basis:
                for m_j in basis:
                    forward = curve_profile(m_i, m_j)
                    flipped = tuple(sorted(swap.get(c, c) for c in forward))
                    assert curve_profile(m_j, m_i) == flipped

    def test_diagonal_law_small(self):
        for n in (1, 2, 3, 4):
            for m in enumerate_stratum(n, Stratum.ZERO_CROSSCAP):
                assert bilinear_form(m, m) == D ** n
            for m in enumerate_stratum(n, Stratum.ONE_CROSSCAP):
                assert bilinear_form(m, m) == D ** (n - 1) * W

    def test_monomial_structure(self):
        # every value is a single monomial whose degree counts components;
        # check_winding_range relies on this instead of re-checking it
        for n in (1, 2, 3, 4):
            basis = (enumerate_stratum(n, Stratum.ZERO_CROSSCAP)
                     + enumerate_stratum(n, Stratum.ONE_CROSSCAP))
            for m_i in basis:
                for m_j in basis:
                    g = build_pairing_graph(m_i, m_j)
                    value = bilinear_form(m_i, m_j)
                    assert value.num_terms() == 1
                    assert value.total_degree() == len(components(g))

    def test_rotation_keeps_the_form(self):
        # the rotation lemma (pairing module docstring), exhaustively over
        # the diagrams with 0, 2, 4 or 6 fixed points for n <= 4; a pair
        # that raises must raise the same error type once rotated
        def form(m1, m2):
            try:
                return "value", bilinear_form(m1, m2)
            except Exception as error:
                return "raised", type(error)

        pairs = 0
        for n in (1, 2, 3, 4):
            found = searched_diagrams(n, (0, 2, 4, 6))
            for m1 in found:
                for m2 in found:
                    rotated = form(diagrams.rotate(m1), diagrams.rotate(m2))
                    assert rotated == form(m1, m2), (str(m1), str(m2))
            pairs += len(found) ** 2
        assert pairs == 28_138

    def test_one_crosscap_exponent_pattern(self):
        # x appears iff y appears; x, y, w exponents stay 0 or 1
        for n in (1, 2, 3):
            basis = enumerate_stratum(n, Stratum.ONE_CROSSCAP)
            for m_i in basis:
                for m_j in basis:
                    exps, _ = bilinear_form(m_i, m_j).leading_term()
                    e = dict(zip(("d", "w", "x", "y", "z"), exps))
                    assert e["x"] == e["y"] and e["x"] in (0, 1)
                    assert e["w"] in (0, 1)
                    assert e["w"] + e["x"] == 1  # exactly {w} or {x, y}


class TestTrace:
    def test_trace_payload(self):
        trace = pair_trace(FIG_M1, FIG_M2)
        assert trace["value"] == "x*y"
        classes = sorted(c["class"] for c in trace["components"])
        assert classes == ["x", "y"]
        assert all("psi" not in c for c in trace["components"])

    def test_trace_has_sweeps_for_chord_components(self):
        m = Diagram.build(1, [(1, 2)], [])
        trace = pair_trace(m, m)
        assert trace["components"][0]["psi"] == 0
        assert trace["components"][0]["sweeps"] == [["m1", 1, 2, 1], ["m2", 2, 1, -1]]


def scalar_exponents(left, right, pairs) -> list:
    """Reference rows for pair_exponents: bilinear_form's exponent vector
    and False, or, where the scalar walk raises, the classes of its other
    cycles and True."""
    out = []
    for i, j in pairs:
        try:
            exps, _ = bilinear_form(left[i], right[j]).leading_term()
        except UnclassifiableComponentError:
            g = build_pairing_graph(left[i], right[j])
            classes = [(on1, on2, psi) for _, on1, on2, psi in components(g)
                       if on1 or on2 or psi in (0, g.n2, -g.n2)]
            counts = Counter(curve_class(g.n2, *c) for c in classes)
            out.append((tuple(counts[v] for v in VARIABLES), True))
        else:
            out.append((exps, False))
    return out


def kernel_rows(left, right, pairs=None) -> list:
    exps, unclassified = pair_exponents(left, right, pairs)
    return [(tuple(e), u) for e, u in zip(exps.tolist(), unclassified.tolist())]


def every_pair(left, right) -> list:
    return [(i, j) for i in range(len(left)) for j in range(len(right))]


class TestKernel:
    def test_every_ordered_pair_of_the_full_basis(self):
        for n in (1, 2, 3, 4):
            basis = gram_basis(n, GramVariant.MB1_FULL)
            assert kernel_rows(basis, basis) == scalar_exponents(
                basis, basis, every_pair(basis, basis)), n

    def test_tilde_n5_representatives(self, monkeypatch):
        seen = []
        original = gram.pair_exponents

        def spy(left, right, pairs):
            seen.append((left, right, pairs))
            return original(left, right, pairs)

        monkeypatch.setattr(gram, "pair_exponents", spy)
        assemble_gram(5, GramVariant.MBN1_TILDE)
        (basis, _, reps), = seen
        assert len(reps) == 2231
        assert kernel_rows(basis, basis, reps) == scalar_exponents(basis, basis, reps)

    def test_more_fixed_points_and_two_lists(self):
        # 4 and 6 fixed points put several on one cycle; a pair that the
        # scalar walk cannot classify comes out flagged
        for n in (1, 2, 3):
            found = searched_diagrams(n, (0, 2, 4, 6))
            chords = enumerate_stratum(n, Stratum.ZERO_CROSSCAP)
            for left, right in ((found, found), (chords, found), (found, chords)):
                assert kernel_rows(left, right) == scalar_exponents(
                    left, right, every_pair(left, right)), n

    @pytest.mark.parametrize("text, sweep, flagged", [
        ("(1 4)(2 3)", (None, 4, 1, -1, -3), 7),    # a skewed tail: cycles sweep 1
        ("(1 4)(2 3)", (None, 3, 1, None, -3), 0),  # vertex 3 reads as a fixed point
        ("(2 3)(1)(4)", (None, None, 1, -1, 0), 7),  # vertex 4 reads as a chord end
    ])
    def test_planted_tables_read_as_the_scalar_walk_reads_them(self, monkeypatch, text, sweep,
                                                              flagged):
        # the kernel classifies each cycle from the walk's own start, so it
        # agrees with the walk even on tables no diagram has
        build = diagrams.pairing_tables
        monkeypatch.setattr(diagrams, "pairing_tables", lambda m: (
            (build(m)[0], sweep) if m.serialize() == text else build(m)))
        basis = gram_basis(2, GramVariant.MB1_FULL)
        expected = scalar_exponents(basis, basis, every_pair(basis, basis))
        assert kernel_rows(basis, basis) == expected
        assert sum(u for _, u in expected) == flagged

    def test_slices_do_not_change_the_result(self, monkeypatch):
        basis = gram_basis(3, GramVariant.MB1_FULL)
        whole = kernel_rows(basis, basis)
        for cells in (1, 6, 7, 64):
            monkeypatch.setattr(pairing, "SLICE_CELLS", cells)
            assert kernel_rows(basis, basis) == whole, cells

    def test_explicit_pairs_follow_their_order(self):
        basis = gram_basis(2, GramVariant.MB1_FULL)
        pairs = [(9, 0), (0, 9), (3, 3), (9, 0)]
        assert kernel_rows(basis, basis, pairs) == scalar_exponents(basis, basis, pairs)

    def test_empty_and_mismatched_inputs(self):
        basis = gram_basis(2, GramVariant.MB1_FULL)
        exps, unclassified = pair_exponents(basis, basis, [])
        assert exps.shape == (0, len(VARIABLES)) and unclassified.shape == (0,)
        assert pair_exponents([], basis)[0].shape == (0, len(VARIABLES))
        with pytest.raises(SizeMismatchError):
            pair_exponents(basis, gram_basis(1, GramVariant.MB1_FULL))

    def test_malformed_diagram_raises(self):
        full = Diagram.build(2, [(1, 2), (3, 4)], [])
        missing = Diagram.build(2, [(1, 2)], [])
        with pytest.raises(MalformedComponentError):
            pair_exponents([full], [missing])

    @settings(deadline=None, max_examples=25)
    @given(st.lists(st.tuples(st.integers(0, 1715), st.integers(0, 1715)),
                    min_size=1, max_size=40))
    def test_sampled_n6_pairs(self, pairs):
        basis = _full_basis_6()
        assert kernel_rows(basis, basis, pairs) == scalar_exponents(basis, basis, pairs)

    @pytest.mark.skipif(os.environ.get("MBGRAM_STRETCH") != "1",
                        reason="213 444 scalar pairings; set MBGRAM_STRETCH=1 to run")
    def test_every_ordered_pair_of_the_full_n5_basis(self):
        basis = gram_basis(5, GramVariant.MB1_FULL)
        pairs = every_pair(basis, basis)
        assert len(pairs) == 213_444
        assert kernel_rows(basis, basis) == scalar_exponents(basis, basis, pairs)


@cache
def _full_basis_6() -> tuple:
    """The 1716 diagrams of the joint n=6 basis, enumerated once."""
    return tuple(enumerate_stratum(6, Stratum.ZERO_CROSSCAP)
                 + enumerate_stratum(6, Stratum.ONE_CROSSCAP))
