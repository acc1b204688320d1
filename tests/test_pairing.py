"""Pairing graph construction, component classification, and the form values."""

import pickle
from collections import Counter

import pytest

from mbgram import diagrams, gram
from mbgram.diagrams import Diagram, enumerate_stratum, parse_diagram, Stratum
from mbgram.errors import (MalformedComponentError, SizeMismatchError,
                           UnclassifiableComponentError)
from mbgram.pairing import (antipodal_pairs, bilinear_form, build_pairing_graph,
                            component_walk, components, curve_class,
                            curve_profile, pair_trace)
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
        pair, paired = gram.bilinear_form, set()

        def spy(m):
            built.append(m)
            return build(m)

        def pair_spy(m1, m2):
            paired.update((m1, m2))
            return pair(m1, m2)

        monkeypatch.setattr(diagrams, "pairing_tables", spy)
        monkeypatch.setattr(gram, "bilinear_form", pair_spy)
        matrix = assemble_gram(3, GramVariant.MB1_FULL)
        assert len(matrix.basis) == 35
        # assembly pairs one cell per rotation orbit, so not every diagram
        # is paired; every one that is builds its tables exactly once
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
