"""Cross-module invariant claims at reduced ranges (acceptance runs them full)."""

import pytest

from mbgram import diagrams, gram, properties
from mbgram.diagrams import Stratum, enumerate_stratum, parse_diagram
from mbgram.errors import UnclassifiableComponentError
from mbgram.pairing import build_pairing_graph, components, curve_profile
from mbgram.properties import (check_crosscap_pair_fixture, check_det_backends_agree,
                               check_diagonal_law, check_entry_profiles,
                               check_enumeration_counts, check_tilde_block_fixture,
                               check_transpose_symmetry, check_winding_range)


def test_enumeration_counts_small():
    report = check_enumeration_counts(3)
    assert report.status == "PASS"
    assert report.params["counts"]["zero/3"] == 20
    assert report.params["counts"]["one/3"] == 15


def test_enumeration_counts_reports_a_crossing_diagram(monkeypatch):
    # one n=2 chord diagram swapped for a crossing one keeps the count and
    # the distinctness, so only the predicates can catch it
    def planted(n, stratum):
        found = enumerate_stratum(n, stratum)
        if (n, stratum) == (2, Stratum.ZERO_CROSSCAP):
            found[0] = parse_diagram("(1 3)(2 4)")
        return found

    monkeypatch.setattr(properties, "enumerate_stratum", planted)
    report = check_enumeration_counts(3)
    assert report.status == "FAIL"
    assert report.params == {"at": [2, "zero"]}
    assert report.witness == {
        "diagram": "(1 3)(2 4)",
        "violations": ["chords Arc(tail=1, head=3) and Arc(tail=2, head=4) cross"]}


def test_pair_fixture():
    report = check_crosscap_pair_fixture()
    assert report.status == "PASS"
    assert report.params["value"] == "x*y"


def test_transpose_symmetry_small():
    assert check_transpose_symmetry(2).status == "PASS"


def test_diagonal_law_small():
    assert check_diagonal_law(3).status == "PASS"


def test_winding_range_small():
    report = check_winding_range(3)
    assert report.status == "PASS"
    assert report.params["components_walked"] > 0


def test_winding_range_reports_a_bad_sweep(monkeypatch):
    # a chord-only cycle sweeping 1 is no curve on the band.  The tables
    # give (1 2) a tail sweep of 2, so the single cycle of <(1 2), (1 2)>
    # at n=1, the first one met, sweeps 2 - 1 = 1; the kernel screens the
    # pairs and the scalar walk names the cycle, both from these tables
    build = diagrams.pairing_tables

    def skewed(m):
        partner, sweep = build(m)
        if m.serialize() == "(1 2)":
            sweep = (None, sweep[1] + 1, sweep[2])
        return partner, sweep

    monkeypatch.setattr(diagrams, "pairing_tables", skewed)
    report = check_winding_range(2)
    assert report.status == "FAIL"
    assert report.params == {"at": [1, "(1 2)", "(1 2)"]}
    assert report.witness == {"component": [1, 2], "psi": 1}


def test_entry_profiles_small():
    assert check_entry_profiles(3).status == "PASS"


def test_a_pass_walks_no_pair(monkeypatch):
    # the kernel's verdict stands: the scalar walk only names a FAIL
    walked = []

    def spy(name, walk):
        def spied(*args):
            walked.append(name)
            return walk(*args)
        return spied

    for name in ("curve_profile", "components", "build_pairing_graph"):
        monkeypatch.setattr(properties, name, spy(name, getattr(properties, name)))
    for check in (check_transpose_symmetry, check_diagonal_law, check_winding_range,
                  check_entry_profiles):
        assert check(3).status == "PASS"
    assert walked == []


def test_tilde_block_fixture(tmp_path):
    assert check_tilde_block_fixture(cache_dir=tmp_path).status == "PASS"


def test_det_backends_agree(tmp_path):
    report = check_det_backends_agree(cache_dir=tmp_path)
    assert report.status == "PASS"
    assert "tilde/3" in report.params["cases"]
    assert "full/1" in report.params["cases"]


# -- the claims against their scalar form ---------------------------------------
#
# The pairing claims screen every pair with pairing.pair_exponents.  Each
# reference below is the claim as one scalar pairing per pair; with planted
# tables, which both read, the two must report the same FAIL.


def scalar_transpose_symmetry(n_max):
    for n in range(1, n_max + 1):
        basis = gram.gram_basis(n, gram.GramVariant.MB1_FULL)
        for i, m_i in enumerate(basis):
            for m_j in basis[i:]:
                forward, backward = curve_profile(m_i, m_j), curve_profile(m_j, m_i)
                flipped = tuple(sorted({"x": "y", "y": "x"}.get(c, c) for c in forward))
                if backward != flipped:
                    return {"at": [n, m_i.serialize(), m_j.serialize()]}, {
                        "forward": list(forward), "backward": list(backward)}
    return None


def scalar_diagonal_law(n_max):
    for n in range(1, n_max + 1):
        for stratum in Stratum:
            expected = tuple(sorted(("d",) * (n - 1) + (
                ("d",) if stratum is Stratum.ZERO_CROSSCAP else ("w",))))
            for m in enumerate_stratum(n, stratum):
                profile = curve_profile(m, m)
                if profile != expected:
                    return {"at": [n, m.serialize()]}, {
                        "expected": list(expected), "actual": list(profile)}
    return None


def scalar_winding_range(n_max):
    for n in range(1, n_max + 1):
        basis = gram.gram_basis(n, gram.GramVariant.MB1_FULL)
        for m_i in basis:
            for m_j in basis:
                for vertices, on1, on2, psi in components(build_pairing_graph(m_i, m_j)):
                    if not (on1 or on2) and psi not in (0, 2 * n, -2 * n):
                        return {"at": [n, m_i.serialize(), m_j.serialize()]}, {
                            "component": sorted(vertices), "psi": psi}
    return None


def scalar_entry_profiles(n_max):
    for n in range(1, n_max + 1):
        basis = enumerate_stratum(n, Stratum.ONE_CROSSCAP)
        for m_i in basis:
            for m_j in basis:
                profile = curve_profile(m_i, m_j)
                if tuple(c for c in profile if c in "xyw") not in (("w",), ("x", "y")):
                    return {"at": [n, m_i.serialize(), m_j.serialize()]}, {
                        "profile": list(profile)}
    return None


def plant(monkeypatch, text, sweep):
    """Give the diagram `text` the sweep table `sweep` wherever it is built."""
    build = diagrams.pairing_tables

    def planted(m):
        partner, found = build(m)
        return partner, (sweep if m.serialize() == text else found)

    monkeypatch.setattr(diagrams, "pairing_tables", planted)


@pytest.mark.parametrize("check, scalar, text, sweep", [
    # vertex 1 of (1 2) reads as a fixed point: <(1 2), (1 2)> is x both ways
    (check_transpose_symmetry, scalar_transpose_symmetry, "(1 2)", (None, None, -1)),
    # vertex 1 of (1)(2) reads as a chord end: <(1)(2), (1)(2)> is y
    (check_diagonal_law, scalar_diagonal_law, "(1)(2)", (None, 0, None)),
    (check_entry_profiles, scalar_entry_profiles, "(1)(2)", (None, 0, None)),
    # later pairs at n=2: vertex 3 of (1 4)(2 3) reads as a fixed point,
    # and vertex 4 of (2 3)(1)(4) as a chord end
    (check_transpose_symmetry, scalar_transpose_symmetry, "(1 4)(2 3)",
     (None, 3, 1, None, -3)),
    (check_entry_profiles, scalar_entry_profiles, "(2 3)(1)(4)", (None, None, 1, -1, 0)),
    # and vertex 4 of (1 4)(2 3) sweeps -1: the first bad pair is
    # <(1 2)(3 4), (1 4)(2 3)>, whose cycle through 1 sweeps 1 + 1 + 1 - 1 = 2
    (check_winding_range, scalar_winding_range, "(1 4)(2 3)", (None, 3, 1, -1, -1)),
])
def test_planted_mismatch_fails_as_the_scalar_claim(monkeypatch, check, scalar, text, sweep):
    plant(monkeypatch, text, sweep)
    report = check(3)
    assert report.status == "FAIL"
    assert (report.params, report.witness) == scalar(3)


def test_planted_skew_raises_as_the_scalar_claim(monkeypatch):
    plant(monkeypatch, "(1 2)", (None, 2, -1))
    with pytest.raises(UnclassifiableComponentError) as scalar_error:
        scalar_transpose_symmetry(2)
    with pytest.raises(UnclassifiableComponentError) as kernel_error:
        check_transpose_symmetry(2)
    assert str(kernel_error.value) == str(scalar_error.value)
