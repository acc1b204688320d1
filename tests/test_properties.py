"""Cross-module invariant claims at reduced ranges (acceptance runs them full)."""

from mbgram import pairing, properties
from mbgram.diagrams import Stratum, enumerate_stratum, parse_diagram
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
    # a chord-only cycle sweeping 1 is no curve on the band; the first one
    # met is the single cycle of <(1 2), (1 2)> at n=1
    def skewed(g):
        return [(vertices, on1, on2, psi if on1 or on2 else 1)
                for vertices, on1, on2, psi in pairing.components(g)]

    monkeypatch.setattr(properties, "components", skewed)
    report = check_winding_range(2)
    assert report.status == "FAIL"
    assert report.params == {"at": [1, "(1 2)", "(1 2)"]}
    assert report.witness == {"component": [1, 2], "psi": 1}


def test_entry_profiles_small():
    assert check_entry_profiles(3).status == "PASS"


def test_tilde_block_fixture(tmp_path):
    assert check_tilde_block_fixture(cache_dir=tmp_path).status == "PASS"


def test_det_backends_agree(tmp_path):
    report = check_det_backends_agree(cache_dir=tmp_path)
    assert report.status == "PASS"
    assert "tilde/3" in report.params["cases"]
    assert "full/1" in report.params["cases"]
