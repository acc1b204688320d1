"""Cross-module invariant checks, packaged as reportable claims.

These are the structural facts the determinant work leans on: the
enumeration counts certify the crossing predicate, the transpose and
diagonal laws certify the pairing conventions, the winding-sum range
certifies the sweep bookkeeping, and the two determinant backends
certify each other wherever both are feasible.
"""

from __future__ import annotations

from mbgram import gram as gram_mod
from mbgram.diagrams import Stratum, enumerate_stratum, parse_diagram
from mbgram.pairing import (bilinear_form, build_pairing_graph, components,
                            curve_profile, pair_trace)
from mbgram.polynomial import Polynomial
from mbgram.reporting import Report


def check_enumeration_counts(n_max: int = 6) -> Report:
    """Counts equal C(2n, n) and C(2n, n-1), the primary predicate check."""
    counts = {}
    for n in range(1, n_max + 1):
        for stratum in Stratum:
            diagrams = enumerate_stratum(n, stratum)
            expected = stratum.expected_count(n)
            counts[f"{stratum.value}/{n}"] = len(diagrams)
            if len(diagrams) != expected:
                return Report(
                    claim="enumeration-counts", tag="diagrams", status="FAIL",
                    params={"at": [n, stratum.value]},
                    witness={"expected": expected, "actual": len(diagrams)})
            if len(set(diagrams)) != len(diagrams):
                return Report(
                    claim="enumeration-counts", tag="diagrams", status="FAIL",
                    params={"at": [n, stratum.value]},
                    witness={"expected": expected, "actual": "duplicates"})
    return Report(
        claim="enumeration-counts", tag="diagrams", status="PASS",
        params={"n_max": n_max, "counts": counts})


FIG4_M1 = "(2 5)(3 4)(1)(6)"
FIG4_M2 = "(6 1)(2)(3)(4)(5)"


def check_crosscap_pair_fixture() -> Report:
    """The worked six-point pairing: edge sets and the value x*y."""
    m1 = parse_diagram(FIG4_M1)
    m2 = parse_diagram(FIG4_M2)
    trace = pair_trace(m1, m2)
    t_pairs = sorted(tuple(sorted((u, v))) for u, v, _ in trace["t_edges"])
    expected_t = sorted(tuple(sorted(p)) for p in ((2, 5), (3, 4), (6, 1)))
    expected_ef1 = {frozenset((1, 6))}
    expected_ef2 = {frozenset((2, 4)), frozenset((3, 5))}
    value = Polynomial.monomial(1, {"x": 1, "y": 1})
    actual = bilinear_form(m1, m2)
    ok = (t_pairs == expected_t
          and {frozenset(p) for p in trace["ef1"]} == expected_ef1
          and {frozenset(p) for p in trace["ef2"]} == expected_ef2
          and actual == value)
    if ok:
        return Report(
            claim="pair-fixture", tag="pairing", status="PASS",
            params={"m1": FIG4_M1, "m2": FIG4_M2, "value": str(actual)})
    return Report(
        claim="pair-fixture", tag="pairing", status="FAIL",
        params={"m1": FIG4_M1, "m2": FIG4_M2},
        witness={"t_edges": [sorted(p) for p in t_pairs],
                 "ef1": [sorted(p) for p in trace["ef1"]],
                 "ef2": [sorted(p) for p in trace["ef2"]],
                 "value": str(actual)})


def _swap_xy(profile: tuple) -> tuple:
    swap = {"x": "y", "y": "x"}
    return tuple(sorted(swap.get(c, c) for c in profile))


def check_transpose_symmetry(n_max: int = 4) -> Report:
    """<m2, m1> equals <m1, m2> with x and y exchanged, exhaustively."""
    pairs = 0
    for n in range(1, n_max + 1):
        basis = gram_mod.gram_basis(n, gram_mod.GramVariant.MB1_FULL)
        for i, m_i in enumerate(basis):
            for m_j in basis[i:]:
                forward = curve_profile(m_i, m_j)
                backward = curve_profile(m_j, m_i)
                if backward != _swap_xy(forward):
                    return Report(
                        claim="transpose-symmetry", tag="pairing", status="FAIL",
                        params={"at": [n, m_i.serialize(), m_j.serialize()]},
                        witness={"forward": list(forward), "backward": list(backward)})
                pairs += 1
    return Report(
        claim="transpose-symmetry", tag="pairing", status="PASS",
        params={"n_max": n_max, "pairs": pairs})


def check_diagonal_law(n_max: int = 5) -> Report:
    """<m, m> is d^n on the chord stratum and d^(n-1) w with one crosscap curve."""
    checked = 0
    for n in range(1, n_max + 1):
        for stratum in Stratum:
            if stratum is Stratum.ZERO_CROSSCAP:
                expected = ("d",) * n
            else:
                expected = tuple(sorted(("d",) * (n - 1) + ("w",)))
            for m in enumerate_stratum(n, stratum):
                profile = curve_profile(m, m)
                if profile != expected:
                    return Report(
                        claim="diagonal-law", tag="pairing", status="FAIL",
                        params={"at": [n, m.serialize()]},
                        witness={"expected": list(expected), "actual": list(profile)})
                checked += 1
    return Report(
        claim="diagonal-law", tag="pairing", status="PASS",
        params={"n_max": n_max, "diagrams": checked})


def check_winding_range(n_max: int = 5) -> Report:
    """Every fixed-point-free component sweeps exactly 0 or +/-2n.

    One pairing graph per ordered pair of the joint basis.  The monomial's
    degree equals the component count by construction (bilinear_form adds
    one variable per component).
    """
    walked = 0
    for n in range(1, n_max + 1):
        basis = gram_mod.gram_basis(n, gram_mod.GramVariant.MB1_FULL)
        n2 = 2 * n
        for m_i in basis:
            for m_j in basis:
                for vertices, on1, on2, psi in components(build_pairing_graph(m_i, m_j)):
                    if on1 or on2:
                        continue
                    if psi not in (0, n2, -n2):
                        return Report(
                            claim="winding-range", tag="pairing", status="FAIL",
                            params={"at": [n, m_i.serialize(), m_j.serialize()]},
                            witness={"component": sorted(vertices), "psi": psi})
                    walked += 1
    return Report(
        claim="winding-range", tag="pairing", status="PASS",
        params={"n_max": n_max, "components_walked": walked})


def check_entry_profiles(n_max: int = 4) -> Report:
    """One-crosscap pairings carry exactly {w} or {x, y} plus d/z factors;
    the stratum is enumerated once per n."""
    checked = 0
    for n in range(1, n_max + 1):
        basis = enumerate_stratum(n, Stratum.ONE_CROSSCAP)
        for m_i in basis:
            for m_j in basis:
                profile = curve_profile(m_i, m_j)
                crosscap_part = tuple(c for c in profile if c in ("x", "y", "w"))
                if crosscap_part not in (("w",), ("x", "y")):
                    return Report(
                        claim="entry-profiles", tag="pairing", status="FAIL",
                        params={"at": [n, m_i.serialize(), m_j.serialize()]},
                        witness={"profile": list(profile)})
                checked += 1
    return Report(
        claim="entry-profiles", tag="pairing", status="PASS",
        params={"n_max": n_max, "pairs": checked})


def check_tilde_block_fixture(cache_dir=None) -> Report:
    """The 4x4 tilde matrix matches the four-element class pattern with u=1."""
    gm = gram_mod.get_gram(2, gram_mod.GramVariant.MBN1_TILDE, cache_dir=cache_dir)
    reference = gram_mod.class_matrix_4x4(1)
    if gram_mod.equal_up_to_simultaneous_permutation(gm.entries, reference):
        return Report(
            claim="tilde-block-fixture", tag="gram", status="PASS",
            params={"n": 2, "size": 4})
    return Report(
        claim="tilde-block-fixture", tag="gram", status="FAIL",
        params={"n": 2},
        witness={"matrix": [[str(e) for e in row] for row in gm.entries]})


# the variant/size pairs where both determinant backends are compared:
# the substituted family through n=3, and the multi-variable path through
# five variables at n=1.  The engine takes the five-variable full n=2 and
# mbn1 n=3 in well under a second too, but the case list is part of the
# det-backends-agree report, which the benchmark's goldens pin, so it
# stays; tier-1 compares the two routes on those matrices instead, and
# the engine with the closed form C3_4 on full n=3.
BACKEND_CROSSCHECK_CASES = (
    (gram_mod.GramVariant.MBN1_TILDE, (1, 2, 3)),
    (gram_mod.GramVariant.MBN1, (1, 2)),
    (gram_mod.GramVariant.MB1_FULL, (1,)),
)


def check_det_backends_agree(cache_dir=None) -> Report:
    """Evaluation-interpolation equals fraction-free elimination."""
    compared = []
    for variant, ns in BACKEND_CROSSCHECK_CASES:
        for n in ns:
            gm = gram_mod.get_gram(n, variant, cache_dir=cache_dir)
            exact = gram_mod.det_exact(gm)
            interp = gram_mod.det_by_evaluation(gm)
            if exact != interp:
                return Report(
                    claim="det-backends-agree", tag="gram", status="FAIL",
                    params={"at": [variant.value, n]},
                    witness={"bareiss": exact.to_json_obj(),
                             "interp": interp.to_json_obj()})
            compared.append(f"{variant.value}/{n}")
    return Report(
        claim="det-backends-agree", tag="gram", status="PASS",
        params={"cases": compared})
