"""Acceptance suite: one test per acceptance criterion, at stated tolerances.

Every check is exact (structural polynomial equality or exact integer
arithmetic); the one randomized criterion states its failure bound and
must beat 2^-40.  Each test prints a single pass line with its timing
(visible with `pytest -s` or on failure).

The final criterion (the 210x210 case) is a stretch goal with a one-hour
budget; it only runs when MBGRAM_STRETCH=1 is set, e.g.

    MBGRAM_STRETCH=1 pytest tests/test_acceptance.py -k stretch -s
"""

import os
import time
from contextlib import contextmanager
from math import comb

import pytest

from mbgram.chebyshev import IdentityId, verify_identity
from mbgram.diagrams import Stratum, enumerate_stratum
from mbgram.gram import (DET_FORMAT, ConjectureId, DEFAULT_SEED, GramVariant, class_matrix_4x4,
                         conjecture_formula, det_exact, equal_up_to_simultaneous_permutation,
                         get_det, get_gram, verify_conjecture, verify_formula_identity,
                         verify_theorem_3_6)
from mbgram.polynomial import Polynomial
from mbgram.properties import (check_crosscap_pair_fixture, check_det_backends_agree,
                               check_diagonal_law, check_transpose_symmetry,
                               check_winding_range)
from mbgram.storage import cache_read, payload_digest

# SHA-256 of the canonical JSON of the cached exact tilde n=5 determinant
TILDE_5_DET_DIGEST = "e54ebd97db302a54efdd340730477b5795302208a0b5a97a6828fcc2dcbc2bda"

D = Polynomial.variable("d")
W = Polynomial.variable("w")
X = Polynomial.variable("x")
Y = Polynomial.variable("y")
Z = Polynomial.variable("z")


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance-cache")


@contextmanager
def criterion(number: int, description: str, budget_s: float):
    started = time.perf_counter()
    yield
    elapsed = time.perf_counter() - started
    print(f"[PASS] criterion {number}: {description} ({elapsed:.2f}s, "
          f"budget {budget_s:.0f}s)")
    assert elapsed < budget_s, f"criterion {number} exceeded {budget_s}s: {elapsed:.1f}s"


def test_criterion_01_chebyshev_identities():
    with criterion(1, "ten Chebyshev identities, exact equality", 10):
        # every identity runs its registry range through verify_identity's
        # one loop; Cor2_6 checks S_(2^k - 1) for k = 2..12
        for identity in IdentityId:
            report = verify_identity(identity)
            assert report.status == "PASS", report.to_json_line()
            assert report.params["checked"] > 0


def test_criterion_02_enumeration_counts():
    with criterion(2, "enumeration counts match the binomials for n <= 6", 60):
        for n in range(1, 7):
            zero = enumerate_stratum(n, Stratum.ZERO_CROSSCAP)
            one = enumerate_stratum(n, Stratum.ONE_CROSSCAP)
            assert len(zero) == comb(2 * n, n), n
            assert len(one) == comb(2 * n, n - 1), n
            assert len(set(zero)) == len(zero) and len(set(one)) == len(one)


def test_criterion_03_n1_full_determinant(cache_dir):
    with criterion(3, "n=1 full determinant equals the hand-derived product", 1):
        # 3x3 expansion by hand: det [[d,z,y],[z,d,y],[x,x,w]]
        #   = d(dw - xy) - z(zw - xy) + y(zx - dx)
        #   = (d - z)((d + z)w - 2xy)
        hand_oracle = (D - Z) * ((D + Z) * W - 2 * X * Y)
        gm = get_gram(1, GramVariant.MB1_FULL, cache_dir=cache_dir)
        assert det_exact(gm) == hand_oracle
        assert conjecture_formula(ConjectureId.C3_4, 1) == hand_oracle


def test_criterion_04_n2_tilde_matrix_and_determinant(cache_dir):
    with criterion(4, "n=2 substituted matrix and determinant", 1):
        gm = get_gram(2, GramVariant.MBN1_TILDE, cache_dir=cache_dir)
        assert equal_up_to_simultaneous_permutation(gm.entries, class_matrix_4x4(1))
        det, _ = get_det(2, GramVariant.MBN1_TILDE, cache_dir=cache_dir)
        expected = Polynomial.univariate("d", {4: 1, 2: -4})
        assert det == expected
        assert det == (D * D - 4) * D * D  # (d^2 - 4) S_1(d)^2


def test_criterion_05_tilde_formula_n2_to_n4(cache_dir):
    with criterion(5, "closed form of the substituted determinant, n = 2, 3, 4", 120):
        for n in (2, 3, 4):
            report = verify_conjecture(ConjectureId.C3_5, n, jobs=2,
                                       cache_dir=cache_dir)
            assert report.status == "PASS", report.to_json_line()


def test_criterion_06_formula_identity():
    with criterion(6, "the two closed forms agree structurally for n <= 8", 5):
        report = verify_formula_identity()
        assert report.status == "PASS", report.to_json_line()
        # spot expansion at the smallest size as well
        assert conjecture_formula(ConjectureId.C3_3, 2) == \
            conjecture_formula(ConjectureId.C3_5, 2)


def test_criterion_07_divisibility(cache_dir):
    with criterion(7, "power-of-d divisibility of the determinant, n = 2, 3, 4", 120):
        for n in (2, 3, 4):
            report = verify_theorem_3_6(n, jobs=2, cache_dir=cache_dir)
            assert report.status == "PASS", report.to_json_line()
            assert report.params["divisor_exponent"] == 2 * comb(2 * n, n - 2)


def test_criterion_08_full_basis_formula(cache_dir):
    with criterion(8, "full-basis determinant: n=2 exact, n=3 randomized", 600):
        exact = verify_conjecture(ConjectureId.C3_4, 2, cache_dir=cache_dir)
        assert exact.status == "PASS", exact.to_json_line()
        randomized = verify_conjecture(ConjectureId.C3_4, 3, method="randomized",
                                       seed=DEFAULT_SEED, points=20,
                                       cache_dir=cache_dir)
        assert randomized.status == "PASS", randomized.to_json_line()
        assert randomized.params["points"] >= 20
        assert randomized.params["failure_bound"] < 2 ** -40


def test_criterion_09_pair_fixture():
    with criterion(9, "six-point pairing fixture with printed edge sets", 1):
        report = check_crosscap_pair_fixture()
        assert report.status == "PASS", report.to_json_line()


def test_criterion_10_property_suites(cache_dir):
    with criterion(10, "pairing symmetry, diagonal, winding, backend agreement", 300):
        assert check_transpose_symmetry(4).status == "PASS"
        assert check_diagonal_law(4).status == "PASS"
        assert check_winding_range(5).status == "PASS"
        assert check_det_backends_agree(cache_dir=cache_dir).status == "PASS"


@pytest.mark.skipif(os.environ.get("MBGRAM_STRETCH") != "1",
                    reason="stretch criterion (one-hour budget); "
                           "set MBGRAM_STRETCH=1 to run")
def test_criterion_11_stretch_n5(cache_dir):
    started = time.perf_counter()
    jobs = int(os.environ.get("MBGRAM_STRETCH_JOBS", "2"))
    # exact: the determinant, its cached payload pinned by digest, and the
    # three claims on it
    for report in (verify_conjecture(ConjectureId.C3_5, 5, jobs=jobs, cache_dir=cache_dir),
                   verify_conjecture(ConjectureId.C3_3, 5, jobs=jobs, cache_dir=cache_dir),
                   verify_theorem_3_6(5, jobs=jobs, cache_dir=cache_dir)):
        assert report.status == "PASS", report.to_json_line()
    payload = cache_read(cache_dir, "det_tilde_5", DET_FORMAT)
    assert payload_digest(payload) == TILDE_5_DET_DIGEST
    exact_elapsed = time.perf_counter() - started
    # the randomized comparison stays as a cross-check
    report = verify_conjecture(ConjectureId.C3_5, 5, method="randomized",
                               seed=DEFAULT_SEED, points=24, jobs=jobs,
                               cache_dir=cache_dir)
    elapsed = time.perf_counter() - started
    # both verdicts are acceptable outcomes here; what matters is that the
    # comparison ran and is reported with its provenance
    assert report.status in ("PASS", "FAIL"), report.to_json_line()
    print(f"[PASS] criterion 11 (stretch): exact 210x210 determinant equals C3_5 and "
          f"C3_3 and is divisible by d^{2 * comb(10, 3)} ({exact_elapsed:.0f}s)")
    print(f"[{report.status}] criterion 11 (stretch): 210x210 determinant vs "
          f"closed form at 24 exact points, failure bound "
          f"{report.params.get('failure_bound', 'n/a')}, seed {report.seed} "
          f"({elapsed:.0f}s, budget 3600s)")
    assert elapsed < 3600
