"""Chebyshev polynomial generators and symbolic identity checks.

Both kinds live in Z[d] with the normalization T_0 = 2, T_1 = d and
S_0 = 1, S_1 = d, sharing the recurrence P_n = d*P_{n-1} - P_{n-2}.
Indices extend to negative n by running the recurrence downward, which
forces

    T_{-n} = T_n,        S_{-1} = 0,  S_{-n} = -S_{n-2}  (n >= 1).

Coefficients come from one closed form, the binomial sum of S_n
(_s_coeffs), which is orders of magnitude faster than walking the
recurrence up to the default bound of 4096.  T_n = S_n - S_(n-2) turns it
into the first kind coefficient by coefficient: the degree-k coefficient
of T_n is 2n/(n+k) times that of S_n (n >= 1; T_0 = 2).  The recurrence
itself is asserted structurally in the test suite for both kinds, both
exhaustively for small indices and at every large index class the
identity checks touch, so the closed form never goes unchecked.

The module also knows a catalog of ten named identities (IdentityId)
relating products, squares and index-doubling of T and S, including the
factorization of S at Mersenne indices into a product of T's.  All ten
run through the one loop in verify_identity, which builds both sides as
expanded polynomials at each parameter tuple and compares them
structurally; failures are reported, never raised.  functools caches hold
the generated polynomials, the S products and the running power-of-two
product of T's; a list keeps the parity prefix sums S_k + S_(k-2) + ...,
which give ProdToSumS each of its sums by one subtraction.
"""

from __future__ import annotations

import itertools
from enum import Enum
from functools import cache, lru_cache
from typing import Callable, Iterable, Sequence

from mbgram.errors import BoundExceededError
from mbgram.polynomial import Polynomial
from mbgram.reporting import Report

DEFAULT_BOUND = 4096

NEGATIVE_INDEX_NOTE = (
    "negative S indices follow the downward recurrence: S_-1 = 0, S_-n = -S_(n-2)"
)


def _s_coeffs(n: int) -> dict:
    """Coefficients of S_n for n >= 0, as {degree: coefficient}.

    S_n = sum_j (-1)^j C(n-j, j) d^(n-2j).  The binomials are built
    incrementally: C(n-j-1, j+1) = C(n-j, j) * (n-2j)(n-2j-1) / ((j+1)(n-j)).
    """
    out = {}
    c = 1
    for j in range(n // 2 + 1):
        out[n - 2 * j] = -c if j & 1 else c
        num = (n - 2 * j) * (n - 2 * j - 1)
        den = (j + 1) * (n - j)
        if den and num > 0:
            c = c * num // den
    return out


def _t_coeffs(n: int) -> dict:
    """Coefficients of T_n for n >= 0, as {degree: coefficient}.

    T_n = S_n - S_(n-2) gives (-1)^j C(n-j, j) * n/(n-j) at degree k = n-2j,
    that is 2n/(n+k) times S_n's coefficient; the division is exact.
    """
    if n == 0:
        return {0: 2}
    return {k: 2 * n * c // (n + k) for k, c in _s_coeffs(n).items()}


@cache
def _closed_form(coeffs: Callable[[int], dict], n: int) -> Polynomial:
    """The polynomial of one closed-form builder at n >= 0, built once."""
    return Polynomial.univariate("d", coeffs(n))


def cheb_T(n: int) -> Polynomial:
    """First-kind polynomial T_n; T_{-n} = T_n."""
    if abs(n) > DEFAULT_BOUND:
        raise BoundExceededError(f"|{n}| exceeds Chebyshev index bound {DEFAULT_BOUND}")
    return _closed_form(_t_coeffs, abs(n))


def cheb_S(n: int) -> Polynomial:
    """Second-kind polynomial S_n; S_{-1} = 0 and S_{-n} = -S_{n-2}."""
    if abs(n) > DEFAULT_BOUND:
        raise BoundExceededError(f"|{n}| exceeds Chebyshev index bound {DEFAULT_BOUND}")
    if n >= 0:
        return _closed_form(_s_coeffs, n)
    if n == -1:
        return Polynomial.zero()
    return -_closed_form(_s_coeffs, -n - 2)


class IdentityId(Enum):
    """Catalog of the checked closed-form identities."""

    PROD_TO_SUM_T = "ProdToSumT"    # T_m T_n = T_{m+n} + T_{|m-n|}
    PROD_TO_SUM_S = "ProdToSumS"    # S_n S_m = S_{|n-m|} + S_{|n-m|+2} + ... + S_{n+m}
    S_PROD_RECUR = "SProdRecur"     # S_n S_m = S_{m-1} S_{n-1} + S_{n+m}
    LEMMA_2_3A = "Lemma2_3a"        # T_{4n} - 2 = T_n^2 (T_n^2 - 4)
    LEMMA_2_3B = "Lemma2_3b"        # T_{2n} - 2 = T_n^2 - 4
    COR_2_4A = "Cor2_4a"            # T_{2^n}^2 - 4 = (T_2^2 - 4) prod_{i=1}^{n-1} T_{2^i}^2
    COR_2_4B = "Cor2_4b"            # T_{2^n} - 2 = (T_1^2 - 4) prod_{i=0}^{n-2} T_{2^i}^2
    LEMMA_2_5 = "Lemma2_5"          # T_n^2 - 4 = (d^2 - 4) S_{n-1}^2
    COR_2_6 = "Cor2_6"              # S_{2^k - 1} = prod_{i=0}^{k-1} T_{2^i}
    T_SQ_BRIDGE = "TSqBridge"       # T_n^2 - d^2 = S_n S_{n-2} (d^2 - 4)


# each identity builder returns (lhs, rhs, uses_negative_index)

def _sum_of_S(lo: int, hi: int) -> Polynomial:
    """S_lo + S_(lo+2) + ... + S_hi, for lo <= hi of equal parity."""
    return _s_parity_sum(hi) - _s_parity_sum(lo - 2)


# P(0), P(1), ..., grown bottom-up: a cached recursion on P(k - 2) would
# pass the interpreter's recursion limit on a cold call near the bound
_S_PARITY_SUMS: list = []


def _s_parity_sum(k: int) -> Polynomial:
    """P(k) = S_k + S_(k-2) + ... down to S_0 or S_1; zero for k < 0."""
    if k < 0:
        return Polynomial.zero()
    while len(_S_PARITY_SUMS) <= k:
        i = len(_S_PARITY_SUMS)
        _S_PARITY_SUMS.append(_s_parity_sum(i - 2) + cheb_S(i))
    return _S_PARITY_SUMS[k]


def _s_product(m: int, n: int) -> Polynomial:
    """S_m * S_n, memoized under (min, max); the product identities reuse
    the same pairs."""
    return _ordered_s_product(min(m, n), max(m, n))


@cache
def _ordered_s_product(m: int, n: int) -> Polynomial:
    return cheb_S(m) * cheb_S(n)


@lru_cache(maxsize=1)
def _t_power_product(lo: int, hi: int) -> Polynomial:
    """prod_{i=lo}^{hi} T_{2^i} (1 when hi < lo), extending the product for
    hi - 1.  The identity loop walks hi upward, so the one cached entry is
    the previous prefix."""
    if hi < lo:
        return Polynomial.one()
    return _t_power_product(lo, hi - 1) * cheb_T(2 ** hi)


def _d2m4() -> Polynomial:
    d = Polynomial.variable("d")
    return d * d - 4


def _build_prod_to_sum_t(m: int, n: int):
    return cheb_T(m) * cheb_T(n), cheb_T(m + n) + cheb_T(abs(m - n)), False


def _build_prod_to_sum_s(m: int, n: int):
    return _s_product(n, m), _sum_of_S(abs(n - m), n + m), False


def _build_s_prod_recur(m: int, n: int):
    # at m = 0 or n = 0 the product on the right holds S_(-1) = 0
    return _s_product(n, m), _s_product(m - 1, n - 1) + cheb_S(n + m), (m == 0 or n == 0)


def _build_lemma_2_3a(n: int):
    tn2 = cheb_T(n) * cheb_T(n)
    return cheb_T(4 * n) - 2, tn2 * (tn2 - 4), False


def _build_lemma_2_3b(n: int):
    return cheb_T(2 * n) - 2, cheb_T(n) * cheb_T(n) - 4, False


def _build_cor_2_4a(n: int):
    t = cheb_T(2 ** n)
    t2 = cheb_T(2)
    p = _t_power_product(1, n - 1)
    return t * t - 4, (t2 * t2 - 4) * (p * p), False


def _build_cor_2_4b(n: int):
    t1 = cheb_T(1)
    p = _t_power_product(0, n - 2)
    return cheb_T(2 ** n) - 2, (t1 * t1 - 4) * (p * p), False


def _build_lemma_2_5(n: int):
    s = cheb_S(n - 1)
    return cheb_T(n) * cheb_T(n) - 4, _d2m4() * s * s, (n == 0)


def _build_cor_2_6(k: int):
    # the product first: its multiply then runs before S_(2^k - 1) is held
    product = _t_power_product(0, k - 1)
    return cheb_S(2 ** k - 1), product, False


def _build_t_sq_bridge(n: int):
    d = Polynomial.variable("d")
    lhs = cheb_T(n) * cheb_T(n) - d * d
    return lhs, cheb_S(n) * cheb_S(n - 2) * _d2m4(), (n <= 1)


# identity registry rows: (arity, minimum parameters, default maximum, reach,
# builder).  The reach is the largest polynomial index the builder uses when
# its largest parameter is m.  The default maxima keep every reach within the
# generator bound: Cor2_4a/b and Cor2_6 index T and S at 2^n, so their
# parameter tops out at the exponent (2^10 resp. 2^12 - 1 = 4095), while the
# plain-index identities run the full 0..64 square.
_IDENTITY_SPECS = {
    IdentityId.PROD_TO_SUM_T: (2, (0, 0), 64, lambda m: 2 * m, _build_prod_to_sum_t),
    IdentityId.PROD_TO_SUM_S: (2, (0, 0), 64, lambda m: 2 * m, _build_prod_to_sum_s),
    IdentityId.S_PROD_RECUR: (2, (0, 0), 64, lambda m: 2 * m, _build_s_prod_recur),
    IdentityId.LEMMA_2_3A: (1, (0,), 64, lambda m: 4 * m, _build_lemma_2_3a),
    IdentityId.LEMMA_2_3B: (1, (0,), 64, lambda m: 2 * m, _build_lemma_2_3b),
    # the power-of-two factorizations need a non-empty product side
    IdentityId.COR_2_4A: (1, (1,), 10, lambda m: 2 ** m, _build_cor_2_4a),
    IdentityId.COR_2_4B: (1, (1,), 10, lambda m: 2 ** m, _build_cor_2_4b),
    IdentityId.LEMMA_2_5: (1, (0,), 64, lambda m: m, _build_lemma_2_5),
    IdentityId.COR_2_6: (1, (2,), 12, lambda m: 2 ** m - 1, _build_cor_2_6),
    IdentityId.T_SQ_BRIDGE: (1, (0,), 64, lambda m: m, _build_t_sq_bridge),
}


def verify_identity(identity: IdentityId, params: Iterable[Sequence[int]] | None = None,
                    max_index: int | None = None) -> Report:
    """Check one identity over a parameter range, structurally.

    `params` is an iterable of parameter tuples; when omitted, every tuple
    from the identity's minimum up to `max_index` (default: the identity's
    registry maximum) is checked.  Out-of-domain tuples (below the
    identity's minimum indices) are skipped and counted.  Mismatches
    become FAIL entries carrying both differing polynomials; nothing is
    raised, but a range whose reach at `max_index` passes the generator
    bound raises BoundExceededError before any polynomial is built.
    """
    arity, minima, default_max, reach, builder = _IDENTITY_SPECS[identity]
    if max_index is None:
        max_index = default_max
    if params is None:
        if reach(max_index) > DEFAULT_BOUND:
            raise BoundExceededError(
                f"{identity.value} at {max_index} reaches index {reach(max_index)}, "
                f"beyond Chebyshev index bound {DEFAULT_BOUND}")
        params = itertools.product(*(range(lo, max_index + 1) for lo in minima))
    checked = 0
    skipped = 0
    used_negative = False
    for tup in params:
        tup = tuple(tup)
        if len(tup) != arity:
            raise ValueError(f"{identity.value} takes {arity} parameter(s), got {tup}")
        if any(t < lo for t, lo in zip(tup, minima)):
            skipped += 1
            continue
        lhs, rhs, negative = builder(*tup)
        used_negative = used_negative or negative
        if lhs != rhs:
            return Report(
                claim=identity.value,
                tag="chebyshev-identity",
                status="FAIL",
                params={"at": list(tup), "checked": checked, "skipped": skipped},
                witness={"lhs": lhs.to_json_obj(), "rhs": rhs.to_json_obj()},
            )
        checked += 1
    notes = [NEGATIVE_INDEX_NOTE] if used_negative else []
    return Report(
        claim=identity.value,
        tag="chebyshev-identity",
        status="PASS",
        params={"checked": checked, "skipped": skipped, "max_index": max_index},
        notes=notes,
    )

