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
run through the one loop in verify_identity; failures are reported,
never raised.  Each builder is written once over a ring r (_Ring), from
the generators r.T(n) and r.S(n), the variable r.d, the parity sums
r.s_sum(lo, hi) = S_lo + S_(lo+2) + ... + S_hi and the power products
r.t_product(lo, hi) = T_(2^lo) T_(2^(lo+1)) ... T_(2^hi), with +, - and *
alone, so the same code runs in three rings: the expansion (_Expansion),
Z[d] itself; the images in t (_Image); and their norms (_Norm).

The substitution d = t + 1/t (the z + 1/z of Mason & Handscomb, Chebyshev
Polynomials (2003), ch. 1; the Kauffman bracket's d = -A^2 - A^-2) is a
ring map phi: Z[d] -> Z[t, 1/t], injective as the top term of phi(p) is
lc(p) t^deg(p).  By induction on the recurrence, phi(T_n) = t^n + t^-n
(n >= 1) and phi(S_n) = t^n + t^(n-2) + ... + t^-n (n >= 0), of l1 norms
2 and n + 1, and phi(p)'s exponents have the parity of p's degrees.  So
the generators' images (_images) are closed forms, which never read the
generated coefficients; the test suite links the two.

One point decides each check (von zur Gathen & Gerhard, Modern Computer
Algebra, 8.4), applied to t^2.  A first pass evaluates the builders in
norms over the run's tuples, skipped ones excluded, and takes bound, the
largest ||phi(lhs)||_1 + ||phi(rhs)||_1 bound among them, and w, the
fewest bits (at least one) with B > 2 bound.  The same pass proves that
every tuple's mask of lhs joined with rhs has at most one bit; then, as
+ joins masks and a mixed factor keeps a product mixed, so has every
mask inside a side, and each sum inside it adds a zero term or two whose
offsets have the parity of their degrees, one parity.  The step is
exact: moved to one offset s, t^s (phi(lhs) - phi(rhs)) = q(t^2), and
every coefficient c_k of q is one of phi(lhs) - phi(rhs), with |c_k| <=
||phi(lhs)||_1 + ||phi(rhs)||_1 <= bound < B/2.  The c_k are thus the
balanced base-B digits (|digit| < B/2) of q(B), and balanced digits are
unique (gram._balanced_digits).  Equal values, q(B) = 0, thus force
phi(lhs) = phi(rhs), so lhs = rhs as phi is injective; the converse
holds as phi and evaluation are homomorphisms.

A run the first pass cannot prove of one parity is expanded (each
builder joins terms of equal parity only, so only a planted term of the
other parity does that), and a FAIL rebuilds its one tuple by expansion
for its witness.  functools caches hold the generated polynomials; the
generators' images and norms and the parity prefix sums belong to the
run's ring and go with it.
"""

from __future__ import annotations

import itertools
from enum import Enum
from functools import cache
from math import prod
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


def _check_index(n: int) -> None:
    if abs(n) > DEFAULT_BOUND:
        raise BoundExceededError(f"|{n}| exceeds Chebyshev index bound {DEFAULT_BOUND}")


def cheb_T(n: int) -> Polynomial:
    """First-kind polynomial T_n; T_{-n} = T_n."""
    _check_index(n)
    return _closed_form(_t_coeffs, abs(n))


def cheb_S(n: int) -> Polynomial:
    """Second-kind polynomial S_n; S_{-1} = 0 and S_{-n} = -S_{n-2}."""
    _check_index(n)
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


# _PARITY_PRODUCT[a << 2 | b]: the degree parities a product may hold when
# its factors may hold those of the masks a and b (bit 0 even, bit 1 odd).
# A mixed factor (3) keeps the product mixed even beside a zero factor (0),
# so that no sum of two parities inside a side hides from its mask
_PARITY_PRODUCT = (0, 0, 0, 3,  0, 1, 2, 3,  0, 2, 1, 3,  3, 3, 3, 3)


class _Norm:
    """A bound on a polynomial p in d: ||phi(p)||_1 is at most `norm`, and
    p's degrees have only the parities of the mask `par` (bit 0 even, bit
    1 odd).  The l1 norm is subadditive and submultiplicative, so sums and
    differences add the norms and join the masks, and products multiply
    the norms and combine the masks by _PARITY_PRODUCT; an int c is
    bounded by |c| and is even unless it is 0, and d by 2, odd."""

    __slots__ = ("norm", "par")

    def __init__(self, norm: int, par: int):
        self.norm, self.par = norm, par

    def __add__(self, other):
        if isinstance(other, int):
            return _Norm(self.norm + abs(other), self.par | (other != 0))
        return _Norm(self.norm + other.norm, self.par | other.par)

    __radd__ = __sub__ = __rsub__ = __add__

    def __mul__(self, other):
        if isinstance(other, int):
            return _Norm(self.norm * abs(other), _PARITY_PRODUCT[self.par << 2 | (other != 0)])
        return _Norm(self.norm * other.norm, _PARITY_PRODUCT[self.par << 2 | other.par])

    __rmul__ = __mul__


class _Image:
    """phi(p) = t^-offset Q(t^2) for a polynomial p in d, held as value =
    Q(B), B = 2^w; an int c is (c, 0).  A product multiplies the values and
    adds the offsets; a sum drops a zero term, and moves the other term of
    the smaller offset up by w (difference / 2) bits (module docstring)."""

    __slots__ = ("value", "offset", "w")

    def __init__(self, value: int, offset: int, w: int):
        self.value, self.offset, self.w = value, offset, w

    def __add__(self, other):
        if isinstance(other, int):
            other = _Image(other, 0, self.w)
        if not other.value:
            return self
        if not self.value:
            return other
        hi, lo = (self, other) if self.offset >= other.offset else (other, self)
        return _Image(hi.value + (lo.value << self.w * ((hi.offset - lo.offset) // 2)),
                      hi.offset, self.w)

    __radd__ = __add__

    def __neg__(self):
        return _Image(-self.value, self.offset, self.w)

    def __sub__(self, other):
        return self + -other

    def __mul__(self, other):
        if isinstance(other, int):
            return _Image(self.value * other, self.offset, self.w)
        return _Image(self.value * other.value, self.offset + other.offset, self.w)

    __rmul__ = __mul__

    def __eq__(self, other):
        return not (self - other).value


class _Ring:
    """One ring the identity builders evaluate in (module docstring): `d`
    is its image of the variable, and `first(n)` and `second(n)` make the
    images of T_n and S_n, once per ring and within the index bound."""

    def __init__(self, d, first: Callable[[int], object], second: Callable[[int], object]):
        self.d = d
        self._first, self._second = first, second
        self._generators: dict = {}
        # P(0), P(1), ..., grown bottom-up: a recursion on P(k - 2) would
        # pass the interpreter's recursion limit near the index bound
        self._parity_sums: list = []

    def _generator(self, make: Callable[[int], object], n: int):
        key = (make, n)
        image = self._generators.get(key)
        if image is None:
            _check_index(n)
            image = self._generators[key] = make(n)
        return image

    def T(self, n: int):
        return self._generator(self._first, n)

    def S(self, n: int):
        return self._generator(self._second, n)

    def s_sum(self, lo: int, hi: int):
        """S_lo + S_(lo+2) + ... + S_hi, for lo <= hi of equal parity."""
        return self._parity_sum(hi) - self._parity_sum(lo - 2)

    def _parity_sum(self, k: int):
        """P(k) = S_k + S_(k-2) + ... down to S_0 or S_1; zero for k < 0."""
        if k < 0:
            return 0
        sums = self._parity_sums
        while len(sums) <= k:
            i = len(sums)
            sums.append(self._parity_sum(i - 2) + self.S(i))
        return sums[k]

    def t_product(self, lo: int, hi: int):
        """prod_{i=lo}^{hi} T_{2^i} (1 when hi < lo)."""
        return prod((self.T(2 ** i) for i in range(lo, hi + 1)), start=1)


class _Expansion(_Ring):
    """Z[d]: the builders' sides as expanded polynomials."""

    def __init__(self):
        super().__init__(Polynomial.variable("d"), cheb_T, cheb_S)


def _norms() -> _Ring:
    """The first pass's ring: T_n's l1 norm in t is 2 and S_n's |n + 1|,
    and the mask is the index's parity (empty for S_(-1) = 0)."""
    return _Ring(_Norm(2, 2), lambda n: _Norm(2, 1 << (n & 1)),
                 lambda n: _Norm(abs(n + 1), (n != -1) << (n & 1)))


def _images(w: int) -> _Ring:
    """The images at t^2 = B = 2^w, w >= 1: T_n is (B^|n| + 1, |n|), S_n is
    ((B^(n+1) - 1) / (B - 1), n), S_(-1) is 0 and S_(-n) is -S_(n-2), and d
    is (B + 1, 1)."""

    def first(n):
        return _Image((1 << w * abs(n)) + 1, abs(n), w)

    def second(n):
        if n < 0:
            return -second(-n - 2) if n < -1 else _Image(0, 0, w)
        return _Image(((1 << w * (n + 1)) - 1) // ((1 << w) - 1), n, w)

    return _Ring(_Image((1 << w) + 1, 1, w), first, second)


def _d2m4(d=Polynomial.variable("d")):
    return d * d - 4


# each identity builder takes a ring and returns (lhs, rhs, uses_negative_index)

def _build_prod_to_sum_t(r: _Ring, m: int, n: int):
    return r.T(m) * r.T(n), r.T(m + n) + r.T(abs(m - n)), False


def _build_prod_to_sum_s(r: _Ring, m: int, n: int):
    return r.S(n) * r.S(m), r.s_sum(abs(n - m), n + m), False


def _build_s_prod_recur(r: _Ring, m: int, n: int):
    # at m = 0 or n = 0 the product on the right holds S_(-1) = 0
    return r.S(n) * r.S(m), r.S(m - 1) * r.S(n - 1) + r.S(n + m), (m == 0 or n == 0)


def _build_lemma_2_3a(r: _Ring, n: int):
    tn2 = r.T(n) * r.T(n)
    return r.T(4 * n) - 2, tn2 * (tn2 - 4), False


def _build_lemma_2_3b(r: _Ring, n: int):
    return r.T(2 * n) - 2, r.T(n) * r.T(n) - 4, False


def _build_cor_2_4a(r: _Ring, n: int):
    t = r.T(2 ** n)
    t2 = r.T(2)
    p = r.t_product(1, n - 1)
    return t * t - 4, (t2 * t2 - 4) * (p * p), False


def _build_cor_2_4b(r: _Ring, n: int):
    t1 = r.T(1)
    p = r.t_product(0, n - 2)
    return r.T(2 ** n) - 2, (t1 * t1 - 4) * (p * p), False


def _build_lemma_2_5(r: _Ring, n: int):
    s = r.S(n - 1)
    return r.T(n) * r.T(n) - 4, _d2m4(r.d) * s * s, (n == 0)


def _build_cor_2_6(r: _Ring, k: int):
    return r.S(2 ** k - 1), r.t_product(0, k - 1), False


def _build_t_sq_bridge(r: _Ring, n: int):
    lhs = r.T(n) * r.T(n) - r.d * r.d
    return lhs, r.S(n) * r.S(n - 2) * _d2m4(r.d), (n <= 1)


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


def _comparison_ring(builder: Callable, tuples: list) -> _Ring:
    """The ring a run compares its sides in: the images at t^2 = B = 2^w,
    B the first power of two above twice the run's norm bound, when the
    first pass proves one degree parity per side; else the expansion
    (module docstring)."""
    norms = _norms()
    sides = [builder(norms, *tup)[:2] for tup in tuples]
    if any(lhs.par | rhs.par == 3 for lhs, rhs in sides):
        return _Expansion()
    bound = max((lhs.norm + rhs.norm for lhs, rhs in sides), default=0)
    return _images(max((2 * bound).bit_length(), 1))


def verify_identity(identity: IdentityId, params: Iterable[Sequence[int]] | None = None,
                    max_index: int | None = None) -> Report:
    """Check one identity over a parameter range, exactly.

    `params` is an iterable of parameter tuples; when omitted, every tuple
    from the identity's minimum up to `max_index` (default: the identity's
    registry maximum) is checked.  Out-of-domain tuples (below the
    identity's minimum indices) are skipped and counted.  Mismatches
    become FAIL entries carrying both differing polynomials; nothing is
    raised, but a range whose reach at `max_index` passes the generator
    bound raises BoundExceededError before any polynomial is built, a
    tuple that passes it raises it, and a tuple of the wrong length
    ValueError, before any tuple is checked.
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
    # in order, with None for each tuple below the identity's minima
    tuples = []
    for tup in params:
        tup = tuple(tup)
        if len(tup) != arity:
            raise ValueError(f"{identity.value} takes {arity} parameter(s), got {tup}")
        tuples.append(None if any(t < lo for t, lo in zip(tup, minima)) else tup)
    ring = _comparison_ring(builder, [tup for tup in tuples if tup is not None])
    checked = 0
    skipped = 0
    used_negative = False
    for tup in tuples:
        if tup is None:
            skipped += 1
            continue
        lhs, rhs, negative = builder(ring, *tup)
        used_negative = used_negative or negative
        if lhs != rhs:
            lhs, rhs, _ = builder(_Expansion(), *tup)
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
