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
alone, so the same code runs in three rings:

  * the expansion (_Expansion): Z[d] itself, both sides expanded and
    compared term by term;
  * norms (_Norm): each polynomial p stands for a bound on its l1 norm
    ||p||_1, the sum of its coefficients' absolute values, on its degree,
    and for a 2-bit mask of the degree parities p may hold (bit 0 even,
    bit 1 odd).  The l1 norm is subadditive and submultiplicative, so + and
    - both add the bounds and * multiplies them.  A generator's mask is
    read off its own exponents (the zero polynomial S_(-1) gets the empty
    mask 0), a nonzero int is even and d is odd; + and - join the masks,
    and * combines them by the 16-entry table _PARITY_PRODUCT;
  * images: each polynomial p stands for the int p(d0), with d0 = 2^(4 nb)
    and B = d0^2 = 2^(8 nb).

One Kronecker point decides each check (von zur Gathen & Gerhard, Modern
Computer Algebra, 8.4), applied to d^2.  A first pass evaluates the
builders in norms over the run's tuples, skipped ones excluded, and takes
bound, the largest ||lhs||_1 + ||rhs||_1 bound among them (and among the
norms of the generators, so that every coefficient of theirs fits a
slot), and nb, the fewest whole bytes with B > 2 bound.  The same pass
proves that every tuple's mask of lhs joined with rhs has at most one
bit, and so has every generator's mask: each side, and each generator,
is then d^r q(d^2) for its parity r.  Each T_k and S_k the run uses is
packed once by polynomial._to_int into d0^r q(B), from its coefficients
[r::2] with r the parity its mask proves, so that every image holds
deg // 2 + 1 slots; the parity sums are differences of prefix sums of
those images.  Evaluation at d0 is a ring homomorphism Z[d] -> Z, so a
builder evaluated on the images and on d0 for d returns lhs(d0) and
rhs(d0), and the check compares two ints.  The step is exact: lhs - rhs
= d^r q(d^2), so (lhs - rhs)(d0) = d0^r q(B), and every coefficient c_k
of q is a coefficient of lhs - rhs, with |c_k| <= ||lhs - rhs||_1 <=
||lhs||_1 + ||rhs||_1 <= bound < B/2.  The c_k are thus the balanced
base-B digits (|digit| < B/2) of q(B) = sum c_k B^k, and balanced digits
are unique (polynomial._balanced_digits).  Hence lhs(d0) = rhs(d0), for
which q(B) = 0 has only zero digits, forces lhs = rhs; the converse
holds as evaluation is a homomorphism.  With mixed parity the step
fails, d^2 - d0 d vanishes at d0, so the point is taken only when the
first pass proves the parities, never from a polynomial's degree.

Three cases stay on the expansion.  A run the first pass cannot prove of
one parity: every generator T_n and S_n, d and every int have one, and
each builder joins terms of equal parity only, so only a generator
replaced by one of mixed parity reaches it.  A run whose largest image,
deg // 2 + 1 slots of nb bytes with deg the largest degree bound of the
first pass, would reach polynomial.DECIMAL_MIN_BITS: past that measured
crossover the expansion multiplies through Decimal, and the Python-int
images are the slower route: Cor2_4a, Cor2_4b and Cor2_6 at their
defaults, whose images at B took 0.61 and 2.7 s for Cor2_4a and Cor2_6
against 0.10 and 0.13 s expanded (2-vCPU Xeon VM).  And a FAIL, which
rebuilds its one tuple by expansion to give its witness.

functools caches hold the generated polynomials and, for the expansion,
the running power-of-two product of T's.  The packed generators, their
norms and the parity prefix sums belong to the run's ring and go with it.
"""

from __future__ import annotations

import itertools
from enum import Enum
from functools import cache, lru_cache
from math import prod
from typing import Callable, Iterable, Sequence

from mbgram.errors import BoundExceededError
from mbgram.polynomial import DECIMAL_MIN_BITS, Polynomial, _to_int
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


# _PARITY_PRODUCT[a << 2 | b]: the degree parities a product may hold when
# its factors may hold those of the masks a and b (bit 0 even, bit 1 odd)
_PARITY_PRODUCT = (0, 0, 0, 0,  0, 1, 2, 3,  0, 2, 1, 3,  0, 3, 3, 3)


class _Norm:
    """A bound on a polynomial in d: its l1 norm is at most `norm`, its
    degree at most `deg`, and its degrees have only the parities of the
    mask `par` (bit 0 even, bit 1 odd).  Sums and differences add the
    norms and join the masks, products multiply the norms and combine the
    masks by _PARITY_PRODUCT; an int c is bounded by (|c|, 0), even unless
    it is 0."""

    __slots__ = ("norm", "deg", "par")

    def __init__(self, norm: int, deg: int, par: int):
        self.norm = norm
        self.deg = deg
        self.par = par

    def __add__(self, other):
        if isinstance(other, int):
            return _Norm(self.norm + abs(other), self.deg, self.par | (other != 0))
        return _Norm(self.norm + other.norm, max(self.deg, other.deg), self.par | other.par)

    __radd__ = __sub__ = __rsub__ = __add__

    def __mul__(self, other):
        if isinstance(other, int):
            return _Norm(self.norm * abs(other), self.deg, self.par if other else 0)
        return _Norm(self.norm * other.norm, self.deg + other.deg,
                     _PARITY_PRODUCT[self.par << 2 | other.par])

    __rmul__ = __mul__


def _norm_of(p: Polynomial) -> _Norm:
    """p's l1 norm, degree and the parities of its own exponents."""
    par = 0
    for e in p.terms:
        par |= 1 << (e[0] & 1)
    return _Norm(sum(map(abs, p.terms.values())), max(p.degree_in("d"), 0), par)


def _dense(p: Polynomial) -> list:
    """The coefficients of a polynomial in d, by degree from 0."""
    cs = [0] * (p.degree_in("d") + 1)
    for e, c in p.terms.items():
        cs[e[0]] = c
    return cs


class _Ring:
    """One ring the identity builders evaluate in (module docstring): `d`
    is its image of the variable, `pack(build, n)` is the image of the
    generator build(n) (cheb_T or cheb_S), and each generator is packed
    once per ring."""

    def __init__(self, d, pack: Callable[[Callable, int], object]):
        self.d = d
        self._pack = pack
        self._packed: dict = {}
        # P(0), P(1), ..., grown bottom-up: a recursion on P(k - 2) would
        # pass the interpreter's recursion limit near the index bound
        self._parity_sums: list = []

    def _generator(self, build: Callable[[int], Polynomial], n: int):
        key = (build, n)
        image = self._packed.get(key)
        if image is None:
            image = self._packed[key] = self._pack(build, n)
        return image

    def T(self, n: int):
        return self._generator(cheb_T, n)

    def S(self, n: int):
        return self._generator(cheb_S, n)

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
        super().__init__(Polynomial.variable("d"), lambda build, n: build(n))

    def t_product(self, lo: int, hi: int):
        return _t_power_product(lo, hi)


@lru_cache(maxsize=1)
def _t_power_product(lo: int, hi: int) -> Polynomial:
    """prod_{i=lo}^{hi} T_{2^i} (1 when hi < lo), extending the product for
    hi - 1.  The identity loop walks hi upward, so the one cached entry is
    the previous prefix."""
    if hi < lo:
        return Polynomial.one()
    return _t_power_product(lo, hi - 1) * cheb_T(2 ** hi)


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
    # the product first: its multiply then runs before S_(2^k - 1) is held
    product = r.t_product(0, k - 1)
    return r.S(2 ** k - 1), product, False


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
    """The ring a run compares its sides in: the images at the Kronecker
    point d0 = 2^(4 nb) sized by the run's norm bound, when the first pass
    proves one degree parity per side and per generator and those images
    stay below DECIMAL_MIN_BITS; else the expansion (module docstring)."""
    norms = _Ring(_Norm(1, 1, 2), lambda build, n: _norm_of(build(n)))
    bound = deg = 0
    one_parity = True
    for tup in tuples:
        lhs, rhs, _ = builder(norms, *tup)
        bound = max(bound, lhs.norm + rhs.norm)
        deg = max(deg, lhs.deg, rhs.deg)
        one_parity = one_parity and lhs.par | rhs.par != 3
    generators = norms._packed
    # a generator multiplied by S_(-1) = 0 counts in no side's bound; its
    # coefficients must still fit the slots _to_int packs them into
    bound = max([bound, *(g.norm for g in generators.values())])
    one_parity = one_parity and all(g.par != 3 for g in generators.values())
    nb = ((2 * bound).bit_length() + 7) // 8  # the fewest bytes with 2^(8 nb) > 2 bound
    if not one_parity or (deg // 2 + 1) * 8 * nb >= DECIMAL_MIN_BITS:
        return _Expansion()

    def pack(build, n):
        # d0^r q(B) for the generator d^r q(d^2), r its parity in the first pass
        r = generators[build, n].par >> 1
        return _to_int(_dense(build(n))[r::2], nb) << 4 * nb * r

    return _Ring(1 << 4 * nb, pack)


def verify_identity(identity: IdentityId, params: Iterable[Sequence[int]] | None = None,
                    max_index: int | None = None) -> Report:
    """Check one identity over a parameter range, exactly.

    `params` is an iterable of parameter tuples; when omitted, every tuple
    from the identity's minimum up to `max_index` (default: the identity's
    registry maximum) is checked.  Out-of-domain tuples (below the
    identity's minimum indices) are skipped and counted.  Mismatches
    become FAIL entries carrying both differing polynomials; nothing is
    raised, but a range whose reach at `max_index` passes the generator
    bound raises BoundExceededError before any polynomial is built, and a
    tuple of the wrong length raises ValueError before any is checked.
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
