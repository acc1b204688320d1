"""Exact sparse polynomial arithmetic over Z[d, w, x, y, z].

A polynomial is a map from exponent vectors to big-integer coefficients:

    terms = {(e_d, e_w, e_x, e_y, e_z): coefficient, ...}

Zero coefficients are never stored, so structural equality of the term
maps is polynomial equality.  The variable universe is fixed to the five
symbols d, w, x, y, z with the total order d < w < x < y < z.  Monomials
are ordered graded-lexicographically: first by total degree, ties broken
by comparing the exponent vector (d most significant).  Serialization
lists terms in descending canonical order (leading term first), as

    [[coef, e_d, e_w, e_x, e_y, e_z], ...]

inside a versioned JSON envelope.  All coefficients are Python ints, so
nothing ever overflows.

A product of two factors of two or more terms each is _sparse_product,
term pair by term pair on packed monomial keys (Monagan & Pearce, Sparse
polynomial division using a heap, J. Symbolic Comput. 46 (2011)).  A
monomial becomes one int, its exponents in bit fields, z lowest and d
highest.  Variable i's field is wide enough for 2 m_i, m_i its largest
exponent in either factor, so the sum of two exponents never carries
into the next field; a variable neither factor uses gets no field, so a
d-only key is the d-exponent itself.  Multiplying two monomials is then
one int addition, and each product term is unpacked once.  A monomial
factor scales and shifts the other's terms.

divide_exact uses the same layout with one width for every field in
use: the bit length of the largest total degree of either operand, plus
a guard bit.  Every remainder monomial has total degree at most the
dividend's, so no exponent reaches a guard bit.  The total degree sits
in a field above d's, so int order is graded-lex order, and the heap
holds negated ints.  A quotient exponent is one subtraction of keys.  If
a field of it is negative, the lowest such field gets no borrow from
below and wraps to a value with its guard bit set, and the division
returns None.  A one-term divisor divides term by term.
"""

from __future__ import annotations

from functools import lru_cache
from heapq import heapify, heappop, heappush
from itertools import accumulate
from operator import sub
from typing import Iterable, Mapping, Sequence, Union

from mbgram.errors import NonIntegralResultError

VARIABLES = ("d", "w", "x", "y", "z")
VAR_INDEX = {name: i for i, name in enumerate(VARIABLES)}
NVARS = len(VARIABLES)
ZERO_EXP = (0,) * NVARS

POLY_FORMAT = "mbgram.poly/1"

Exponents = tuple  # length-5 tuple of non-negative ints
PolyLike = Union["Polynomial", int]


def _check_var(name: str) -> int:
    try:
        return VAR_INDEX[name]
    except KeyError:
        raise ValueError(f"unknown variable {name!r}; universe is {VARIABLES}") from None


def monomial_key(exps: Exponents):
    """Canonical graded-lex sort key; the leading term has the largest key."""
    return (sum(exps), exps)


class Polynomial:
    """Immutable sparse polynomial with exact integer coefficients.

    Instances must never be mutated after construction; all operations
    return new objects, which makes values safe to share across workers.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Exponents, int] | None = None, _raw: dict | None = None):
        if _raw is not None:
            # internal fast path: caller guarantees canonical form
            self._terms = _raw
            return
        clean: dict = {}
        if terms:
            for exps, coef in terms.items():
                if coef:
                    exps = tuple(exps)
                    if len(exps) != NVARS or any(e < 0 for e in exps):
                        raise ValueError(f"bad exponent vector {exps!r}")
                    clean[exps] = clean.get(exps, 0) + coef
        self._terms = {e: c for e, c in clean.items() if c}

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls(_raw={})

    @classmethod
    def one(cls) -> "Polynomial":
        return cls(_raw={ZERO_EXP: 1})

    @classmethod
    def integer(cls, c: int) -> "Polynomial":
        return cls(_raw={ZERO_EXP: c} if c else {})

    @classmethod
    def variable(cls, name: str) -> "Polynomial":
        i = _check_var(name)
        exps = tuple(1 if j == i else 0 for j in range(NVARS))
        return cls(_raw={exps: 1})

    @classmethod
    def monomial(cls, coef: int, exps_by_var: Mapping[str, int]) -> "Polynomial":
        exps = [0] * NVARS
        for name, e in exps_by_var.items():
            if e < 0:
                raise ValueError(f"negative exponent for {name!r}")
            exps[_check_var(name)] = e
        return cls(_raw={tuple(exps): coef} if coef else {})

    @classmethod
    def univariate(cls, name: str, coeffs_by_degree: Mapping[int, int]) -> "Polynomial":
        i = _check_var(name)
        raw = {}
        for deg, c in coeffs_by_degree.items():
            if c:
                exps = [0] * NVARS
                exps[i] = deg
                raw[tuple(exps)] = c
        return cls(_raw=raw)

    # -- basic queries ----------------------------------------------------

    @property
    def terms(self) -> Mapping[Exponents, int]:
        return self._terms

    def is_zero(self) -> bool:
        return not self._terms

    def num_terms(self) -> int:
        return len(self._terms)

    def total_degree(self) -> int:
        """Max total degree over terms; -1 for the zero polynomial."""
        if not self._terms:
            return -1
        return max(sum(e) for e in self._terms)

    def degree_in(self, name: str) -> int:
        """Max exponent of one variable; -1 for the zero polynomial."""
        i = _check_var(name)
        if not self._terms:
            return -1
        return max(e[i] for e in self._terms)

    def leading_term(self) -> tuple:
        """(exps, coef) of the canonically largest monomial; p must be nonzero."""
        if not self._terms:
            raise ValueError("zero polynomial has no leading term")
        exps = max(self._terms, key=monomial_key)
        return exps, self._terms[exps]

    def sorted_terms(self) -> list:
        """Terms as (exps, coef), leading term first."""
        return sorted(self._terms.items(), key=lambda t: monomial_key(t[0]), reverse=True)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: PolyLike) -> "Polynomial":
        other = _coerce(other)
        if not self._terms:
            return other
        if not other._terms:
            return self
        out = dict(self._terms)
        for exps, coef in other._terms.items():
            s = out.get(exps, 0) + coef
            if s:
                out[exps] = s
            elif exps in out:
                del out[exps]
        return Polynomial(_raw=out)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial(_raw={e: -c for e, c in self._terms.items()})

    def __sub__(self, other: PolyLike) -> "Polynomial":
        return self + (-_coerce(other))

    def __rsub__(self, other: PolyLike) -> "Polynomial":
        return _coerce(other) + (-self)

    def __mul__(self, other: PolyLike) -> "Polynomial":
        other = _coerce(other)
        a, b = self._terms, other._terms
        if not a or not b:
            return Polynomial.zero()
        if len(a) > len(b):
            a, b = b, a
        if len(a) == 1:
            (ea, ca), = a.items()
            if ea == ZERO_EXP:
                return Polynomial(_raw={e: ca * c for e, c in b.items()})
            return Polynomial(_raw={
                (ea[0] + e[0], ea[1] + e[1], ea[2] + e[2], ea[3] + e[3], ea[4] + e[4]): ca * c
                for e, c in b.items()
            })
        return Polynomial(_raw=_sparse_product(a, b))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Polynomial":
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = Polynomial.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            return self._terms == ({ZERO_EXP: other} if other else {})
        if isinstance(other, Polynomial):
            return self._terms == other._terms
        return NotImplemented

    __hash__ = None  # mutable-dict backed; never use as a mapping key

    def __bool__(self) -> bool:
        return bool(self._terms)

    # -- substitution and evaluation ----------------------------------------

    def substitute(self, bindings: Mapping[str, PolyLike]) -> "Polynomial":
        """Simultaneously substitute polynomials (or ints) for variables.

        Unbound variables are left untouched.
        """
        if not bindings:
            return self
        subs = {_check_var(name): _coerce(val) for name, val in bindings.items()}
        result = Polynomial.zero()
        for exps, coef in self._terms.items():
            residual = list(exps)
            factor = Polynomial.integer(coef)
            for i, repl in subs.items():
                e = exps[i]
                if e:
                    residual[i] = 0
                    factor = factor * repl ** e
                    if factor.is_zero():
                        break
            if factor.is_zero():
                continue
            result = result + factor * Polynomial(_raw={tuple(residual): 1})
        return result

    def evaluate(self, point: Mapping[str, int]) -> int:
        """Evaluate at an integer point; every used variable must be bound."""
        vals = [None] * NVARS
        for name, v in point.items():
            vals[_check_var(name)] = v
        total = 0
        for exps, coef in self._terms.items():
            term = coef
            for i, e in enumerate(exps):
                if e:
                    if vals[i] is None:
                        raise ValueError(f"variable {VARIABLES[i]!r} unbound in evaluation")
                    term *= vals[i] ** e
            total += term
        return total

    def eval_var(self, name: str, value: int) -> "Polynomial":
        """Partially evaluate one variable at an integer, keeping the rest."""
        return self.substitute({name: value})

    # -- exact division ------------------------------------------------------

    def divide_exact(self, divisor: "Polynomial") -> "Polynomial | None":
        """Return q with divisor * q == self, or None when not divisible.

        Long division with respect to the canonical monomial order on
        packed keys (module docstring): the remainder's leading term comes
        off a heap of negated keys, a guard bit per field shows a negative
        quotient exponent, and the remainder must come out zero.  Raises
        ZeroDivisionError for a zero divisor.
        """
        divisor = _coerce(divisor)
        if divisor.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero():
            return Polynomial.zero()
        if len(divisor._terms) == 1:
            return self._divide_by_monomial(*divisor._terms.items())
        both = (*self._terms, *divisor._terms)
        # every remainder monomial has total degree <= the dividend's, so a
        # field this wide holds any exponent that occurs below its guard bit
        width = max(map(sum, both)).bit_length() + 1
        shifts, masks, top, guards = _layout(tuple(width if m else 0
                                                   for m in map(max, zip(*both))))
        packed = dict(zip(_graded_keys(divisor._terms, shifts, top), divisor._terms.values()))
        lead = max(packed)
        lead_coef = packed.pop(lead)
        tail = [(k, -c) for k, c in packed.items()]
        remainder = dict(zip(_graded_keys(self._terms, shifts, top), self._terms.values()))
        get = remainder.get
        heap = [-k for k in remainder]
        heapify(heap)
        quotient: dict = {}
        while heap:
            r = -heappop(heap)
            r_coef = remainder.pop(r)  # every key is pushed once, when it enters
            if not r_coef:
                continue
            q = r - lead
            if q & guards or r_coef % lead_coef:
                return None
            q_coef = r_coef // lead_coef
            quotient[q] = q_coef
            # the leading term cancels r exactly; only the tail is left
            for t, coef in tail:
                k = q + t
                old = get(k)
                if old is None:
                    remainder[k] = q_coef * coef
                    heappush(heap, -k)
                else:
                    remainder[k] = old + q_coef * coef
        return Polynomial(_raw=_unpacked_terms(quotient, shifts, masks))

    def _divide_by_monomial(self, term: tuple) -> "Polynomial | None":
        """divide_exact for a one-term divisor: term by term."""
        exps, coef = term
        if any(c % coef for c in self._terms.values()):
            return None
        if exps == ZERO_EXP:
            return Polynomial(_raw={e: c // coef for e, c in self._terms.items()})
        quotient = {tuple(map(sub, e, exps)): c // coef for e, c in self._terms.items()}
        return None if min(map(min, quotient)) < 0 else Polynomial(_raw=quotient)

    def __floordiv__(self, divisor: PolyLike) -> "Polynomial":
        """Exact quotient; raises ArithmeticError when a remainder is left."""
        quotient = self.divide_exact(divisor)
        if quotient is None:
            raise ArithmeticError(f"{divisor} does not divide {self}")
        return quotient

    # -- serialization ---------------------------------------------------------

    def to_terms_obj(self) -> list:
        """JSON-ready term list [[coef, e_d, e_w, e_x, e_y, e_z], ...]."""
        return [[coef, *exps] for exps, coef in self.sorted_terms()]

    @classmethod
    def from_terms_obj(cls, obj: Iterable[Sequence[int]]) -> "Polynomial":
        """Inverse of to_terms_obj, dropping zero coefficients; a row not of
        NVARS + 1 ints, a negative exponent or a repeated monomial raises
        ValueError (a cache digest proves a payload intact, not valid)."""
        raw = {}
        for row in obj:
            exps = tuple(row[1:])
            if (len(row) != NVARS + 1 or any(type(v) is not int for v in row)
                    or min(exps) < 0 or exps in raw):
                raise ValueError(f"term row must be {NVARS + 1} ints, exponents "
                                 f"nonnegative and not repeated: {row!r}")
            raw[exps] = row[0]
        return cls(_raw={exps: coef for exps, coef in raw.items() if coef})

    def to_json_obj(self) -> dict:
        return {"format": POLY_FORMAT, "terms": self.to_terms_obj()}

    @classmethod
    def from_json_obj(cls, obj: Mapping) -> "Polynomial":
        if obj.get("format") != POLY_FORMAT:
            raise ValueError(f"unsupported polynomial envelope: {obj.get('format')!r}")
        return cls.from_terms_obj(obj["terms"])

    # -- display -----------------------------------------------------------------

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for exps, coef in self.sorted_terms():
            factors = []
            for i, e in enumerate(exps):
                if e == 1:
                    factors.append(VARIABLES[i])
                elif e > 1:
                    factors.append(f"{VARIABLES[i]}^{e}")
            body = "*".join(factors)
            if not body:
                mag = str(abs(coef))
            elif abs(coef) == 1:
                mag = body
            else:
                mag = f"{abs(coef)}*{body}"
            if not parts:
                parts.append(mag if coef > 0 else f"-{mag}")
            else:
                parts.append(f"+ {mag}" if coef > 0 else f"- {mag}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"Polynomial({self})"


def _coerce(value: PolyLike) -> Polynomial:
    if isinstance(value, Polynomial):
        return value
    if isinstance(value, int):
        return Polynomial.integer(value)
    raise TypeError(f"cannot coerce {type(value).__name__} to Polynomial")


# -- products --------------------------------------------------------------------


def _sparse_product(a: dict, b: dict) -> dict:
    """Terms of a * b, term pair by term pair on packed monomial keys.

    Field i holds 2 m_i, m_i the largest exponent of variable i in either
    factor, so no sum of two exponents carries into the next field and one
    int addition multiplies two monomials.
    """
    if not a or not b:
        return {}
    shifts, masks, _, _ = _layout(tuple((2 * m).bit_length() for m in map(max, zip(*a, *b))))
    out: dict = {}
    get = out.get
    pb = list(zip(_packed_keys(b, shifts), b.values()))
    for ka, ca in zip(_packed_keys(a, shifts), a.values()):
        for kb, cb in pb:
            k = ka + kb
            v = get(k)
            out[k] = ca * cb if v is None else v + ca * cb
    return _unpacked_terms(out, shifts, masks)


@lru_cache(maxsize=256)  # a few dozen layouts occur in a run
def _layout(widths: tuple) -> tuple:
    """(shifts, masks, top, guards) of the fields of the given bit widths,
    one per variable, z lowest: top is the shift just above d's field, and
    guards has the highest bit of every field set."""
    ends = tuple(accumulate(reversed(widths), initial=0))
    shifts = ends[NVARS - 1::-1]
    guards = sum(1 << (s + w - 1) for s, w in zip(shifts, widths) if w)
    return shifts, tuple((1 << w) - 1 for w in widths), ends[NVARS], guards


def _packed_keys(terms, shifts: tuple) -> list:
    """Each monomial's exponents shifted into their fields, summed."""
    sd, sw, sx, sy, _ = shifts
    return [(d << sd) + (w << sw) + (x << sx) + (y << sy) + z for d, w, x, y, z in terms]


def _graded_keys(terms, shifts: tuple, top: int) -> list:
    """_packed_keys with the total degree above top: int order is graded-lex order."""
    return [k + (t << top) for k, t in zip(_packed_keys(terms, shifts), map(sum, terms))]


def _unpacked_terms(packed: dict, shifts: tuple, masks: tuple) -> dict:
    """The term map of packed keys, zero coefficients dropped."""
    sd, sw, sx, sy, _ = shifts
    md, mw, mx, my, mz = masks
    return {(k >> sd & md, k >> sw & mw, k >> sx & mx, k >> sy & my, k & mz): c
            for k, c in packed.items() if c}


# -- interpolation ------------------------------------------------------------


def interpolate(var: str, points: Sequence[tuple]) -> Polynomial:
    """Reconstruct a polynomial in `var` from (abscissa, value) samples.

    Values are Polynomials (or ints) in the remaining variables.  Newton
    divided differences are taken in the ring itself, each step an exact
    division by an abscissa difference, and the Newton form is expanded
    by Horner's rule; the result of degree < len(points) is unique.  An
    integer polynomial sampled at integer abscissae has integral divided
    differences, so an inexact step means no integer polynomial of that
    degree fits the samples and raises NonIntegralResultError (the classic
    symptom of a degree bound that was too small upstream).
    """
    if not points:
        raise ValueError("need at least one interpolation point")
    xs = [int(t) for t, _ in points]
    if len(set(xs)) != len(xs):
        raise ValueError("interpolation abscissae must be pairwise distinct")
    table = [_coerce(val) for _, val in points]
    if any(v.degree_in(var) > 0 for v in table):
        raise ValueError(f"interpolation values must not contain {var!r}")

    k = len(points)
    try:
        for level in range(1, k):
            for i in range(k - 1, level - 1, -1):
                table[i] = (table[i] - table[i - 1]) // (xs[i] - xs[i - level])
    except ArithmeticError:
        raise NonIntegralResultError(
            f"divided difference of order {level} at abscissa {xs[i]} is not "
            "integral; degree bound upstream is too small") from None

    x = Polynomial.variable(var)
    acc = table[k - 1]
    for i in range(k - 2, -1, -1):
        acc = acc * (x - xs[i]) + table[i]
    return acc
