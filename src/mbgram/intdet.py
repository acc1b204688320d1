"""Exact determinants: one fraction-free elimination, one modular path.

  * bareiss_int: fraction-free elimination with row pivoting.  Every
    interior division is exact (Sylvester's identity), so it is exact
    for any size and over any ring whose // is exact division; gram
    uses it over Z[d, w, x, y, z] as well.  Intermediate growth makes it
    slow on integer matrices past roughly 40x40.

  * crt_det: evaluate the determinant modulo enough 31-bit primes to
    exceed twice the Hadamard bound, with numpy int64 elimination batched
    across all primes at once, then recombine by the Chinese remainder
    theorem.  Requires the input entries to fit int64; falls back to
    bareiss_int otherwise.

int_det picks between them by size.  The test suite cross-checks them.
"""

from __future__ import annotations

from math import isqrt, prod

import numpy as np

_INT64_SAFE = 2 ** 62  # entries must stay clear of int64 limits
_CRT_MIN_SIZE = 24     # below this, plain Bareiss wins

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin for p < 3.3e24 (we only need ~2^31)."""
    if p < 2:
        return False
    for q in _MR_BASES:
        if p % q == 0:
            return p == q
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def _primes_descending(start: int, count: int) -> list:
    out = []
    c = start if start % 2 else start - 1
    while len(out) < count:
        if _is_prime(c):
            out.append(c)
        c -= 2
    return out


def hadamard_bound(rows: list) -> int:
    """Integer upper bound on |det| (product of row Euclidean norms)."""
    prod_sq = 1
    for row in rows:
        s = sum(v * v for v in row)
        if s == 0:
            return 0
        prod_sq *= s
    return isqrt(prod_sq) + 1


def bareiss_int(rows: list):
    """Fraction-free elimination with row pivoting; exact for any size.

    Entries may come from any ring whose // is exact division (int,
    Polynomial); an empty matrix gives 1 and a singular one 0.
    """
    m = [list(r) for r in rows]
    n = len(m)
    if n == 0:
        return 1
    if any(len(r) != n for r in m):
        raise ValueError("matrix must be square")
    if n == 1:
        return m[0][0]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[k][k]
        for i in range(k + 1, n):
            mik = m[i][k]
            row_i = m[i]
            row_k = m[k]
            for j in range(k + 1, n):
                row_i[j] = (pivot * row_i[j] - mik * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    return m[n - 1][n - 1] if sign > 0 else -m[n - 1][n - 1]


def _dets_mod_batched(a: np.ndarray, primes: list) -> list:
    """Determinant residues for all primes at once, with row pivoting.

    A prime whose pivot is zero swaps in its first row below with a
    nonzero entry in that column.  If there is none, its pivot stays
    zero: the residue becomes 0 and, as pow(0, p - 2, p) == 0, its
    elimination step changes nothing.
    """
    parr = np.array(primes, dtype=np.int64)
    m = np.mod(a[None, :, :], parr[:, None, None])
    n = a.shape[0]
    dets = np.ones(len(primes), dtype=np.int64)
    for k in range(n):
        piv = m[:, k, k]
        zero = piv == 0
        if zero.any():
            sel = np.flatnonzero(zero)
            below = k + np.argmax(m[sel, k:, k] != 0, axis=1)
            row_k = m[sel, k].copy()
            m[sel, k] = m[sel, below]
            m[sel, below] = row_k
            flip = sel[below != k]
            dets[flip] = parr[flip] - dets[flip]
            piv = m[:, k, k]
        dets = dets * piv % parr
        if k + 1 < n:
            inv = np.array([pow(int(v), int(p) - 2, int(p))
                            for v, p in zip(piv, parr)], dtype=np.int64)
            f = m[:, k + 1:, k] * inv[:, None] % parr[:, None]
            m[:, k + 1:, k:] = (m[:, k + 1:, k:]
                                - f[:, :, None] * m[:, k, None, k:]) % parr[:, None, None]
    return [int(d) for d in dets]


def _crt(residues: list, primes: list) -> int:
    x = 0
    modulus = 1
    for r, p in zip(residues, primes):
        delta = (r - x) % p
        delta = delta * pow(modulus % p, p - 2, p) % p
        x += modulus * delta
        modulus *= p
    if x > modulus // 2:
        x -= modulus
    return x


def crt_det(rows: list) -> int:
    """Exact determinant via residues modulo 31-bit primes."""
    n = len(rows)
    if n == 0:
        return 1
    bound = hadamard_bound(rows)
    if bound == 0:
        return 0
    if max(abs(v) for row in rows for v in row) >= _INT64_SAFE:
        return bareiss_int(rows)
    # product of primes must exceed 2 * bound
    target_bits = bound.bit_length() + 2
    count = target_bits // 30 + 1
    primes = _primes_descending(2 ** 31, count)
    while prod(primes) <= 2 * bound:
        primes += _primes_descending(primes[-1] - 2, 1)
    a = np.array(rows, dtype=np.int64)
    residues = _dets_mod_batched(a, primes)
    return _crt(residues, primes)


def int_det(rows: list) -> int:
    """Exact integer determinant; backend chosen by size."""
    n = len(rows)
    if n < _CRT_MIN_SIZE:
        return bareiss_int(rows)
    return crt_det(rows)
