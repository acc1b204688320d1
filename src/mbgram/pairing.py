"""Diagram pairing: glue two connections and read off the curve monomial.

Gluing a diagram m1 to the mirror of a diagram m2 along the marked
boundary produces disjoint simple closed curves; the pairing value is the
product of one variable per curve:

    d  homotopically trivial curve
    z  essential curve avoiding both crosscaps
    x  curve through the m1 crosscap only
    y  curve through the m2 crosscap only
    w  curve through both crosscaps

Each diagram has two tables, tuples indexed by the boundary vertices
1..2n (`Diagram.tables`, built by `diagrams.pairing_tables`).
partner[v] is the other end of v's chord, or v's antipodal partner when
v is a fixed point (fixed point i pairs with i + |F|/2 in increasing-label
indexing).  sweep[v] is the signed counterclockwise sweep of leaving v
along its chord: +(head - tail) mod 2n from the tail, the negative from
the head, and None at a fixed point.  The tables are built, and the
labels checked to cover 1..2n exactly once, once per diagram object and
kept on it, not once per pairing; a diagram that fails the check keeps
nothing and raises on every pairing.  After the check both partner
tables are perfect matchings, so the glued curves are the alternating
cycles of the two, and every walk that alternates m1 and m2 edges closes.

A cycle meeting fixed points of either diagram is classified by which
sides it meets (x / y / w).  A cycle of chords alone is either trivial
(d) or winds once around the band (z), told apart by its total sweep
psi: a multiple of 2n, 0 for a trivial curve and +/-2n for an essential
one.  Any other value is a hard internal error.  Reversing a walk only
negates psi, which is why <m2, m1> is <m1, m2> with x and y exchanged.

Rotation lemma: <rotate(m1), rotate(m2)> = <m1, m2>, where
diagrams.rotate turns a diagram one boundary step.  Proof: rotation
relabels every vertex v -> s(v) = v mod 2n + 1 on both sides.  A chord
(t, h) becomes (s(t), s(h)), and the sorted fixed points are shifted
cyclically (only 2n wraps round to 1), which keeps each antipodal pair
{i-th, (i + |F|/2)-th}; so each partner table is conjugated by s,
partner'[s(v)] = s(partner[v]), and each fixed point stays one.  Since
s(h) - s(t) = h - t (mod 2n), every sweep is kept, sweep'[s(v)] =
sweep[v].  So s maps each alternating cycle of (m1, m2) onto one of the
rotated pair that meets the fixed points of the same sides and sums the
same sweeps; it may start at another vertex and walk the other way, so
psi is kept up to sign, and |psi| fixes the class.  Each cycle keeps its
curve class, and the product of the classes is the same monomial.

Two walk-start conventions: `components` walks every cycle once from its
smallest vertex, out along the m1 edge; `component_walk`, which only
`pair_trace` uses, starts at the smallest m1 chord tail of a chord-only
cycle and first traverses that chord towards its head.

Batched pairing.  `pair_exponents` pairs whole lists of diagrams at
once, as numpy array operations over their stacked tables; the claims
that sweep every pair of a basis and Gram assembly use it, and the
single-pair functions above keep the walk (it also names each FAIL
witness).  It rests on this lemma: a cycle is two tau-orbits, tau =
p2 o p1, and either one classifies it.  Proof.  The walk from v_0 goes
v_k -> u_k = p1(v_k) -> v_(k+1) = p2(u_k) until v_L = v_0, so its
even-position vertices are the tau-orbit of v_0.  The partner tables
are fixed-point-free involutions, so tau(u_k) = p2(v_k) = u_(k-1): the
odd-position vertices are a tau-orbit too, walked backwards, and as the
cycle has 2L distinct vertices no orbit has more than n.  A fixed
point's partner is a fixed point of the same side, so v_k meets F(m1)
iff u_k does, and u_k meets F(m2) iff v_(k+1) does: both orbits meet
the same sides.  The walk sums psi = sum_k s1(v_k) + s2(u_k), a sum over
the even orbit of s1(v) + s2(p1(v)).  On a chord-only cycle the same sum
over the odd orbit is sum_k s1(u_k) + s2(v_k) = -sum_k s1(v_k) -
sum_k s2(u_(k-1)) = -psi, since a chord's sweep from its head is minus
the one from its tail.  So either orbit gives the same sides and |psi|,
hence the same class, and classifying a cycle needs no walk start.

The kernel takes the pairs in slices of SLICE_CELLS vertices (pairs
times 2n) and, for every vertex of every pair of a slice at once: finds
tau by one gather; finds each vertex's orbit minimum by pointer
doubling, low <- min(low, low o tau), tau <- tau o tau, ceil(log2 n)
rounds, as an orbit has at most n vertices; adds s1(v) + s2(p1(v)) and
the fixed-point weights f1(v) + (n + 1) f2(p1(v)) (at most n each) into
the orbit minima with int64 scatter-adds; keeps the orbit whose minimum
is below its p1-image's, the one holding the cycle's smallest vertex,
where `components` starts, so that tables breaking the rules above
still read as the walk reads them; classifies it from a lookup table;
and counts the classes of each pair with one integer bincount.  Nothing
is summed in floating point.  SLICE_CELLS = 2^12 was measured
in-process on a 2-vCPU Xeon VM, pairing the 15 876 pairs of the n=4
joint basis and 2 231 tilde n=5 pairs (fastest of 12, two runs):
9.4-9.5 ms at 2^11, 7.6 ms at 2^12, 7.0-7.2 ms at 2^13, 7.2-8.0 ms at
2^14 and 9.1 ms at 2^15, where the walk takes about 10 us per pair.
2^12 keeps each slice array at 32 KB, half of 2^13's, for about 7 %
more kernel time.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from mbgram.diagrams import Diagram, antipodal_pairs
from mbgram.errors import SizeMismatchError, UnclassifiableComponentError
from mbgram.polynomial import NVARS, VAR_INDEX, Polynomial

SLICE_CELLS = 2 ** 12  # vertices per slice of pair_exponents (module docstring)


class PairingGraph(NamedTuple):
    """Partner and sweep tables of both sides, indexed by vertex 1..n2."""

    n2: int
    partner1: tuple
    partner2: tuple
    sweep1: tuple
    sweep2: tuple


def build_pairing_graph(m1: Diagram, m2: Diagram) -> PairingGraph:
    """Both sides' tables; the diagrams must share a boundary size."""
    if m1.n != m2.n:
        raise SizeMismatchError(f"cannot pair n={m1.n} with n={m2.n}")
    partner1, sweep1 = m1.tables
    partner2, sweep2 = m2.tables
    return PairingGraph(2 * m1.n, partner1, partner2, sweep1, sweep2)


def components(g: PairingGraph) -> list:
    """One (vertices, meets F(m1), meets F(m2), psi) tuple per alternating cycle.

    Each cycle starts at its smallest vertex, leaves along the m1 edge and
    alternates m2/m1 edges until it closes; psi sums the sweeps of its
    chord steps.  A fixed point's partner is a fixed point of the same
    side, so one end of each edge tells whether the cycle meets F.
    """
    p1, p2, s1, s2 = g.partner1, g.partner2, g.sweep1, g.sweep2
    seen = [False] * (g.n2 + 1)
    out = []
    for start in range(1, g.n2 + 1):
        if seen[start]:
            continue
        cycle = []
        on1 = on2 = False
        psi = 0
        v = start
        while True:
            u = p1[v]
            cycle += (v, u)
            seen[v] = seen[u] = True
            if s1[v] is None:
                on1 = True
            else:
                psi += s1[v]
            if s2[u] is None:
                on2 = True
            else:
                psi += s2[u]
            v = p2[u]
            if v == start:
                break
        out.append((tuple(cycle), on1, on2, psi))
    return out


def curve_class(n2: int, on1: bool, on2: bool, psi: int) -> str:
    """The curve class of one cycle: x / y / w by fixed points, else d / z by psi."""
    if on1 and on2:
        return "w"
    if on1:
        return "x"
    if on2:
        return "y"
    if psi == 0:
        return "d"
    if psi == n2 or psi == -n2:
        return "z"
    raise UnclassifiableComponentError(f"cycle swept {psi}, expected 0 or +/-{n2}")


def component_walk(g: PairingGraph, component: tuple) -> tuple:
    """(psi, sweeps) of a chord-only cycle, walked in pair_trace's convention.

    sweeps holds one [source, start, end, sweep] entry per step.
    """
    start = min(v for v in component if g.sweep1[v] > 0)
    sweeps = []
    v, side = start, 1
    while not sweeps or v != start:
        partner, sweep = (g.partner1, g.sweep1) if side == 1 else (g.partner2, g.sweep2)
        sweeps.append([f"m{side}", v, partner[v], sweep[v]])
        v, side = partner[v], 3 - side
    return sum(step[3] for step in sweeps), sweeps


def curve_profile(m1: Diagram, m2: Diagram) -> tuple:
    """Sorted tuple of curve classes, one per glued component."""
    g = build_pairing_graph(m1, m2)
    return tuple(sorted(curve_class(g.n2, on1, on2, psi)
                        for _, on1, on2, psi in components(g)))


def bilinear_form(m1: Diagram, m2: Diagram) -> Polynomial:
    """The pairing value: a single monomial, one variable per curve."""
    g = build_pairing_graph(m1, m2)
    exps = [0] * NVARS
    for _, on1, on2, psi in components(g):
        exps[VAR_INDEX[curve_class(g.n2, on1, on2, psi)]] += 1
    return Polynomial(_raw={tuple(exps): 1})


def pair_trace(m1: Diagram, m2: Diagram) -> dict:
    """Full JSON-ready trace of one pairing, for the CLI."""
    g = build_pairing_graph(m1, m2)
    comps = []
    for vertices, on1, on2, psi in components(g):
        cls = curve_class(g.n2, on1, on2, psi)
        entry = {"vertices": list(vertices), "class": cls}
        if cls in ("d", "z"):
            entry["psi"], entry["sweeps"] = component_walk(g, vertices)
        comps.append(entry)
    value = bilinear_form(m1, m2)
    return {
        "m1": m1.serialize(),
        "m2": m2.serialize(),
        "value": str(value),
        "value_poly": value.to_json_obj(),
        "t_edges": [[a.tail, a.head, source]
                    for source, m in (("m1", m1), ("m2", m2)) for a in m.chords],
        "ef1": [list(p) for p in antipodal_pairs(m1.fixed)],
        "ef2": [list(p) for p in antipodal_pairs(m2.fixed)],
        "components": comps,
    }


# the kernel's class codes: VAR_INDEX order, then a chord-only cycle whose
# psi is neither 0 nor +/-2n
_UNCLASSIFIED = NVARS


def _stack(diagrams: Sequence[Diagram], n: int) -> np.ndarray:
    """One row per diagram, read from Diagram.tables: column v - 1 holds
    vertex v's 0-based partner, column 2n + v - 1 its sweep (0 at a fixed
    point) and column 4n + v - 1 a 1 at a fixed point, 0 at a chord end."""
    rows = []
    for m in diagrams:
        partner, sweep = m.tables
        rows.append((*partner[1:], *[0 if s is None else s for s in sweep[1:]],
                     *[s is None for s in sweep[1:]]))
    stacked = np.array(rows, dtype=np.int64).reshape(len(rows), 6 * n)
    stacked[:, :2 * n] -= 1
    return stacked


def _class_table(n: int) -> np.ndarray:
    """The class code of a cycle by met * (4n + 3) + min(max(psi, -2n - 1), 2n + 1)
    + 2n + 1, where met = f1 + (n + 1) f2 counts the fixed points the walk
    meets on either side (at most n each) and psi is its sweep sum."""
    n2 = 2 * n
    met = np.arange((n + 1) ** 2)[:, None]
    psi = np.arange(-n2 - 1, n2 + 2)[None, :]
    on1, on2 = met % (n + 1) > 0, met > n
    chord_only = np.where(psi == 0, VAR_INDEX["d"],
                          np.where(abs(psi) == n2, VAR_INDEX["z"], _UNCLASSIFIED))
    return np.where(on1, np.where(on2, VAR_INDEX["w"], VAR_INDEX["x"]),
                    np.where(on2, VAR_INDEX["y"], chord_only)).ravel()


def pair_exponents(left: Sequence[Diagram], right: Sequence[Diagram],
                   pairs=None) -> tuple:
    """(exps, unclassified) of the pairings <left[i], right[j]>.

    pairs lists the (i, j) to pair; None pairs every ordered pair, i
    major.  exps[k] is the k-th pairing's exponent vector in VARIABLES
    order, the one bilinear_form returns, in the smallest unsigned type
    that holds n, and unclassified[k] is True when one of its chord-only
    cycles sweeps psi outside {0, +/-2n}; such a cycle counts in no
    variable, where bilinear_form raises.
    """
    sizes = {m.n for m in left} | {m.n for m in right}
    if len(sizes) > 1:
        raise SizeMismatchError(f"cannot pair diagrams of sizes {sorted(sizes)}")
    n = sizes.pop() if sizes else 0
    if pairs is None:
        total = len(left) * len(right)
    else:
        pairs = np.array(pairs, dtype=np.int64).reshape(-1, 2)
        total = len(pairs)
    exps = np.zeros((total, NVARS), dtype=np.min_scalar_type(n))
    unclassified = np.zeros(total, dtype=bool)
    if not total:
        return exps, unclassified
    rows1 = _stack(left, n)
    rows2 = rows1.copy() if right is left else _stack(right, n)
    rows2[:, 4 * n:] *= n + 1
    flat2 = rows2.ravel()
    classes = _class_table(n)
    step = max(1, SLICE_CELLS // (2 * n))
    for lo in range(0, total, step):
        hi = min(lo + step, total)
        if pairs is None:
            i, j = np.divmod(np.arange(lo, hi), len(right))
        else:
            i, j = pairs[lo:hi, 0], pairs[lo:hi, 1]
        counts = _slice_counts(n, rows1[i], flat2, 6 * n * j[:, None], classes)
        exps[lo:hi] = counts[:, :NVARS]
        unclassified[lo:hi] = counts[:, _UNCLASSIFIED] > 0
    return exps, unclassified


def _slice_counts(n: int, rows1: np.ndarray, flat2: np.ndarray, base2: np.ndarray,
                  classes: np.ndarray) -> np.ndarray:
    """Class counts of k pairings, one row each: rows1 holds the m1 rows of
    _stack, m2's row of pairing k starts at flat2[base2[k]], and its fixed
    point weights are n + 1."""
    k, n2 = len(rows1), 2 * n
    cells = k * n2
    p1 = rows1[:, :n2]
    at = p1 + base2                      # m2's columns at p1[v]
    offset = np.arange(0, cells, n2)[:, None]
    tau = (flat2[at] + offset).ravel()
    image = (p1 + offset).ravel()
    # low[v]: the smallest vertex of v's tau-orbit, by pointer doubling
    # over windows of 1, 2, 4, ... vertices; an orbit has at most n
    low = np.arange(cells)
    for _ in range((n - 1).bit_length()):
        np.minimum(low, low[tau], out=low)
        tau = tau[tau]
    # orbit sums of what the walk meets at an even-position vertex v: v's
    # m1 edge, then the m2 edge at its other end p1[v]
    psi = np.zeros(cells, dtype=np.int64)
    np.add.at(psi, low, (rows1[:, n2:2 * n2] + flat2[at + n2]).ravel())
    met = np.zeros(cells, dtype=np.int64)
    np.add.at(met, low, (rows1[:, 2 * n2:] + flat2[at + 2 * n2]).ravel())
    # the orbit holding its cycle's smallest vertex, where components starts
    first = np.flatnonzero(low < low[image])
    first = first[low[first] == first]
    cls = classes[met[first] * (2 * n2 + 3) + np.clip(psi[first], -n2 - 1, n2 + 1) + n2 + 1]
    return np.bincount(first // n2 * (NVARS + 1) + cls,
                       minlength=k * (NVARS + 1)).reshape(k, NVARS + 1)
