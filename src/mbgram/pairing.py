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
"""

from __future__ import annotations

from typing import NamedTuple

from mbgram.diagrams import Diagram, antipodal_pairs
from mbgram.errors import SizeMismatchError, UnclassifiableComponentError
from mbgram.polynomial import NVARS, VAR_INDEX, Polynomial

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
