"""Crossingless connections on the Mobius band, in involutive notation.

A diagram on 2n marked boundary points (labelled 1..2n counterclockwise)
consists of oriented chords and fixed points:

  * a chord (t h) is an arc from t to h travelling counterclockwise
    around the internal crosscap, i.e. it sweeps the boundary interval
    from t to h and cuts the vertices strictly inside that interval off
    from the crosscap;
  * a fixed point (f) is a vertex connected to the crosscap by an arc.

Orientation matters: (a b) and (b a) are different arcs (they pass on
opposite sides of the crosscap), which is why a single unordered chord
supports up to two diagrams.  Text form lists chords by increasing tail,
then fixed points increasing, e.g. "(2 5)(3 4)(1)(6)".

Interval arithmetic is cyclic with positions measured from a base vertex:
pos_b(v) = (v - b) mod 2n.  Two arcs can be drawn disjointly in the
annulus iff their closed counterclockwise intervals are nested or
disjoint; anything else crosses.

The two strata enumerated here are the diagrams with no curve through
the crosscap (no fixed points, count C(2n, n)) and with exactly one
(two fixed points, count C(2n, n-1)), each built from its diagrams'
chord tail sets (enumerate_stratum proves the bijection).  Diagrams with
more fixed points can still be represented, parsed and paired; they are
just never enumerated.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, fields
from enum import Enum
from functools import cached_property
from math import comb
from typing import Iterable, NamedTuple, Sequence

from mbgram.errors import (BoundExceededError, MalformedComponentError, ParseError,
                           SharedEndpointError)

ENUMERATION_BOUND = 6


class Arc(NamedTuple):
    """Oriented chord: counterclockwise from tail to head."""

    tail: int
    head: int


def _pos(v: int, base: int, n2: int) -> int:
    return (v - base) % n2


def _nested_in(a: Arc, b: Arc, n2: int) -> bool:
    # ccw interval of a contained in ccw interval of b
    pd = _pos(b.head, b.tail, n2)
    pa = _pos(a.tail, b.tail, n2)
    pb = _pos(a.head, b.tail, n2)
    return 0 < pa < pb < pd


def _disjoint_after(a: Arc, b: Arc, n2: int) -> bool:
    # ccw interval of a sits entirely between b's head and the wrap to b's tail
    pd = _pos(b.head, b.tail, n2)
    pa = _pos(a.tail, b.tail, n2)
    pb = _pos(a.head, b.tail, n2)
    return pd < pa < pb


def arcs_cross(a: Arc, b: Arc, n2: int) -> bool:
    """True iff the two oriented arcs cannot be drawn disjointly.

    Non-crossing means one counterclockwise interval is contained in the
    other or the intervals are disjoint.  The predicate is orientation
    sensitive: e.g. (2 1) and (4 3) on four points wind around the
    crosscap in opposite directions and always intersect, even though the
    underlying vertex pairs do not interleave.
    """
    if len({a.tail, a.head, b.tail, b.head}) != 4:
        raise SharedEndpointError(f"arcs {a} and {b} share an endpoint")
    return not (
        _nested_in(a, b, n2)
        or _nested_in(b, a, n2)
        or _disjoint_after(a, b, n2)
        or _disjoint_after(b, a, n2)
    )


def fixed_point_blocked(a: Arc, f: int, n2: int) -> bool:
    """True iff the chord separates fixed point f from the crosscap.

    That happens exactly when f lies strictly inside the counterclockwise
    interval (tail, head) swept by the arc.
    """
    if f in (a.tail, a.head):
        raise SharedEndpointError(f"fixed point {f} is an endpoint of {a}")
    return 0 < _pos(f, a.tail, n2) < _pos(a.head, a.tail, n2)


class Stratum(Enum):
    """Diagram families by number of curves through the crosscap."""

    ZERO_CROSSCAP = "zero"
    ONE_CROSSCAP = "one"

    def expected_count(self, n: int) -> int:
        if self is Stratum.ZERO_CROSSCAP:
            return comb(2 * n, n)
        return comb(2 * n, n - 1)

    def fixed_count(self) -> int:
        return 0 if self is Stratum.ZERO_CROSSCAP else 2


@dataclass(frozen=True)
class Diagram:
    """One crossingless connection; immutable value object.

    chords are stored sorted by tail and fixed points sorted increasing,
    so equal diagrams compare and hash equal.  The pairing tables are
    built on first use and kept on the object; they are not a field, so
    eq, hash, repr and pickling see only n, chords and fixed.
    """

    n: int
    chords: tuple
    fixed: tuple

    @classmethod
    def build(cls, n: int, chords: Iterable[Sequence[int]], fixed: Iterable[int]) -> "Diagram":
        arcs = tuple(sorted((Arc(int(t), int(h)) for t, h in chords), key=lambda a: a.tail))
        return cls(n=n, chords=arcs, fixed=tuple(sorted(int(f) for f in fixed)))

    def serialize(self) -> str:
        parts = [f"({a.tail} {a.head})" for a in self.chords]
        parts += [f"({f})" for f in self.fixed]
        return "".join(parts)

    def to_json_obj(self) -> dict:
        return {
            "n": self.n,
            "chords": [[a.tail, a.head] for a in self.chords],
            "fixed": list(self.fixed),
        }

    @classmethod
    def from_json_obj(cls, obj) -> "Diagram":
        return cls.build(int(obj["n"]), obj.get("chords", []), obj.get("fixed", []))

    def __str__(self) -> str:
        return self.serialize()

    def __getstate__(self) -> dict:
        # the fields only: a pickled diagram leaves its cached tables behind
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @cached_property
    def tables(self) -> tuple:
        """(partner, sweep), built by pairing_tables on first use.

        A diagram that fails the coverage check caches nothing, so it
        raises on every pairing.
        """
        return pairing_tables(self)


def antipodal_pairs(fixed: tuple) -> list:
    """Pair fixed points antipodally: index i with i + |F|/2, labels increasing.

    For the usual two fixed points this is the single pair; for 2i fixed
    points it produces i pairs, each a curve through the crosscap.
    """
    k = len(fixed)
    if k % 2:
        raise ValueError(f"odd number of fixed points: {fixed}")
    ordered = sorted(fixed)
    half = k // 2
    return [(ordered[i], ordered[(i + half) % k]) for i in range(half)]


def pairing_tables(m: Diagram) -> tuple:
    """The partner and sweep tuples of one diagram, indexed by vertex 1..2n.

    The labels must cover 1..2n exactly once (MalformedComponentError
    otherwise).  pairing.py's module docstring defines both tables; use
    m.tables, which builds them once per diagram object.
    """
    n2 = 2 * m.n
    labels = [v for arc in m.chords for v in arc] + list(m.fixed)
    if sorted(labels) != list(range(1, n2 + 1)):
        raise MalformedComponentError(f"{m} does not cover 1..{n2} exactly once")
    partner = [0] * (n2 + 1)
    sweep = [None] * (n2 + 1)
    for tail, head in m.chords:
        partner[tail], partner[head] = head, tail
        length = (head - tail) % n2
        sweep[tail], sweep[head] = length, -length
    for u, v in antipodal_pairs(m.fixed):
        partner[u], partner[v] = v, u
    return tuple(partner), tuple(sweep)


def rotate(m: Diagram) -> Diagram:
    """The diagram turned one boundary step: every label v becomes v mod 2n + 1."""
    n2 = 2 * m.n
    return Diagram.build(m.n, [(a.tail % n2 + 1, a.head % n2 + 1) for a in m.chords],
                         [f % n2 + 1 for f in m.fixed])


_TOKEN_RE = re.compile(r"\(\s*(\d+)(?:\s+(\d+))?\s*\)|\s+|(.)")


def parse_diagram(text: str) -> Diagram:
    """Parse involutive notation like "(2 5)(3 4)(1)(6)".

    The labels must partition 1..2n exactly; n is inferred from the label
    count.  Raises ParseError with the offending position otherwise.
    """
    chords = []
    fixed = []
    seen = {}
    for match in _TOKEN_RE.finditer(text):
        if match.group(3) is not None:
            if match.group(3) == "(" and ")" not in text[match.end(3):]:
                raise ParseError("missing ')' at the end of the text", len(text))
            raise ParseError(f"unexpected character {match.group(3)!r}", match.start(3))
        if match.group(1) is None:
            continue  # whitespace between groups
        a = int(match.group(1))
        b = match.group(2)
        for label in ((a,) if b is None else (a, int(b))):
            if label in seen:
                raise ParseError(f"label {label} appears twice", match.start())
            seen[label] = True
        if b is None:
            fixed.append(a)
        else:
            b = int(b)
            if a == b:
                raise ParseError(f"chord ({a} {b}) repeats a label", match.start())
            chords.append((a, b))
    if not seen:
        raise ParseError("empty diagram", 0)
    n2 = len(seen)
    if n2 % 2:
        raise ParseError(f"odd number of labels ({n2})", len(text) - 1)
    if set(seen) != set(range(1, n2 + 1)):
        missing = min(set(range(1, n2 + 1)) - set(seen), default=max(seen))
        raise ParseError(f"labels must cover 1..{n2} exactly (check {missing})",
                         len(text) - 1)
    return Diagram.build(n2 // 2, chords, fixed)


def validate_diagram(m: Diagram, stratum: Stratum | None = None) -> list:
    """Return the list of violations (empty when the diagram is valid).

    Checks the vertex partition, pairwise non-crossing of chords, that no
    chord cuts a fixed point off from the crosscap, an even number of
    fixed points, and optionally membership in a stratum.
    """
    violations = []
    n2 = 2 * m.n
    if m.n < 1:
        return [f"n must be positive, got {m.n}"]
    counts: dict = {}
    for a in m.chords:
        if a.tail == a.head:
            violations.append(f"chord {a} repeats a label")
        for v in (a.tail, a.head):
            counts[v] = counts.get(v, 0) + 1
    for f in m.fixed:
        counts[f] = counts.get(f, 0) + 1
    for v, c in sorted(counts.items()):
        if not 1 <= v <= n2:
            violations.append(f"label {v} outside 1..{n2}")
        elif c > 1:
            violations.append(f"label {v} used {c} times")
    missing = sorted(set(range(1, n2 + 1)) - set(counts))
    if missing:
        violations.append(f"labels {missing} uncovered")
    if violations:
        return violations

    for a, b in itertools.combinations(m.chords, 2):
        if arcs_cross(a, b, n2):
            violations.append(f"chords {a} and {b} cross")
    for a in m.chords:
        for f in m.fixed:
            if fixed_point_blocked(a, f, n2):
                violations.append(f"chord {a} blocks fixed point {f}")
    if len(m.fixed) % 2:
        violations.append(f"odd number of fixed points ({len(m.fixed)})")
    if stratum is not None and len(m.fixed) != stratum.fixed_count():
        violations.append(
            f"stratum {stratum.value} needs {stratum.fixed_count()} fixed points, "
            f"got {len(m.fixed)}")
    return violations


def _tail_matching(n2: int, tails: tuple) -> tuple:
    """(arcs, fixed) of the valid diagram with chord tails `tails`: on two
    counterclockwise laps each non-tail closes the latest tail opened on
    the first lap, and the non-tails that close none are the fixed points.
    """
    tail_set = set(tails)
    open_tails, arcs, heads = [], [], set()
    for lap in (0, 1):
        for v in range(1, n2 + 1):
            if v in tail_set:
                if lap == 0:
                    open_tails.append(v)
            elif open_tails and v not in heads:
                arcs.append(Arc(open_tails.pop(), v))
                heads.add(v)
    fixed = tuple(v for v in range(1, n2 + 1) if v not in tail_set and v not in heads)
    return tuple(sorted(arcs)), fixed


def enumerate_stratum(n: int, stratum: Stratum) -> list:
    """All diagrams of one stratum, in canonical order (by serialized text).

    A valid diagram with k fixed points is fixed by its n - k/2 chord
    tails, and every (n - k/2)-subset of 1..2n is the tail set of exactly
    one, built by _tail_matching; so the counts are C(2n, n - k/2).

    Proof.  The vertices strictly inside the counterclockwise interval of
    a chord (t h) are cut off from the crosscap: none is a fixed point,
    and a chord with an end there lies wholly there, tail first.  So h is
    the first vertex after t where the non-tails seen since t outnumber
    the tails, the vertex where the walk closes t: the tails fix the
    diagram.  Conversely, from c <= n tails the first lap leaves open
    t_1 < ... < t_m and at least m unused non-tails before t_1, which close
    t_m, ..., t_1 on the second lap.  The intervals nest or are disjoint,
    and a leftover vertex met no open tail, so it lies inside none.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if n > ENUMERATION_BOUND:
        raise BoundExceededError(f"n={n} exceeds enumeration bound {ENUMERATION_BOUND}")
    n2 = 2 * n
    out = []
    for tails in itertools.combinations(range(1, n2 + 1), n - stratum.fixed_count() // 2):
        arcs, fixed = _tail_matching(n2, tails)
        out.append(Diagram(n=n, chords=arcs, fixed=fixed))
    out.sort(key=lambda m: m.serialize())
    return out
