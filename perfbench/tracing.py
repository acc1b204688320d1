"""Per-layer tracing for the traced benchmark run.

The wrappers are installed from the benchmark's own files only, and only
in the traced pass: nothing under src/ knows about them.  Every module of
the package that holds a reference to a wrapped function (for example
`gram` and `properties`, which import `interpolate`, `components` and
`bilinear_form` by name) is patched, so calls through any import site are
seen.

Two kinds of records, both kept in memory until the pass ends:

* aggregated statistics per key: outermost calls, inclusive time of the
  outermost calls, and self time (time not covered by a wrapped child).
  Hot leaves such as `Polynomial.__add__` or `bilinear_form`, called up
  to about a million times per pass, are recorded only this way.
* spans with parent ids for coarse calls (claims, assembly, determinant
  backends, interpolation, `crt_det`, cache I/O).

Pool workers run in other processes and are invisible here, so the
traced pass always runs at jobs=1.
"""

from __future__ import annotations

import functools
import os
import sys
import time
import types

LAYERS = ("chebyshev", "polynomial", "diagrams", "pairing", "gram", "intdet",
          "storage")

COUNTERS = (
    "polynomial.mul.term_pairs",
    "polynomial.interpolate.points",
    "diagrams.enumerate.diagrams",
    "gram.assemble.entries",
    "gram.points",
    "gram.backend.bareiss",
    "gram.backend.interp",
    "intdet.cells",
    "intdet.hadamard_bits",
    "intdet.bareiss_fallbacks",
    "storage.hits",
    "storage.misses",
    "storage.write.bytes",
)


class Tracer:
    """Wraps package functions, aggregates statistics and records spans."""

    def __init__(self):
        self.clock = time.perf_counter
        self.origin = self.clock()
        self.stack: list = []        # open frames: [stats record, child seconds]
        self.stats: dict = {}        # key -> [outermost calls, total s, self s, depth]
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.spans: list = []        # [id, parent id, name, start s, end s]
        self._span_stack: list = []
        self._patched: list = []     # (owner, attribute, original)

    # -- recording ------------------------------------------------------------

    def _record(self, key: str) -> list:
        return self.stats.setdefault(key, [0, 0.0, 0.0, 0])

    def _inside(self, key: str) -> bool:
        """True when the innermost open frame belongs to `key`."""
        return bool(self.stack) and self.stack[-1][0] is self.stats.get(key)

    def wrap(self, key: str, fn, span: bool = False, before=None, after=None):
        rec = self._record(key)
        stack = self.stack
        clock = self.clock
        spans = self.spans
        span_stack = self._span_stack
        origin = self.origin

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            frame = [rec, 0.0]
            stack.append(frame)
            rec[3] += 1
            if span:
                span_id = len(spans)
                spans.append([span_id, span_stack[-1] if span_stack else None,
                              key, 0.0, 0.0])
                span_stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                elapsed = end - start
                stack.pop()
                rec[3] -= 1
                if rec[3] == 0:
                    rec[0] += 1
                    rec[1] += elapsed
                rec[2] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
                if span:
                    span_stack.pop()
                    spans[span_id][3] = start - origin
                    spans[span_id][4] = end - origin
            if after is not None:
                after(result, args)
            return result

        return wrapper

    # -- patching -------------------------------------------------------------

    def patch(self, key: str, owner, attr: str, span: bool = False,
              before=None, after=None) -> None:
        """Wrap owner.attr; for a module, at every import site in the package."""
        original = vars(owner)[attr]
        wrapper = self.wrap(key, original, span=span, before=before, after=after)
        owners = [owner]
        if isinstance(owner, types.ModuleType):
            owners = [m for name, m in sys.modules.items()
                      if m is not None and (name == "mbgram" or name.startswith("mbgram."))]
        sites = [(o, name) for o in owners for name, value in vars(o).items()
                 if value is original]
        if not sites:
            raise RuntimeError(f"nothing patched for {key} ({attr})")
        for site, name in sites:
            setattr(site, name, wrapper)
            self._patched.append((site, name, original))

    def install(self) -> None:
        """Wrap every traced function of the package."""
        from mbgram import chebyshev, diagrams, gram, intdet, pairing, polynomial, storage
        from mbgram.polynomial import Polynomial

        counters = self.counters

        def count_terms(args):
            other = args[1]
            rhs = other.num_terms() if isinstance(other, Polynomial) else int(other != 0)
            counters["polynomial.mul.term_pairs"] += args[0].num_terms() * rhs

        def count_points(args):
            counters["polynomial.interpolate.points"] += len(args[1])

        def count_diagrams(result, args):
            counters["diagrams.enumerate.diagrams"] += len(result)

        def count_entries(result, args):
            counters["gram.assemble.entries"] += result.size * result.size

        def count_backend(result, args):
            counters[f"gram.backend.{result}"] += 1

        def count_cells(args):
            counters["intdet.cells"] += len(args[0]) ** 2
            # frame 1 is the wrapper, frame 2 the code that called int_det
            if sys._getframe(2).f_globals.get("__name__") == "mbgram.gram":
                counters["gram.points"] += 1

        def count_fallback(args):
            if self._inside("intdet.crt_det"):
                counters["intdet.bareiss_fallbacks"] += 1

        def count_hadamard(result, args):
            if self._inside("intdet.crt_det"):
                counters["intdet.hadamard_bits"] += result.bit_length()

        def count_read(result, args):
            counters["storage.hits" if result is not None else "storage.misses"] += 1

        def count_write(result, args):
            counters["storage.write.bytes"] += os.path.getsize(result)

        self.patch("chebyshev.generate", chebyshev, "cheb_T")
        self.patch("chebyshev.generate", chebyshev, "cheb_S")
        self.patch("polynomial.mul", Polynomial, "__mul__", before=count_terms)
        self.patch("polynomial.add", Polynomial, "__add__")
        self.patch("polynomial.eval", Polynomial, "eval_var")
        self.patch("polynomial.eval", Polynomial, "evaluate")
        self.patch("polynomial.divide_exact", Polynomial, "divide_exact")
        self.patch("polynomial.substitute", Polynomial, "substitute")
        self.patch("polynomial.interpolate", polynomial, "interpolate", span=True,
                   before=count_points)
        self.patch("diagrams.enumerate", diagrams, "enumerate_stratum",
                   after=count_diagrams)
        self.patch("pairing.pair", pairing, "bilinear_form")
        self.patch("pairing.pair", pairing, "curve_profile")
        self.patch("pairing.graph", pairing, "build_pairing_graph")
        self.patch("pairing.components", pairing, "components")
        self.patch("pairing.walk", pairing, "component_walk")
        self.patch("gram.assemble", gram, "assemble_gram", span=True, after=count_entries)
        self.patch("gram.det_exact", gram, "det_exact", span=True)
        self.patch("gram.det_eval", gram, "det_by_evaluation", span=True)
        self.patch("gram.closed_form", gram, "conjecture_formula", span=True)
        self.patch("gram.closed_form", gram, "formula_value_at")
        self.patch("gram.choose_backend", gram, "choose_backend", after=count_backend)
        self.patch("intdet.int_det", intdet, "int_det", before=count_cells)
        self.patch("intdet.crt_det", intdet, "crt_det", span=True)
        self.patch("intdet.bareiss_int", intdet, "bareiss_int", before=count_fallback)
        self.patch("intdet.hadamard_bound", intdet, "hadamard_bound", after=count_hadamard)
        self.patch("storage.read", storage, "cache_read", span=True, after=count_read)
        self.patch("storage.write", storage, "cache_write", span=True, after=count_write)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()

    # -- results --------------------------------------------------------------

    def metrics(self) -> dict:
        """`<key>.calls` and `<key>.s` for every statistics key, the counters,
        and self time per layer; run.py picks the names BENCHMARK.json lists."""
        out: dict = {}
        for key, (calls, total, _, _) in self.stats.items():
            out[f"{key}.calls"] = calls
            out[f"{key}.s"] = total
        out.update(self.counters)
        out["pairing.pairs"] = pairs = out["pairing.pair.calls"]
        out["pairing.walks"] = out["pairing.walk.calls"]
        out["pairing.us_per_pair"] = out["pairing.pair.s"] / pairs * 1e6 if pairs else 0.0
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(rec[2] for key, rec in self.stats.items()
                                         if key.split(".", 1)[0] == layer)
        # claim time outside every wrapped layer: the claims' own loops
        out["claims.self_s"] = sum(rec[2] for key, rec in self.stats.items()
                                   if key.startswith("claim."))
        return out
