"""Command-line surface: enumerate, pair, cheb, gram, det, verify, suite.

Reports stream as JSON lines (one object per claim); the table view is
rendered from those lines and is never the source of truth.  The suite
appends its lines to reports.jsonl in the cache directory.  Randomized
checks use a fixed published seed unless --seed overrides it, and suite
outcomes are independent of --jobs by construction: worker counts only
distribute evaluation points and primes, never change what is computed.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from mbgram import gram, properties
from mbgram.chebyshev import IdentityId, cheb_S, cheb_T, verify_identity
from mbgram.diagrams import Stratum, enumerate_stratum, parse_diagram, validate_diagram
from mbgram.gram import ConjectureId, GramVariant
from mbgram.pairing import pair_trace
from mbgram.reporting import render_table, timed
from mbgram.storage import resolve_cache_dir

PROFILES = ("quick", "full", "stretch")


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


_COMMON_FLAGS = {
    "cache-dir": dict(default=None,
                      help="cache directory (default: $MBGRAM_CACHE_DIR or ./cache)"),
    "jobs": dict(type=_positive_int, default=1,
                 help="worker processes for evaluation points and primes"),
    "seed": dict(type=int, default=None,
                 help="seed for randomized checks (default: published constant)"),
}


def _add_common(parser: argparse.ArgumentParser, *flags: str,
                format_default="table") -> None:
    """--format, plus those of --cache-dir, --jobs and --seed the command reads."""
    parser.add_argument("--format", choices=("json", "table"), default=format_default)
    for flag in flags:
        parser.add_argument(f"--{flag}", **_COMMON_FLAGS[flag])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mbgram",
        description="Crossingless Mobius-band connections, pairing Gram matrices, "
                    "and exact determinant checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_enum = sub.add_parser("enumerate", help="list diagrams of one stratum")
    p_enum.add_argument("--n", type=int, required=True)
    p_enum.add_argument("--stratum", choices=[s.value for s in Stratum], required=True)
    _add_common(p_enum)

    p_pair = sub.add_parser("pair", help="pairing value and trace of two diagrams")
    p_pair.add_argument("--m1", required=True, help='diagram text, e.g. "(2 5)(3 4)(1)(6)"')
    p_pair.add_argument("--m2", required=True)
    _add_common(p_pair)

    p_cheb = sub.add_parser("cheb", help="Chebyshev generators and identity checks")
    cheb_sub = p_cheb.add_subparsers(dest="cheb_command")
    p_cheb.add_argument("--kind", choices=("T", "S"), default=None)
    p_cheb.add_argument("--n", type=int, default=None)
    _add_common(p_cheb)
    p_cheb_verify = cheb_sub.add_parser("verify", help="verify one identity over a range")
    p_cheb_verify.add_argument("--id", required=True,
                               choices=[i.value for i in IdentityId])
    p_cheb_verify.add_argument("--max-index", type=int, default=None,
                               help="largest parameter value")
    # absent after `verify`, --format keeps the value given before it
    _add_common(p_cheb_verify, format_default=argparse.SUPPRESS)

    p_gram = sub.add_parser("gram", help="assemble (and cache) a Gram matrix")
    p_gram.add_argument("--n", type=int, required=True)
    p_gram.add_argument("--variant", choices=[v.value for v in GramVariant],
                        required=True)
    _add_common(p_gram, "cache-dir")

    p_det = sub.add_parser("det", help="exact determinant of a Gram matrix")
    p_det.add_argument("--n", type=int, required=True)
    p_det.add_argument("--variant", choices=[v.value for v in GramVariant],
                       required=True)
    _add_common(p_det, "cache-dir", "jobs")

    p_verify = sub.add_parser("verify", help="verify a determinant claim")
    group = p_verify.add_mutually_exclusive_group(required=True)
    group.add_argument("--conjecture", choices=[c.value for c in ConjectureId])
    group.add_argument("--theorem", choices=("3.6",))
    p_verify.add_argument("--n", type=int, default=None)
    p_verify.add_argument("--points", type=_positive_int, help="randomized check at N points")
    _add_common(p_verify, "cache-dir", "jobs", "seed")

    p_suite = sub.add_parser("suite", help="run a verification profile end to end")
    p_suite.add_argument("--profile", choices=PROFILES, default="full")
    _add_common(p_suite, "cache-dir", "jobs", "seed")

    return parser


def _emit(args, reports: list) -> None:
    if args.format == "json":
        for r in reports:
            sys.stdout.write(r.to_json_line() + "\n")
    else:
        sys.stdout.write(render_table(reports) + "\n")


def _cmd_enumerate(args) -> int:
    diagrams = enumerate_stratum(args.n, Stratum(args.stratum))
    if args.format == "json":
        for m in diagrams:
            sys.stdout.write(json.dumps(m.to_json_obj(), sort_keys=True) + "\n")
    else:
        for m in diagrams:
            sys.stdout.write(m.serialize() + "\n")
        sys.stdout.write(f"# {len(diagrams)} diagrams\n")
    return 0


def _cmd_pair(args) -> int:
    m1 = parse_diagram(args.m1)
    m2 = parse_diagram(args.m2)
    for name, m in (("m1", m1), ("m2", m2)):
        violations = validate_diagram(m)
        if violations:
            raise ValueError(f"{name} is not a valid diagram: {violations}")
    trace = pair_trace(m1, m2)
    if args.format == "json":
        sys.stdout.write(json.dumps(trace, sort_keys=True) + "\n")
    else:
        sys.stdout.write(f"<m1, m2> = {trace['value']}\n")
        for comp in trace["components"]:
            psi = f" psi={comp['psi']}" if "psi" in comp else ""
            sys.stdout.write(f"  component {comp['vertices']}: {comp['class']}{psi}\n")
    return 0


def _cmd_cheb(args) -> int:
    if args.cheb_command == "verify":
        if args.kind is not None or args.n is not None:
            raise ValueError("cheb verify: --kind and --n only select a polynomial to show")
        report = timed(lambda: verify_identity(IdentityId(args.id),
                                               max_index=args.max_index))
        _emit(args, [report])
        return 0 if report.passed() else 1
    if args.kind is None or args.n is None:
        raise ValueError("cheb: need --kind and --n (or the verify subcommand)")
    poly = cheb_T(args.n) if args.kind == "T" else cheb_S(args.n)
    if args.format == "json":
        sys.stdout.write(json.dumps(poly.to_json_obj(), sort_keys=True) + "\n")
    else:
        sys.stdout.write(f"{args.kind}_{args.n} = {poly}\n")
    return 0


def _cmd_gram(args) -> int:
    gm = gram.get_gram(args.n, GramVariant(args.variant), cache_dir=args.cache_dir)
    if args.format == "json":
        sys.stdout.write(json.dumps(gm.to_json_obj(), sort_keys=True) + "\n")
    else:
        sys.stdout.write(f"# {gm.size}x{gm.size} {gm.variant.value} matrix, n={gm.n}\n")
        for m, row in zip(gm.basis, gm.entries):
            cells = "  ".join(str(e) for e in row)
            sys.stdout.write(f"{m.serialize()}: {cells}\n")
    return 0


def _cmd_det(args) -> int:
    det, provenance = gram.get_det(args.n, GramVariant(args.variant),
                                   cache_dir=args.cache_dir, jobs=args.jobs)
    if args.format == "json":
        obj = {"n": args.n, "variant": args.variant, **provenance,
               "det": det.to_json_obj()}
        sys.stdout.write(json.dumps(obj, sort_keys=True) + "\n")
    else:
        sys.stdout.write(f"det = {det}\n")
    return 0


def _cmd_verify(args) -> int:
    if args.n is None:
        raise ValueError("verify: need --n")
    if (args.seed is not None and args.points is None) or (args.points and args.theorem):
        raise ValueError("verify: --seed needs --points, which applies to --conjecture only")
    if args.theorem is not None:
        report = timed(lambda: gram.verify_theorem_3_6(args.n, jobs=args.jobs,
                                                       cache_dir=args.cache_dir))
    else:
        report = timed(lambda: gram.verify_conjecture(
            ConjectureId(args.conjecture), args.n,
            method="exact" if args.points is None else "randomized",
            seed=args.seed, points=args.points, jobs=args.jobs, cache_dir=args.cache_dir))
    _emit(args, [report])
    return 0 if report.status != "FAIL" else 1


def suite_claims(profile: str, jobs: int, seed: int | None, cache_dir) -> list:
    """Ordered claim list for one profile; every entry is a zero-arg callable."""
    claims: list = []

    def add(fn, *fn_args, **fn_kwargs):
        claims.append(lambda: fn(*fn_args, **fn_kwargs))

    # Chebyshev identity block (quick and up), each at its registry range
    for ident in IdentityId:
        add(verify_identity, ident)

    # small fixtures and matrices (quick and up)
    add(properties.check_enumeration_counts, 2 if profile == "quick" else 6)
    add(properties.check_crosscap_pair_fixture)
    add(properties.check_tilde_block_fixture, cache_dir=cache_dir)
    add(gram.verify_conjecture, ConjectureId.C3_4, 1, cache_dir=cache_dir)
    add(gram.verify_conjecture, ConjectureId.C3_4, 2, cache_dir=cache_dir)
    add(gram.verify_conjecture, ConjectureId.C3_5, 2, cache_dir=cache_dir)
    add(gram.verify_conjecture, ConjectureId.C3_3, 2, cache_dir=cache_dir)
    add(gram.verify_theorem_3_6, 2, cache_dir=cache_dir)
    add(gram.verify_formula_identity)

    if profile in ("full", "stretch"):
        for n in (3, 4):
            add(gram.verify_conjecture, ConjectureId.C3_5, n, jobs=jobs,
                cache_dir=cache_dir)
            add(gram.verify_conjecture, ConjectureId.C3_3, n, jobs=jobs,
                cache_dir=cache_dir)
            add(gram.verify_theorem_3_6, n, jobs=jobs, cache_dir=cache_dir)
        # exact at n=3, with the randomized comparison kept as a cross-check
        add(gram.verify_conjecture, ConjectureId.C3_4, 3, jobs=jobs, cache_dir=cache_dir)
        add(gram.verify_conjecture, ConjectureId.C3_4, 3, method="randomized",
            seed=seed, points=20, jobs=jobs, cache_dir=cache_dir)
        add(gram.verify_conjecture, ConjectureId.C5_1, 3, cache_dir=cache_dir)
        add(properties.check_transpose_symmetry, 4)
        add(properties.check_diagonal_law, 5)
        add(properties.check_winding_range, 5)
        add(properties.check_entry_profiles, 4)
        add(properties.check_det_backends_agree, cache_dir=cache_dir)

    if profile == "stretch":
        # exact at n=5, with the randomized comparison kept as a cross-check
        add(gram.verify_conjecture, ConjectureId.C3_5, 5, jobs=jobs, cache_dir=cache_dir)
        add(gram.verify_conjecture, ConjectureId.C3_3, 5, jobs=jobs, cache_dir=cache_dir)
        add(gram.verify_theorem_3_6, 5, jobs=jobs, cache_dir=cache_dir)
        add(gram.verify_conjecture, ConjectureId.C3_5, 5, method="randomized",
            seed=seed, points=24, jobs=jobs, cache_dir=cache_dir)

    return claims


def run_suite(profile: str, jobs: int = 1, seed: int | None = None,
              cache_dir=None, on_report=None) -> tuple:
    """Run a profile; returns (exit_code, reports).  Each report is appended
    to reports.jsonl in the cache directory, then passed to `on_report`."""
    cache_dir = resolve_cache_dir(cache_dir)
    cache_dir.mkdir(parents=True, exist_ok=True)
    reports = []
    with open(Path(cache_dir) / "reports.jsonl", "a") as sink:
        for claim in suite_claims(profile, jobs, seed, cache_dir):
            report = timed(claim)
            reports.append(report)
            sink.write(report.to_json_line() + "\n")
            sink.flush()
            if on_report is not None:
                on_report(report)
    return (1 if any(r.status == "FAIL" for r in reports) else 0), reports


def _cmd_suite(args) -> int:
    started = time.perf_counter()

    def on_report(report) -> None:
        # JSON lines stream to stdout; the table view shows progress on stderr
        if args.format == "json":
            print(report.to_json_line(), flush=True)
        else:
            print(f"## {report.claim} [{report.tag}] {report.status} "
                  f"({report.duration_s:.2f}s)", file=sys.stderr, flush=True)

    code, reports = run_suite(args.profile, jobs=args.jobs, seed=args.seed,
                              cache_dir=args.cache_dir, on_report=on_report)
    if args.format != "json":
        sys.stdout.write(render_table(reports) + "\n")
        failed = sum(r.status == "FAIL" for r in reports)
        skipped = sum(r.status == "SKIPPED" for r in reports)
        sys.stdout.write(
            f"# profile={args.profile} claims={len(reports)} failed={failed} "
            f"skipped={skipped} elapsed={time.perf_counter() - started:.1f}s\n")
    return code


_COMMANDS = {
    "enumerate": _cmd_enumerate,
    "pair": _cmd_pair,
    "cheb": _cmd_cheb,
    "gram": _cmd_gram,
    "det": _cmd_det,
    "verify": _cmd_verify,
    "suite": _cmd_suite,
}


def main(argv=None) -> int:
    """Run one command; an input error (ValueError) prints one line, exit code 2."""
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ValueError as exc:
        sys.stderr.write(f"mbgram: error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
