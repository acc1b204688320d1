"""Self-test of the exact-result gate: one flipped golden coefficient fails a run.

    python3 perfbench/selftest.py

1. Recomputes det(tilde, n=2) and checks that its payload digest is the
   golden one recorded for claim C3_5 n=2 of tilde-interp.
2. Adds one to a single coefficient of that polynomial and writes a copy of
   goldens.json holding the digest of the altered polynomial instead.
3. Runs the benchmark on tilde-interp in this process, once with the true
   goldens, which must report "correct": true and return 0, and once with
   run.GOLDENS pointing at the altered copy, which must report
   "correct": false, a failed claim C3_5.n2, and return 1.

Exits 0 when the gate behaves, 1 otherwise.
"""

import sys

sys.dont_write_bytecode = True

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402

import run  # noqa: E402

WORKLOAD = "tilde-interp"
CLAIM = "claim.C3_5.n2"
CACHE_FILE = "det_tilde_2.json"


def run_benchmark(goldens) -> tuple:
    """(return code, result object, standard output) of one run against `goldens`."""
    true_goldens, run.GOLDENS = run.GOLDENS, goldens
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = run.main(["--workload", WORKLOAD, "--seed", str(run.DEFAULT_SEED),
                             "--seconds", "1", "--trace", "0"])
    finally:
        run.GOLDENS = true_goldens
    lines = out.getvalue().strip().splitlines()
    return code, json.loads(lines[-1]), out.getvalue()


def main() -> int:
    sys.path.insert(0, str(run.ROOT / "src"))
    from mbgram import gram, storage
    from mbgram.polynomial import Polynomial

    with open(run.GOLDENS) as handle:
        goldens = json.load(handle)
    golden_claim = goldens["workloads"][WORKLOAD]["claims"][CLAIM]
    det = gram.det_exact(gram.assemble_gram(2, gram.GramVariant.MBN1_TILDE))
    if storage.payload_digest(det.to_json_obj()) != golden_claim["cache"][CACHE_FILE]:
        print("det(tilde, n=2) does not match its golden digest")
        return 1
    terms = det.to_terms_obj()
    terms[0][0] += 1
    flipped = Polynomial.from_terms_obj(terms)
    golden_claim["cache"][CACHE_FILE] = storage.payload_digest(flipped.to_json_obj())
    corrupted = run.WORK / "selftest-goldens.json"
    corrupted.parent.mkdir(parents=True, exist_ok=True)
    with open(corrupted, "w") as handle:
        json.dump(goldens, handle)
    try:
        code_ok, result_ok, _ = run_benchmark(run.GOLDENS)
        code_bad, result_bad, out_bad = run_benchmark(corrupted)
    finally:
        corrupted.unlink()
    checks = {
        "true goldens: correct and returns 0": code_ok == 0 and result_ok["correct"],
        "flipped coefficient: not correct": not result_bad["correct"],
        "flipped coefficient: returns 1": code_bad == 1,
        "flipped coefficient: failed >= 1": result_bad["failed"] >= 1,
        f"flipped coefficient: {CLAIM} named": f"FAILED {CLAIM}:" in out_bad,
    }
    for name, ok in checks.items():
        print(f"{'ok  ' if ok else 'FAIL'} {name}")
    return 0 if all(checks.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
