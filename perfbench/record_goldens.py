"""Record goldens.json, the exact results every benchmark run is checked against.

    python3 perfbench/record_goldens.py

Runs one untimed pass of every workload at the default seed and stores,
per claim, the canonical JSON of its Report (or the payload digest of
the matrix or determinant it returned) and the payload digest of every
matrix and determinant it wrote to the cache.  Record only at a commit
whose results are trusted: the file in the repository was recorded at
the commit that introduced the benchmark, and a change that makes any
of these results differ must say why.
"""

import sys

sys.dont_write_bytecode = True

import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402

import run  # noqa: E402


def main() -> int:
    bench = run.load_benchmark()
    goldens = {"seed": run.DEFAULT_SEED, "src_sha256": run._src_digest(), "workloads": {}}
    run_dir = run.WORK / f"goldens-{os.getpid()}"
    try:
        for index, workload in enumerate(w["name"] for w in bench["workloads"]):
            res = run.spawn_pass(workload, run.DEFAULT_SEED, run.JOBS[workload], run_dir,
                                 index, timeout=900)
            bad = [c["name"] for c in res["claims"] if c["error"] or c["status"] != "PASS"]
            if bad or "isolation" in res:
                sys.stderr.write(f"{workload}: not recording, failed {bad} "
                                 f"{res.get('isolation', '')}\n")
                return 1
            goldens["workloads"][workload] = {"claims": {
                c["name"]: {"result": c["result"], "cache": c["cache"]}
                for c in res["claims"]}}
            print(f"{workload}: {len(res['claims'])} claims, wall {res['wall_s']:.2f} s")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    with open(run.GOLDENS, "w") as handle:
        json.dump(goldens, handle, indent=1)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
