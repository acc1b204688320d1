"""mbgram benchmark: time to a verified result, per workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --list-metrics

Run from the root of a checkout.  Each pass of a workload runs in a fresh
interpreter (workloads.py) against a fresh, empty cache directory under
.perfbench_work/, and every claim it makes is compared with the goldens
pinned in goldens.json; a raising, non-PASS or differing claim counts as
failed, and a run with any failure reports "correct": false and exits 1.

Every time is reported at the reference vCPU speed (speed.py): the host
this runs on switches its vCPUs between two speeds, and a probe timed all
through each pass reads which one the pass ran at.  The times as measured
are printed and stored next to them.

--trace 0 measures the end-to-end metrics.  Cycles repeat, each a pass
followed by set-up-only probes, until the next cycle would end after
--seconds (at least MIN_PASSES cycles run); probes fill the time left.
Each metric is the median over the passes; set-up is the median over the
passes and the probes, which are spread through the run so that they
meet the host's slow phases in the same share as the passes do.
--trace 1 runs one untraced and one traced pass, both at jobs=1, and
reports the per-layer metrics.  The last line of standard output is the
result as one JSON object; the lines before it name every metric with
its unit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
GOLDENS = HERE / "goldens.json"

DEFAULT_SEED = 20230917      # the package's published seed; goldens are pinned at it
JOBS = {"cheb-catalog": 1, "pairing-sweep": 1, "tilde-interp": 2, "multivar-det": 1}
MIN_PASSES = 2               # so that no median of a timed run is a single sample
SETUP_SHARE = 0.1            # set-up-only probes after a pass run for this share of it
MIN_PROBES = 2               # ... and at least this many probes follow each pass
RUN_LIMIT_S = 170            # hard cap for one invocation, under the 180 s contract


class PassError(RuntimeError):
    """A pass did not produce a result (crash, timeout, wrong package)."""


def load_benchmark() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# -- one pass ------------------------------------------------------------------


def _stop_group(pgid: int) -> None:
    """Kill what is left of a pass's process group and wait until it is gone."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    for _ in range(200):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def spawn_pass(workload: str, seed: int, jobs: int, run_dir: Path, index: int,
               timeout: float, trace: bool = False, setup_only: bool = False) -> dict:
    """Run one pass in a fresh interpreter and return its result object."""
    pass_dir = run_dir / f"pass{index}"
    cwd = pass_dir / "cwd"
    for sub in ("cwd", "cache", "tmp"):
        (pass_dir / sub).mkdir(parents=True)
    spec = {"workload": workload, "seed": seed, "pinned_seed": DEFAULT_SEED,
            "jobs": jobs, "trace": trace,
            "setup_only": setup_only, "cache_dir": str(pass_dir / "cache"),
            "src": str(ROOT / "src"), "out": str(pass_dir / "result.json")}
    env = dict(os.environ)
    env.pop("MBGRAM_CACHE_DIR", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # set-up always reads cached bytecode
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONPYCACHEPREFIX"] = str(WORK / "pycache")
    env["TMPDIR"] = str(pass_dir / "tmp")
    proc = subprocess.Popen([sys.executable, str(HERE / "workloads.py"), canonical(spec)],
                            cwd=cwd, env=env, start_new_session=True)
    try:
        code = proc.wait(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        _stop_group(proc.pid)
        proc.wait()
        raise PassError(f"{workload} pass {index} exceeded {timeout:.0f} s") from None
    finally:
        _stop_group(proc.pid)
    if code != 0:
        raise PassError(f"{workload} pass {index} exited with code {code}")
    with open(pass_dir / "result.json") as handle:
        result = json.load(handle)
    leftovers = sorted(os.listdir(cwd))
    if leftovers:
        result["isolation"] = f"pass wrote into its working directory: {leftovers}"
    shutil.rmtree(pass_dir)
    return result


# -- the exact-result gate -----------------------------------------------------


def _seed_free(text: str | None, seed: int) -> str | None:
    """A randomized report with another seed, written as if at DEFAULT_SEED.

    Nothing else in a randomized report depends on the seed, so the rest
    must still match the golden exactly.
    """
    if text is None or seed == DEFAULT_SEED:
        return text
    obj = json.loads(text)
    if obj.get("seed") == seed:
        obj["seed"] = DEFAULT_SEED
    return canonical(obj)


def check_pass(result: dict, golden: dict, seed: int) -> list:
    """Problems of one pass, one (claim name, reason) per failed claim."""
    problems = []
    claims = {c["name"]: c for c in result["claims"]}
    for name, want in golden["claims"].items():
        got = claims.get(name)
        if got is None:
            problems.append((name, "not attempted"))
        elif got["error"] is not None:
            problems.append((name, f"raised {got['error']}"))
        elif got["status"] != "PASS":
            problems.append((name, f"status {got['status']}"))
        elif _seed_free(got["result"], seed) != want["result"]:
            problems.append((name, "result differs from golden"))
        elif got["cache"] != want["cache"]:
            problems.append((name, "cached matrix or determinant differs from golden"))
    problems += [(name, "not in goldens") for name in claims if name not in golden["claims"]]
    if "isolation" in result:
        problems.append(("isolation", result["isolation"]))
    return problems


# -- provenance ------------------------------------------------------------------


# parts of the checkout the package could write to: its own tree, the
# tests, the benchmark, and the default cache directory ./cache
WATCHED = ("src", "tests", HERE.name, "cache")


def _snapshot(root: Path) -> dict:
    """Size and mtime of every file under the watched parts of the checkout."""
    out = {}
    for top in WATCHED:
        for dirpath, _, filenames in os.walk(root / top):
            for name in filenames:
                path = Path(dirpath) / name
                st = path.lstat()
                out[str(path.relative_to(root))] = (st.st_size, st.st_mtime_ns)
    out["cache/"] = (root / "cache").exists()
    return out


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
        "loadavg_start": list(os.getloadavg()),
    }


# -- reporting -------------------------------------------------------------------


def high_percentile(samples: list):
    """(percentile, value) of the highest rank with ten samples beyond it, or None."""
    if len(samples) < 11:
        return None
    ordered = sorted(samples)
    rank = len(samples) - 10          # 1-based rank with ten samples above it
    return 100.0 * rank / len(samples), ordered[rank - 1]


def list_metrics(bench: dict) -> None:
    for m in bench["end_to_end"]:
        print(f"end_to_end {m['name']} [{m['unit']}] {m['better']} is better, "
              f"bound {m['bound']}  (--trace 0)")
    for m in bench["per_layer"]:
        print(f"per_layer  {m['name']} [{m['unit']}] {m['better']} is better  (--trace 1)")


def _print_pass(label: str, res: dict, problems: list) -> None:
    print(f"{label}: wall_s={res['wall_s']:.4f} (measured {res['wall_raw_s']:.4f}) "
          f"cpu_s={res['cpu_s']:.4f} (measured {res['cpu_raw_s']:.4f}) "
          f"setup_s={res['setup_s']:.4f} (measured {res['setup_raw_s']:.4f}) "
          f"peak_rss_mb={res['peak_rss_mb']:.1f} speed_probes={res['speed_probes']} "
          f"claims={len(res['claims'])} failed={len(problems)}")
    for name, reason in problems:
        print(f"  FAILED {name}: {reason}")


# -- main ------------------------------------------------------------------------


def main(argv=None) -> int:
    bench = load_benchmark()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--list-metrics", action="store_true",
                        help="print every metric with its unit and exit")
    args = parser.parse_args(argv)
    if args.list_metrics:
        list_metrics(bench)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if not (ROOT / "src" / "mbgram" / "__init__.py").is_file():
        sys.stderr.write(f"no package source at {ROOT / 'src' / 'mbgram'}; "
                         "run from a checkout of the repository\n")
        return 2
    with open(GOLDENS) as handle:
        golden = json.load(handle)["workloads"][args.workload]

    began = time.perf_counter()
    hard_stop = began + RUN_LIMIT_S
    before = _snapshot(ROOT)
    prov = provenance()
    run_dir = WORK / f"run-{os.getpid()}-{time.time_ns()}"
    run_dir.mkdir(parents=True)
    jobs = JOBS[args.workload]
    passes, setups, problems = [], [], []
    attempted = failed = 0

    def one(index, **kw):
        return spawn_pass(args.workload, args.seed, run_dir=run_dir, index=index,
                          timeout=hard_stop - time.perf_counter(), **kw)

    def gate(label, res):
        nonlocal attempted, failed
        found = check_pass(res, golden, args.seed)
        attempted += len(golden["claims"])
        failed += len({name for name, _ in found if name in golden["claims"]})
        problems.extend(found)
        _print_pass(label, res, found)

    try:
        # fills the bytecode cache, so every timed set-up reads compiled modules
        one(0, jobs=jobs, setup_only=True)
        if args.trace:
            plain = one(1, jobs=1)
            gate("untraced pass (jobs=1)", plain)
            traced = one(2, jobs=1, trace=True)
            gate("traced pass (jobs=1)", traced)
            passes = [plain, traced]
        else:
            deadline = time.perf_counter() + args.seconds
            index = 1
            longest = longest_probe = 0.0    # longest cycle (a pass and the probes after it)

            def probe():
                nonlocal index, longest_probe
                t0 = time.perf_counter()
                setups.append(one(index, jobs=jobs, setup_only=True)["setup_s"])
                index += 1
                longest_probe = max(longest_probe, time.perf_counter() - t0)

            while len(passes) < MIN_PASSES or time.perf_counter() + longest <= deadline:
                t0 = time.perf_counter()
                res = one(index, jobs=jobs)
                index += 1
                pass_s = time.perf_counter() - t0
                gate(f"pass {len(passes) + 1}", res)
                passes.append(res)
                setups.append(res["setup_s"])
                probes = 0
                while probes < MIN_PROBES or time.perf_counter() - t0 < (1 + SETUP_SHARE) * pass_s:
                    probe()
                    probes += 1
                longest = max(longest, time.perf_counter() - t0)
            # the time left is too short for another cycle: it goes to set-up probes
            while time.perf_counter() + longest_probe <= deadline:
                probe()
    except PassError as exc:
        print(f"FAILED: {exc}")
        attempted += len(golden["claims"])
        failed += len(golden["claims"])
        problems.append(("run", str(exc)))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    after = _snapshot(ROOT)
    if after != before:
        changed = sorted(k for k in set(before) | set(after) if before.get(k) != after.get(k))
        print(f"FAILED isolation: the run changed files of the checkout: {changed[:10]}")
        problems.append(("isolation", "checkout changed"))
    prov["loadavg_end"] = list(os.getloadavg())
    if passes:
        prov["numpy"] = passes[0]["versions"]["numpy"]

    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    metrics: dict = {}
    if passes and args.trace:
        layer = dict(passes[1]["trace"]["metrics"])
        layer["trace.overhead_s"] = passes[1]["wall_s"] - passes[0]["wall_s"]
        for m in bench["per_layer"]:
            name = m["name"]
            # a claim of another workload was not run here: it took no time
            metrics[name] = layer.get(name, 0.0) if name.startswith("claim.") else layer[name]
    elif passes:
        walls = [p["wall_s"] for p in passes]
        metrics = {
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(p["cpu_s"] for p in passes),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        }
        high = high_percentile(walls)
        print(f"wall_s: median {metrics['wall_s']:.4f} s over {len(walls)} passes; "
              + (f"p{high[0]:.0f} {high[1]:.4f} s" if high else
                 "no percentile has ten passes beyond it (needs 11 passes)"))
        print(f"setup_s: median over {len(setups)} fresh interpreters")

    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "provenance": prov, "metrics": metrics,
              "problems": problems, "setups": setups, "passes": passes}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}.json"
    with open(results_dir / name, "w") as handle:
        json.dump(record, handle)

    print("provenance " + canonical(prov))
    for name, value in metrics.items():
        print(f"metric {name} = {value} {units[name]}")
    correct = not problems and bool(passes)
    print(canonical({"correct": correct, "attempted": max(attempted, 1),
                     "failed": failed if correct else max(failed, 1),
                     "metrics": {k: {"value": v, "unit": units[k]}
                                 for k, v in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
