"""betalab benchmark: cold-process experiment sessions.

    python3 perfbench/run.py --workload NAME --seed S --seconds T --trace 0|1

Runs passes of one workload (see README.md), each in a fresh Python process
with empty in-memory caches and an empty output directory, one process at a
time, for about T seconds.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end medians (``wall_s``,
``setup_s``, ``peak_rss_mib``); with ``--trace 1`` untraced and traced
passes alternate and the metrics are the per-layer medians of the traced
passes plus the tracing overhead.  Lines before it give every metric with
its median, tail percentile and sample count, and the environment.

Inputs come from ``--seed`` alone.  Everything is read and written inside
the checkout that holds this file.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
TMP_ROOT = os.path.join(ROOT, ".perfbench_tmp")

# workload -> operations in one pass (a pass whose process died fails them all)
WORKLOADS = {"edge-fluct": 1, "dos-w1": 1, "rates-hardwall": 5,
             "mcmc-quartic": 1}
MIN_PASSES = 3           # per kind of pass, whatever --seconds says
DEADLINE_S = 170.0       # passes still running then are killed

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}
LAYER_UNITS = {
    "sampler.tridiag_s": "s", "sampler.tridiag_calls": "count",
    "sampler.mcmc_s": "s", "sampler.mcmc_site_updates": "count",
    "sampler.mcmc_accept": "ratio",
    "dos.stats_s": "s", "dos.stats_calls": "count",
    "measures.w1_s": "s", "measures.w1_calls": "count",
    "measures.sigma_s": "s", "measures.sigma_calls": "count",
    "measures.kernel_s": "s",
    "equilibrium.solve_s": "s", "equilibrium.solve_calls": "count",
    "equilibrium.constrained_s": "s", "equilibrium.fw_iters": "count",
    "equilibrium.fw_gap_max": "1",
    "rates.projection_calls": "count", "rates.projection_hit_ratio": "ratio",
    "potential.kappa_s": "s", "potential.kappa_calls": "count",
    "cli.self_s": "s", "cli.bytes_written": "bytes",
    "trace.overhead_s": "s",
}
# one pass: one Python thread (dos-w1: two) and a single-threaded BLAS, so
# the load stays within the two cores the benchmark was sized for
WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}


def run_pass(workload: str, seed: int, index: int, *, trace: bool = False,
             toy: bool = False, env: bool = False, corrupt: str | None = None,
             timeout: float = DEADLINE_S) -> dict:
    """One pass in a fresh interpreter; returns the worker's result, or a
    result that counts every operation of the pass as failed."""
    os.makedirs(TMP_ROOT, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{workload}-", dir=TMP_ROOT)
    result_path = os.path.join(tmp, "result.json")
    argv = [sys.executable, WORKER, "--workload", workload,
            "--seed", str(seed), "--index", str(index),
            "--out", os.path.join(tmp, "out"), "--result", result_path]
    argv += ["--trace"] * trace + ["--toy"] * toy + ["--env"] * env
    if corrupt:
        argv += ["--corrupt", corrupt]
    try:
        proc = subprocess.Popen(
            argv + ["--t0", repr(time.monotonic())], cwd=ROOT,
            env={**os.environ, **WORKER_ENV}, stdout=subprocess.DEVNULL)
        try:
            code = proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            code = "timeout"
        finally:
            if proc.poll() is None:          # timed out or interrupted
                proc.kill()
                proc.wait()
        if code == 0 and os.path.exists(result_path):
            with open(result_path) as fh:
                return json.load(fh)
        ops = WORKLOADS[workload]
        return {"attempted": ops, "failed": ops,
                "errors": [f"worker exit {code}"]}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(TMP_ROOT)                 # only once it is empty


def tail(values: list) -> tuple:
    """(percentile, value): the highest percentile with at least ten samples
    above it, or None when there are fewer than eleven samples."""
    if len(values) < 11:
        return None
    k = len(values) - 10                      # 1-based rank of the value
    return 100.0 * k / len(values), sorted(values)[k - 1]


def describe(name: str, unit: str, values: list) -> str:
    t = tail(values)
    pct = f"p{t[0]:.0f} {t[1]:.6g}" if t else "p- (fewer than 11 samples)"
    return (f"{name:28s} median {statistics.median(values):.6g} {unit:5s} "
            f"{pct}  n={len(values)}")


def code_identity() -> dict:
    """The git commit when there is one, and a hash of the betalab sources
    either way (benchmark checkouts need not be git repositories)."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "betalab")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {"git_commit": commit, "src_sha256": digest.hexdigest()[:16]}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--toy", action="store_true",
                    help="toy sizes, for the self-test")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "betalab", "cli.py")):
        print(f"run.py: no betalab sources under {ROOT}/src", file=sys.stderr)
        return 2

    kinds = (False, True) if args.trace else (False,)
    results = {k: [] for k in kinds}
    environment = None
    start = time.monotonic()
    index = 0
    while True:
        elapsed = time.monotonic() - start
        if elapsed >= DEADLINE_S:
            break
        if min(len(r) for r in results.values()) >= MIN_PASSES:
            walls = [r.get("wall_s", 0.0) + r.get("setup_s", 0.0)
                     for rs in results.values() for r in rs]
            per_round = len(kinds) * statistics.median(walls)
            if elapsed + per_round > min(args.seconds, DEADLINE_S):
                break
        # traced and untraced passes of one round share their inputs
        for traced in kinds:
            res = run_pass(args.workload, args.seed, index, trace=traced,
                           toy=args.toy, env=environment is None,
                           timeout=DEADLINE_S - (time.monotonic() - start))
            environment = environment or res.get("environment")
            results[traced].append(res)
        index += 1

    every = [r for rs in results.values() for r in rs]
    attempted = sum(r["attempted"] for r in every)
    failed = sum(r["failed"] for r in every)
    for r in every:
        for err in r.get("errors", []):
            print(f"FAILED {err}")
    good = [r for r in results[False] if "wall_s" in r]
    if not good:
        print("run.py: no pass completed", file=sys.stderr)
        return 1

    print(json.dumps({"environment": {
        "workload": args.workload, "seed": args.seed,
        "nproc": os.cpu_count(), "cpu": cpu_model(),
        **code_identity(), **(environment or {})}}))
    print(f"workload {args.workload}: {len(good)} untraced passes, "
          f"fail_frac {failed / attempted:.6g} ({failed}/{attempted})")
    e2e = {name: [r[name] for r in good] for name in END_TO_END_UNITS}
    for name, unit in END_TO_END_UNITS.items():
        print(describe(name, unit, e2e[name]))

    if args.trace:
        traced = [r for r in results[True] if "layers" in r]
        if not traced:
            print("run.py: no traced pass completed", file=sys.stderr)
            return 1
        layers = {name: [r["layers"][name] for r in traced]
                  for name in traced[0]["layers"]}
        layers["trace.overhead_s"] = [
            statistics.median(r["wall_s"] for r in traced)
            - statistics.median(e2e["wall_s"])]
        if args.workload == "dos-w1":
            print("note: dos-w1 runs --threads 2; sampler.tridiag_s is busy "
                  "time summed over both pool threads")
        for name, unit in LAYER_UNITS.items():
            print(describe(name, unit, layers[name]))
        metrics = {name: {"value": statistics.median(layers[name]),
                          "unit": unit} for name, unit in LAYER_UNITS.items()}
    else:
        metrics = {name: {"value": statistics.median(e2e[name]),
                          "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
