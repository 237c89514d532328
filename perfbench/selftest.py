"""Self-test of the benchmark at toy sizes (about a minute).

    python3 perfbench/selftest.py

Runs every workload once untraced and once traced, checks that each metric
of BENCHMARK.json is printed with its unit and that no operation failed,
shows that a corrupted output (a perturbed J^-) is counted as a failure,
and that the benchmark refuses to run without the betalab sources.
"""
import contextlib
import json
import os
import shutil
import subprocess
import sys
import tempfile

import run


def last_line(argv, cwd=run.ROOT):
    proc = subprocess.run([sys.executable] + argv, cwd=cwd,
                          capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (json.loads(lines[-1]) if lines else None)


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    wanted = {0: spec["end_to_end"], 1: spec["per_layer"]}
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)

    for name in run.WORKLOADS:
        for trace in (0, 1):
            code, out = last_line(["perfbench/run.py", "--workload", name,
                                   "--seed", "1", "--seconds", "1",
                                   "--trace", str(trace), "--toy"])
            assert code == 0, (name, trace, code)
            assert set(out) == {"correct", "attempted", "failed", "metrics"}
            assert out["correct"] and out["failed"] == 0, (name, out)
            assert out["attempted"] >= 1
            got = {k: v["unit"] for k, v in out["metrics"].items()}
            assert got == {m["name"]: m["unit"] for m in wanted[trace]}, \
                (name, trace, got)
            print(f"ok  {name} --trace {trace}: {len(got)} metrics, "
                  f"{out['attempted']} operations, none failed")

    res = run.run_pass("rates-hardwall", 1, 0, toy=True, corrupt="jminus")
    frac = res["failed"] / res["attempted"]
    assert res["failed"] >= 1 and any("J^-" in e for e in res["errors"]), res
    print(f"ok  perturbed J^- counted: fail_frac {frac:.3g} "
          f"({res['failed']}/{res['attempted']}): {res['errors']}")

    os.makedirs(run.TMP_ROOT, exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=run.TMP_ROOT)
    try:
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        code, out = last_line(["perfbench/run.py", "--workload", "dos-w1",
                               "--seed", "1", "--seconds", "1",
                               "--trace", "0"], cwd=bare)
        assert code != 0 and out is None, (code, out)
    finally:
        shutil.rmtree(bare)
        with contextlib.suppress(OSError):
            os.rmdir(run.TMP_ROOT)
    print(f"ok  without src/: exit {code}, no result line")
    return 0


if __name__ == "__main__":
    sys.exit(main())
