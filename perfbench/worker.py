"""One benchmark pass in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed S --index I \\
        --out DIR --result FILE --t0 T [--trace] [--toy] [--env] [--corrupt jminus]

``--t0`` is ``time.monotonic()`` taken by the parent just before it started
this process, so ``setup_s`` covers interpreter start-up and the import of
``betalab.cli`` (numpy and scipy included).  The pass runs against the
``src/`` tree of the checkout this file sits in, writes only under ``--out``,
and leaves its numbers in ``--result`` as JSON.
"""
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def _arg(name, default=None):
    return sys.argv[sys.argv.index(name) + 1] if name in sys.argv else default


if not os.path.isfile(os.path.join(SRC, "betalab", "cli.py")):
    sys.exit(f"worker: no betalab sources under {SRC}")
sys.path.insert(0, SRC)
import betalab.cli  # noqa: E402

SETUP_S = time.monotonic() - float(_arg("--t0"))

import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402
from run import WORKLOADS  # noqa: E402


def _openblas_libs():
    """(path, threads, config) of every OpenBLAS library this process mapped."""
    with open("/proc/self/maps") as fh:
        paths = sorted({line.split()[-1] for line in fh
                        if "openblas" in line.lower() and "/" in line})
    out = []
    for path in paths:
        lib = ctypes.CDLL(path)
        info = {"library": os.path.basename(path)}
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}",
                                  None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads is not None and config is not None:
                    config.restype = ctypes.c_char_p
                    info["threads"] = threads()
                    info["config"] = config().decode()
        out.append(info)
    return out


def environment() -> dict:
    try:
        blas = _openblas_libs()
    except OSError as exc:
        blas = [{"error": repr(exc)}]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "betalab": betalab.__version__,
        "betalab_path": os.path.dirname(betalab.__file__),
        "openblas": blas,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def main() -> None:
    name = _arg("--workload")
    size = workloads.SIZES["toy" if "--toy" in sys.argv else "full"]
    tracer = spans.Tracer() if "--trace" in sys.argv else None
    if tracer is not None:
        for site in tracer.install():
            print(f"worker: no {site} to trace; its layer reads 0",
                  file=sys.stderr)
    session = workloads.Session(_arg("--out"))
    rng = workloads.pass_inputs(int(_arg("--seed")), int(_arg("--index")))
    run = workloads.WORKLOADS[name]

    t = time.perf_counter()
    if tracer is None:
        run(session, rng, size, _arg("--corrupt"))
    else:
        with tracer.span("pass"):
            run(session, rng, size, _arg("--corrupt"))
    wall_s = time.perf_counter() - t

    attempted = WORKLOADS[name]
    result = {
        "setup_s": SETUP_S,
        "wall_s": wall_s,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0,
        "attempted": attempted,
        # an operation skipped because its input failed counts as failed
        "failed": len(session.failed) + attempted - len(session.ops),
        "errors": session.errors,
    }
    if tracer is not None:
        result["layers"] = spans.layer_metrics(tracer.spans)
        result["layers"]["cli.bytes_written"] = session.bytes_written()
    if "--env" in sys.argv:
        result["environment"] = environment()
    with open(_arg("--result"), "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
