"""In-memory span recorder for the traced benchmark pass.

Spans are recorded around betalab's public functions at the place where the
calling module binds them (``betalab.dos.sample_gaussian``,
``betalab.rates.log_energy_grid``, ...), so the library itself is not
edited.  Each span is ``[layer, start, end, parent, thread, attrs]``.  A span
opened on a worker thread with no open span of its own takes the main
thread's innermost open span as parent, which is the call that submitted the
work.  Per-layer numbers are computed once the pass ends.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import threading
import time

# (module, attribute, layer): every binding site the workloads reach
WRAP_SITES = (
    ("betalab.cli", "main", "cli.main"),
    ("betalab.cli", "sample_gaussian", "sampler.tridiag"),
    ("betalab.cli", "sample_mcmc_batch", "sampler.mcmc"),
    ("betalab.cli", "projection_J", "rates.projection"),
    ("betalab.dos", "sample_gaussian", "sampler.tridiag"),
    ("betalab.dos", "sample_mcmc_batch", "sampler.mcmc"),
    ("betalab.dos", "dos_measure", "dos.stats"),
    ("betalab.dos", "bookkeeping_residual", "dos.stats"),
    ("betalab.dos", "remainder_term", "dos.stats"),
    ("betalab.dos", "wasserstein", "measures.w1"),
    ("betalab.rates", "log_energy_grid", "measures.sigma"),
    ("betalab.rates", "constrained_equilibrium", "equilibrium.constrained"),
    ("betalab.rates", "projection_J", "rates.projection"),
    ("betalab.rates", "kappa", "potential.kappa"),
    ("betalab.potential", "kappa", "potential.kappa"),
    ("betalab.equilibrium", "solve_equilibrium", "equilibrium.solve"),
    ("betalab.equilibrium", "log_kernel_mass_form", "measures.kernel"),
)


def _mcmc_attrs(args, kwargs, result):
    # sample_mcmc_batch(V, beta, n, seed, replicas, sweeps=None, ...)
    n = args[2] if len(args) > 2 else kwargs["n"]
    sweeps = args[5] if len(args) > 5 else kwargs.get("sweeps")
    if sweeps is None:
        sweeps = 30 * n                   # the sampler's default: burn 20N + 10N
    rates = [s.acceptance_rate for s in result]
    return {"site_updates": len(result) * sweeps * n,
            "accept": sum(rates) / len(rates)}


def _constrained_attrs(args, kwargs, result):
    return {"iterations": result.iterations, "gap": result.gap}


ATTRS = {"sampler.mcmc": _mcmc_attrs,
         "equilibrium.constrained": _constrained_attrs}


class Tracer:
    """Records spans in memory; ``install`` patches the binding sites."""

    def __init__(self):
        self.spans = []
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack = []

    def _stack(self):
        if threading.current_thread() is self._main:
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def open(self, layer: str) -> int:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif self._main_stack:
            parent = self._main_stack[-1]
        else:
            parent = None
        idx = len(self.spans)
        self.spans.append([layer, time.perf_counter(), None, parent,
                           threading.get_ident(), {}])
        stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack().pop()

    @contextlib.contextmanager
    def span(self, layer: str):
        idx = self.open(layer)
        try:
            yield idx
        finally:
            self.close(idx)

    def wrap(self, fn, layer: str):
        attrs = ATTRS.get(layer)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if attrs is not None:
                self.spans[idx][5].update(attrs(args, kwargs, result))
            return result

        return traced

    def install(self) -> list:
        """Wrap every binding site; returns the sites this betalab lacks."""
        missing = []
        for modname, attr, layer in WRAP_SITES:
            mod = importlib.import_module(modname)
            if hasattr(mod, attr):
                setattr(mod, attr, self.wrap(getattr(mod, attr), layer))
            else:
                missing.append(f"{modname}.{attr}")
        return missing


def _union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def layer_metrics(spans) -> dict:
    """Per-layer numbers of one traced pass.

    ``<layer>_s`` is busy time: the summed duration of the layer's outermost
    spans (a span nested in a span of the same layer is not counted twice),
    summed over threads, so it can exceed the pass's wall time when two
    threads work at once.  ``cli.self_s`` is the self time of ``cli.main``:
    its duration minus the part of it that child spans cover.
    """
    children = {}
    for i, sp in enumerate(spans):
        if sp[3] is not None:
            children.setdefault(sp[3], []).append(i)

    def outermost(i):
        layer, p = spans[i][0], spans[i][3]
        while p is not None:
            if spans[p][0] == layer:
                return False
            p = spans[p][3]
        return True

    busy, calls = {}, {}
    for i, sp in enumerate(spans):
        calls[sp[0]] = calls.get(sp[0], 0) + 1
        if outermost(i):
            busy[sp[0]] = busy.get(sp[0], 0.0) + (sp[2] - sp[1])

    def of_layer(layer):
        return [sp for sp in spans if sp[0] == layer]

    cli_self = 0.0
    for i, sp in enumerate(spans):
        if sp[0] == "cli.main":
            kids = [(spans[k][1], spans[k][2]) for k in children.get(i, [])]
            cli_self += (sp[2] - sp[1]) - _union_length(kids, sp[1], sp[2])

    # attrs stay empty on a call that raised
    mcmc = [sp[5] for sp in of_layer("sampler.mcmc") if sp[5]]
    site_updates = sum(a["site_updates"] for a in mcmc)
    accept = (sum(a["accept"] * a["site_updates"] for a in mcmc)
              / site_updates) if site_updates else 0.0
    solves = [sp[5] for sp in of_layer("equilibrium.constrained") if sp[5]]
    proj = [i for i, sp in enumerate(spans) if sp[0] == "rates.projection"
            and outermost(i)]
    misses = sum(1 for i in proj if any(
        spans[k][0] == "equilibrium.constrained"
        for k in children.get(i, [])))

    return {
        "sampler.tridiag_s": busy.get("sampler.tridiag", 0.0),
        "sampler.tridiag_calls": calls.get("sampler.tridiag", 0),
        "sampler.mcmc_s": busy.get("sampler.mcmc", 0.0),
        "sampler.mcmc_site_updates": site_updates,
        "sampler.mcmc_accept": accept,
        "dos.stats_s": busy.get("dos.stats", 0.0),
        "dos.stats_calls": calls.get("dos.stats", 0),
        "measures.w1_s": busy.get("measures.w1", 0.0),
        "measures.w1_calls": calls.get("measures.w1", 0),
        "measures.sigma_s": busy.get("measures.sigma", 0.0),
        "measures.sigma_calls": calls.get("measures.sigma", 0),
        "measures.kernel_s": busy.get("measures.kernel", 0.0),
        "equilibrium.solve_s": busy.get("equilibrium.solve", 0.0),
        "equilibrium.solve_calls": calls.get("equilibrium.solve", 0),
        "equilibrium.constrained_s": busy.get("equilibrium.constrained", 0.0),
        "equilibrium.fw_iters": sum(a["iterations"] for a in solves),
        "equilibrium.fw_gap_max": max((a["gap"] for a in solves),
                                      default=0.0),
        "rates.projection_calls": len(proj),
        "rates.projection_hit_ratio":
            (len(proj) - misses) / len(proj) if proj else 0.0,
        "potential.kappa_s": busy.get("potential.kappa", 0.0),
        "potential.kappa_calls": calls.get("potential.kappa", 0),
        "cli.self_s": cli_self,
    }
