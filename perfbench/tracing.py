"""Span tracing from outside the package, and the per-layer metrics.

The tracer wraps the public calls into each module (the list below) by
replacing the module attributes, in every ``qtmchain`` module that holds
them, so calls between modules (``thermo`` -> ``solver``) are seen too.
Nothing in ``src/`` is changed.  Spans live in memory, as (id, name,
start, end, parent, run, thread, attributes), and are written out as JSON
lines when the run ends.  A span opened in a worker thread with no span of
its own takes as parent the span open on the main thread.
"""

import functools
import itertools
import json
import statistics
import sys
import threading
import time
from contextlib import contextmanager

import numpy as np


def _solve_attrs(args, kwargs, out):
    return {
        "n": out.n,
        "iterations": int(out.iterations),
        "restarts": int(out.diagnostics.get("restarts", 0)),
        "warm": kwargs.get("logb0") is not None,
        "F": int(out.logb.shape[0]),
        "M": int(out.grid.points),
        "L": float(out.grid.half_width),
        "complex_W": bool(np.iscomplexobj(out.logb_inf)),
    }


def _point_attrs(args, kwargs, out):
    return {"workers": kwargs.get("workers")}


# (module, attribute, class or None, span attributes)
TARGETS = (
    ("kernels", "matrix", "KernelSystem", None),
    ("solver", "solve_nlie", None, _solve_attrs),
    ("solver", "free_energy", None, None),
    ("thermo", "thermo_point", None, _point_attrs),
    ("thermo", "sweep", None, None),
    ("tableaux", "fused_eigenvalue", None, None),
    ("aux_functions", "eval_aux", None, None),
    ("aux_functions", "check_y_relations", None, None),
    ("aux_functions", "legacy_cross_relations", None, None),
    ("spectral", "solve_bethe_roots", None, None),
    ("spectral", "eaf_factorization", None, None),
    ("spectral", "residue_check", None, None),
    ("oracle", "trotter_free_energy", None, None),
)


class Tracer:
    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = threading.get_ident()
        self._main_stack = []
        self._undo = []
        self.origin = time.perf_counter()

    def _stack(self):
        if threading.get_ident() == self._main:
            return self._main_stack
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def _open(self):
        st = self._stack()
        if st:
            parent = st[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else None
        with self._lock:
            sid = next(self._ids)
        st.append(sid)
        return st, sid, parent

    def _close(self, st, sid, parent, name, t0, error):
        t1 = time.perf_counter()
        st.pop()
        span = {
            "id": sid, "name": name, "start": t0, "end": t1, "parent": parent,
            "run": self.run_id, "thread": threading.get_ident(),
        }
        if error:
            span["error"] = True
        self.spans.append(span)
        return span

    @contextmanager
    def span(self, name):
        st, sid, parent = self._open()
        t0 = time.perf_counter()
        error = True
        try:
            yield sid
            error = False
        finally:
            self._close(st, sid, parent, name, t0, error)

    def wrap(self, name, fn, attrs=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st, sid, parent = self._open()
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self._close(st, sid, parent, name, t0, True)
                raise
            span = self._close(st, sid, parent, name, t0, False)
            if attrs is not None:
                span["attrs"] = attrs(args, kwargs, out)
            return out

        return traced

    def install(self):
        """Wrap every target in every loaded qtmchain module."""
        modules = [m for k, m in list(sys.modules.items())
                   if (k == "qtmchain" or k.startswith("qtmchain.")) and m is not None]
        for mod_name, attr, cls_name, attrs in TARGETS:
            home = sys.modules[f"qtmchain.{mod_name}"]
            if cls_name is not None:
                cls = getattr(home, cls_name)
                orig = cls.__dict__[attr]
                setattr(cls, attr, self.wrap(f"{mod_name}.{cls_name}.{attr}", orig, attrs))
                self._undo.append((cls, attr, orig))
                continue
            orig = getattr(home, attr)
            wrapped = self.wrap(f"{mod_name}.{attr}", orig, attrs)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, wrapped)
                        self._undo.append((mod, key, orig))

    def uninstall(self):
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()

    def write(self, path):
        with open(path, "w") as fh:
            for sp in sorted(self.spans, key=lambda s: s["start"]):
                rec = dict(sp, start=sp["start"] - self.origin, end=sp["end"] - self.origin)
                fh.write(json.dumps(rec) + "\n")


def span_cost(calls=20000):
    """Seconds one traced call adds, measured on a no-op function."""
    def noop():
        return None

    probe = Tracer("calibration")
    traced = probe.wrap("noop", noop)
    t0 = time.perf_counter()
    for _ in range(calls):
        noop()
    bare = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(calls):
        traced()
    return max(time.perf_counter() - t0 - bare, 0.0) / calls


# ----------------------------------------------------------------------
# per-layer metrics

class SpanSet:
    def __init__(self, spans, root):
        by_id = {s["id"]: s for s in spans}
        self.by_id = by_id
        self.spans = [s for s in spans if self.under(s, root)]

    def under(self, span, root):
        pid = span["parent"]
        while pid is not None:
            if pid == root:
                return True
            pid = self.by_id[pid]["parent"] if pid in self.by_id else None
        return False

    def named(self, name):
        return [s for s in self.spans if s["name"] == name and not s.get("error")]

    def durations(self, name):
        return [s["end"] - s["start"] for s in self.named(name)]


def _dur(s):
    return s["end"] - s["start"]


def _median(vals, scale=1.0):
    return statistics.median(vals) * scale if vals else None


def iter_cost(solves, fixed):
    """(s per iteration, fixed s) for the solves of the largest n: the fixed
    cost is the median solve stopped before its first iteration, and the
    rest of each solve's time is spread over its iterations."""
    if not solves:
        return None
    n = max(s["attrs"]["n"] for s in solves)
    fixed_s = statistics.median(fixed[n])
    mine = [s for s in solves if s["attrs"]["n"] == n]
    its = sum(s["attrs"]["iterations"] for s in mine)
    return (sum(_dur(s) for s in mine) - fixed_s * len(mine)) / its, fixed_s


def thermo_stats(spans):
    points = spans.named("thermo.thermo_point")
    if not points:
        return None
    per_point = []
    for p in points:
        solves = [s for s in spans.named("solver.solve_nlie") if spans.under(s, p["id"])]
        busy = sum(_dur(s) for s in solves)
        workers = p["attrs"]["workers"] or 1
        per_point.append((len(solves), busy, _dur(p), workers))
    return {
        "solves_per_point": statistics.mean(c for c, _, _, _ in per_point),
        "solve_busy_s": statistics.mean(b for _, b, _, _ in per_point),
        "parallel_eff": sum(b for _, b, _, _ in per_point)
        / sum(d * w for _, _, d, w in per_point),
        "point_s": statistics.median(d for _, _, d, _ in per_point),
    }


def grid_mb(solves, concurrency):
    """Computed, not measured: the F x F x M real kernel array of each
    distinct grid, plus one F x F x M preconditioner per concurrent solve."""
    grids = {}
    for s in solves:
        a = s["attrs"]
        grids[(a["n"], a["L"], a["M"])] = a
    if not grids:
        return 0.0
    kernel = sum(a["F"] ** 2 * a["M"] * 8 for a in grids.values())
    big = max(grids.values(), key=lambda a: a["F"] ** 2 * a["M"])
    precond = big["F"] ** 2 * big["M"] * (16 if big["complex_W"] else 8)
    return (kernel + concurrency * precond) / 1e6


def layer_metrics(tracer, pass_root, pre_root, probe_root, grid_setup_s, fixed,
                  overhead_pct, workers):
    """Each metric from the spans of the traced pass; a time whose layer the
    pass never calls comes from the probe that follows it.  Counts come
    from the pass alone."""
    P = SpanSet(tracer.spans, pass_root)
    R = SpanSet(tracer.spans, pre_root)
    B = SpanSet(tracer.spans, probe_root)

    def pick(fn):
        val = fn(P)
        return val if val is not None else fn(B)

    solves = P.named("solver.solve_nlie")
    cold = [s for s in solves if not s["attrs"]["warm"]]
    warm = [s for s in solves if s["attrs"]["warm"]]
    fit = pick(lambda S: iter_cost(S.named("solver.solve_nlie"), fixed))
    th = pick(thermo_stats)
    th_pass = thermo_stats(P)
    qtm = pick(lambda S: sum(S.durations("oracle.trotter_free_energy")) or None)
    concurrency = workers if th_pass else 1
    return {
        "kernels.matrix_s": (_median(R.durations("kernels.KernelSystem.matrix")), "s"),
        "solver.grid_setup_s": (grid_setup_s, "s"),
        "solver.grid_mb": (grid_mb(solves or B.named("solver.solve_nlie"), concurrency), "MB"),
        "solver.iterations_cold": (sum(s["attrs"]["iterations"] for s in cold), "count"),
        "solver.iterations_warm": (statistics.mean(s["attrs"]["iterations"] for s in warm)
                                   if warm else 0.0, "count"),
        "solver.iter_ms": (fit[0] * 1e3, "ms"),
        "solver.fixed_s": (fit[1], "s"),
        "solver.free_energy_ms": (pick(lambda S: _median(S.durations("solver.free_energy"),
                                                         1e3)), "ms"),
        "solver.restarts": (sum(s["attrs"]["restarts"] for s in solves), "count"),
        "thermo.solves_per_point": (th_pass["solves_per_point"] if th_pass else 0.0, "count"),
        "thermo.solve_busy_s": (th["solve_busy_s"], "s"),
        "thermo.parallel_eff": (th["parallel_eff"], "ratio"),
        "thermo.point_s": (th["point_s"], "s"),
        "tableaux.fused_eigenvalue_us": (pick(lambda S: _median(
            S.durations("tableaux.fused_eigenvalue"), 1e6)), "us"),
        "aux_functions.eval_aux_us": (pick(lambda S: _median(
            S.durations("aux_functions.eval_aux"), 1e6)), "us"),
        "spectral.residue_check_ms": (pick(lambda S: _median(
            S.durations("spectral.residue_check"), 1e3)), "ms"),
        "spectral.bethe_roots_s": (pick(lambda S: _median(
            S.durations("spectral.solve_bethe_roots"))), "s"),
        "oracle.qtm_s": (qtm, "s"),
        "trace.overhead_pct": (overhead_pct, "%"),
    }
