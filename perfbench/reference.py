"""Cached wide-grid references, keyed by a hash of the package source.

The reference free energies come from the same NLIE on a grid with
L = 320 and M = 16384 (4x the half-width and 4x the points of the default
grid); the finite-Trotter QTM free energies are oracle values.  Both
depend only on ``src/qtmchain``, so the cache file is named by the hash
of that tree: a change to the method gets a fresh reference, and no copy
of a reference is committed.  ``run.py --make-reference`` rebuilds it.
"""

import hashlib
import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

from common import OUT_DIR, SRC_DIR, child_env
from physics import TROTTER_NS
from workloads import REF_F_CASES, TROTTER_CASES

REF_GRID = (320.0, 16384)


def source_hash():
    h = hashlib.sha256()
    h.update(repr((REF_GRID, REF_F_CASES, TROTTER_CASES)).encode())
    pkg = os.path.join(SRC_DIR, "qtmchain")
    for root, dirs, files in os.walk(pkg):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(root, name)
                h.update(os.path.relpath(path, pkg).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def cache_path():
    return os.path.join(OUT_DIR, f"reference-{source_hash()}.json")


def key_f(n, T):
    return f"{n}:{T!r}"


def key_trotter(n, N, T):
    return f"{n}:{N}:{T!r}"


def compute_part(kind, cases):
    """Runs in a child process: the wide-grid solves use ~0.5 GB each."""
    import warnings

    from qtmchain import Grid, free_energy, solve_nlie, trotter_free_energy

    out = {}
    for case in cases:
        if kind == "f":
            n, T = case
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                st = solve_nlie(n, T, grid=Grid(*REF_GRID))
            out[key_f(n, T)] = free_energy(st)
        else:
            n, N, T = case
            out[key_trotter(n, N, T)] = float(trotter_free_energy(n, N, T))
    return out


def _run_part(kind, cases):
    proc = subprocess.run(
        [sys.executable, os.path.join(os.path.dirname(__file__), "run.py"),
         "--reference-part", kind, json.dumps(cases)],
        env=child_env(), capture_output=True, text=True, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"reference part failed:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def make_reference(workers=2):
    """Compute every reference in `workers` child processes and write the
    cache file atomically."""
    cases = sorted(REF_F_CASES, key=lambda c: c[1])  # slow low-T cases spread out
    parts = [("f", cases[i::workers]) for i in range(workers)]
    parts.append(("trotter", list(TROTTER_CASES)))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        results = list(pool.map(lambda p: _run_part(*p), parts))
    ref = {"source_hash": source_hash(), "grid": list(REF_GRID), "f": {}, "trotter": {}}
    for (kind, _), res in zip(parts, results):
        ref["f" if kind == "f" else "trotter"].update(res)
    os.makedirs(OUT_DIR, exist_ok=True)
    path = cache_path()
    tmp = f"{path}.{os.getpid()}.tmp"
    with open(tmp, "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
    os.replace(tmp, path)
    return ref


class Reference:
    def __init__(self, data):
        self.data = data

    def f(self, n, T):
        return self.data["f"][key_f(n, T)]

    def trotter(self, n, T):
        return [self.data["trotter"][key_trotter(n, N, T)] for N in TROTTER_NS]


def load_reference():
    """The cached reference for this source tree, made first if missing."""
    path = cache_path()
    if os.path.exists(path):
        with open(path) as fh:
            return Reference(json.load(fh))
    return Reference(make_reference())
