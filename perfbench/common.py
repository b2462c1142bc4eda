"""Paths and the process environment shared by every benchmark process."""

import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC_DIR = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, ".out")

# BLAS is held to one thread; thermo_point's own workers use the cores.
THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def cores():
    return len(os.sched_getaffinity(0))


def child_env():
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = SRC_DIR
    env.pop("QTM_THREADS", None)
    return env


def import_package():
    """Import qtmchain from this checkout's src/ and nowhere else."""
    for key, val in THREAD_ENV.items():
        os.environ.setdefault(key, val)
    if not os.path.isfile(os.path.join(SRC_DIR, "qtmchain", "__init__.py")):
        raise SystemExit(f"perfbench: no package source at {SRC_DIR}/qtmchain")
    if sys.path[0] != SRC_DIR:
        sys.path.insert(0, SRC_DIR)
    import qtmchain

    where = os.path.realpath(os.path.dirname(qtmchain.__file__))
    if where != os.path.realpath(os.path.join(SRC_DIR, "qtmchain")):
        raise SystemExit(f"perfbench: qtmchain imported from {where}, not from {SRC_DIR}")
    return qtmchain
