#!/usr/bin/env python3
"""qtmchain benchmark: one workload per process, end to end or traced.

    python3 perfbench/run.py --workload solve-cold --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --make-reference
    python3 perfbench/run.py --self-test

Run from the root of a checkout; the package is imported from its src/.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  See README.md.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402

os.environ.update(common.THREAD_ENV)  # before numpy is imported

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402


def setup_once(workload):
    """Wall time of a fresh interpreter that imports the package and makes
    the workload's first-use set-up."""
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-probe", workload],
        env=common.child_env(), check=True,
    )
    return time.perf_counter() - t0


def timed_passes(W, Q, seed, seconds, ref, workers, passes=None):
    """Whole passes until `seconds` have elapsed (or exactly `passes`)."""
    import numpy as np

    walls, results = [], []
    start = time.perf_counter()
    while True:
        rng = np.random.default_rng([seed, len(walls)])
        t0 = time.perf_counter()
        results.append(W.run_pass(Q, rng, ref, workers))
        walls.append(time.perf_counter() - t0)
        if passes is not None and len(walls) >= passes:
            break
        if passes is None and time.perf_counter() - start >= seconds:
            break
    return walls, results


def anchor_once(W, Q):
    """Wall time of one cold solve at the anchor state."""
    t0 = time.perf_counter()
    Q.solve_nlie(*W.anchor)
    return time.perf_counter() - t0


def summarize(results):
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    checks = [c for r in results for c in r.checks]
    f_errs = [e for r in results for e in r.f_errs]
    return attempted, failed, checks, f_errs


def probe(W, Q, P_names, workers):
    """Small fixed calls into every layer the traced pass did not call, so
    each per-layer time is a measurement on every workload."""
    import numpy as np

    from workloads import eaf_residues, random_root_data

    if "solver.solve_nlie" not in P_names:
        Q.free_energy(Q.solve_nlie(*W.anchor))
    if "thermo.thermo_point" not in P_names:
        n, _ = W.anchor
        Q.thermo_point(n, 2.0, with_chi=False, with_densities=False, workers=workers)
    if not {"tableaux.fused_eigenvalue", "aux_functions.eval_aux"} <= P_names:
        rng = np.random.default_rng(0)
        data = random_root_data(Q, 4, rng)
        ctx = Q.EvalContext(data)
        x = complex(0.3, 1.0)
        for a in range(5):
            for s in range(3):
                Q.fused_eigenvalue(data, a, s, x, ctx)
        for upper, lower in Q.canonical_defs(4):
            Q.eval_aux(upper, data, x, ctx)
            Q.eval_aux(lower, data, x, ctx)
    if not {"spectral.solve_bethe_roots", "spectral.residue_check"} <= P_names:
        eaf_residues(Q, 4, Q.solve_bethe_roots(4, 2, beta=0.7))
    if "oracle.trotter_free_energy" not in P_names:
        Q.trotter_free_energy(4, 4, 2.0)


def stopped_solve_s(Q, n, T):
    t0 = time.perf_counter()
    try:
        Q.solve_nlie(n, T, max_iter=0)
    except Q.QtmChainError:
        pass
    return time.perf_counter() - t0


def run_traced(W, Q, seed, ref, workers):
    import tracing

    tracer = tracing.Tracer(f"{W.name}-seed{seed}-pid{os.getpid()}")
    cost = tracing.span_cost()
    tracer.install()
    # a solve stopped before its first iteration, first on a fresh grid and
    # then twice more: first minus repeat is the grid set-up, a repeat is
    # the fixed cost of one cold solve
    grid_setup_s, fixed = 0.0, {}
    with tracer.span("preamble") as pre_root:
        for n, T in W.distinct_grids(Q):
            first, *repeats = (stopped_solve_s(Q, n, T) for _ in range(3))
            grid_setup_s += first - min(repeats)
            fixed.setdefault(n, []).extend(repeats)
    with tracer.span("pass") as pass_root:
        walls, results = timed_passes(W, Q, seed, 0, ref, workers, passes=1)
    pass_spans = tracing.SpanSet(tracer.spans, pass_root).spans
    n_pass = len(pass_spans)
    with tracer.span("probe") as probe_root:
        probe(W, Q, {s["name"] for s in pass_spans}, workers)
    tracer.uninstall()
    overhead = n_pass * cost
    overhead_pct = 100.0 * overhead / max(walls[0] - overhead, 1e-9)
    metrics = tracing.layer_metrics(
        tracer, pass_root, pre_root, probe_root, grid_setup_s, fixed, overhead_pct, workers
    )
    os.makedirs(common.OUT_DIR, exist_ok=True)
    path = os.path.join(common.OUT_DIR, f"trace-{W.name}-seed{seed}.jsonl")
    tracer.write(path)
    print(f"trace: {len(tracer.spans)} spans -> {os.path.relpath(path, common.ROOT)}; "
          f"{n_pass} in the pass at {cost * 1e6:.2f} us each")
    return results, metrics


def run_untraced(W, Q, seed, seconds, ref, workers):
    # Three samples each of set-up and anchor solve, one before the passes
    # and two after, so that they span the run: the speed of this machine
    # drifts over seconds.
    setup_times = [setup_once(W.name)]
    W.setup(Q)
    solve_times = [anchor_once(W, Q)]
    walls, results = timed_passes(W, Q, seed, seconds, ref, workers)
    solve_times += [anchor_once(W, Q) for _ in range(2)]
    setup_times += [setup_once(W.name) for _ in range(2)]
    setup_s = statistics.median(setup_times)
    solve_s = statistics.median(solve_times)
    _, _, _, f_errs = summarize(results)
    if not f_errs:
        raise SystemExit("perfbench: no free energy was computed to compare with the reference")
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"passes: {len(walls)}, wall_s per pass: {[round(w, 3) for w in walls]}")
    return results, {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(walls), "s"),
        "solve_s": (solve_s, "s"),
        "f_err": (max(f_errs), "J/site"),
        "peak_rss_mb": (peak, "MB"),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--make-reference", action="store_true",
                    help="recompute the cached wide-grid and Trotter references")
    ap.add_argument("--self-test", action="store_true",
                    help="show that every check rejects a perturbed value")
    ap.add_argument("--setup-probe", help=argparse.SUPPRESS)
    ap.add_argument("--reference-part", nargs=2, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    Q = common.import_package()
    import reference
    from workloads import WORKLOADS

    if args.setup_probe:
        WORKLOADS[args.setup_probe].setup(Q)
        return 0
    if args.reference_part:
        kind, cases = args.reference_part
        print(json.dumps(reference.compute_part(kind, [tuple(c) for c in json.loads(cases)])))
        return 0
    if args.make_reference:
        ref = reference.make_reference()
        print(f"wrote {os.path.relpath(reference.cache_path(), common.ROOT)}: "
              f"{len(ref['f'])} free energies, {len(ref['trotter'])} Trotter values")
        return 0
    if args.self_test:
        import selftest

        return selftest.main()
    if args.workload not in WORKLOADS:
        ap.error(f"--workload must be one of {sorted(WORKLOADS)}")

    W = WORKLOADS[args.workload]
    ref = reference.load_reference()
    workers = common.cores()
    if args.trace:
        results, metrics = run_traced(W, Q, args.seed, ref, workers)
    else:
        results, metrics = run_untraced(W, Q, args.seed, args.seconds, ref, workers)
    attempted, failed, checks, _ = summarize(results)
    bad = [c for c in checks if not c.ok]
    shown = {}  # per check name: a failing instance, else the largest value
    for c in checks:
        old = shown.get(c.name)
        if old is None or (old.ok and (not c.ok or c.value > old.value)):
            shown[c.name] = c
    for c in shown.values():
        print(f"check {'ok  ' if c.ok else 'FAIL'} {c.name}: {c.value:.3e} (tol {c.tol:.3e})")
    for name, (val, unit) in metrics.items():
        print(f"metric {name} = {val} {unit}")
    print(json.dumps({
        "correct": not bad and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
