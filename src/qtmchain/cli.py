"""Command-line entry point: verification suites, solves, sweeps, oracles.

Exit codes: 0 success, 1 assertion/verification failure, 2 configuration
error.  All randomized suites take a seed and are reproducible from it.
"""

import argparse
import json
import sys
from dataclasses import replace

import numpy as np

from . import __version__
from .aux_functions import (
    canonical_defs,
    check_species_conjugation,
    check_y_relations,
    eval_aux,
    legacy_cross_relations,
)
from .errors import QtmChainError
from .kernels import kernel_system
from .oracle import (
    _phi_normalized,
    _sector_spectra,
    finite_free_energy,
    qtm_eigenvalue,
    spin2_identity_residual,
    ybe_residual,
)
from .solver import asymptotic_constants, asymptotic_residual, default_grid, solve_nlie
from .spectral import (
    adjacency_matrix,
    bae_residuals,
    eaf_factorization,
    residue_check,
    solve_bethe_roots,
)
from .tableaux import EvalContext, RootData, check_functional_relation
from .thermo import parse_t_range, sweep

FMT = "%.12e"
_FUSION_DRAWS, _FUSION_XS = 25, 5  # root-data draws per n, x per draw
_AUX_DRAWS, _AUX_XS, _Y_DRAWS = 12, 3, 4


def _emit(text, path, echo=False):
    """Write text to the file at path when one is given, and to stdout
    when none is, or when echo is set."""
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    if echo or not path:
        sys.stdout.write(text)


def _row(relation, n, draws, worst):
    """One check of a verify report."""
    return {"relation": relation, "n": n, "draws": draws, "max_residual": worst}


def random_root_data(n, rng, max_roots=2):
    """Random draw used by every verification suite (seed-reproducible)."""
    N = int(rng.choice([0, 2, 4]))
    tau = float(rng.uniform(0.1, 0.8))
    roots = tuple(
        tuple(
            complex(rng.uniform(-1.5, 1.5), rng.uniform(-0.2, 0.2))
            for _ in range(int(rng.integers(0, max_roots + 1)))
        )
        for _ in range(n - 1)
    )
    mu = tuple(float(rng.uniform(-0.4, 0.4)) for _ in range(n))
    return RootData(n=n, N=N, tau=tau, mu=mu, beta=1.0, roots=roots)


def random_x(rng):
    """Spectral parameter a safe distance from the root strip |Im| <= 0.2
    and from its i/2-shifted copies."""
    return complex(rng.uniform(-2.0, 2.0), rng.uniform(0.85, 1.3))


def _suite_fusion(seed):
    rng = np.random.default_rng(seed)
    report = []
    for n in range(2, 6):
        worst = 0.0
        for _ in range(_FUSION_DRAWS):
            data = random_root_data(n, rng)
            for _ in range(_FUSION_XS):
                x = random_x(rng)
                a = int(rng.integers(1, n))
                s = int(rng.integers(1, 4))
                worst = max(
                    worst, check_functional_relation(data, "t_system", x, a=a, s=s)
                )
        report.append(_row("t_system", n, _FUSION_DRAWS, worst))
    return report


def _suite_aux(seed):
    rng = np.random.default_rng(seed)
    report = []
    for n in range(2, 6):
        worst = 0.0
        for _ in range(_AUX_DRAWS):
            data = random_root_data(n, rng)
            ctx = EvalContext(data)
            for _ in range(_AUX_XS):
                x = random_x(rng)
                for upper, lower in canonical_defs(n):
                    B = eval_aux(upper, data, x, ctx)
                    b = eval_aux(lower, data, x, ctx)
                    worst = max(worst, abs(B - 1.0 - b) / (1.0 + abs(B)))
        report.append(_row("B=1+b", n, _AUX_DRAWS, worst))
    for n in (4, 5):
        worst = 0.0
        for _ in range(_Y_DRAWS):
            data = random_root_data(n, rng, max_roots=1)
            res = check_y_relations(n, data, random_x(rng))
            worst = max(worst, max(res.values()))
        report.append(_row("y_system", n, _Y_DRAWS, worst))
    worst = 0.0
    for _ in range(_AUX_DRAWS):
        data = random_root_data(4, rng)
        worst = max(worst, max(legacy_cross_relations(data, random_x(rng)).values()))
    report.append(_row("legacy_f_relations", 4, _AUX_DRAWS, worst))
    for n in (3, 4, 5):
        worst = 0.0
        for _ in range(3):
            data = random_root_data(n, rng, max_roots=1)
            worst = max(
                worst, max(check_species_conjugation(n, data, random_x(rng)).values())
            )
        report.append(_row("species_conjugation", n, 3, worst))
    return report


def _suite_eaf(seed):
    rng = np.random.default_rng(seed)
    report = []
    for n in (2, 3, 4, 5):
        data = solve_bethe_roots(n, 2, beta=float(rng.uniform(0.4, 0.9)))
        report.append(_row("bae", n, 1, max(bae_residuals(data))))
        worst = 0.0
        for a in range(1, n):
            adj = adjacency_matrix(n, a)
            nv = len(adj.vertices)
            for start in range(nv):
                for stop in range(start + 1, nv + 1):
                    try:
                        fact = eaf_factorization(n, a, tuple(range(start, stop)))
                    except QtmChainError:
                        continue
                    worst = max(worst, residue_check(fact, data))
        report.append(_row("eaf_residues", n, 1, worst))
    return report


def _suite_kernel(seed):
    rng = np.random.default_rng(seed)
    report = []
    for n in (4, 5):
        sy = kernel_system(n)
        ks = rng.uniform(-30, 30, size=50)
        worst = float(np.max(np.abs(sy.matrix(ks) - sy.matrix(-ks).transpose(1, 0, 2))))
        report.append(_row("hermiticity", n, 50, worst))
        c_unif = sy.constants((1.0,) * n, 1.0)
        report.append(_row("constants_sum_zero", n, 1, float(np.max(np.abs(c_unif)))))
        mu = tuple(float(rng.uniform(-0.3, 0.3)) for _ in range(n))
        logb_inf, logB_inf = asymptotic_constants(n, T=1.3, mu=mu)
        report.append(_row("asymptotic_fixed_point", n, 1,
                           asymptotic_residual(n, 1.3, mu, logb_inf, logB_inf)))
    return report


_SUITES = {
    "fusion": _suite_fusion,
    "aux": _suite_aux,
    "eaf": _suite_eaf,
    "kernel": _suite_kernel,
}

_SUITE_TOL = 1e-10


def cmd_verify(args):
    names = list(_SUITES) if args.suite == "all" else [args.suite]
    report = []
    for name in names:
        report.extend(_SUITES[name](args.seed))
    failed = [r for r in report if r["max_residual"] > _SUITE_TOL]
    out = {
        "version": __version__,
        "seed": args.seed,
        "tolerance": _SUITE_TOL,
        "checks": report,
        "passed": not failed,
    }
    _emit(json.dumps(out, indent=2, sort_keys=True) + "\n", args.out, echo=True)
    return 0 if not failed else 1


def cmd_solve(args):
    mu = tuple(float(v) for v in args.mu.split(",")) if args.mu else None
    given = {"points": args.points, "half_width": args.half_width}
    grid = replace(default_grid(args.temp),
                   **{key: v for key, v in given.items() if v is not None})
    state = solve_nlie(
        args.n, args.temp, mu=mu, J=args.J, grid=grid,
        damping=args.damping, tol=args.tol,
    )
    payload = state.to_dict()
    if args.out:
        _emit(json.dumps(payload), args.out)
    print(
        f"n={args.n} T={args.temp}: converged in {state.iterations} iterations, "
        f"residual {state.residual:.3e}, f = {payload['f']:.12f}"
    )
    return 0


def cmd_sweep(args):
    mu = tuple(float(v) for v in args.mu.split(",")) if args.mu else None
    temps = parse_t_range(args.temp)
    points, failures = sweep(
        args.n, temps, mu=mu, J=args.J,
        with_densities=args.densities, with_chi=args.chi,
    )
    n = args.n
    cols = ["T"] + [f"mu_{i+1}" for i in range(n)] + ["f", "S", "C"]
    if args.densities:
        cols += [f"n_{i+1}" for i in range(n)]
    if args.chi:
        cols += [f"chi_{i+1}{j+1}" for i in range(n) for j in range(n)]
    lines = [",".join(cols)]
    lines += [",".join(FMT % v for v in pt.row()) for pt in points]
    _emit("\n".join(lines) + "\n", args.out)
    for T, err in failures:
        print(f"FAILED at T={T}: {err}", file=sys.stderr)
    print(_sweep_summary(points), file=sys.stderr)
    return 0 if not failures else 1


def _sweep_summary(points):
    """One line totalled from the points' meta: points, solves, iterations,
    the worst residual, the slowest solve, the worst tail fit residual and
    the largest far-field coefficients |A2|, |A3| of the points' nonlinear
    solves, and the preconditioners built."""
    metas = [pt.meta for pt in points]

    def worst(key):
        return max((m[key] for m in metas), default=0.0)

    return (
        f"sweep: {len(metas)} points, {sum(m['solves'] for m in metas)} solves, "
        f"{sum(m['iterations'] for m in metas)} iterations, "
        f"worst residual {worst('residual'):.2e}, "
        f"slowest solve {worst('slowest_solve_s'):.3f} s, "
        f"worst tail fit {worst('tail_fit_residual'):.2e} "
        f"(|A2| {worst('tail_A2'):.2e}, |A3| {worst('tail_A3'):.2e}), "
        f"{sum(m['preconditioners_built'] for m in metas)} preconditioners built"
    )


def cmd_oracle(args):
    out = {"oracle": args.which}
    ok = True
    if args.which == "ed":
        # f first: it refuses T before any block is built
        f = finite_free_energy(args.n, args.L, args.temp, J=args.J, periodic=not args.open)
        e0 = min(energies[0] for _, energies in _sector_spectra(args.n, args.L, not args.open))
        out.update({"n": args.n, "L": args.L, "ground_energy_per_site": float(e0 / args.L),
                    "f": f, "T": args.temp})
    elif args.which == "qtm":
        lam = qtm_eigenvalue(args.n, args.N, T=args.temp, J=args.J)
        out.update(
            {
                "n": args.n, "N": args.N, "T": args.temp,
                "eigenvalue": [lam.real, lam.imag],
                "trotter_f": _phi_normalized(lam, args.N, args.temp, J=args.J),
            }
        )
    elif args.which == "ybe":
        res = ybe_residual(args.n)
        out.update({"n": args.n, "residual": res})
        ok = res < 1e-12
    elif args.which == "spin2":
        res, const = spin2_identity_residual()
        out.update({"residual": res, "fitted_constant": const})
        ok = res < 1e-12
    _emit(json.dumps(out, indent=2, sort_keys=True) + "\n", args.out, echo=True)
    return 0 if ok else 1


def cmd_dump_kernel(args):
    sy = kernel_system(args.n)
    K = sy.matrix(args.k)
    _emit("".join(",".join(FMT % v for v in row) + "\n" for row in K), args.out)
    return 0


def build_parser():
    p = argparse.ArgumentParser(
        prog="qtmchain",
        description="Thermodynamics of sl(n)-invariant chains from "
        "nonlinear integral equations, with tableau and ED cross-checks",
    )
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run randomized identity suites")
    v.add_argument("--suite", choices=[*_SUITES, "all"], default="all")
    v.add_argument("--seed", type=int, default=42)
    v.add_argument("--out", default=None)
    v.set_defaults(func=cmd_verify)

    s = sub.add_parser("solve", help="solve one NLIE system")
    s.add_argument("--n", type=int, choices=(4, 5), required=True)
    s.add_argument("--temp", type=float, required=True)
    s.add_argument("--mu", default=None, help="comma-separated chemical potentials")
    s.add_argument("--J", type=float, default=1.0)
    s.add_argument("--points", type=int, default=None,
                   help="grid points (default: those of default_grid)")
    s.add_argument("--half-width", type=float, default=None)
    s.add_argument("--damping", type=float, default=0.0)
    s.add_argument("--tol", type=float, default=1e-12)
    s.add_argument("--out", default=None)
    s.set_defaults(func=cmd_solve)

    w = sub.add_parser("sweep", help="temperature sweep to CSV")
    w.add_argument("--n", type=int, choices=(4, 5), required=True)
    w.add_argument("--temp", required=True, help="min:max:COUNT{log|lin}")
    w.add_argument("--mu", default=None)
    w.add_argument("--J", type=float, default=1.0)
    w.add_argument("--densities", action="store_true")
    w.add_argument("--chi", action="store_true")
    w.add_argument("--out", default=None)
    w.set_defaults(func=cmd_sweep)

    o = sub.add_parser("oracle", help="exact-diagonalization cross-checks")
    o.add_argument("which", choices=("ed", "qtm", "ybe", "spin2"))
    o.add_argument("--n", type=int, default=4)
    o.add_argument("--L", type=int, default=4)
    o.add_argument("--N", type=int, default=4)
    o.add_argument("--temp", type=float, default=1.0)
    o.add_argument("--J", type=float, default=1.0)
    o.add_argument("--open", action="store_true", help="open boundary conditions")
    o.add_argument("--out", default=None)
    o.set_defaults(func=cmd_oracle)

    d = sub.add_parser("dump-kernel", help="kernel matrix at one k as CSV")
    d.add_argument("--n", type=int, choices=(4, 5), required=True)
    d.add_argument("--k", type=float, required=True)
    d.add_argument("--out", default=None)
    d.set_defaults(func=cmd_dump_kernel)
    return p


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ValueError, OSError) as err:  # DomainError is a ValueError
        print(f"configuration error: {err}", file=sys.stderr)
        return 2
    except QtmChainError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
