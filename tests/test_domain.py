"""Every public entry refuses an argument outside its domain up front.

One table of entry points, each with valid arguments and the bad values
of each argument it takes, generates the cases.  Each case asserts a
DomainError before the entry's first expensive call: spies stand in for
those calls (a grid system, the ED spectra, the QTM sites, the kernel
tables, the Bethe equations) and record any that runs.  The CLI commands
that reach the same entries exit 2 with a configuration error.
"""

import math

import numpy as np
import pytest

from qtmchain import aux_functions, kernels, oracle, solver, spectral, thermo
from qtmchain.cli import main
from qtmchain.errors import DomainError
from qtmchain.tableaux import RootData

NAN, INF = math.nan, math.inf

TABULATED_RANK = (0, 3, 6, 4.5, NAN, "4")
RANK = (0, 1, -2, 4.5, NAN)
POSITIVE = (0.0, -1.0, NAN, INF, "one")
FINITE = (NAN, INF, -INF, None)
SITES = (0, -1, 2.5, NAN)
TROTTER = (0, -2, 3, 2.5, NAN)
# four potentials expected: too few, too many, one NaN, one infinite, no sequence
POTENTIALS = ((0.1, 0.2), (0.0,) * 5, (0.0, NAN, 0.0, 0.0), (0.0, 0.0, 0.0, INF), 0.5)

# (entry, callable, valid arguments, {argument: bad values})
TABLE = [
    ("solve_nlie", solver.solve_nlie, dict(n=4, T=1.0, mu=None, J=1.0),
     dict(n=TABULATED_RANK, T=POSITIVE, mu=POTENTIALS, J=FINITE)),
    ("asymptotic_constants", solver.asymptotic_constants, dict(n=4, T=1.0, mu=None),
     dict(n=TABULATED_RANK, T=POSITIVE, mu=POTENTIALS)),
    ("gamma_term", solver.gamma_term, dict(n=4, x=0.5), dict(n=RANK)),
    ("Grid", solver.Grid, dict(half_width=50.0, points=1024),
     dict(half_width=POSITIVE, points=(0, 4, 1000, 1024.0, 1024.5, "1024"))),
    ("thermo_point", thermo.thermo_point, dict(n=4, T=1.0, mu=None, J=1.0),
     dict(n=TABULATED_RANK, T=POSITIVE, mu=POTENTIALS, J=FINITE)),
    ("sweep", thermo.sweep, dict(n=4, temperatures=[1.0], mu=None, J=1.0),
     dict(n=TABULATED_RANK, mu=POTENTIALS, J=FINITE)),
    ("finite_free_energy", oracle.finite_free_energy, dict(n=4, L=4, T=1.0, mu=None, J=1.0),
     dict(n=RANK, L=SITES, T=POSITIVE, mu=POTENTIALS, J=FINITE)),
    ("qtm_eigenvalue", oracle.qtm_eigenvalue, dict(n=4, N=4, T=1.0, J=1.0, mu=None),
     dict(n=RANK, N=TROTTER, T=POSITIVE, mu=POTENTIALS, J=FINITE)),
    ("trotter_free_energy", oracle.trotter_free_energy, dict(n=4, N=4, T=1.0, J=1.0, mu=None),
     dict(n=RANK, N=TROTTER, T=POSITIVE, mu=POTENTIALS, J=FINITE)),
    ("qtm_matrix", oracle.qtm_matrix, dict(n=4, N=2, T=1.0, J=1.0, mu=None),
     dict(n=RANK, N=TROTTER, T=POSITIVE, mu=POTENTIALS, J=FINITE)),
    ("qtm_matvec", oracle.qtm_matvec,
     dict(n=4, N=2, tau=0.5, beta_mu=None, x=0.0, v=np.ones(16)),
     dict(n=RANK, N=TROTTER, beta_mu=POTENTIALS)),
    ("transfer_matrix", oracle.transfer_matrix, dict(n=4, L=3, lam=0.5), dict(n=RANK, L=SITES)),
    ("build_hamiltonian", oracle.build_hamiltonian, dict(n=4, L=3), dict(n=RANK, L=SITES)),
    ("integration_constants", kernels.integration_constants,
     dict(n=4, mu=(0.1, 0.0, 0.0, -0.1), beta=1.0),
     dict(n=TABULATED_RANK, mu=POTENTIALS, beta=FINITE)),
    ("KernelSystem", kernels.KernelSystem, dict(n=4), dict(n=TABULATED_RANK)),
    ("counting_values", aux_functions.counting_values, dict(n=4, beta=1.0, mu=None),
     dict(n=RANK, beta=FINITE, mu=POTENTIALS)),
    ("solve_bethe_roots", spectral.solve_bethe_roots, dict(n=4, N=2, beta=0.7, mu=None, J=1.0),
     dict(n=RANK, N=TROTTER, beta=POSITIVE, mu=POTENTIALS, J=FINITE)),
    ("RootData", RootData,
     dict(n=4, N=2, tau=0.5, mu=(0.0,) * 4, beta=1.0, roots=((),) * 3),
     dict(n=RANK, N=(-2, 3, 2.5, NAN), tau=FINITE, beta=FINITE, mu=POTENTIALS)),
]

# the first expensive call of each entry, and the calls behind it
EXPENSIVE = [
    (solver, "_grid_system"), (solver, "counting_values"), (solver, "digamma"),
    (thermo, "thermo_point"),
    (oracle, "_bond_moves"), (oracle, "_sector_spectra"), (oracle, "_qtm_sites"),
    (oracle, "_thread_sites"),
    (kernels, "_tables"), (kernels, "function_order"),
    (aux_functions, "_counting_values"), (spectral, "_bae_terms"),
]


@pytest.fixture
def work(monkeypatch):
    """The expensive calls made, each spy recording its module and name."""
    made = []
    for module, name in EXPENSIVE:
        monkeypatch.setattr(module, name,
                            lambda *a, _at=f"{module.__name__}.{name}", **kw: made.append(_at))
    return made


@pytest.mark.parametrize("call, valid, arg, bad", [
    pytest.param(call, valid, arg, bad, id=f"{entry}-{arg}")
    for entry, call, valid, refused in TABLE for arg, bad in refused.items()
])
def test_bad_argument_refused_up_front(call, valid, arg, bad, work):
    for value in bad:
        with pytest.raises(DomainError):
            call(**{**valid, arg: value})
        assert not work, (arg, value, work)


@pytest.mark.parametrize("call, valid", [
    pytest.param(call, valid, id=entry) for entry, call, valid, _ in TABLE
])
def test_valid_arguments_reach_the_work(call, valid, work):
    # the table's valid arguments pass every check: an entry with work to
    # do reaches a spy, so each refusal above is the bad value's alone
    try:
        call(**valid)
    except (TypeError, AttributeError, ValueError) as err:  # a spy's None read
        assert not isinstance(err, DomainError), err
    assert work or call in (solver.Grid, RootData)


@pytest.mark.parametrize("args", [
    ["solve", "--n", "4", "--temp", "nan"],
    ["solve", "--n", "4", "--temp", "-1"],
    ["solve", "--n", "4", "--temp", "1", "--J", "nan"],
    ["solve", "--n", "4", "--temp", "1", "--J", "inf"],
    ["solve", "--n", "4", "--temp", "1", "--mu", "0,nan,0,0"],
    ["solve", "--n", "4", "--temp", "1", "--mu", "0.1,0.2"],
    ["solve", "--n", "4", "--temp", "1", "--points", "1000"],
    ["solve", "--n", "4", "--temp", "1", "--points", "0"],
    ["solve", "--n", "4", "--temp", "1", "--half-width", "nan"],
    ["solve", "--n", "4", "--temp", "2", "--half-width", "0"],
    ["sweep", "--n", "4", "--temp", "1:2:2lin", "--J", "nan"],
    ["sweep", "--n", "4", "--temp", "1:2:2lin", "--mu", "0.1,0.2"],
    ["sweep", "--n", "4", "--temp", "1:2:2lin", "--mu", "0,0,inf,0"],
    ["oracle", "ed", "--L", "0"],
    ["oracle", "ed", "--L", "-1"],
    ["oracle", "ed", "--n", "0"],
    ["oracle", "ed", "--J", "nan"],
    ["oracle", "ed", "--temp", "nan"],
    ["oracle", "qtm", "--J", "nan"],
    ["oracle", "qtm", "--N", "0"],
    ["oracle", "qtm", "--N", "3"],
    ["oracle", "qtm", "--temp", "0"],
], ids=" ".join)
def test_cli_exits_2(args, work, capsys):
    assert main(args) == 2
    out, err = capsys.readouterr()
    assert err.startswith("configuration error") and "Traceback" not in err
    assert "FAILED" not in err and not out
    assert not work
