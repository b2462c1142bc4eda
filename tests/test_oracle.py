"""Exact diagonalization, QTM and structural-identity oracles."""

import itertools

import numpy as np
import pytest

from qtmchain import (
    build_hamiltonian,
    finite_free_energy,
    qtm_eigenvalue,
    qtm_matrix,
    solve_bethe_roots,
    spin2_identity_residual,
    transfer_matrix,
    trotter_free_energy,
    ybe_residual,
)
from qtmchain import oracle
from qtmchain.cli import main
from qtmchain.errors import ConvergenceError, DomainError
from qtmchain.oracle import qtm_matvec
from qtmchain.spectral import eigenvalue_from_roots


class TestHamiltonian:
    def test_two_site_spectrum(self):
        H = build_hamiltonian(5, 2, periodic=False)
        ev = np.round(np.linalg.eigvalsh(H), 10)
        vals, counts = np.unique(ev, return_counts=True)
        assert dict(zip(vals, counts)) == {-1.0: 10, 1.0: 15}

    def test_transposition_squares_to_identity(self):
        H = build_hamiltonian(3, 2, periodic=False)
        assert np.max(np.abs(H @ H - np.eye(9))) == 0.0

    def test_heisenberg_mapping(self):
        H = build_hamiltonian(2, 4, periodic=True)
        sx = np.array([[0.0, 1.0], [1.0, 0.0]])
        sy = np.array([[0.0, -1.0j], [1.0j, 0.0]])
        sz = np.diag([1.0, -1.0])

        def site(op, i):
            out = np.array([[1.0]])
            for k in range(4):
                out = np.kron(out, op if k == i else np.eye(2))
            return out

        Hh = sum(
            0.5
            * (
                np.eye(16)
                + site(sx, i) @ site(sx, (i + 1) % 4)
                + (site(sy, i) @ site(sy, (i + 1) % 4)).real
                + site(sz, i) @ site(sz, (i + 1) % 4)
            )
            for i in range(4)
        )
        assert np.max(np.abs(H - Hh.real)) < 1e-13
        g_perm = np.linalg.eigvalsh(H)[0]
        g_heis = np.linalg.eigvalsh(Hh.real)[0]
        assert g_perm == pytest.approx(g_heis)

    def test_dimension_cap(self):
        with pytest.raises(DomainError):
            build_hamiltonian(5, 12)


class TestFiniteFreeEnergy:
    def test_sector_cap(self):
        # 2^17 states pass DIM_CAP, but the sector with eight of one species
        # holds C(17, 8) = 24,310 of them, a 4.7 GB dense block
        with pytest.raises(DomainError):
            finite_free_energy(2, 17, 1.0)

    def test_two_site_partition_function(self):
        T = 1.3
        beta = 1.0 / T
        Z = 15.0 * np.exp(-beta) + 10.0 * np.exp(beta)
        assert finite_free_energy(5, 2, T, periodic=False) == pytest.approx(
            -(T / 2) * np.log(Z)
        )

    def test_infinite_temperature(self):
        assert finite_free_energy(5, 4, 1e9) / 1e9 == pytest.approx(
            -np.log(5), abs=1e-8
        )

    def test_chemical_potential_shift(self):
        base = finite_free_energy(3, 4, 1.5)
        shifted = finite_free_energy(3, 4, 1.5, mu=(0.2, 0.2, 0.2))
        assert shifted == pytest.approx(base - 0.2)

    @pytest.mark.parametrize(
        "n, L, periodic, mu, T",
        [(3, 4, True, (0.3, -0.1, 0.05), 1.3),
         (4, 4, False, (0.2, 0.0, -0.15, 0.1), 0.3)],
    )
    def test_sectors_match_dense_hamiltonian(self, n, L, periodic, mu, T):
        # the species counts of each basis state, built apart from the oracle
        N = np.array([[s.count(a) for a in range(n)]
                      for s in itertools.product(range(n), repeat=L)])
        H = build_hamiltonian(n, L, periodic=periodic) - np.diag(N @ np.array(mu))
        e = np.linalg.eigvalsh(H)
        ref = -(T / L) * np.log(np.sum(np.exp(-e / T)))
        # eigvalsh roundoff: at most 6.7e-16 measured on these and four
        # more (T, J) of the same chains
        got = finite_free_energy(n, L, T, mu=mu, periodic=periodic)
        assert abs(got - ref) <= 4e-15


@pytest.mark.parametrize("T", [0.0, -1.0, np.nan, np.inf])
def test_invalid_temperature_raises(T, monkeypatch, capsys):
    # a T (beta) that is not positive and finite is refused, as solve_nlie
    # refuses it, before any state is enumerated or any site made, and so
    # by the oracle commands
    work = []
    monkeypatch.setattr(oracle, "_bond_moves", lambda *a: work.append(a))
    monkeypatch.setattr(oracle, "_qtm_sites", lambda *a: work.append(a))
    calls = [
        lambda: finite_free_energy(4, 4, T),
        lambda: qtm_eigenvalue(4, 4, T),
        lambda: trotter_free_energy(4, 4, T),
        lambda: qtm_matrix(4, 2, T),
        lambda: solve_bethe_roots(4, 2, beta=T),
    ]
    for call in calls:
        with pytest.raises(DomainError):
            call()
    for which in ("ed", "qtm"):
        assert main(["oracle", which, "--temp", str(T)]) == 2
    assert not work


@pytest.mark.parametrize("call", [
    lambda mu: finite_free_energy(4, 4, 1.0, mu=mu),
    lambda mu: qtm_eigenvalue(4, 4, 1.0, mu=mu),
    lambda mu: trotter_free_energy(4, 4, 1.0, mu=mu),
    lambda mu: qtm_matrix(4, 2, 1.0, mu=mu),
    lambda mu: qtm_matvec(4, 2, 0.5, mu, 0.0, np.ones(16)),
], ids=["finite_free_energy", "qtm_eigenvalue", "trotter_free_energy",
        "qtm_matrix", "qtm_matvec"])
@pytest.mark.parametrize("mu", [(0.1, 0.2), (0.0,) * 5])
def test_wrong_mu_length_raises(call, mu, monkeypatch):
    # n chemical potentials or none, refused as sweep and RootData refuse
    # them, before any state is enumerated or any site made
    work = []
    monkeypatch.setattr(oracle, "_bond_moves", lambda *a: work.append(a))
    monkeypatch.setattr(oracle, "_qtm_sites", lambda *a: work.append(a))
    with pytest.raises(DomainError, match="expected 4 chemical potentials"):
        call(mu)
    assert not work


class TestQtm:
    def test_beta_zero_counts_states(self):
        lam = qtm_eigenvalue(5, 2, T=1e8)
        assert lam.real == pytest.approx(5.0, abs=1e-6)

    def test_power_iteration_matches_dense(self):
        T = 1.4
        M = qtm_matrix(4, 2, T=T)
        ev = np.linalg.eigvals(M)
        dominant = ev[np.argmax(ev.real)]
        assert qtm_eigenvalue(4, 2, T=T).real == pytest.approx(dominant.real, abs=1e-10)

    @pytest.mark.parametrize("n", [2, 4, 5])
    def test_bethe_reconstruction(self, n):
        T = 1.0 / 0.7
        data = solve_bethe_roots(n, 2, beta=1.0 / T)
        lam_formula = eigenvalue_from_roots(data, 0.0)
        lam_matrix = qtm_eigenvalue(n, 2, T=T)
        assert abs(lam_formula - lam_matrix) <= 1e-9

    def test_bethe_reconstruction_off_origin(self):
        T = 1.0 / 0.7
        data = solve_bethe_roots(4, 2, beta=1.0 / T)
        for x in (0.3, -0.6):
            lam_formula = eigenvalue_from_roots(data, x)
            M = qtm_matrix(4, 2, T=T, x=x)
            ev = np.linalg.eigvals(M)
            dominant = ev[np.argmax(ev.real)]
            assert abs(lam_formula - dominant) <= 1e-9

    def test_commutativity(self):
        Q1 = qtm_matrix(3, 2, T=2.0, x=0.3)
        Q2 = qtm_matrix(3, 2, T=2.0, x=-0.8)
        assert np.max(np.abs(Q1 @ Q2 - Q2 @ Q1)) <= 1e-12

    @staticmethod
    def kron_trace(n, N, laxes, twist):
        """tr_Q[diag(twist)_Q L_{Q,1} ... L_{Q,N}] on N sites, densely:
        each n^2 x n^2 Lax matrix (aux index first) is split into its aux
        blocks, L = sum_ab E_ab (x) L_ab, and placed on its site by kron."""
        dim = n**N
        prod = np.kron(np.diag(twist), np.eye(dim)).astype(complex)
        for i, lax in enumerate(laxes):
            blocks = lax.reshape(n, n, n, n)  # [a', s', a, s]
            site = sum(
                np.kron(
                    np.outer(np.eye(n)[a], np.eye(n)[b]),
                    np.kron(np.kron(np.eye(n**i), blocks[a, :, b, :]),
                            np.eye(n ** (N - i - 1))),
                )
                for a in range(n)
                for b in range(n)
            )
            prod = prod @ site
        return np.einsum("aiaj->ij", prod.reshape(n, dim, n, dim))

    @staticmethod
    def lax(n, lam, transposed=False):
        """lam I + P on aux (x) site, or its partial transpose in aux."""
        P = np.zeros((n * n, n * n))
        for a in range(n):
            for s in range(n):
                P[s * n + a, a * n + s] = 1.0
        if transposed:
            P = P.reshape(n, n, n, n).transpose(2, 1, 0, 3).reshape(n * n, n * n)
        return lam * np.eye(n * n) + P

    @pytest.mark.parametrize(
        "n, N, mu, x",
        [
            pytest.param(n, N, mu, x, id=f"{n}-{N}-mu{i}" + ("-real" if x == 0 else ""))
            for x in (0.4, 0.0)
            for i, (n, N, mu) in enumerate(
                [(3, 2, (0.2, -0.1, 0.05)), (4, 2, (0.3, 0.0, -0.1, 0.15)),
                 (3, 4, (0.1, 0.0, -0.25))]
            )
        ],
    )
    def test_qtm_matches_kron_reference(self, n, N, mu, x):
        # odd sites carry L(ix - tau), even sites L^{t_Q}(-ix - tau), and
        # the e^{beta mu} twist sits on the auxiliary space; at x = 0 every
        # weight is -tau and a real basis vector gives a real column
        T = 1.3
        tau = 1.0 / (T * N)
        laxes = [
            self.lax(n, 1j * x - tau) if i % 2 == 0 else self.lax(n, -1j * x - tau, True)
            for i in range(N)
        ]
        ref = self.kron_trace(n, N, laxes, np.exp(np.array(mu) / T))
        bmu = tuple(m / T for m in mu)
        cols = [qtm_matvec(n, N, tau, bmu, x, e) for e in np.eye(n**N)]
        if x == 0:
            assert all(c.dtype == np.float64 for c in cols)
        got = np.array(cols).T
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_real_path_equals_complex_path(self):
        # the same products and sums in the same order: bit for bit
        n, N, T = 5, 6, 2.0
        mu = (0.3, -0.1, 0.0, 0.25, -0.4)
        v = np.random.default_rng(5).standard_normal(n**N)
        args = (n, N, 1.0 / (T * N), tuple(m / T for m in mu), 0.0)
        real = qtm_matvec(*args, v)
        cplx = qtm_matvec(*args, v.astype(complex))
        assert real.dtype == np.float64 and cplx.dtype == np.complex128
        assert np.array_equal(real, cplx.real) and not np.any(cplx.imag)

    def test_stagnation_carries_history(self):
        with pytest.raises(ConvergenceError) as err:
            qtm_eigenvalue(4, 4, T=2.0, max_iter=3)
        assert len(err.value.history) == err.value.iterations == 3
        assert err.value.residual == err.value.history[-1] > 1e-12

    def test_transfer_matrix_matches_kron_reference(self):
        lam = 0.63
        ref = self.kron_trace(3, 3, [self.lax(3, lam)] * 3, np.ones(3))
        got = transfer_matrix(3, 3, lam)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_row_to_row_commutativity(self):
        T1 = transfer_matrix(3, 4, 0.63)
        T2 = transfer_matrix(3, 4, -0.41)
        assert np.max(np.abs(T1 @ T2 - T2 @ T1)) <= 1e-12


class TestTrotterConvergence:
    # trotter_free_energy(n, N, 2.0) of the QTM that threaded both auxiliary
    # ends at once in complex arithmetic (the oracle's layout before its
    # real path and one-start-at-a-time threading)
    EARLIER = {
        (4, 2): -2.7509374747077997, (4, 4): -2.755679429030616,
        (4, 6): -2.7566755318839697, (5, 2): -3.2498591939709662,
        (5, 4): -3.254004149275228, (5, 6): -3.254886221113968,
    }

    @pytest.mark.parametrize("n, N", sorted(EARLIER))
    def test_values_kept(self, n, N):
        assert abs(trotter_free_energy(n, N, 2.0) - self.EARLIER[n, N]) <= 1e-13

    def test_normalized_sequence_is_second_order(self):
        # away from the tau = 1/2 degeneracy the errors fall like 1/N^2
        from qtmchain import solve_nlie, free_energy

        f_ref = free_energy(solve_nlie(4, T=2.0))
        errs = [abs(trotter_free_energy(4, N, 2.0) - f_ref) for N in (2, 4, 6)]
        assert errs[0] > errs[1] > errs[2]
        ratio = errs[0] / errs[1]
        assert 3.0 <= ratio <= 5.5

    def test_finite_size_convergence(self):
        from qtmchain import solve_nlie, free_energy

        f_ref = free_energy(solve_nlie(5, T=2.0))
        e4 = abs(finite_free_energy(5, 4, 2.0) - f_ref)
        e6 = abs(finite_free_energy(5, 6, 2.0) - f_ref)
        assert e6 < e4
        assert e6 < 1e-5


class TestStructural:
    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_yang_baxter(self, n):
        assert ybe_residual(n) <= 1e-13

    def test_yang_baxter_negative_control(self):
        assert ybe_residual(3, perturb=1.01) > 1e-3

    def test_spin2_polynomial(self):
        residual, const = spin2_identity_residual()
        assert residual <= 1e-12
        assert const == pytest.approx(-1.0, abs=1e-12)

    def test_spin2_negative_control(self):
        residual, _ = spin2_identity_residual(
            coeffs=(-2.5, 0.0, 1.0 / 6.0, 1.0 / 36.0)
        )
        assert residual > 1e-1
