import functools
import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.stats import multinomial

from hydrohist import histories as hi
from hydrohist import local_equilibrium as le
from hydrohist import scenarios as sc
from hydrohist.errors import DimensionCapError

import histories_oracles as oracles
from test_imports import run_fresh


def random_hermitian(rng, d):
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (m + m.conj().T) / 2


def random_pure(rng, d):
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    v /= np.linalg.norm(v)
    return v


def density(rho_m):
    """rho_m as a checked DensityOperator of one particle on len(rho_m) bins."""
    return hi.DensityOperator(hi.ToyHilbert(len(rho_m), 1), rho_m)


def dense_reference(rho_m, spec):
    """D(a, a') = Tr(C_a rho C_a'^dag) from dense projector products and
    explicit damp-then-rotate substeps, one matrix per pair of label chains."""
    d = spec.space.digits()
    dist2 = np.sum((d[:, None, :] - d[None, :, :]) ** 2, axis=2)
    mats, t_prev = {((), ()): rho_m}, 0.0
    for t, slot in zip(spec.times, spec.slots):
        sub = (t - t_prev) / spec.dephasing_substeps
        u = expm(-1j * spec.hamiltonian * sub)
        damp = np.exp(-spec.dephasing_rate * sub * dist2)
        (family,) = slot
        level = [(lab, np.diag(op.astype(complex)) if op.ndim == 1 else op)
                 for lab, op in family.members]
        nxt = {}
        for (pl, pr), m in mats.items():
            for _ in range(spec.dephasing_substeps):
                m = u @ (m * damp) @ u.conj().T
            for (ll, opl), (lr, opr) in itertools.product(level, level):
                nxt[(pl + (ll,), pr + (lr,))] = opl @ m @ opr.conj().T
        mats, t_prev = nxt, t
    catalog = list(dict.fromkeys(a for a, _ in mats))
    return catalog, np.array([[np.trace(mats[(a, b)]) for b in catalog]
                              for a in catalog])


class TestToyHilbert:
    def test_dimension(self):
        assert hi.ToyHilbert(B=3, N=4).dim == 81

    def test_cap_enforced(self):
        # 2^12 = 4096 states: one complex dim x dim matrix is 256 MiB
        assert hi.ToyHilbert(B=2, N=12).dim == 4096
        for b, n in ((4, 9), (2, 13), (3, 8)):
            with pytest.raises(DimensionCapError):
                hi.ToyHilbert(B=b, N=n)

    def test_vast_n_refused_without_forming_the_power(self):
        # 3 ** 10^12 has 4.8e11 digits: forming it would stall the refusal
        # for hours, so a child process checks it, and a timeout fails it
        out = run_fresh("from hydrohist import histories as hi\n"
                        "from hydrohist.errors import DimensionCapError\n"
                        "try:\n"
                        "    hi.ToyHilbert(B=3, N=10 ** 12)\n"
                        "except DimensionCapError as exc:\n"
                        "    print(exc)\n", timeout=20)
        assert out.strip() == "B^N = 3^1000000000000 exceeds the cap 4096"

    def test_occupation_table_rows_sum_to_n(self):
        hs = hi.ToyHilbert(B=3, N=4)
        assert np.all(hs.occupation_table().sum(axis=1) == 4)


class TestStates:
    def test_single_particle_product(self):
        hs = hi.ToyHilbert(B=4, N=1)
        psi = np.array([0.5, 0.5, 0.5, 0.5], complex)
        st = hi.product_state(hs, psi)
        assert np.allclose(st.amplitudes, psi)

    def test_orthogonal_superposition_norm(self):
        hs = hi.ToyHilbert(B=2, N=3)
        st = hi.superposition_state(hs, np.array([1.0, 0.0], complex),
                                    np.array([0.0, 1.0], complex))
        assert np.linalg.norm(st.amplitudes) == pytest.approx(1.0)

    def test_cancelling_superposition_rejected(self):
        # at odd N, |psi>^N + |-psi>^N is the zero vector
        hs = hi.ToyHilbert(B=2, N=3)
        psi = np.array([0.6, 0.8], complex)
        with pytest.raises(ValueError, match="cancel"):
            hi.superposition_state(hs, psi, -psi)

    def test_product_overlap_is_cn(self):
        hs = hi.ToyHilbert(B=2, N=5)
        psi = np.array([1.0, 0.0], complex)
        chi = np.array([0.6, 0.8], complex)
        a = hi.product_state(hs, psi).amplitudes
        b = hi.product_state(hs, chi).amplitudes
        assert np.vdot(b, a) == pytest.approx(0.6 ** 5)

    def test_unnormalized_input_rejected(self):
        hs = hi.ToyHilbert(B=2, N=2)
        with pytest.raises(ValueError):
            hi.product_state(hs, np.array([1.0, 1.0], complex))

    def test_product_state_is_the_kron_chain(self):
        # the outer-product chain forms the same products, bit for bit
        rng = np.random.default_rng(5)
        for b, n in ((2, 1), (2, 7), (3, 5), (4, 4)):
            psi = random_pure(rng, b)
            want = psi
            for _ in range(n - 1):
                want = np.kron(want, psi)
            got = hi.product_state(hi.ToyHilbert(B=b, N=n), psi).amplitudes
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_amplitudes_rejected(self, bad):
        # a NaN norm compares False both ways, so each check reads
        # not (|norm - 1| <= tol)
        hs = hi.ToyHilbert(B=2, N=3)
        with pytest.raises(ValueError, match="state norm"):
            hi.StateVector(hs, np.full(hs.dim, bad, complex))
        with pytest.raises(ValueError, match="normalized"):
            hi.product_state(hs, np.array([bad, 1.0]))
        with pytest.raises(ValueError, match="normalized"):
            hi.superposition_state(hs, np.array([0.6, 0.8]),
                                   np.array([bad, 1.0]))


class TestDensityOperators:
    def test_number_completeness(self):
        hs = hi.ToyHilbert(B=3, N=3)
        tot = sum(oracles.number_density_operator(hs, b) for b in range(3))
        assert np.allclose(tot, 3 * np.eye(hs.dim))

    def test_number_spectrum_is_counting(self):
        hs = hi.ToyHilbert(B=3, N=4)
        vals = np.unique(np.real(np.diag(
            oracles.number_density_operator(hs, 1))))
        assert set(vals).issubset(set(range(5)))

    def test_product_state_mean_matches_classical(self):
        # cross-module oracle: N p_b with p_b = |psi_b|^2
        hs = hi.ToyHilbert(B=3, N=5)
        psi = np.array([0.6, 0.8, 0.0], complex)
        st = hi.product_state(hs, psi)
        n0 = oracles.number_density_operator(hs, 0)
        val = np.real(st.amplitudes.conj() @ n0 @ st.amplitudes)
        assert val == pytest.approx(5 * 0.36, abs=1e-12)

    def test_pure_density_is_the_outer_product_unchecked(self, monkeypatch):
        # to_density builds through DensityOperator's checks, which now run
        # on |a><a| too and need no eigensolver: positivity comes from the
        # factor; a negative eigenvalue is still refused
        hs = hi.ToyHilbert(B=2, N=4)
        st = hi.StateVector(hs, random_pure(np.random.default_rng(2), 16))

        def no_solver(*args):
            raise AssertionError("eigvalsh ran on a pure state's density")

        with monkeypatch.context() as m:
            m.setattr(np.linalg, "eigvalsh", no_solver)
            rho = hi.to_density(st)
        assert isinstance(rho, hi.DensityOperator) and rho.space == hs
        assert np.array_equal(rho.matrix,
                              np.outer(st.amplitudes, st.amplitudes.conj()))
        assert not rho.matrix.flags.writeable
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 0.0
        flipped = np.diag([1.5, -0.5] + [0.0] * 14)
        with pytest.raises(ValueError, match="negative eigenvalue"):
            hi.DensityOperator(hs, flipped)

    @pytest.mark.parametrize("where", [(0, 0), (0, 3), (2, 1)])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_rejected(self, where, bad):
        # the Hermiticity test fails on NaN and on inf - inf, before any
        # eigensolver sees the matrix
        hs = hi.ToyHilbert(B=2, N=2)
        m = np.eye(4, dtype=complex) / 4
        m[where] = bad
        with pytest.raises(ValueError, match="not Hermitian"):
            hi.DensityOperator(hs, m)

    def test_hermiticity_checked_in_row_blocks(self):
        # a finite pure-state rho at B = 2, N = 10 with one skew entry is
        # refused by the Hermiticity check, whose traced peak stays within
        # 3 MiB (it compares 64 KiB tiles); on whole dim x dim temporaries
        # it was 2.0 dim^2 16 B, 32 MiB.  The check alone measures the same
        hs = hi.ToyHilbert(B=2, N=10)
        amp = np.random.default_rng(3).normal(size=hs.dim) + 0j
        amp /= np.linalg.norm(amp)
        m = np.outer(amp, amp.conj())
        hi._skew_and_scale(m)                           # warm-up
        tracemalloc.start()
        skew, scale = hi._skew_and_scale(m)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert skew == 0.0 and scale == np.max(np.abs(m))
        assert peak <= 3 * hi._ROW_BLOCK_BYTES
        m[hs.dim - 1, 0] += 1e-3
        tracemalloc.start()
        with pytest.raises(ValueError, match="not Hermitian"):
            hi.DensityOperator(hs, m)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak <= 3 * hi._ROW_BLOCK_BYTES

    @pytest.mark.parametrize("dim", [1, 3, 64, 65, 200])
    @pytest.mark.parametrize("bad", [None, np.nan, np.inf, -np.inf,
                                     1j * np.inf])
    def test_tiled_skew_matches_the_whole_matrix(self, dim, bad):
        # the tiles give max|m - m^dag| and max|m| of the whole matrix, bit
        # for bit, NaN and inf included
        rng = np.random.default_rng(dim)
        m = random_hermitian(rng, dim)
        m[rng.integers(dim), rng.integers(dim)] += 1e-3
        if bad is not None:
            m[rng.integers(dim), rng.integers(dim)] = bad
        with np.errstate(invalid="ignore"):
            want = (np.max(np.abs(m - m.conj().T)), np.max(np.abs(m)))
        np.testing.assert_array_equal(hi._skew_and_scale(m), want)

    def test_approximate_eigenstate_property(self):
        # ||(n(b) - N p_b) |Psi>|| / N = sqrt(p (1-p) / N), exactly
        hs = hi.ToyHilbert(B=2, N=6)
        psi = np.array([0.6, 0.8], complex)
        st = hi.product_state(hs, psi)
        p = 0.36
        n0 = oracles.number_density_operator(hs, 0)
        dev = (n0 - 6 * p * np.eye(hs.dim)) @ st.amplitudes
        assert np.linalg.norm(dev) / 6 == pytest.approx(
            np.sqrt(p * (1 - p) / 6), abs=1e-12)


def random_unitary(rng, d):
    q, r = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


class TestPositivity:
    """DensityOperator's positivity check, ||rho - L L^dag||_F <= 1e-8 on its
    pivoted-Cholesky factor L, against the eigvalsh check it replaced,
    lambda_min >= -1e-8 (``oracles.min_eigenvalue``).

    The factor check rejects every rho the eigvalsh check rejects, since
    lambda_min >= -||rho - L L^dag||_F.  The two differ in a band.  Of the
    12 indefinite draws per lambda_min (dims 16, 64 and 243; 1, 3, dim/2 and
    dim - 1 positive eigenvalues), the factor check rejects all 12 at -1e-8,
    where eigvalsh rejects 7, and 5, 3 and 1 at -3e-9, -1e-9 and -3e-10,
    where eigvalsh rejects none; those are draws of half or full rank, whose
    residual reaches about 50 |lambda_min|.  Outside [-1e-8, -3e-10] the
    two agree: both reject -1e-6 and -1e-7, and both accept -1e-10 and
    every positive draw.  They differ too on a rho that is Hermitian only to
    the 1e-6 tolerance: eigvalsh read its Hermitian part, while the residual
    counts its skew part.
    """

    SPACES = {16: (2, 4), 64: (2, 6), 243: (3, 5)}

    @staticmethod
    def indefinite(dim, rank, lam):
        """Unit-trace Hermitian rho with ``rank`` positive eigenvalues and one
        eigenvalue ``lam``, in a random basis."""
        rng = np.random.default_rng([dim, rank, round(-np.log10(-lam))])
        w = rng.uniform(0.5, 1.5, rank)
        spectrum = np.r_[w * (1.0 - lam) / w.sum(), lam,
                         np.zeros(dim - rank - 1)]
        q = random_unitary(rng, dim)
        m = (q * spectrum) @ q.conj().T
        return 0.5 * (m + m.conj().T)

    def draws(self, lam):
        for dim, (b, n) in self.SPACES.items():
            for rank in sorted({1, 3, dim // 2, dim - 1}):
                yield hi.ToyHilbert(B=b, N=n), self.indefinite(dim, rank, lam)

    @pytest.mark.parametrize("dim", [16, 64, 243])
    @pytest.mark.parametrize("rank", ["1", "3", "dim/2", "dim"])
    def test_positive_draws_are_accepted(self, dim, rank):
        rank = {"1": 1, "3": 3, "dim/2": dim // 2, "dim": dim}[rank]
        rng = np.random.default_rng([dim, rank])
        a = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
        m = a @ a.conj().T
        m /= np.trace(m).real
        rho = hi.DensityOperator(hi.ToyHilbert(*self.SPACES[dim]), m)
        assert rho._factor.shape == (dim, rank)
        assert np.linalg.norm(m - rho._factor @ rho._factor.conj().T) <= 1e-15
        assert oracles.min_eigenvalue(m) >= -1e-8

    @pytest.mark.parametrize("lam", [-1e-6, -1e-7])
    def test_both_checks_reject_outside_the_band(self, lam):
        for space, m in self.draws(lam):
            assert oracles.min_eigenvalue(m) < -1e-8
            with pytest.raises(ValueError, match="negative eigenvalue"):
                hi.DensityOperator(space, m)

    def test_both_checks_accept_above_the_band(self):
        for space, m in self.draws(-1e-10):
            assert oracles.min_eigenvalue(m) >= -1e-8
            hi.DensityOperator(space, m)

    def test_a_skew_part_counts_in_the_residual(self):
        # within the Hermiticity tolerance but not L L^dag to 1e-8: the
        # eigvalsh check, on the Hermitian part, accepted it
        m = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
        m[0, 1] = 1e-7
        assert oracles.min_eigenvalue(m) >= -1e-8
        with pytest.raises(ValueError, match="negative eigenvalue or a skew"):
            hi.DensityOperator(hi.ToyHilbert(B=2, N=2), m)

    def test_a_read_only_owned_array_is_kept(self):
        m = np.eye(4, dtype=complex) / 4
        m.flags.writeable = False
        assert hi.DensityOperator(hi.ToyHilbert(B=2, N=2), m).matrix is m

    @pytest.mark.parametrize("kind", ["writeable", "read-only view"])
    def test_other_inputs_are_copied(self, kind):
        base = np.eye(4, dtype=complex) / 4
        m = base if kind == "writeable" else base[:]
        m.flags.writeable = kind == "writeable"
        rho = hi.DensityOperator(hi.ToyHilbert(B=2, N=2), m)
        assert not np.shares_memory(rho.matrix, base)
        assert not rho.matrix.flags.writeable
        base[0, 0] = 0.0
        assert rho.matrix[0, 0] == 0.25

    def test_checks_add_no_square_temporary(self):
        # a read-only rank-1 rho at B = 2, N = 10 (16 MiB) is kept and
        # checked in 64 KiB tiles; eigvalsh's checks peaked at 32 MiB
        state = hi.superposition_state(hi.ToyHilbert(B=2, N=10),
                                       np.array([0.6, 0.8]),
                                       np.array([0.8, -0.6]))
        m = np.outer(state.amplitudes, state.amplitudes.conj())
        m.flags.writeable = False
        tracemalloc.start()
        try:
            rho = hi.DensityOperator(state.space, m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rho.matrix is m and rho._factor.shape == (1024, 1)
        assert peak <= 2 ** 20


class TestLiftOneBody:
    @staticmethod
    def spaces():
        for b in (2, 3, 4):
            n = 1
            while b ** n <= 1024:
                yield hi.ToyHilbert(B=b, N=n)
                n += 1

    def test_equals_the_kron_sum(self):
        # each entry takes the same additions in the same particle order
        # as the Kronecker sum, which adds only zeros elsewhere
        rng = np.random.default_rng(29)
        for hs in self.spaces():
            op1 = (rng.normal(size=(hs.B, hs.B))
                   + 1j * rng.normal(size=(hs.B, hs.B)))
            assert np.array_equal(hi.lift_one_body(hs, op1),
                                  oracles.lift_one_body_kron(hs, op1))

    def test_traced_peak_is_the_output(self):
        # one dim x dim array; the Kronecker sum peaked at about 3.1
        hs = hi.ToyHilbert(B=2, N=10)
        p1 = hi.one_particle_momentum(hs)
        op1 = p1 @ p1 / 2.0
        hi.lift_one_body(hs, op1)
        tracemalloc.start()
        try:
            hi.lift_one_body(hs, op1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * hs.dim ** 2 * 16

    def test_wrong_shape_rejected(self):
        hs = hi.ToyHilbert(B=3, N=2)
        for bad in (np.eye(2), np.eye(9), np.ones(3)):
            with pytest.raises(ValueError,
                               match="^one-particle operator must be B x B$"):
                hi.lift_one_body(hs, bad)


def gibbs_density(b, n, beta):
    """The tensor power of a one-particle Gibbs state, full rank for the
    small beta used here."""
    rho1 = le.one_particle_gibbs(np.full(b, beta), np.r_[0.5, np.zeros(b - 1)],
                                 np.zeros(b))
    return oracles.gibbs_tensor_power(rho1, n)


class TestDensityFactor:
    """rho = L L^dag by pivoted Cholesky against rho itself and against the
    eigh factor of histories_oracles."""

    @staticmethod
    def inputs():
        """(rho, its rank when exactly low-rank, else None) by name."""
        rng = np.random.default_rng(26)
        hs = hi.ToyHilbert(B=2, N=6)
        pure = hi.to_density(hi.superposition_state(
            hs, np.array([0.6, 0.8j]), np.array([0.8, -0.6]))).matrix
        vs = [random_pure(rng, 27) for _ in range(3)]
        mixture = sum(w * np.outer(v, v.conj())
                      for w, v in zip((0.5, 0.3, 0.2), vs))
        q, _ = np.linalg.qr(rng.normal(size=(16, 16))
                            + 1j * rng.normal(size=(16, 16)))
        # three eigenvalues above the cut, thirteen below it
        spectrum = np.r_[0.5, 0.3, 0.2, rng.uniform(1e-18, 1e-17, 13)]
        return {"rank-1": (pure, 1), "rank-3": (mixture, 3),
                "gibbs": (gibbs_density(3, 3, 1.0).matrix, None),
                "tiny-eigenvalues": ((q * spectrum) @ q.conj().T, 3)}

    @pytest.mark.parametrize("name", ["rank-1", "rank-3", "gibbs",
                                      "tiny-eigenvalues"])
    def test_reproduces_rho(self, name):
        rho, rank = self.inputs()[name]
        l_fac = hi._density_factor(rho)
        assert (np.max(np.abs(l_fac @ l_fac.conj().T - rho))
                <= 1e-15 * np.max(np.abs(rho)))
        # a column per unit of rank; the full-rank Gibbs state keeps all
        assert l_fac.shape[1] == (rank or len(rho))
        assert l_fac.shape[1] == oracles.eigh_factor(rho).shape[1]

    def test_dropped_trace_is_within_the_cut(self):
        # eigenvalues just below the cut: the factor may stop anywhere, but
        # the trace it leaves out is at most dim times the cut
        rng = np.random.default_rng(3)
        q, _ = np.linalg.qr(rng.normal(size=(16, 16))
                            + 1j * rng.normal(size=(16, 16)))
        spectrum = np.r_[0.6, 0.4, np.full(14, 0.9 * hi._FACTOR_CUT)]
        rho = (q * spectrum) @ q.conj().T
        l_fac = hi._density_factor(rho)
        dropped = np.trace(rho).real - np.sum(np.abs(l_fac) ** 2)
        assert -1e-15 <= dropped <= len(rho) * hi._FACTOR_CUT

    def test_rank_one_needs_no_square_scratch(self):
        # one column at dim 1024, and a buffer of a few: far below the
        # 16 MiB of one complex dim x dim matrix
        rho = hi.to_density(hi.superposition_state(
            hi.ToyHilbert(B=2, N=10), np.array([0.6, 0.8]),
            np.array([0.8, -0.6]))).matrix
        tracemalloc.start()
        try:
            l_fac = hi._density_factor(rho)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert l_fac.shape == (1024, 1)
        assert peak <= 16 * 1024 * 16


class TestProjectors:
    def test_gaussian_completeness(self):
        a = np.diag([0.0, 1.0, 2.0])
        centers = np.arange(-10, 12, 0.02)
        acc = sum(oracles.gaussian_quasi_projector(a, c, 0.7) for c in centers)
        assert np.max(np.abs(acc * 0.02 - np.eye(3))) < 1e-6

    def test_gaussian_commutes_with_a(self):
        rng = np.random.default_rng(2)
        a = random_hermitian(rng, 6)
        p = oracles.gaussian_quasi_projector(a, 0.3, 1.1)
        assert np.max(np.abs(a @ p - p @ a)) < 1e-10

    def test_small_sigma_picks_eigenprojector(self):
        a = np.diag([0.0, 1.0, 3.0])
        p = oracles.gaussian_quasi_projector(a, 1.0, 1e-3)
        p = p / p[1, 1]
        target = np.zeros((3, 3))
        target[1, 1] = 1.0
        assert np.max(np.abs(p - target)) < 1e-10

    def test_window_full_spectrum_identity(self):
        rng = np.random.default_rng(3)
        a = random_hermitian(rng, 5)
        p = hi.window_projector(a, (-100.0, 100.0))
        assert np.allclose(p, np.eye(5))

    def test_window_refuses_a_non_hermitian_observable(self):
        # eigh reads one triangle: with the window [-0.5, 0.5] this A once
        # gave the identity and its transpose the zero projector
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        for op in (a, a.T):
            with pytest.raises(ValueError, match="observable A must be "
                                                 "Hermitian"):
                hi.window_projector(op, (-0.5, 0.5))

    def test_empty_window_warns_and_is_zero(self):
        a = np.diag([0.0, 1.0])
        with pytest.warns(UserWarning):
            p = hi.window_projector(a, (5.0, 6.0))
        assert np.allclose(p, 0.0)

    def test_occupation_projectors_complete(self):
        hs = hi.ToyHilbert(B=3, N=3)
        fam = hi.occupation_family(hs)
        acc = sum(mask.astype(int) for _, mask in fam)
        assert np.allclose(acc, np.ones(hs.dim))

    def test_occupation_probability_is_multinomial(self):
        # quantum probabilities equal the classical multinomial law
        for b, n in ((2, 6), (3, 4), (4, 3)):
            hs = hi.ToyHilbert(B=b, N=n)
            rng = np.random.default_rng(b * 10 + n)
            psi = random_pure(rng, b)
            st = hi.product_state(hs, psi)
            p = np.abs(psi) ** 2
            for lab, mask in hi.occupation_family(hs):
                quantum = np.sum(np.abs(st.amplitudes[mask]) ** 2)
                classical = multinomial.pmf(lab, n=n, p=p)
                assert quantum == pytest.approx(classical, abs=1e-10)

    @pytest.mark.parametrize("b, n", [(2, 8), (3, 4)])
    def test_gaussian_occupation_family_matches_spectral_route(self, b, n):
        hs = hi.ToyHilbert(B=b, N=n)
        centers = (0.3, 1.7, n * 0.64, n - 0.45)
        for bin_ in range(b):
            n_op = oracles.number_density_operator(hs, bin_)
            fam = hi.gaussian_occupation_family(hs, bin_, centers, 0.8)
            assert [c for c, _ in fam] == list(centers)
            for c, op in fam:
                want = oracles.gaussian_quasi_projector(n_op, c, 0.8)
                assert np.array_equal(np.diag(op), want)

    def test_gaussian_occupation_family_checks(self):
        hs = hi.ToyHilbert(B=2, N=3)
        with pytest.raises(ValueError, match="bin index"):
            hi.gaussian_occupation_family(hs, 2, (1.0,), 1.0)
        with pytest.raises(ValueError, match="sigma"):
            hi.gaussian_occupation_family(hs, 0, (1.0,), 0.0)


class TestDecoherenceFunctional:
    def setup_method(self):
        self.hs = hi.ToyHilbert(B=2, N=4)
        self.psi = np.array([0.6, 0.8], complex)
        self.chi = np.array([0.8, -0.6], complex)
        p1 = hi.one_particle_momentum(self.hs)
        self.h_kin = hi.lift_one_body(self.hs, p1 @ p1 / 2.0)
        self.fam = hi.occupation_family(self.hs)

    def test_single_time_diagonal(self):
        st = hi.superposition_state(self.hs, self.psi, self.chi)
        spec = hi.HistorySpec(self.hs, (1.0,), ([self.fam],), self.h_kin)
        d = hi.decoherence_functional(st, spec)
        off = d.matrix - np.diag(np.diag(d.matrix))
        assert np.max(np.abs(off)) < 1e-14
        assert d.probabilities().sum() == pytest.approx(1.0, abs=1e-10)

    def test_conserved_observable_decoherent(self):
        # H diagonal in the occupation basis commutes with every projector
        h = oracles.number_density_operator(self.hs, 0) * 0.7
        st = hi.superposition_state(self.hs, self.psi, self.chi)
        for times in ((0.4, 1.1), (0.4, 1.1, 2.3)):
            slots = tuple([self.fam] for _ in times)
            spec = hi.HistorySpec(self.hs, times, slots, h)
            d = hi.decoherence_functional(st, spec)
            off = d.matrix - np.diag(np.diag(d.matrix))
            assert np.max(np.abs(off)) < 1e-12

    def test_pure_and_mixed_paths_agree(self):
        st = hi.superposition_state(self.hs, self.psi, self.chi)
        spec = hi.HistorySpec(self.hs, (0.5, 1.5), ([self.fam], [self.fam]),
                              self.h_kin)
        d_pure = hi.decoherence_functional(st, spec)
        d_mixed = hi.decoherence_functional(hi.to_density(st), spec)
        assert np.max(np.abs(d_pure.matrix - d_mixed.matrix)) < 1e-12

    def test_diagonal_sums_to_one_two_time(self):
        st = hi.superposition_state(self.hs, self.psi, self.chi)
        spec = hi.HistorySpec(self.hs, (0.5, 1.5), ([self.fam], [self.fam]),
                              self.h_kin)
        d = hi.decoherence_functional(st, spec)
        assert d.probabilities().sum() == pytest.approx(1.0, abs=1e-10)

    def test_bound_holds(self):
        st = hi.superposition_state(self.hs, self.psi, self.chi)
        spec = hi.HistorySpec(self.hs, (0.5, 1.5), ([self.fam], [self.fam]),
                              self.h_kin)
        d = hi.decoherence_functional(st, spec)
        assert hi.check_dh_bound(d).ok

    def test_one_family_per_slot(self):
        for slot in ([], [self.fam, self.fam]):
            with pytest.raises(ValueError, match="exactly one"):
                hi.HistorySpec(self.hs, (0.5, 1.0), ([self.fam], slot),
                               self.h_kin)

    @pytest.mark.parametrize("substeps", [0, -2, 2.5])
    def test_dephasing_substeps_must_be_a_positive_integer(self, substeps):
        with pytest.raises(ValueError, match="dephasing_substeps"):
            hi.HistorySpec(self.hs, (0.5,), ([self.fam],), self.h_kin,
                           dephasing_rate=1.0, dephasing_substeps=substeps)

    def test_wrong_shape_member_rejected(self):
        short = [("short", np.ones(self.hs.dim - 1, dtype=bool))]
        counts = [("counts", np.ones(self.hs.dim, dtype=int))]
        for fam in (short, counts):
            with pytest.raises(ValueError, match=r"'(short|counts)' at t = 1\.0"):
                hi.HistorySpec(self.hs, (0.5, 1.0), ([self.fam], [fam]),
                               self.h_kin)

    def test_dephasing_reduces_epsilon(self):
        st = hi.superposition_state(self.hs, self.psi, self.chi)
        rho = hi.to_density(st)
        eps = []
        for rate in (0.0, 0.5, 2.0):
            spec = hi.HistorySpec(self.hs, (0.5, 1.5),
                                  ([self.fam], [self.fam]), self.h_kin,
                                  dephasing_rate=rate)
            d = hi.decoherence_functional(rho, spec)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                eps.append(hi.consistency_epsilon(d))
        assert eps[0] > eps[1] > eps[2]

    def test_branch_interference_decays_with_n(self):
        # superposition of two products; smeared projectors at the two
        # branch occupations show geometric interference decay
        c = 0.8
        psi = np.array([1.0, 0.0], complex)
        chi = np.array([c, np.sqrt(1 - c * c)], complex)
        eps = []
        for n in (2, 4, 6):
            hs = hi.ToyHilbert(B=2, N=n)
            st = hi.superposition_state(hs, psi, chi)
            fam = hi.gaussian_occupation_family(
                hs, 0, centers=(float(n), n * c * c), sigma=1.0)
            spec = hi.HistorySpec(hs, (1.0,), ([fam],),
                                  np.zeros((hs.dim, hs.dim)))
            d = hi.decoherence_functional(st, spec)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                eps.append(hi.consistency_epsilon(d))
        assert eps[0] > eps[1] > eps[2]


def _branch_pairs():
    """The shipped branches, psi = (1, 0) and chi at overlap 0.8, and three
    random complex pairs, whose interference is not confined to k = n."""
    rng = np.random.default_rng(25)
    pairs = [(np.array([1.0, 0.0]), np.array([0.8, 0.6]))]
    pairs += [(random_pure(rng, 2), random_pure(rng, 2)) for _ in range(3)]
    return pairs


class TestBranchCountFunctional:
    @pytest.mark.parametrize("pair", range(4))
    @pytest.mark.parametrize("sigma", [0.6, 1.0])
    def test_matches_dense_engine(self, pair, sigma):
        psi, chi = _branch_pairs()[pair]
        for n in range(1, 11):
            centers = (n * abs(psi[0]) ** 2, n * abs(chi[0]) ** 2)
            hs = hi.ToyHilbert(B=2, N=n)
            fam = hi.gaussian_occupation_family(hs, 0, centers, sigma)
            spec = hi.HistorySpec(hs, (1.0,), ([fam],),
                                  np.zeros((hs.dim, hs.dim)))
            dense = hi.decoherence_functional(
                hi.superposition_state(hs, psi, chi), spec)
            d = hi.branch_count_functional(psi, chi, n, centers, sigma)
            assert d.labels == dense.labels
            scale = np.max(np.abs(dense.matrix))
            assert np.max(np.abs(d.matrix - dense.matrix)) <= 1e-12 * scale

    def test_law_at_the_float_limit(self):
        # at n = 1000 with even branches, every C(n, k) 2^-n is near the
        # smallest normal float; p(a) matches the law summed in log space
        n, sigma = 1000, 3.0
        psi = np.array([0.6, 0.8])
        chi = np.full(2, math.sqrt(0.5))
        centers = (n * 0.36, n * 0.5)
        d = hi.branch_count_functional(psi, chi, n, centers, sigma)
        k = np.arange(n + 1)
        log_c = np.array([math.lgamma(n + 1) - math.lgamma(j + 1)
                          - math.lgamma(n - j + 1) for j in k])
        # a_k = 0.6^k 0.8^(n-k) + 2^(-n/2) > 0, so log a_k is a logaddexp
        log_a = np.logaddexp(k * math.log(0.6) + (n - k) * math.log(0.8),
                             -0.5 * n * math.log(2.0))
        q = np.exp(log_c + 2.0 * log_a)
        q /= q.sum()
        w = np.array([hi._gaussian_weights(k, c, sigma) for c in centers])
        np.testing.assert_allclose(d.probabilities(), (w ** 2) @ q,
                                   rtol=1e-10)

    def test_input_checks_are_the_state_checks(self):
        psi = np.array([0.6, 0.8])
        for bad, message in (((1.0, 0.0, 0.0), "length B"),
                             ((1.0, 1.0), "normalized")):
            with pytest.raises(ValueError, match=message):
                hi.branch_count_functional(bad, psi, 3, (1.0,), 1.0)
            with pytest.raises(ValueError, match=message):
                hi.branch_count_functional(psi, bad, 3, (1.0,), 1.0)
        # at odd n, |psi>^n + |-psi>^n is the zero vector
        with pytest.raises(ValueError, match="cancel"):
            hi.branch_count_functional(psi, -psi, 3, (1.0,), 1.0)
        with pytest.raises(ValueError, match="n >= 1"):
            hi.branch_count_functional(psi, psi, 0, (1.0,), 1.0)
        # the stated limit, n <= 1000; C(n, k) overflows a float from n = 1030
        hi.branch_count_functional(psi, psi, 1000, (1.0,), 1.0)
        with pytest.raises(ValueError, match="n <= 1000"):
            hi.branch_count_functional(psi, psi, 1001, (1.0,), 1.0)
        with pytest.raises(ValueError, match="sigma"):
            hi.branch_count_functional(psi, psi, 3, (1.0,), 0.0)


def kinetic_hamiltonian(b, n):
    """Collective p^2/2 on B bins and N particles, degenerate for N > 1."""
    hs = hi.ToyHilbert(B=b, N=n)
    p1 = hi.one_particle_momentum(hs)
    return hi.lift_one_body(hs, p1 @ p1 / 2.0)


def spectral_chain_hamiltonian(kind, hs):
    """A zero, a diagonal, a real (kinetic) or a genuinely complex
    (collective momentum) Hamiltonian on hs."""
    if kind == "zero":
        return np.zeros((hs.dim, hs.dim))
    if kind == "diagonal":
        return (0.7 * oracles.number_density_operator(hs, 0)
                - 1.3 * oracles.number_density_operator(hs, hs.B - 1))
    if kind == "real":
        return kinetic_hamiltonian(hs.B, hs.N)
    return hi.lift_one_body(hs, hi.one_particle_momentum(
        hi.ToyHilbert(B=hs.B, N=1)))


class TestSpectralUnitary:
    """exp(-i h dt) from the spectrum of h against scipy's expm."""

    @pytest.mark.parametrize("h", [
        kinetic_hamiltonian(2, 8),
        random_hermitian(np.random.default_rng(3), 40),
        spectral_chain_hamiltonian("diagonal", hi.ToyHilbert(B=3, N=3)),
        np.zeros((27, 27)),
    ], ids=["kinetic-B2-N8", "random-hermitian", "diagonal", "zero"])
    @pytest.mark.parametrize("dt", [0.1, 0.5, 1.7])
    def test_matches_expm_and_is_unitary(self, h, dt):
        u = hi._unitary(hi._spectrum(h), dt)
        assert np.max(np.abs(u - expm(-1j * h * dt))) < 1e-12
        assert np.max(np.abs(u @ u.conj().T - np.eye(len(h)))) < 1e-13
        if np.array_equal(h, np.diag(np.diag(h))):
            # eigh gives a diagonal h a signed permutation of the basis,
            # so U is the diagonal phase matrix bit for bit
            assert np.array_equal(u, np.diag(np.exp(-1j * dt * np.diag(h))))

    @pytest.mark.parametrize("diagonal", [False, True])
    def test_spec_spectrum_rebuilds_the_hamiltonian(self, diagonal):
        hs = hi.ToyHilbert(B=2, N=4)
        h = (oracles.number_density_operator(hs, 1) if diagonal
             else kinetic_hamiltonian(2, 4))
        spec = hi.HistorySpec(hs, (1.0,), ([hi.occupation_family(hs)],), h)
        w, v = spec.spectrum
        rebuilt = (v * w) @ v.conj().T
        assert np.max(np.abs(rebuilt - spec.hamiltonian)) < 1e-12
        if diagonal:  # rebuilt exactly from its signed permutation
            assert np.array_equal(rebuilt, spec.hamiltonian)
        with pytest.raises(TypeError):
            hi.HistorySpec(hs, (1.0,), ([hi.occupation_family(hs)],), h,
                           spectrum=spec.spectrum)

    @pytest.mark.parametrize("b, n", [(2, 8), (3, 3)])
    def test_real_hamiltonian_decomposed_in_real_arithmetic(self, b, n):
        # the kinetic H is real up to rounding (|Im h| ~ 1e-16, not 0): its
        # eigenvectors come out real, and U still matches expm
        h = kinetic_hamiltonian(b, n)
        assert 0 < np.max(np.abs(h.imag)) < 1e-15
        w, v = hi._spectrum(h)
        assert np.isrealobj(v)
        for dt in (0.3, 1.7):
            u = hi._unitary((w, v), dt)
            assert np.max(np.abs(u - expm(-1j * h * dt))) < 1e-12

    def test_complex_hamiltonian_keeps_complex_arithmetic(self):
        # the collective momentum on B = 3 bins is genuinely complex
        hs = hi.ToyHilbert(B=3, N=3)
        h = hi.lift_one_body(hs, hi.one_particle_momentum(
            hi.ToyHilbert(B=3, N=1)))
        assert np.max(np.abs(h.imag)) > 0.1
        w, v = hi._spectrum(h)
        assert np.iscomplexobj(v)
        u = hi._unitary((w, v), 0.8)
        assert np.max(np.abs(u - expm(-0.8j * h))) < 1e-12

    def test_diagonal_heisenberg_operators_are_phase_rotations(self):
        rng = np.random.default_rng(6)
        a = random_hermitian(rng, 9)
        h = np.diag(rng.normal(size=9))
        times = (0.4, 1.3)
        for t, at in zip(times, hi._heisenberg_ops(a, h, times, 9)):
            u = expm(-1j * h * t)
            assert np.max(np.abs(at - u.conj().T @ a @ u)) < 1e-13

    def test_heisenberg_route_needs_a_hermitian_hamiltonian(self):
        # eigh reads one triangle only, so a non-Hermitian h must not pass
        a_op = np.diag([0.0, 1.0, 2.0])
        h = np.triu(np.ones((3, 3)))
        with pytest.raises(ValueError, match="Hermitian"):
            hi._heisenberg_ops(a_op, h, (0.5,), 3)

    @pytest.mark.parametrize("dim", [7, 600])
    def test_hermiticity_checked_in_every_row_block(self, dim):
        # h is checked in row blocks; at dim = 600 a block holds 109 rows, so
        # the last block is partial.  One skew entry with its row and column
        # in that block is seen, and the tolerance is 1e-10 max|h| at either
        # size
        step = hi._ROW_BLOCK_BYTES // (16 * dim)
        assert dim <= step or (dim % step and dim // step == 5)
        h = np.zeros((dim, dim))
        h[0, 0] = 1.0
        h[dim - 1, dim - 2] = 1e-10
        assert np.array_equal(hi._checked_hamiltonian(h, dim), h)
        h[dim - 1, dim - 2] = np.nextafter(1e-10, 1.0)
        with pytest.raises(ValueError, match="Hermitian"):
            hi._checked_hamiltonian(h, dim)

    @pytest.mark.parametrize("dim", [2, 600])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf,
                                     complex(0.0, np.inf)])
    def test_non_finite_entry_rejected(self, dim, bad):
        # NaN fails every comparison, and an infinite max|h| passes any
        # tolerance scaled by it; both are rejected, in the last row block
        # too, whether or not the mirror entry matches
        for mirror in (0.0, np.conj(bad)):
            h = np.eye(dim, dtype=complex)
            h[dim - 1, dim - 2], h[dim - 2, dim - 1] = bad, mirror
            with pytest.raises(ValueError, match="finite"):
                hi._checked_hamiltonian(h, dim)

    def test_nan_hamiltonian_builds_no_spec(self):
        space = hi.ToyHilbert(B=2, N=1)
        fam = hi.occupation_family(space)
        with pytest.raises(ValueError, match="finite"):
            hi.HistorySpec(space, (0.5, 1.0), ([fam], [fam]),
                           np.array([[np.nan, 5.0], [0.0, 1.0]]))


class TestSpectralChains:
    """Chains moved through the spectrum against chains moved by the formed
    U = expm(-i h dt), to 1e-12."""

    @pytest.mark.parametrize("kind", ["diagonal", "real", "complex"])
    @pytest.mark.parametrize("width", [1, 4, 27])
    def test_matches_formed_unitary(self, kind, width, monkeypatch):
        # two chains of `width` columns on dim 27: R = 2 and 8 are narrow
        # and go through the spectrum, R = 54 is wide and forms U
        hs = hi.ToyHilbert(B=3, N=3)
        h = spectral_chain_hamiltonian(kind, hs)
        spectrum = hi._spectrum(h)
        formed = []
        real_unitary = hi._unitary

        def spy(*args):
            formed.append(args)
            return real_unitary(*args)

        monkeypatch.setattr(hi, "_unitary", spy)
        rng = np.random.default_rng(width)
        rows = rng.random(hs.dim) < 0.5
        chains = [(rows_, rng.normal(size=(n, width))
                   + 1j * rng.normal(size=(n, width)))
                  for rows_, n in ((hi._ALL, hs.dim), (rows, rows.sum()))]
        moved = hi._apply_unitary(spectrum, 0.8, chains)
        u = expm(-0.8j * h)
        for (rows_, y), got in zip(chains, moved):
            assert np.max(np.abs(got - u[:, rows_] @ y)) < 1e-12
        assert bool(formed) == (2 * width >= hs.dim)


class TestEnginesMatchDenseReference:
    """Chain (no dephasing) and branch-pair (dephasing) engines against
    dense_reference, to 1e-12."""

    RATES = ((0.0, 1), (0.9, 1), (0.9, 3))  # (dephasing rate, substeps)

    def setup_method(self):
        self.hs = hi.ToyHilbert(B=2, N=3)
        rng = np.random.default_rng(17)
        self.ham = random_hermitian(rng, self.hs.dim)
        thin = rng.normal(size=(8, 3)) + 1j * rng.normal(size=(8, 3))
        wide = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        self.states = {"pure": hi.StateVector(self.hs, random_pure(rng, 8))}
        for name, a in (("rank-3", thin), ("full-rank", wide)):
            m = a @ a.conj().T
            self.states[name] = hi.DensityOperator(self.hs,
                                                   m / np.trace(m).real)

    def check(self, state, times, slots, rate, substeps, ham=None):
        rho = self.states[state]
        spec = hi.HistorySpec(self.hs, times, slots,
                              self.ham if ham is None else ham,
                              dephasing_rate=rate, dephasing_substeps=substeps)
        d = hi.decoherence_functional(rho, spec)
        rho_m = (np.outer(rho.amplitudes, rho.amplitudes.conj())
                 if isinstance(rho, hi.StateVector) else rho.matrix)
        catalog, want = dense_reference(rho_m, spec)
        assert list(d.labels) == catalog
        assert np.max(np.abs(d.matrix - want)) < 1e-12
        return d

    @pytest.mark.parametrize("state", ["pure", "rank-3", "full-rank"])
    @pytest.mark.parametrize("times", [(0.0,), (0.7,), (0.0, 0.6),
                                       (0.3, 0.8, 1.5)])
    def test_occupation_histories(self, state, times):
        masks = hi.occupation_family(self.hs)
        dense = [(lab, np.diag(m.astype(complex))) for lab, m in masks]
        for fam, (rate, substeps) in itertools.product((masks, dense),
                                                       self.RATES):
            self.check(state, times, tuple([fam] for _ in times), rate,
                       substeps)

    @pytest.mark.parametrize("state", ["pure", "full-rank"])
    @pytest.mark.parametrize("times", [(0.0,), (0.7,), (0.0, 0.6),
                                       (0.3, 0.8, 1.5)])
    @pytest.mark.parametrize("rate, substeps", RATES)
    def test_disjoint_final_family_gives_blocks(self, state, times, rate,
                                                substeps):
        # D vanishes between distinct final occupations, so both engines
        # return one (K, K) block per final label, K the prefix count
        masks = hi.occupation_family(self.hs)
        d = self.check(state, times, tuple([masks] for _ in times), rate,
                       substeps)
        k = len(masks) ** (len(times) - 1)
        assert d.blocks.shape == (k, k, len(masks))

    def weight_families(self):
        """Gaussian quasi-projectors (every row weighted by every member),
        disjoint weights that are not 0/1 (the block contraction, which
        weights by w^2), overlapping masks, and a weight vector, a mask and
        a matrix in one family."""
        masks = hi.occupation_family(self.hs)
        scale = np.random.default_rng(5).uniform(0.2, 0.9, self.hs.dim)
        return {
            "gaussian": hi.gaussian_occupation_family(
                self.hs, 0, (0.4, 1.5, 2.2), 0.7),
            "disjoint-weights": [(lab, m * scale) for lab, m in masks],
            "overlapping-masks": masks + [("both", masks[0][1] | masks[1][1])],
            "mixed": [("w", masks[0][1] * 0.5), ("m", masks[1][1]),
                      ("P", np.diag(masks[2][1].astype(complex)))],
        }

    @pytest.mark.parametrize("state", ["pure", "full-rank"])
    @pytest.mark.parametrize("family", ["gaussian", "disjoint-weights",
                                        "overlapping-masks", "mixed"])
    def test_weight_vector_families(self, state, family):
        fam = self.weight_families()[family]
        for times, (rate, substeps) in itertools.product(
                ((0.7,), (0.4, 1.1), (0.0, 0.6, 1.3)), self.RATES):
            self.check(state, times, tuple([fam] for _ in times), rate,
                       substeps)


    @pytest.mark.parametrize("state", ["pure", "rank-3", "full-rank"])
    @pytest.mark.parametrize("kind", ["zero", "diagonal", "real", "complex"])
    @pytest.mark.parametrize("family", ["disjoint-weights", "mixed"])
    def test_hamiltonian_kinds(self, state, kind, family):
        # every kind goes through its eigenbasis, a real one in real
        # arithmetic, in the chain and the branch-pair engines alike
        fam = self.weight_families()[family]
        ham = spectral_chain_hamiltonian(kind, self.hs)
        for times, (rate, substeps) in itertools.product(
                ((0.7,), (0.4, 1.1), (0.0, 0.6, 1.3)), self.RATES):
            self.check(state, times, tuple([fam] for _ in times), rate,
                       substeps, ham)


class TestChainFactor:
    """The chain engine on a DensityOperator, whose factor is pivoted
    Cholesky, against the pure path and the eigh-factor oracle, to 1e-13."""

    def setup_method(self):
        self.hs = hi.ToyHilbert(B=2, N=6)
        self.ham = kinetic_hamiltonian(2, 6)

    @pytest.mark.parametrize("times", [(0.7,), (0.0, 0.6), (0.3, 0.8, 1.5)])
    @pytest.mark.parametrize("family", ["masks", "gaussian"])
    def test_pure_density_matches_the_state(self, times, family):
        st = hi.superposition_state(self.hs, np.array([0.6, 0.8j]),
                                    np.array([0.8, -0.6]))
        fam = (hi.occupation_family(self.hs) if family == "masks" else
               hi.gaussian_occupation_family(self.hs, 0, (1.0, 3.0, 4.5),
                                             0.8))
        spec = hi.HistorySpec(self.hs, times, tuple([fam] for _ in times),
                              self.ham)
        pure = hi.decoherence_functional(st, spec)
        mixed = hi.decoherence_functional(hi.to_density(st), spec)
        assert np.max(np.abs(mixed.blocks - pure.blocks)) <= 1e-13

    @pytest.mark.parametrize("times", [(0.7,), (0.0, 0.6), (0.3, 0.8, 1.5)])
    def test_full_rank_matches_the_eigh_factor(self, times, monkeypatch):
        # the operator keeps the factor it was built with, so the reference
        # is built with the eigh factor, which is another L of the same rho
        rho = gibbs_density(3, 3, 1.0)
        fam = hi.occupation_family(rho.space)
        spec = hi.HistorySpec(rho.space, times, tuple([fam] for _ in times),
                              kinetic_hamiltonian(3, 3))
        got = hi.decoherence_functional(rho, spec)
        monkeypatch.setattr(hi, "_density_factor", oracles.eigh_factor)
        ref = gibbs_density(3, 3, 1.0)
        assert ref._factor.shape == rho._factor.shape
        assert np.max(np.abs(ref._factor - rho._factor)) > 1e-3
        want = hi.decoherence_functional(ref, spec)
        assert np.max(np.abs(got.blocks - want.blocks)) <= 1e-13


class TestLastIntervalRoutes:
    """The dephased last interval with disjoint final diagonals: prefix
    pairs evolved forward and final weights evolved backward, each forced
    on the same input, agree to 1e-13 of max|D|."""

    def setup_method(self):
        self.hs = hi.ToyHilbert(B=2, N=4)
        rng = np.random.default_rng(31)
        self.ham = random_hermitian(rng, self.hs.dim)
        a = rng.normal(size=(16, 3)) + 1j * rng.normal(size=(16, 3))
        m = a @ a.conj().T
        self.rho = hi.DensityOperator(self.hs, m / np.trace(m).real)
        masks = hi.occupation_family(self.hs)
        scale = rng.uniform(0.2, 0.9, self.hs.dim)
        self.families = {"masks": masks,
                         "weights": [(lab, m * scale) for lab, m in masks]}

    def routed(self, backward, times, family, substeps, monkeypatch):
        """The blocks of D with the route forced, checking it was taken."""
        calls = []
        real = hi._backward_blocks
        fam = self.families[family]
        spec = hi.HistorySpec(self.hs, times, tuple([fam] for _ in times),
                              self.ham, dephasing_rate=0.8,
                              dephasing_substeps=substeps)
        with monkeypatch.context() as m:
            m.setattr(hi, "_backward_last_interval", lambda *args: backward)
            m.setattr(hi, "_backward_blocks",
                      lambda *args: calls.append(args) or real(*args))
            blocks = hi.decoherence_functional(self.rho, spec).blocks
        assert bool(calls) == backward
        return blocks

    @pytest.mark.parametrize("times", [(0.4, 1.1), (0.0, 0.6),
                                       (0.3, 0.8, 1.5), (0.0, 0.5, 0.9)])
    @pytest.mark.parametrize("family", ["masks", "weights"])
    @pytest.mark.parametrize("substeps", [1, 2, 8])
    def test_routes_agree(self, times, family, substeps, monkeypatch):
        forward = self.routed(False, times, family, substeps, monkeypatch)
        backward = self.routed(True, times, family, substeps, monkeypatch)
        assert (np.max(np.abs(backward - forward))
                <= 1e-13 * np.max(np.abs(forward)))

    def test_rule(self):
        # the branch-pair workload's shape, 7 finals and 28 pairs at s = 8,
        # goes backward; s = 1 and one-time histories (one pair) never do
        assert hi._backward_last_interval(7, 8, 28)
        assert not any(hi._backward_last_interval(7, 1, n) for n in
                       (1, 28, 10 ** 6))
        assert not any(hi._backward_last_interval(n, s, 1) for n in (1, 7)
                       for s in (1, 2, 8, 100))

    @pytest.mark.parametrize("times, substeps, backward", [
        ((0.3, 1.0), 8, True), ((0.3, 1.0), 1, False), ((1.0,), 8, False)])
    def test_rule_picks_the_route(self, times, substeps, backward,
                                  monkeypatch):
        hs = hi.ToyHilbert(B=2, N=6)
        fam = hi.occupation_family(hs)
        st = hi.superposition_state(hs, np.array([0.6, 0.8]),
                                    np.array([0.8, -0.6]))
        spec = hi.HistorySpec(hs, times, tuple([fam] for _ in times),
                              kinetic_hamiltonian(2, 6), dephasing_rate=1.0,
                              dephasing_substeps=substeps)
        calls = []
        real = hi._backward_blocks
        monkeypatch.setattr(hi, "_backward_blocks",
                            lambda *args: calls.append(args) or real(*args))
        hi.decoherence_functional(hi.to_density(st), spec)
        assert bool(calls) == backward

    def test_factorized_d1_stays_forward(self, monkeypatch):
        # d1 takes one substep per interval, so its values do not move
        def no_backward(*args):
            raise AssertionError("d1 went backward")

        monkeypatch.setattr(hi, "_backward_blocks", no_backward)
        rho1, h1 = product_setup("gibbs3")
        hi.product_occupation_functional(rho1, h1, 4, (0.3, 0.5), 60.0)


#: one-particle Gibbs states (beta, mubar, u): the peaking scenario's, the
#: same with a drift (which makes rho1 complex on B = 3), a B = 2 state and
#: a B = 6 state with a drift, where the dynamic program has many bins
PRODUCT_STATES = {
    "gibbs3": (3.0, (4.0, 0.0, 0.0), (0.0, 0.0, 0.0)),
    "drift3": (3.0, (4.0, 0.0, 0.0), (0.5, -0.3, 0.2)),
    "gibbs2": (2.0, (1.0, 0.0), (0.0, 0.0)),
    "drift6": (2.0, (3.0, 1.0, 0.0, 0.5, 0.0, 2.0),
               (0.4, -0.2, 0.1, 0.0, -0.3, 0.2)),
}
PRODUCT_CASES = [("gibbs3", 1), ("gibbs3", 2), ("gibbs3", 4), ("gibbs3", 6),
                 ("drift3", 4), ("gibbs2", 1), ("gibbs2", 5), ("gibbs2", 8),
                 ("drift6", 2)]


def product_setup(state):
    """rho1 and the kinetic one-body Hamiltonian p^2/2 of a product case."""
    beta, mubar, u = PRODUCT_STATES[state]
    rho1 = le.one_particle_gibbs(np.full(len(mubar), beta), np.array(mubar),
                                 np.array(u))
    p1 = hi.one_particle_momentum(rho1.space)
    return rho1, p1 @ p1 / 2.0


def one_step(rho_m, h1, space, rate, dt):
    """One damp-then-rotate step rho -> U (rho o damp) U^dag over dt."""
    u = hi._unitary(hi._spectrum(h1), dt)
    return u @ (rho_m * hi._dephasing_mask(space, rate, dt)) @ u.conj().T


@functools.lru_cache(maxsize=None)
def product_engines(state, n, rate, times):
    """(dense, factorized) two-time occupation functionals of rho1^(x n);
    cached because the N = 6 dense runs take about a second each."""
    rho1, h1 = product_setup(state)
    rho = oracles.gibbs_tensor_power(rho1, n)
    fam = hi.occupation_family(rho.space)
    spec = hi.HistorySpec(rho.space, times, ([fam], [fam]),
                          hi.lift_one_body(rho.space, h1),
                          dephasing_rate=rate, dephasing_substeps=1)
    return (hi.decoherence_functional(rho, spec),
            hi.product_occupation_functional(rho1, h1, n, times, rate))


def quiet_epsilon(dmat):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return hi.consistency_epsilon(dmat)


class TestProductOccupationFunctional:
    """The factorized engine against the dense engines on rho1^(x N)."""

    @pytest.mark.parametrize("state, n", PRODUCT_CASES)
    @pytest.mark.parametrize("rate", [0.0, 60.0])
    @pytest.mark.parametrize("times", [(0.0, 0.1), (0.3, 0.5)])
    def test_matches_dense_engine(self, state, n, rate, times):
        dense, fact = product_engines(state, n, rate, times)
        got = fact.decoherence
        assert got.labels == dense.labels
        assert np.max(np.abs(got.matrix - dense.matrix)) < 1e-12
        assert quiet_epsilon(got) == pytest.approx(quiet_epsilon(dense),
                                                   rel=1e-12)

    @pytest.mark.parametrize("state, n", PRODUCT_CASES)
    @pytest.mark.parametrize("rate", [0.0, 60.0])
    @pytest.mark.parametrize("times", [(0.0, 0.1), (0.3, 0.5)])
    def test_blocks_read_as_the_dense_matrix(self, state, n, rate, times):
        # probabilities and epsilon off the n2 blocks are those of the
        # dense matrix the blocks stand for, bit for bit
        blocks = product_engines(state, n, rate, times)[1].decoherence
        dense = hi.DecoherenceMatrix(blocks.labels, blocks.matrix)
        assert quiet_epsilon(blocks) == quiet_epsilon(dense)
        assert np.array_equal(blocks.probabilities(), dense.probabilities())

    @pytest.mark.parametrize("state, n", PRODUCT_CASES)
    @pytest.mark.parametrize("rate", [0.0, 60.0])
    @pytest.mark.parametrize("times", [(0.0, 0.1), (0.3, 0.5)])
    def test_normalized_with_multinomial_final_marginal(self, state, n, rate,
                                                        times):
        # summed over both t1 labels, interference terms included, D gives
        # Tr(P_n2 rho(t2)): the multinomial law of the evolved diag(rho1)
        rho1, h1 = product_setup(state)
        d = hi.product_occupation_functional(rho1, h1, n, times,
                                             rate).decoherence
        assert abs(np.sum(d.matrix) - 1.0) < 1e-12
        k = math.isqrt(len(d.labels))
        final = np.einsum("icjc->c", d.matrix.reshape(k, k, k, k))
        r = rho1.matrix
        for t0, t1 in ((0.0, times[0]), times):
            r = one_step(r, h1, rho1.space, rate, t1 - t0)
        occ = [lab[1] for lab in d.labels[:k]]
        want = multinomial.pmf(occ, n, np.real(np.diag(r)))
        assert np.max(np.abs(final - want)) < 1e-12

    @staticmethod
    def dense_of(coef):
        """The dense matrix that n2 blocks stand for, entry by entry."""
        k = coef.shape[0]
        dense = np.zeros((k * k, k * k), dtype=complex)
        for (a, (i, c)), (b, (j, c2)) in itertools.product(
                enumerate(itertools.product(range(k), repeat=2)), repeat=2):
            if c == c2:
                dense[a, b] = coef[i, j, c]
        return dense

    def test_matrix_places_the_blocks(self):
        d = product_engines("drift3", 2, 60.0, (0.0, 0.1))[1].decoherence
        assert np.array_equal(d.matrix, self.dense_of(d.blocks))

    @pytest.mark.parametrize("entry, value, message", [
        ((0, 1, 2), 1.0, "Hermitian"),
        ((1, 1, 1), -1.0, "nonnegative"),
    ])
    def test_checks_are_the_dense_matrix_checks(self, entry, value, message):
        fact = product_engines("drift3", 2, 60.0, (0.0, 0.1))[1]
        d1 = fact.d1.copy()
        d1[entry] = value
        with pytest.raises(ValueError, match=message):
            hi.OccupationFunctional(d1, 2)
        with pytest.raises(ValueError, match=message):
            hi.DecoherenceMatrix(fact.decoherence.labels, self.dense_of(
                hi._occupation_coefficients(d1, 2)))

    def test_built_from_d1_alone(self):
        # the functional derives its compositions, blocks and labels from
        # (d1, n), and the engine's result is that of its own d1
        fact = product_engines("drift3", 4, 60.0, (0.3, 0.5))[1]
        again = hi.OccupationFunctional(fact.d1, 4)
        assert again.comps == tuple(hi._compositions(4, 3))
        assert again.decoherence.labels == fact.decoherence.labels
        assert np.array_equal(again.decoherence.blocks,
                              fact.decoherence.blocks)
        assert not fact.d1.flags.writeable
        assert not fact.decoherence.blocks.flags.writeable

    @pytest.mark.parametrize("state", sorted(PRODUCT_STATES))
    @pytest.mark.parametrize("rate", [0.0, 60.0])
    @pytest.mark.parametrize("times", [(0.0, 0.1), (0.3, 0.5)])
    def test_mean_occupations_follow_the_one_particle_state(self, state,
                                                            rate, times):
        # N <b|rho1(t)|b> at t1 and t2, rho1 evolved over the engine's
        # intervals 0 -> t1 -> t2 by one damp-then-rotate step each
        rho1, h1 = product_setup(state)
        n = 3
        fact = hi.product_occupation_functional(rho1, h1, n, times, rate)
        r, want = rho1.matrix, []
        for t0, t1 in ((0.0, times[0]), times):
            r = one_step(r, h1, rho1.space, rate, t1 - t0)
            want.append(n * np.real(np.diag(r)))
        got = fact.mean_occupations()
        assert np.max(np.abs(np.array(got) - np.array(want))) < 1e-14

    @pytest.mark.parametrize("state", sorted(PRODUCT_STATES))
    @pytest.mark.parametrize("rate", [0.0, 60.0])
    @pytest.mark.parametrize("times", [(0.0, 0.1), (0.3, 0.5)])
    def test_d1_is_hermitian_in_the_bin_pair(self, state, rate, times):
        # d1[b', b, c] is the conjugate of d1[b, b', c], bit for bit: one
        # branch pair of each two is evolved, the other is its conjugate
        rho1, h1 = product_setup(state)
        d1 = hi.product_occupation_functional(rho1, h1, 2, times, rate).d1
        for b, b2 in itertools.permutations(range(len(d1)), 2):
            assert np.array_equal(d1[b2, b], d1[b, b2].conj())

    @pytest.mark.parametrize("b, n, fits", [
        (2, 16, True), (2, 202, True), (2, 203, False), (3, 12, True),
        (3, 18, True), (3, 19, False), (4, 8, True), (4, 9, False),
        (8, 5, False)])
    def test_table_cap_in_bytes(self, b, n, fits):
        # C(n + b - 1, b - 1)^3 complex entries within 2^27 bytes
        size = hi.occupation_table_bytes(b, n)
        assert size == 16 * math.comb(n + b - 1, b - 1) ** 3
        assert (size <= hi.OCCUPATION_TABLE_BYTES) == fits

    def test_cap_raises_before_the_table_is_allocated(self):
        # 8 bins, N = 5: the table would be 792^3 complex entries, 7.9 GB
        d1 = np.full((8, 8, 8), 1.0 / 512, dtype=complex)
        tracemalloc.start()
        try:
            with pytest.raises(DimensionCapError):
                hi.OccupationFunctional(d1, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    def test_drift_makes_the_state_complex(self):
        rho1, _ = product_setup("drift3")
        assert np.max(np.abs(rho1.matrix.imag)) > 1e-3

    @pytest.mark.parametrize("rate", [0.0, 60.0, 71.3])
    def test_top_histories_rank_alike(self, rate):
        # mirror-image histories tie up to rounding; the scenario's ranking
        # must not depend on which engine broke the tie
        dense, fact = product_engines("gibbs3", 6, rate, (0.0, 0.1))
        ranks = [sc._most_probable(dict(zip(d.labels, d.probabilities())))
                 for d in (dense, fact.decoherence)]
        assert len(ranks[0]) == 50
        assert ranks[0] == ranks[1]

    @pytest.mark.parametrize("b, n", [(3, 6), (6, 2), (8, 2), (5, 4)])
    def test_dynamic_program_holds_compositions_only(self, b, n):
        # one axis per composition of n, never (n + 1)^(B - 1) per group
        k = math.comb(n + b - 1, b - 1)
        d1 = np.ones((b,) * 3, dtype=complex) / b ** 3
        coef = hi._occupation_coefficients(d1, n)
        assert coef.shape == (k, k, k)
        assert np.sum(coef) == pytest.approx(1.0, rel=1e-12)

    @staticmethod
    def per_term_coefficients(d1, n):
        """The dynamic program one (b, b', c) term at a time: each term
        scatters d1[b, b', c] times the whole table of k particles."""
        b = d1.shape[0]
        coef = np.ones((1, 1, 1), dtype=complex)
        lower = hi._compositions(0, b)
        for k in range(1, n + 1):
            upper = hi._compositions(k, b)
            index = {comp: i for i, comp in enumerate(upper)}
            shift = np.array([[index[comp[:bin_] + (comp[bin_] + 1,)
                                     + comp[bin_ + 1:]] for bin_ in range(b)]
                              for comp in lower])
            nxt = np.zeros((len(upper),) * 3, dtype=complex)
            for (i, j, c), d in np.ndenumerate(d1):
                nxt[np.ix_(shift[:, i], shift[:, j], shift[:, c])] += d * coef
            coef, lower = nxt, upper
        return coef

    @pytest.mark.parametrize("b, n", [(2, 30), (3, 6), (4, 4), (5, 3)])
    def test_dynamic_program_matches_the_per_term_form(self, b, n):
        rng = np.random.default_rng(b * 100 + n)
        d1 = (rng.standard_normal((b,) * 3)
              + 1j * rng.standard_normal((b,) * 3))
        got = hi._occupation_coefficients(d1, n)
        want = self.per_term_coefficients(d1, n)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("b, n, ratio", [
        (3, 10, 2.74), (3, 12, 2.89), (2, 64, 3.87)])
    def test_dynamic_program_peak_bytes(self, b, n, ratio):
        # the peak inside the call, in tables, stays within what the
        # per-term form reached (the ratios given here)
        rng = np.random.default_rng(n)
        d1 = (rng.standard_normal((b,) * 3)
              + 1j * rng.standard_normal((b,) * 3))
        tracemalloc.start()
        try:
            coef = hi._occupation_coefficients(d1, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert coef.nbytes == hi.occupation_table_bytes(b, n)
        assert peak <= ratio * coef.nbytes

    @pytest.mark.parametrize("b, n, ratio", [(3, 12, 2.08), (4, 8, 2.04)])
    def test_functional_peak_bytes(self, b, n, ratio):
        # the functional, its Hermiticity check of the table included, peaks
        # within the ratios given here, in tables: 2.067 and 2.028 with the
        # check in chunks of blocks; 2.076 and 2.037 with a check per block,
        # and 3.04 at B = 3, N = 12 with one check on the whole table
        rho1 = le.one_particle_gibbs(np.ones(b), np.linspace(0.0, 0.5, b),
                                     np.zeros(b))
        p1 = hi.one_particle_momentum(rho1.space)
        d1 = hi.product_occupation_functional(rho1, p1 @ p1 / 2, 1,
                                              (0.2, 0.7), 0.3).d1
        hi.OccupationFunctional(d1, 2)                  # warm-up
        tracemalloc.start()
        try:
            hi.OccupationFunctional(d1, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= ratio * hi.occupation_table_bytes(b, n)

    def test_input_checks(self):
        rho1, h1 = product_setup("gibbs3")
        with pytest.raises(ValueError, match="two times"):
            hi.product_occupation_functional(rho1, h1, 2, (0.0, 0.1, 0.2))
        with pytest.raises(ValueError, match="strictly increasing"):
            hi.product_occupation_functional(rho1, h1, 2, (0.2, 0.1))
        with pytest.raises(ValueError, match="times must be nonnegative"):
            hi.product_occupation_functional(rho1, h1, 2, (-0.1, 0.1))
        with pytest.raises(ValueError, match="N >= 1"):
            hi.product_occupation_functional(rho1, h1, 0, (0.0, 0.1))
        with pytest.raises(ValueError, match="nonnegative"):
            hi.product_occupation_functional(rho1, h1, 2, (0.0, 0.1), -1.0)
        with pytest.raises(ValueError, match="wrong shape"):
            hi.product_occupation_functional(rho1, np.eye(2), 2, (0.0, 0.1))
        with pytest.raises(ValueError, match="one-particle"):
            hi.product_occupation_functional(
                oracles.gibbs_tensor_power(rho1, 2), h1, 2, (0.0, 0.1))
        with pytest.raises(ValueError, match="B, B, B"):
            hi.OccupationFunctional(np.ones((3, 3, 2)), 2)
        # 8 bins and N = 6: C(13, 7)^3 = 1716^3 entries
        rho8 = le.one_particle_gibbs(np.full(8, 2.0), np.zeros(8),
                                     np.zeros(8))
        p8 = hi.one_particle_momentum(rho8.space)
        with pytest.raises(DimensionCapError):
            hi.product_occupation_functional(rho8, p8 @ p8 / 2.0, 6,
                                             (0.0, 0.1))


class TestConsistencyMeasures:
    def test_exactly_decoherent_epsilon_zero(self):
        d = hi.DecoherenceMatrix(("a", "b"), np.diag([0.7, 0.3]).astype(complex))
        assert hi.consistency_epsilon(d) == 0.0

    def test_zero_probability_rows_excluded(self):
        m = np.zeros((3, 3), complex)
        m[0, 0], m[1, 1] = 0.6, 0.4
        m[0, 1] = m[1, 0] = 0.1
        d = hi.DecoherenceMatrix(("a", "b", "c"), m)
        with pytest.warns(UserWarning):
            eps = hi.consistency_epsilon(d)
        assert eps == pytest.approx(0.1 / np.sqrt(0.24))

    def test_epsilon_of_tiny_probabilities(self):
        # p(a) p(a') = 1e-330 underflows to 0; the two square roots do not
        m = np.array([[1e-165, 0.5e-165], [0.5e-165, 1e-165]], dtype=complex)
        d = hi.DecoherenceMatrix(("a", "b"), m)
        assert hi.consistency_epsilon(d) == pytest.approx(0.5, rel=1e-15)

    def test_bound_report_flags_violation(self):
        # a hand-built matrix violating the bound
        m = np.array([[0.5, 0.6], [0.6, 0.5]], dtype=complex)
        d = hi.DecoherenceMatrix(("a", "b"), m)
        rep = hi.check_dh_bound(d)
        assert not rep.ok
        assert rep.worst_excess == pytest.approx(0.36 - 0.25)

    def test_vectorized_measures_match_pair_loops(self):
        # the pair loops the vectorized forms replaced, kept as the reference
        def loop_epsilon(dmat):
            p = dmat.probabilities()
            eps = 0.0
            for i, j in itertools.combinations(np.flatnonzero(p > 1e-300), 2):
                eps = max(eps, abs(dmat.matrix[i, j])
                          / (np.sqrt(p[i]) * np.sqrt(p[j])))
            return eps

        def loop_bound(dmat, slack):
            p = dmat.probabilities()
            worst, pair = -np.inf, None
            for i, j in itertools.combinations(range(len(p)), 2):
                excess = abs(dmat.matrix[i, j]) ** 2 - p[i] * p[j]
                if excess > worst:
                    worst, pair = excess, (dmat.labels[i], dmat.labels[j])
            return worst <= slack, worst, pair

        rng = np.random.default_rng(8)
        for n, dead in ((1, 0), (2, 0), (7, 2), (40, 5)):
            a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            m = random_hermitian(rng, n) if n > 5 else a @ a.conj().T
            np.fill_diagonal(m, np.abs(np.diag(m)))
            m[:dead] = m[:, :dead] = 0.0
            d = hi.DecoherenceMatrix(tuple(f"h{k}" for k in range(n)), m)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                assert hi.consistency_epsilon(d) == loop_epsilon(d)
            rep = hi.check_dh_bound(d)
            assert (rep.ok, rep.worst_excess, rep.worst_pair) == loop_bound(
                d, hi.DH_BOUND_SLACK)

    @pytest.mark.parametrize("g", [1, 3, 7])
    @pytest.mark.parametrize("dead", [0, 3])
    def test_readers_agree_on_blocks_and_dense(self, g, dead):
        # a functional held as G blocks reads as the dense matrix they
        # stand for, held as one block: probabilities, epsilon (its value
        # and its warning) and the bound report are equal, bit for bit
        rng = np.random.default_rng(10 * g + dead)
        k = 6
        blocks = np.stack([random_hermitian(rng, k) for _ in range(g)], -1)
        for c in range(g):
            np.fill_diagonal(blocks[:, :, c], np.abs(np.diag(blocks[:, :, c])))
        for i, c in zip(rng.integers(k, size=dead),
                        rng.integers(g, size=dead)):
            blocks[i, :, c] = blocks[:, i, c] = 0.0
        labels = tuple(itertools.product(range(k), "abcdefg"[:g]))
        held = hi.DecoherenceMatrix(labels, blocks)
        dense = hi.DecoherenceMatrix(labels, held.matrix)
        assert held.blocks.shape == (k, k, g)
        assert dense.blocks.shape == (k * g, k * g, 1)
        assert np.array_equal(held.probabilities(), dense.probabilities())
        eps, caught = [], []
        for d in (held, dense):
            with warnings.catch_warnings(record=True) as w:
                warnings.simplefilter("always")
                eps.append(hi.consistency_epsilon(d))
            caught.append([str(x.message) for x in w])
        assert eps[0] == eps[1] and caught[0] == caught[1]
        assert len(caught[0]) == (dead > 0)
        assert hi.check_dh_bound(held) == hi.check_dh_bound(dense)

    @pytest.mark.parametrize("read_only_view", [False, True])
    def test_blocks_are_held_apart_from_the_input(self, read_only_view):
        # a later write to the input, also through a writeable base of a
        # read-only view, leaves the checked D as it was
        m = np.diag([0.7, 0.3]).astype(complex)
        given = m[:]
        given.flags.writeable = not read_only_view
        d = hi.DecoherenceMatrix(("a", "b"), given)
        m[0, 1] = 1.0
        assert d.matrix[0, 1] == 0.0 and not d.blocks.flags.writeable
        with pytest.raises(ValueError, match="label catalog"):
            hi.DecoherenceMatrix(("a", "b", "c"), np.zeros((2, 2, 2)))

    @pytest.mark.parametrize("m", [
        [[np.nan, 0.0], [0.0, 1.0]],
        [[0.5, np.inf], [0.0, 0.5]],
        # the NaN in the second of two blocks
        np.stack([np.eye(2) / 4, [[np.nan, 0.0], [0.0, 0.25]]], -1),
    ], ids=["nan", "inf", "nan-in-second-block"])
    def test_non_finite_entries_rejected(self, m):
        # a NaN entry would read as probability NaN and epsilon 0.0, and an
        # infinite one can pass a skew test that compares inf with inf
        labels = ((0,), (1,)) if np.ndim(m) == 2 else ("a", "b", "c", "d")
        with pytest.raises(ValueError, match="finite"):
            hi.DecoherenceMatrix(labels, m)

    def test_bound_ties_pick_first_pair(self):
        m = np.full((3, 3), 0.1, dtype=complex)
        np.fill_diagonal(m, 1.0 / 3.0)
        d = hi.DecoherenceMatrix(("a", "b", "c"), m)
        assert hi.check_dh_bound(d).worst_pair == ("a", "b")

    @pytest.mark.parametrize("excess, ok", [(0.5, True), (2.0, False)])
    def test_bound_slack(self, excess, ok):
        # |D(a,b)|^2 exceeds p(a) p(b) = 1/4 by a multiple of DH_BOUND_SLACK
        off = np.sqrt(0.25 + excess * hi.DH_BOUND_SLACK)
        d = hi.DecoherenceMatrix(("a", "b"), [[0.5, off], [off, 0.5]])
        rep = hi.check_dh_bound(d)
        assert rep.ok is ok and rep.worst_pair == ("a", "b")
        assert rep.worst_excess == pytest.approx(
            excess * hi.DH_BOUND_SLACK, rel=1e-4)

    def test_single_history(self):
        d = hi.DecoherenceMatrix(("a",), np.ones((1, 1), complex))
        assert hi.consistency_epsilon(d) == 0.0
        rep = hi.check_dh_bound(d)
        assert rep.ok and rep.worst_excess == -np.inf and rep.worst_pair is None


class TestEhrenfestSingleTime:
    def test_eigenstate_gives_plain_gaussian(self):
        a = np.diag([0.0, 2.0, 5.0])
        rho = np.zeros((3, 3), complex)
        rho[1, 1] = 1.0
        rho = density(rho)
        for c in (1.0, 2.0, 3.5):
            got = hi.single_time_prob_exact(rho, a, c, 0.8)
            want = np.exp(-((2.0 - c) ** 2) / (2 * 0.64)) / np.sqrt(
                2 * np.pi * 0.64)
            assert got == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("centers", [
        0.3, np.linspace(-4.0, 4.0, 17),
        np.linspace(-3.0, 3.0, 6).reshape(2, 3)],
        ids=["scalar", "array", "grid"])
    def test_exact_matches_the_quasi_projector_trace(self, centers):
        # one eigh for every center; a scalar center gives a float
        rng = np.random.default_rng(21)
        a = random_hermitian(rng, 8)
        m = rng.normal(size=(8, 3)) + 1j * rng.normal(size=(8, 3))
        rho = m @ m.conj().T
        rho = density(rho / np.trace(rho).real)
        got = hi.single_time_prob_exact(rho, a, centers, 1.3)
        asym = hi.single_time_prob_asymptotic(rho, a, centers, 1.3)
        want = np.vectorize(lambda c: np.real(np.trace(
            oracles.gaussian_quasi_projector(a, c, 1.3) @ rho.matrix)))(centers)
        want_asym = np.vectorize(
            lambda c: hi.single_time_prob_asymptotic(rho, a, float(c), 1.3)
        )(centers)
        if np.ndim(centers) == 0:
            assert type(got) is float and type(asym) is float
        else:
            assert got.shape == asym.shape == np.shape(centers)
        assert np.max(np.abs(got - want)) < 1e-14
        assert np.max(np.abs(asym - want_asym)) < 1e-14

    def test_asymptotic_matches_exact_at_large_sigma(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            a = random_hermitian(rng, 8)
            v = random_pure(rng, 8)
            rho = density(np.outer(v, v.conj()))
            mean = float(np.real(v.conj() @ a @ v))
            spread = np.sqrt(float(np.real(v.conj() @ a @ a @ v)) - mean ** 2)
            sigma = 10 * spread
            for c in np.linspace(mean - 2 * sigma, mean + 2 * sigma, 17):
                exact = hi.single_time_prob_exact(rho, a, c, sigma)
                asym = hi.single_time_prob_asymptotic(rho, a, c, sigma)
                assert abs(exact - asym) / exact < 2e-2

    def test_error_shrinks_with_sigma(self):
        rng = np.random.default_rng(9)
        a = random_hermitian(rng, 8)
        v = random_pure(rng, 8)
        rho = density(np.outer(v, v.conj()))
        mean = float(np.real(v.conj() @ a @ v))
        spread = np.sqrt(float(np.real(v.conj() @ a @ a @ v)) - mean ** 2)
        errs = []
        for mult in (3.0, 10.0, 30.0):
            sigma = mult * spread
            worst = max(
                abs(hi.single_time_prob_exact(rho, a, c, sigma)
                    - hi.single_time_prob_asymptotic(rho, a, c, sigma))
                / hi.single_time_prob_exact(rho, a, c, sigma)
                for c in np.linspace(mean - 2 * sigma, mean + 2 * sigma, 17))
            errs.append(worst)
        assert errs[0] > errs[1] > errs[2]

    def test_quadrature_normalization(self):
        rng = np.random.default_rng(4)
        a = random_hermitian(rng, 6)
        v = random_pure(rng, 6)
        rho = density(np.outer(v, v.conj()))
        lo = np.min(np.linalg.eigvalsh(a)) - 8
        hiv = np.max(np.linalg.eigvalsh(a)) + 8
        centers = np.arange(lo, hiv, 0.05)
        total = sum(hi.single_time_prob_exact(rho, a, c, 1.0)
                    for c in centers) * 0.05
        assert total == pytest.approx(1.0, abs=1e-6)


    @pytest.mark.parametrize("center, sigma", [
        (np.nan, 1.0), (np.array([0.0, np.inf]), 1.0), (0.0, np.inf)],
        ids=["nan_center", "inf_in_centers", "inf_sigma"])
    def test_exact_refuses_a_nonfinite_center_or_sigma(self, center, sigma):
        # a NaN center gave NaN and sigma = inf gave 0.0
        rho = density(np.eye(3) / 3)
        with pytest.raises(ValueError, match="finite"):
            hi.single_time_prob_exact(rho, np.diag([0.0, 2.0, 5.0]), center,
                                      sigma)


class TestEhrenfestMultiTime:
    def setup_method(self):
        rng = np.random.default_rng(5)
        self.a = random_hermitian(rng, 8)
        self.h = random_hermitian(rng, 8)
        self.v = random_pure(rng, 8)
        self.rho = density(np.outer(self.v, self.v.conj()))
        self.times = (0.3, 0.7, 1.1)
        self.means = []
        spreads = []
        for t in self.times:
            u = expm(-1j * self.h * t)
            at = u.conj().T @ self.a @ u
            mu = float(np.real(self.v.conj() @ at @ self.v))
            self.means.append(mu)
            spreads.append(np.sqrt(
                float(np.real(self.v.conj() @ at @ at @ self.v)) - mu ** 2))
        self.sigma = 10 * max(spreads)

    def test_single_time_reduction(self):
        got = oracles.multi_time_prob(self.rho, self.a, (0.3,),
                                      (self.means[0],), self.sigma, self.h)
        u = expm(-1j * self.h * 0.3)
        at = u.conj().T @ self.a @ u
        want = hi.single_time_prob_exact(self.rho, at, self.means[0],
                                         self.sigma)
        assert got == pytest.approx(want, rel=1e-10)

    def test_argmax_on_expectation_trajectory(self):
        peak, grids, vals = hi.argmax_scan(self.rho, self.a, self.times,
                                           self.sigma, self.h)
        for p, mu in zip(peak, self.means):
            assert abs(p - mu) <= self.sigma / 10 + 1e-9

    def test_argmax_scan_rejects_negative_sigma(self):
        with pytest.raises(ValueError, match="sigma must be positive"):
            hi.argmax_scan(self.rho, self.a, self.times, -self.sigma, self.h)

    @pytest.mark.parametrize("sigma", [1.0, 1e-11, 1e-12])
    def test_argmax_scan_grids_have_81_points(self, sigma):
        # sigma/10 steps over mean +/- 4 sigma, however small sigma is
        _, grids, vals = hi.argmax_scan(self.rho, self.a, (0.3,), sigma,
                                        self.h)
        assert vals.shape == grids[0].shape == (81,)
        assert grids[0][40] == pytest.approx(self.means[0], rel=1e-12)

    @pytest.mark.parametrize("sigma", [0.0, -1.0])
    def test_argmax_scan_checks_sigma_before_grids(self, sigma, monkeypatch):
        # sigma = 0 would be a zero grid step, so the check comes first
        def no_grids(*args):
            raise AssertionError("center grids built for a bad sigma")

        monkeypatch.setattr(hi, "_center_grids", no_grids)
        with pytest.raises(ValueError, match="sigma must be positive"):
            hi.argmax_scan(self.rho, self.a, self.times, sigma, self.h)

    def test_argmax_scan_refuses_unordered_times(self):
        # the scan once returned a peak at these times
        with pytest.raises(ValueError, match="strictly increasing"):
            hi.argmax_scan(self.rho, self.a, (1.0, 0.5, -2.0), self.sigma,
                           self.h)

    @pytest.mark.parametrize("state", ["pure", "mixed"])
    def test_scan_values_match_chain_formula(self, state):
        # every scanned value is the dense chain probability at its centers
        rng = np.random.default_rng(12)
        if state == "pure":
            rho = self.rho
        else:
            vs = [random_pure(rng, 8) for _ in range(3)]
            rho = density(sum(w * np.outer(v, v.conj())
                              for w, v in zip((0.5, 0.3, 0.2), vs)))
        times, sigma = self.times[:2], 3.0
        _, grids, vals = hi.argmax_scan(rho, self.a, times, sigma, self.h)
        picks = zip(rng.integers(0, len(grids[0]), 30),
                    rng.integers(0, len(grids[1]), 30))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for i, j in picks:
                want = oracles.multi_time_prob(rho, self.a, times,
                                               (grids[0][i], grids[1][j]),
                                               sigma, self.h)
                assert vals[i, j] == pytest.approx(want, rel=1e-12, abs=0)

    def test_mixed_scan_is_the_weighted_sum_of_pure_scans(self, monkeypatch):
        # probability is linear in rho: on fixed grids, the scan of a rank-3
        # rho is the weighted sum of its components' scans, whatever
        # decomposition the scan takes internally
        rng = np.random.default_rng(14)
        vs = [random_pure(rng, 8) for _ in range(3)]
        weights = (0.5, 0.3, 0.2)
        rho = density(sum(w * np.outer(v, v.conj())
                          for w, v in zip(weights, vs)))
        times, sigma = self.times[:2], 3.0
        _, grids, total = hi.argmax_scan(rho, self.a, times, sigma, self.h)
        monkeypatch.setattr(hi, "_center_grids", lambda *args: grids)
        want = sum(w * hi.argmax_scan(density(np.outer(v, v.conj())), self.a,
                                      times, sigma, self.h)[2]
                   for w, v in zip(weights, vs))
        assert np.max(np.abs(total - want)) < 1e-13 * np.max(want)

    def test_conserved_observable_factorizes(self):
        # [H, A] = 0: the multi-time probability equals the single-time one
        rng = np.random.default_rng(8)
        basis = random_hermitian(rng, 6)
        vals, vecs = np.linalg.eigh(basis)
        a = (vecs * vals) @ vecs.conj().T
        h = (vecs * rng.normal(size=6)) @ vecs.conj().T
        v = random_pure(rng, 6)
        rho = density(np.outer(v, v.conj()))
        sigma = 5.0
        center = float(np.real(v.conj() @ a @ v))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            multi = oracles.multi_time_prob(rho, a, (0.5, 1.0),
                                            (center, center), sigma, h)
        # commuting chain collapses to a spectral sum: Tr(P P rho P) = <g^3>
        vals_a, vecs_a = np.linalg.eigh(a)
        g = np.exp(-((vals_a - center) ** 2) / (2 * sigma ** 2)) / (
            np.sqrt(2 * np.pi) * sigma)
        weights = np.abs(vecs_a.conj().T @ v) ** 2
        want = float(np.sum(g ** 3 * weights))
        assert multi == pytest.approx(want, rel=1e-10)

    def test_complement_pair(self):
        p, p_bar, off = hi.complement_pair_consistency(
            self.rho, self.a, self.times, 5 * self.sigma, self.h)
        assert p > 0.99
        assert p_bar < 0.01
        assert abs(off) ** 2 <= p * p_bar + 1e-10
        assert p + p_bar + 2 * off.real == pytest.approx(1.0, abs=1e-10)

    def test_full_spectrum_tube(self):
        width = 1e4
        p, p_bar, off = hi.complement_pair_consistency(
            self.rho, self.a, self.times, width, self.h)
        assert p == pytest.approx(1.0, abs=1e-12)
        assert p_bar == pytest.approx(0.0, abs=1e-12)

    def test_complement_pair_refuses_unordered_times(self):
        # the pair was once (0.0, 1.0, 0j) at these times
        with pytest.raises(ValueError, match="strictly increasing"):
            hi.complement_pair_consistency(self.rho, self.a, (1.0, -3.0),
                                           5 * self.sigma, self.h)


def _history_spec(space, rate):
    fam = hi.occupation_family(space)
    return hi.HistorySpec(space, (0.5, 1.0), ([fam], [fam]),
                          np.zeros((space.dim, space.dim)), rate)


#: every histories function that reads a state, called with a state and an
#: observable A; decoherence_functional takes only its dimension from A
STATE_READERS = {
    "decoherence_functional": lambda rho, a: hi.decoherence_functional(
        rho, _history_spec(hi.ToyHilbert(len(a), 1), 0.0)),
    "decoherence_functional-dephased": lambda rho, a:
        hi.decoherence_functional(
            rho, _history_spec(hi.ToyHilbert(len(a), 1), 0.3)),
    "single_time_prob_exact": lambda rho, a: hi.single_time_prob_exact(
        rho, a, 0.5, 1.0),
    "single_time_prob_asymptotic": lambda rho, a:
        hi.single_time_prob_asymptotic(rho, a, 0.5, 1.0),
    "argmax_scan": lambda rho, a: hi.argmax_scan(
        rho, a, (0.5,), 1.0, np.zeros((len(a), len(a)))),
    "complement_pair_consistency": lambda rho, a:
        hi.complement_pair_consistency(rho, a, (0.5,), 1.0,
                                       np.zeros((len(a), len(a)))),
}


class TestStateAndObservableForms:
    psi = np.array([0.6, 0.8])

    @pytest.mark.parametrize("name", STATE_READERS)
    def test_array_state_refused(self, name):
        # a trace-2 array once doubled single_time_prob_exact, and rho = -I
        # gave complement_pair_consistency p_bar = -2: no array is a state
        a = np.diag([0.0, 1.0])
        for rho in (np.outer(self.psi, self.psi), 2 * np.eye(2), -np.eye(2)):
            with pytest.raises(TypeError, match="StateVector"):
                STATE_READERS[name](rho, a)

    @pytest.mark.parametrize("name", [n for n in STATE_READERS
                                      if not n.startswith("decoherence")])
    @pytest.mark.parametrize("a, match", [
        # eigh reads one triangle: this A once gave 0.352 from the exact
        # form and 0.399 from the asymptotic one
        (np.array([[0.0, 1.0], [0.0, 0.0]]), "observable A must be Hermitian"),
        (np.array([[np.nan, 0.0], [0.0, 1.0]]),
         "observable A entries must be finite"),
        # argmax_scan and complement_pair_consistency once failed in
        # numpy's matmul on a 3 x 3 A against a 2-dim state
        (np.diag([0.0, 1.0, 2.0]), "observable A has the wrong shape")],
        ids=["non-hermitian", "nan", "wrong-shape"])
    def test_observable_checked(self, name, a, match):
        state = hi.StateVector(hi.ToyHilbert(2, 1), self.psi)
        with pytest.raises(ValueError, match=match):
            STATE_READERS[name](state, a)

    @pytest.mark.parametrize("dephasing", [0.0, 0.3])
    def test_state_of_another_space_refused(self, dephasing):
        # both spaces have dim 4: this pair once gave probabilities
        # [0.25, 0.5, 0.25]
        state = hi.StateVector(hi.ToyHilbert(4, 1), np.full(4, 0.5))
        spec = _history_spec(hi.ToyHilbert(2, 2), dephasing)
        for rho in (state, hi.to_density(state)):
            with pytest.raises(ValueError, match=r"ToyHilbert\(B=4, N=1\).*"
                                                 r"ToyHilbert\(B=2, N=2\)"):
                hi.decoherence_functional(rho, spec)

    def test_state_vector_and_its_density_agree(self):
        rng = np.random.default_rng(31)
        a = random_hermitian(rng, 6)
        vec = hi.StateVector(hi.ToyHilbert(6, 1), random_pure(rng, 6))
        for name, f in STATE_READERS.items():
            got, want = f(vec, a), f(hi.to_density(vec), a)
            if name.startswith("decoherence"):
                got, want = got.matrix, want.matrix
            elif name == "argmax_scan":
                got, want = got[2], want[2]
            assert np.max(np.abs(np.subtract(got, want))) < 1e-13

    def test_single_time_probabilities_hold_no_dense_temporary(self):
        # the exact form holds the eigenvectors of A and one dim-long row;
        # the asymptotic one A L and 64 KiB tiles of the observable check
        dim = 512
        rng = np.random.default_rng(8)
        a = random_hermitian(rng, dim)
        state = hi.StateVector(hi.ToyHilbert(dim, 1), random_pure(rng, dim))
        centers = np.linspace(-1.0, 1.0, 17)
        for f, bound in ((hi.single_time_prob_exact, 2.25),
                         (hi.single_time_prob_asymptotic, 0.25)):
            f(state, a, centers, 3.0)                   # warm-up
            tracemalloc.start()
            try:
                f(state, a, centers, 3.0)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= bound * dim ** 2 * 16, (f.__name__, peak)
