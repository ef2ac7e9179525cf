import csv
import dataclasses
import functools
import tracemalloc

import numpy as np
import pytest

from hydrohist import ensemble as en
from hydrohist import histories as hi
from hydrohist import local_equilibrium as le
from hydrohist import phase_space as ps
from hydrohist import scenarios as sc
from hydrohist.errors import DegenerateStateError, ResolutionError


def uniform_unit_grid(value=2.0):
    # unit-area domain [0,1] x [0,1] (trapezoid integral of a constant is exact)
    vals = np.full((16, 16), value)
    return ps.WignerGrid(0.0, 1.0, 16, 0.0, 1.0, 16, vals)


class TestNormalize:
    def test_constant_rescale(self):
        w = ps.normalize(uniform_unit_grid(2.0))
        assert np.allclose(w.values, 1.0)
        assert w.integral() == pytest.approx(1.0)

    def test_idempotent_on_normalized_gaussian(self):
        w = ps.gaussian_wigner(-8, 8, 64, -8, 8, 64)
        w2 = ps.normalize(w)
        assert np.array_equal(w.values, w2.values) or np.allclose(
            w.values, w2.values, rtol=1e-15, atol=0
        )

    def test_zero_grid_raises(self):
        w = uniform_unit_grid(0.0)
        with pytest.raises(DegenerateStateError):
            ps.normalize(w)

    def test_cancelling_grid_raises(self):
        vals = np.ones((16, 16))
        vals[8:, :] = -1.0
        w = ps.WignerGrid(0.0, 1.0, 16, 0.0, 1.0, 16, vals)
        with pytest.raises(DegenerateStateError):
            ps.normalize(w)


class TestNonFiniteValues:
    """NaN and inf fail every check: each is a "not x <= tol" comparison,
    which NaN fails, or an explicit "scale < inf"."""

    @pytest.mark.parametrize("entry, value", [
        ((0, 1), np.nan), ((3, 3), np.nan), ((2, 5), np.inf)])
    def test_density_matrix(self, entry, value):
        ker = np.eye(16, dtype=complex) / 16.0  # unit trace at dx = 1
        ps.DensityMatrix(0.0, 15.0, 16, ker)
        ker[entry] = value
        with pytest.raises(ValueError, match="finite"):
            ps.DensityMatrix(0.0, 15.0, 16, ker)

    def test_marginal(self):
        samples = np.full(16, 1.0 / 15.0)  # unit integral at spacing 1
        ps.Marginal("position", samples, 1.0)
        samples[5] = np.nan
        with pytest.raises(ValueError, match="integrates to"):
            ps.Marginal("position", samples, 1.0)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_wigner_grid(self, value):
        vals = np.ones((16, 16))  # unit integral on the unit square
        vals[3, 4] = value
        w = ps.WignerGrid(0.0, 1.0, 16, 0.0, 1.0, 16, vals)
        with pytest.raises(DegenerateStateError):
            ps.normalize(w)
        for operation in (ps.moments, ps.position_marginal):
            with pytest.raises(ValueError, match="normalized WignerGrid"):
                operation(w)


class TestGridValidation:
    def test_minimum_size(self):
        with pytest.raises(ValueError):
            ps.WignerGrid(0, 1, 4, 0, 1, 16, np.ones((4, 16)))

    def test_ordered_extents(self):
        with pytest.raises(ValueError):
            ps.WignerGrid(1, 0, 16, 0, 1, 16, np.ones((16, 16)))


HELD_TYPES = ("WignerGrid", "DensityMatrix", "Marginal", "SmearingWindow",
              "StateVector", "DensityOperator", "DecoherenceMatrix",
              "OccupationFunctional", "LocalEquilibriumProfile",
              "DensityField", "HydroFields")


def _held_cases():
    """Each frozen array type, as (build, arrays): ``build(**arrays)`` makes
    it, and each of ``arrays`` is a valid input of the dtype it is held in."""
    w = ps.gaussian_wigner(-8, 8, 16, *ps.conjugate_momentum_axis(-8, 8, 16))
    q = np.linspace(-8.0, 8.0, 16)
    space = hi.ToyHilbert(B=2, N=2)
    state = hi.product_state(space, np.array([0.6, 0.8]))
    rho1 = le.one_particle_gibbs(np.ones(2), np.array([0.0, 0.3]),
                                 np.zeros(2))
    p1 = hi.one_particle_momentum(rho1.space)
    d1 = hi.product_occupation_functional(rho1, p1 @ p1 / 2, 1,
                                          (0.2, 0.7), 0.3).d1
    blocks = np.zeros((2, 2, 1), dtype=complex)
    blocks[:, :, 0] = np.diag([0.7, 0.3])
    fields = le.hydro_averages(w, 3, np.linspace(-6.0, 6.0, 5))
    return {
        "WignerGrid": (functools.partial(ps.WignerGrid, w.q_min, w.q_max,
                                         w.n_q, w.p_min, w.p_max, w.n_p),
                       {"values": w.values}),
        "DensityMatrix": (functools.partial(ps.DensityMatrix, -8.0, 8.0, 16),
                          {"kernel": ps.wigner_to_density(w).kernel}),
        "Marginal": (functools.partial(ps.Marginal, "position",
                                       spacing=w.dq, origin=w.q_min),
                     {"samples": ps.position_marginal(w).samples}),
        "SmearingWindow": (ps.SmearingWindow,
                           {"edges": np.linspace(-6.0, 6.0, 5)}),
        "StateVector": (functools.partial(hi.StateVector, space),
                        {"amplitudes": state.amplitudes}),
        "DensityOperator": (functools.partial(hi.DensityOperator, space),
                            {"matrix": hi.to_density(state).matrix}),
        "DecoherenceMatrix": (functools.partial(hi.DecoherenceMatrix,
                                                ("a", "b")),
                              {"blocks": blocks}),
        "OccupationFunctional": (functools.partial(hi.OccupationFunctional,
                                                   n=2),
                                 {"d1": d1}),
        "LocalEquilibriumProfile": (le.LocalEquilibriumProfile,
                                    {"q": q, "f": np.exp(-q ** 2 / 50),
                                     "u": np.full(16, 0.1),
                                     "kT": np.full(16, 1.0)}),
        "DensityField": (en.DensityField,
                         {"centers": fields.centers, "widths": fields.widths,
                          "values": fields.n, "variances": fields.h}),
        "HydroFields": (le.HydroFields, vars(fields)),
    }


class TestHeldArrays:
    """Every frozen type holds its arrays by ``phase_space._held``."""

    @pytest.mark.parametrize("name", HELD_TYPES)
    @pytest.mark.parametrize("kind", ["writeable", "read-only view"])
    def test_later_writes_leave_the_held_arrays(self, name, kind):
        # the caller's writeable array stays writeable; a write to it, or
        # to the base of a read-only view passed in, leaves the held field
        build, arrays = _held_cases()[name]
        bases = {k: np.array(a) for k, a in arrays.items()}
        given = {k: b if kind == "writeable" else b[...]
                 for k, b in bases.items()}
        for a in given.values():
            a.flags.writeable = kind == "writeable"
        obj = build(**given)
        for k, base in bases.items():
            held = getattr(obj, k)
            assert not held.flags.writeable
            assert given[k].flags.writeable == (kind == "writeable")
            want = held.copy()
            base += 1.0
            assert np.array_equal(getattr(obj, k), want)

    @pytest.mark.parametrize("name", HELD_TYPES)
    def test_read_only_owned_arrays_are_kept(self, name):
        build, arrays = _held_cases()[name]
        given = {k: np.array(a) for k, a in arrays.items()}
        for a in given.values():
            a.flags.writeable = False
        obj = build(**given)
        assert all(getattr(obj, k) is a for k, a in given.items())

    def test_checked_n_stays_nonnegative(self):
        # n is checked nonnegative; a write to the base of a read-only view
        # passed in once reached the held n after the check
        fields = dict(_held_cases()["HydroFields"][1])
        base = np.array(fields["n"])
        fields["n"] = base[...]
        fields["n"].flags.writeable = False
        held = le.HydroFields(**fields)
        base[0] = -5.0
        assert np.min(held.n) >= 0.0

    def test_read_only_kernel_checked_without_a_copy(self):
        # the Hermiticity check compares 64 KiB tiles: building from a
        # read-only kernel at n_x 1024 (16 MiB) peaks at about 0.02 kernels
        # above it; the whole-matrix check and the copy peaked at 2.01
        x = np.linspace(-10.0, 10.0, 1024)
        g = np.exp(-x ** 2 / 4)
        ker = np.outer(g, g / (g @ g * (x[1] - x[0]))).astype(complex)
        ker.flags.writeable = False
        tracemalloc.start()
        try:
            rho = ps.DensityMatrix(-10.0, 10.0, 1024, ker)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rho.kernel is ker
        assert peak < 0.1 * ker.nbytes


class TestSmearingWindow:
    @pytest.mark.parametrize("edges", [
        [-10.0, np.nan, 10.0], [-np.inf, 0.0, 10.0], [[0.0, 1.0], [2.0, 3.0]],
        [0.0]], ids=["nan", "inf", "2-d", "one-edge"])
    def test_edges_refused(self, edges):
        # NaN passed the increasing test and failed later, in HydroFields;
        # a 2-D array gave hydro_averages a (2, 1) field; one edge failed
        # in a numpy reduction
        with pytest.raises(ValueError, match="bin edges"):
            ps.SmearingWindow(edges)
        w = ps.gaussian_wigner(-8, 8, 16, -4, 4, 16)
        with pytest.raises(ValueError, match="bin edges"):
            le.hydro_averages(w, 1, edges)

    def test_one_window_object(self):
        assert en.SmearingWindow is ps.SmearingWindow


class TestQSpectrum:
    """The cached half-spectrum that free streaming and the exact kernel read."""

    def test_is_the_rfft_along_q_computed_once(self):
        w = ps.gaussian_wigner(-8, 8, 61, -6, 6, 33, var_q=1.0, var_p=0.5)
        assert "_q_spectrum" not in vars(w)
        spectrum = w._q_spectrum
        assert np.array_equal(spectrum, np.fft.rfft(w.values, axis=0))
        assert w._q_spectrum is spectrum

    def test_read_only(self):
        w = ps.gaussian_wigner(-8, 8, 61, -6, 6, 33, var_q=1.0, var_p=0.5)
        with pytest.raises(ValueError):
            w._q_spectrum[0, 0] = 0.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            w._q_spectrum = np.zeros((31, 33), dtype=complex)
        with pytest.raises(dataclasses.FrozenInstanceError):
            del w._q_spectrum

    @pytest.mark.parametrize("derive", [
        lambda w: w.with_values(2.0 * w.values),
        lambda w: dataclasses.replace(w, values=2.0 * w.values),
        lambda w: dataclasses.replace(w, q_max=9.0),
    ])
    def test_derived_grid_starts_without_it(self, derive):
        w = ps.gaussian_wigner(-8, 8, 61, -6, 6, 33, var_q=1.0, var_p=0.5)
        w._q_spectrum
        derived = derive(w)
        assert "_q_spectrum" not in vars(derived)
        assert np.array_equal(derived._q_spectrum,
                              np.fft.rfft(derived.values, axis=0))


class TestMarginals:
    def test_separable_gaussian_position(self):
        w = ps.gaussian_wigner(-8, 8, 128, -8, 8, 128, var_q=1.0, var_p=0.5)
        f = ps.position_marginal(w)
        assert f.variance() == pytest.approx(1.0, rel=1e-6)
        assert np.trapezoid(f.samples, dx=f.spacing) == pytest.approx(1.0, abs=1e-9)

    def test_separable_gaussian_momentum(self):
        w = ps.gaussian_wigner(-8, 8, 128, -8, 8, 128, var_q=1.0, var_p=0.5)
        g = ps.momentum_marginal(w)
        assert g.variance() == pytest.approx(0.5, rel=1e-6)

    def test_symmetric_grid_zero_mean(self):
        w = ps.gaussian_wigner(-8, 8, 129, -8, 8, 129)
        f = ps.position_marginal(w)
        assert abs(f.mean()) < 1e-12

    def test_antisymmetric_in_p_zero_mean(self):
        w = ps.gaussian_wigner(-8, 8, 129, -8, 8, 129)
        g = ps.momentum_marginal(w)
        assert abs(g.mean()) < 1e-12


class TestMoments:
    def test_means(self):
        w = ps.gaussian_wigner(-8, 8, 128, -8, 8, 128, mean_q=1.0, mean_p=2.0)
        mq, mp, *_ = ps.moments(w)
        assert mq == pytest.approx(1.0, abs=1e-8)
        assert mp == pytest.approx(2.0, abs=1e-8)

    def test_uncorrelated_product_state(self):
        w = ps.gaussian_wigner(-8, 8, 128, -8, 8, 128, var_q=2.0, var_p=0.5)
        *_, cov = ps.moments(w)
        assert abs(cov) < 1e-10

    def test_correlated_gaussian(self):
        w = ps.gaussian_wigner(-10, 10, 160, -10, 10, 160,
                               var_q=2.0, var_p=1.0, cov_qp=0.8)
        _, _, vq, vp, cov = ps.moments(w)
        assert vq == pytest.approx(2.0, rel=1e-6)
        assert vp == pytest.approx(1.0, rel=1e-6)
        assert cov == pytest.approx(0.8, rel=1e-6)

    @pytest.mark.parametrize("grid", [(-12, 12, 481, -6, 6, 65),
                                      (-10, 10, 160, -10, 10, 161)])
    def test_matches_full_grid_integrals(self, grid):
        # the five moments as trapezoid integrals of (n_q, n_p) products,
        # against the 1-D sums over the marginals and the current
        w = ps.gaussian_wigner(*grid, mean_q=0.3, mean_p=-0.4, var_q=1.0,
                               var_p=0.5, cov_qp=0.2)
        q, p, v = w.q[:, None], w.p[None, :], w.values

        def trapz2(f):
            return np.trapezoid(np.trapezoid(f, dx=w.dp, axis=1), dx=w.dq)

        mq, mp = trapz2(q * v), trapz2(p * v)
        want = (mq, mp, trapz2((q - mq) ** 2 * v), trapz2((p - mp) ** 2 * v),
                trapz2((q - mq) * (p - mp) * v))
        got = ps.moments(w)
        assert np.max(np.abs(np.subtract(got, want))) <= 1e-15
        assert all(type(m) is float for m in got)

    def test_grid_refinement_stability(self):
        coarse = ps.gaussian_wigner(-8, 8, 64, -8, 8, 64, var_q=1.3, cov_qp=0.2)
        fine = ps.gaussian_wigner(-8, 8, 128, -8, 8, 128, var_q=1.3, cov_qp=0.2)
        mc = np.array(ps.moments(coarse))
        mf = np.array(ps.moments(fine))
        # second moments change by < 1% under refinement
        for a, b in zip(mc[2:], mf[2:]):
            assert abs(a - b) <= 0.01 * max(abs(b), 1e-12)


class TestBinIntegrals:
    def test_matches_hand_written_trapezoid(self):
        # non-uniform grid; edges both on and between the samples
        rng = np.random.default_rng(4)
        x = np.cumsum(rng.uniform(0.05, 0.4, 40))
        line = np.sin(x) + 1.5
        edges = [x[0], x[5], 0.5 * (x[11] + x[12]), x[30] - 0.01, x[-1]]

        cum = [0.0]
        for i in range(len(x) - 1):
            cum.append(cum[-1] + 0.5 * (x[i + 1] - x[i])
                       * (line[i] + line[i + 1]))

        def running(e):
            i = min(int(np.searchsorted(x, e, side="right")) - 1, len(x) - 2)
            t = (e - x[i]) / (x[i + 1] - x[i])
            return cum[i] + t * (cum[i + 1] - cum[i])

        want = [running(b) - running(a) for a, b in zip(edges, edges[1:])]
        got = ps.bin_integrals(line, x, edges)
        assert got == pytest.approx(want, rel=1e-13, abs=0.0)
        assert got.sum() == pytest.approx(cum[-1], rel=1e-13)


class TestWignerDensityTransform:
    def setup_method(self):
        self.n = 128
        self.x_min, self.x_max = -10.0, 10.0
        p0, p1, n_p = ps.conjugate_momentum_axis(self.x_min, self.x_max, self.n)
        self.w = ps.gaussian_wigner(
            self.x_min, self.x_max, self.n, p0, p1, n_p,
            mean_q=0.5, mean_p=-0.3, var_q=2.0, var_p=1.0, cov_qp=0.4,
        )

    def test_diagonal_is_position_marginal(self):
        rho = ps.wigner_to_density(self.w)
        f = ps.position_marginal(self.w)
        assert np.max(np.abs(np.real(np.diag(rho.kernel)) - f.samples)) < 1e-10

    def test_hermitian_unit_trace(self):
        rho = ps.wigner_to_density(self.w)
        assert np.max(np.abs(rho.kernel - rho.kernel.conj().T)) < 1e-12
        assert rho.trace() == pytest.approx(1.0, abs=1e-6)

    def test_round_trip(self):
        rho = ps.wigner_to_density(self.w)
        w2 = ps.density_to_wigner(rho)
        assert ps.l1_distance(self.w, w2) < 1e-4
        assert w2.integral() == pytest.approx(1.0, abs=1e-9)

    def test_normalization_preserved_both_directions(self):
        rho = ps.wigner_to_density(self.w)
        assert abs(rho.trace() - 1.0) < 1e-6
        w2 = ps.density_to_wigner(rho)
        assert abs(w2.integral() - 1.0) < 1e-6

    @pytest.mark.parametrize("n", [127, 128])
    def test_gaussian_matches_closed_form(self, n):
        # uncorrelated Gaussian W: rho(x, y) = f((x + y)/2)
        # * exp(i mean_p (x - y) - var_p (x - y)^2 / 2), f the position marginal
        mean_q, mean_p, var_q, var_p = 0.4, 0.7, 1.3, 0.8
        w = ps.gaussian_wigner(
            self.x_min, self.x_max, n,
            *ps.conjugate_momentum_axis(self.x_min, self.x_max, n),
            mean_q=mean_q, mean_p=mean_p, var_q=var_q, var_p=var_p)
        rho = ps.wigner_to_density(w)
        r = np.subtract.outer(w.q, w.q)
        c = 0.5 * np.add.outer(w.q, w.q)
        f = np.exp(-(c - mean_q) ** 2 / (2 * var_q)) / np.sqrt(2 * np.pi * var_q)
        exact = f * np.exp(1j * mean_p * r - 0.5 * var_p * r ** 2)
        near = np.abs(r) <= 0.25 * (self.x_max - self.x_min)
        assert np.max(np.abs(rho.kernel - exact)[near]) <= 1e-12

    @pytest.mark.parametrize("n", [127, 128])
    def test_density_to_wigner_matches_closed_form(self, n):
        # correlated Gaussian W: given q = (x + y)/2, p is normal with mean
        # mean_p + cov_qp (q - mean_q) / var_q and variance var_p - cov_qp^2
        # / var_q, so rho(x, y) = f(q) exp(i mu(q) r - s2 r^2 / 2), r = x - y
        mean_q, mean_p, var_q, var_p, cov_qp = 0.4, 0.7, 1.3, 0.8, 0.3
        x = np.linspace(self.x_min, self.x_max, n)
        r = np.subtract.outer(x, x)
        c = 0.5 * np.add.outer(x, x)
        f = np.exp(-(c - mean_q) ** 2 / (2 * var_q)) / np.sqrt(2 * np.pi * var_q)
        mu = mean_p + cov_qp * (c - mean_q) / var_q
        s2 = var_p - cov_qp ** 2 / var_q
        rho = ps.DensityMatrix(self.x_min, self.x_max, n,
                               f * np.exp(1j * mu * r - 0.5 * s2 * r ** 2))
        w = ps.density_to_wigner(rho)
        exact = ps.gaussian_wigner(
            self.x_min, self.x_max, n,
            *ps.conjugate_momentum_axis(self.x_min, self.x_max, n),
            mean_q=mean_q, mean_p=mean_p, var_q=var_q, var_p=var_p,
            cov_qp=cov_qp)
        assert ps.l1_distance(exact, w) < 1e-9

    def test_pure_state_rank_one(self):
        # minimal-uncertainty wave packet: var_q * var_p = 1/4 (hbar = 1)
        w = ps.gaussian_wigner(-8, 8, 160, -5, 5, 160, var_q=0.5, var_p=0.5)
        rho = ps.wigner_to_density(w)
        # oracle: eigen-decomposition of the discretized kernel
        eigs = np.linalg.eigvalsh(rho.kernel * rho.dx)
        assert eigs[-1] == pytest.approx(1.0, abs=1e-3)
        assert np.all(np.abs(eigs[:-1]) < 1e-3)

    def test_aliasing_raises(self):
        # deliberately coarse momentum lattice over a wide spatial domain
        w = ps.gaussian_wigner(-10, 10, 64, -6, 6, 16, var_p=2.0)
        with pytest.raises(ResolutionError):
            ps.wigner_to_density(w)


@pytest.mark.parametrize("n", [15, 16])
def test_resample_matrix_exact_on_trigonometric_polynomials(n):
    # a trigonometric polynomial of period n dx below the Nyquist frequency
    # is its own band-limited interpolant, at any point of the extent
    x_min, x_max = -1.0, 2.0
    x = np.linspace(x_min, x_max, n)
    y = np.linspace(x_min, x_max, 50)

    def f(z):
        phase = 2 * np.pi * (z - x_min) / (n * (x[1] - x[0]))
        return 1.0 + np.cos(3 * phase) + 0.5 * np.sin(phase + 0.3)

    mat = ps._resample_matrix(x_min, x_max, n, y)
    assert np.max(np.abs(mat @ f(x) - f(y))) < 1e-12
    outside = ps._resample_matrix(x_min, x_max, n, np.array([-1.1, 2.1]))
    assert not outside.any()


class TestCrossGridDistance:
    MASTER = (-10.0, 10.0, 128, *ps.conjugate_momentum_axis(-10.0, 10.0, 128))

    def test_resampled_gaussian_matches_closed_form(self):
        # the same Gaussian on the master-equation lattice and on the
        # oracle-compare integrator lattice, which reaches past it in q
        moments = dict(mean_q=0.3, mean_p=-0.2, var_q=1.3, var_p=0.6,
                       cov_qp=0.3)
        a = ps.gaussian_wigner(-14.0, 14.0, 225, -6.0, 6.0, 97, **moments)
        b = ps.gaussian_wigner(*self.MASTER, **moments)
        assert ps.l1_distance(a, b) < 1e-9

    def test_edge_mass_raises(self):
        a = ps.gaussian_wigner(-14.0, 14.0, 225, -6.0, 6.0, 97)
        b = ps.gaussian_wigner(*self.MASTER, mean_q=8.0)
        with pytest.raises(ResolutionError):
            ps.l1_distance(a, b)


def _density_field_csv(tmp_path):
    path = tmp_path / "field.csv"
    ens = en.ProductEnsemble(100, ps.gaussian_wigner(-6, 6, 32, -6, 6, 32))
    en.save_density_field_csv(
        en.number_density_variance(ens, en.SmearingWindow([-6, -1, 1, 6])),
        path)
    return path, ["bin_center", "bin_width", "value", "variance"]


def _hydro_series_csv(tmp_path):
    path = tmp_path / "series.csv"
    q = np.linspace(-8, 8, 64)
    prof = le.LocalEquilibriumProfile(q, np.exp(-q ** 2 / 8), np.zeros(64),
                                      np.ones(64))
    w = le.build_w1(prof, -8, 8, 49)
    times = [0.0, 0.1, 0.2]
    fields = [le.hydro_averages(le.evolve_free(w, t), 3,
                                np.linspace(-6, 6, 5)) for t in times]
    res = le.continuity_residual(times, fields)
    le.save_hydro_series_csv(times, fields, res, path)
    return path, ["t", "bin", "n", "g", "h",
                  "residual_n", "residual_g", "residual_h"]


def _scenario_csv(tmp_path):
    cfg = sc.validate_config({"schema_version": 1,
                              "scenario": "variance-scaling"})
    sc.run_scenario(cfg, tmp_path)
    return (tmp_path / "variance_scaling.csv",
            ["N", "relative_fluctuation", "closed_form"])


class TestWriteCsv:
    @pytest.mark.parametrize("make", [_density_field_csv, _hydro_series_csv,
                                      _scenario_csv])
    def test_one_format_for_every_artifact(self, tmp_path, make):
        path, header = make(tmp_path)
        raw = path.read_bytes()
        assert b"\r" not in raw and raw.endswith(b"\n")
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == header
        assert {len(row) for row in rows} == {len(header)}
        assert not list(tmp_path.glob("*.tmp"))
        if make is _scenario_csv:
            assert rows[1][0] == "100"

    def test_cell_rule(self, tmp_path):
        path = tmp_path / "cells.csv"
        ps.write_csv(path, ["a", "b", "c", "d", "e", "f"],
                     [[0.1, np.float64(2.0), 3, np.int64(4), None, "x|y"]])
        assert path.read_text() == "a,b,c,d,e,f\n0.1,2.0,3,4,,x|y\n"

    def test_rejects_cells_that_need_quoting(self, tmp_path):
        with pytest.raises(ValueError):
            ps.write_csv(tmp_path / "bad.csv", ["a"], [["1,2"]])
        with pytest.raises(TypeError):
            ps.write_csv(tmp_path / "bad.csv", ["a"], [[1j]])
        assert not list(tmp_path.iterdir())


class TestPositionDephasing:
    def test_matches_pairwise_loop(self):
        rng = np.random.default_rng(3)
        coords = rng.normal(size=(7, 3))
        got = ps.position_dephasing(coords, 0.8, 0.3)
        for a in range(7):
            for b in range(7):
                d2 = sum((coords[a, k] - coords[b, k]) ** 2 for k in range(3))
                assert got[a, b] == pytest.approx(np.exp(-0.8 * 0.3 * d2),
                                                  rel=1e-14)
        assert np.array_equal(np.diag(got), np.ones(7))

    def test_matches_broadcast_formula_bitwise(self):
        # B=2 bins, N=8 particles on the histories toy space (dx = 1)
        coords = hi.ToyHilbert(B=2, N=8).digits().astype(float)
        dist2 = np.sum((coords[:, None, :] - coords[None, :, :]) ** 2, axis=2)
        assert np.array_equal(ps.position_dephasing(coords, 1.3, 0.2),
                              np.exp(-(1.3 * 0.2) * dist2))

    def test_factors_compose_over_time(self):
        # the factor is the exact solution of d rho/dt = -rate d^2 rho
        x = np.linspace(-3, 3, 9)[:, None]
        half = ps.position_dephasing(x, 2.0, 0.05)
        full = ps.position_dephasing(x, 2.0, 0.1)
        assert np.allclose(half * half, full, rtol=1e-14, atol=0)
