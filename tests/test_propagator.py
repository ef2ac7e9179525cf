import tracemalloc
import types
from decimal import Decimal, localcontext

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from hydrohist import histories as hist
from hydrohist import local_equilibrium as le
from hydrohist import phase_space as ps
from hydrohist import propagator as pr
from hydrohist import scenarios as sc
from hydrohist.errors import DivergenceError, FitQualityError, ResolutionError

UNIT = pr.QbmParams(M=1.0, gamma=1.0, kT=1.0)
NAN = float("nan")


def _fp_bound(w, params):
    """The Fokker-Planck step bound: the smaller of its two terms."""
    p_max = max(abs(w.p_min), abs(w.p_max))
    return min(pr.COURANT_CAP * w.dq * params.M / p_max, 0.1 / params.gamma)


class TestKernelCovariance:
    def test_moment_ode_oracle(self):
        # independent oracle: integrate the second-moment ODE system of the
        # phase-space equation with solve_ivp at generic parameters
        params = pr.QbmParams(M=2.0, gamma=0.7, kT=1.3)
        g, M, kT = params.gamma, params.M, params.kT

        def rhs(t, y):
            vq, cqp, vp = y
            return [2 * cqp / M, vp / M - 2 * g * cqp, -4 * g * vp + 4 * M * g * kT]

        sol = solve_ivp(rhs, (0, 2.0), [0.0, 0.0, 0.0], rtol=1e-10, atol=1e-12)
        vq, cqp, vp = sol.y[:, -1]
        cov = pr.kernel_covariance(params, 2.0)
        assert cov[0, 0] == pytest.approx(vq, rel=1e-8)
        assert cov[0, 1] == pytest.approx(cqp, rel=1e-8)
        assert cov[1, 1] == pytest.approx(vp, rel=1e-8)

    def test_frozen_unit_values(self):
        # M = kT = gamma = 1, t = 10: var_q = t - 3/4 (+ exp corrections),
        # var_p = 1, cov = 1/2
        cov = pr.kernel_covariance(UNIT, 10.0)
        assert cov[0, 0] == pytest.approx(9.25, abs=1e-8)
        assert cov[1, 1] == pytest.approx(1.0, abs=1e-8)
        assert cov[0, 1] == pytest.approx(0.5, abs=1e-8)
        assert pr.kernel_covariance(UNIT, 5.0)[0, 0] == pytest.approx(4.25, abs=1e-4)

    @pytest.mark.parametrize("gamma", np.logspace(-12, 1, 27))
    def test_matches_fifty_digit_evaluation(self, gamma):
        # the closed form evaluated in 50-digit decimals is exact to far
        # below double precision even where it cancels to O((gamma t)^3)
        for M, kT, t in ((1.0, 1.0, 5.0), (2.0, 1.3, 0.7), (0.5, 3.0, 20.0)):
            with localcontext() as ctx:
                ctx.prec = 50
                g, m, k, s = map(Decimal, (float(gamma), M, kT, t))
                e2, e4 = (-2 * g * s).exp(), (-4 * g * s).exp()
                exact = (k / (m * g) * (s - (1 - e2) / g + (1 - e4) / (4 * g)),
                         k / (2 * g) * (1 - e2) ** 2, m * k * (1 - e4))
            cov = pr.kernel_covariance(pr.QbmParams(M, float(gamma), kT), t)
            for got, want in zip((cov[0, 0], cov[0, 1], cov[1, 1]), exact):
                assert got == pytest.approx(float(want), rel=1e-13, abs=0.0)

    def test_small_gamma_t_leading_terms(self):
        # s_qq = kT/M ((4/3) gamma t^3 - 2 gamma^2 t^4 + ...), here at t = 5
        for gamma in (1e-12, 1e-8, 1e-4):
            s_qq = pr.kernel_covariance(pr.QbmParams(1.0, gamma, 1.0), 5.0)[0, 0]
            lead = 4.0 / 3.0 * gamma * 125.0 - 2.0 * gamma ** 2 * 625.0
            assert s_qq == pytest.approx(lead, rel=1e-6)

    @pytest.mark.parametrize("t", [-1.0, NAN, np.inf])
    def test_kernel_refuses_a_time_not_finite_and_nonnegative(self, t):
        # at t = -1 the covariance was [[-8.0, 20.4], [20.4, -53.6]], no
        # covariance, and the mean map ran backwards
        for kernel in (pr.kernel_mean_map, pr.kernel_covariance):
            with pytest.raises(ValueError, match="finite and nonnegative"):
                kernel(UNIT, t)

    def test_mean_map_columns(self):
        a = pr.kernel_mean_map(UNIT, 10.0)
        assert a[0, 1] == pytest.approx(0.5, abs=1e-8)
        assert a[1, 1] == pytest.approx(np.exp(-20.0))
        assert a[0, 0] == 1.0 and a[1, 0] == 0.0


class TestPropagateAnalytic:
    def setup_method(self):
        self.w0 = ps.gaussian_wigner(-25, 25, 256, -6, 6, 128,
                                     var_q=0.25, var_p=0.5)

    def test_zero_time_identity(self):
        w = pr.propagate_analytic(self.w0, 0.0, UNIT)
        assert np.allclose(w.values, self.w0.values)

    def test_moment_recovery(self):
        t = 10.0
        wt = pr.propagate_analytic(self.w0, t, UNIT)
        a = pr.kernel_mean_map(UNIT, t)
        cov0 = np.array([[0.25, 0.0], [0.0, 0.5]])
        cov = a @ cov0 @ a.T + pr.kernel_covariance(UNIT, t)
        _, _, vq, vp, cqp = ps.moments(wt)
        assert vq == pytest.approx(cov[0, 0], rel=2e-3)
        assert vp == pytest.approx(cov[1, 1], rel=2e-3)
        assert cqp == pytest.approx(cov[0, 1], abs=2e-3 * cov[0, 0])

    def test_mass_preserved(self):
        wt = pr.propagate_analytic(self.w0, 5.0, UNIT)
        assert wt.integral() == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("grid, t", [
        ((-25, 25, 256, -6, 6, 128), 1.0),
        ((-25, 25, 256, -6, 6, 128), 10.0),
        ((-18, 18, 160, -6, 6, 96), 2.0),
    ])
    def test_matches_closed_form(self, grid, t):
        # the kernel maps a Gaussian with mean m0 and covariance C0 to the
        # Gaussian with mean A m0 and covariance A C0 A^T + Sigma
        m0, cov0 = np.array([0.3, 0.5]), np.diag([0.25, 0.5])
        w0 = ps.gaussian_wigner(*grid, mean_q=m0[0], mean_p=m0[1],
                                var_q=cov0[0, 0], var_p=cov0[1, 1])
        a = pr.kernel_mean_map(UNIT, t)
        mean = a @ m0
        cov = a @ cov0 @ a.T + pr.kernel_covariance(UNIT, t)
        exact = ps.gaussian_wigner(*grid, mean_q=mean[0], mean_p=mean[1],
                                   var_q=cov[0, 0], var_p=cov[1, 1],
                                   cov_qp=cov[0, 1])
        wt = pr.propagate_analytic(w0, t, UNIT)
        assert ps.l1_distance(wt, exact) <= 1e-7

    def test_domain_overflow_raises(self):
        small = ps.gaussian_wigner(-4, 4, 64, -4, 4, 64, var_q=0.25, var_p=0.5)
        with pytest.raises(ResolutionError):
            pr.propagate_analytic(small, 20.0, UNIT)

    @pytest.mark.parametrize("grid, var", [
        ((-20, 20, 64, -6, 6, 12), (1.0, 0.3)),  # dp about 2 sigma_p
        ((-20, 20, 40, -6, 6, 64), (0.3, 1.0)),  # dq about 1.9 sigma_q
    ])
    def test_under_sampled_input_raises(self, grid, var):
        # on the first grid the result was 1.35e-2 in L1 from W_t at t = 3
        w0 = ps.gaussian_wigner(*grid, var_q=var[0], var_p=var[1])
        with pytest.raises(ResolutionError, match="lattice spacings"):
            pr.propagate_analytic(w0, 3.0, UNIT)

    @pytest.mark.parametrize("t", [0.05, 0.2, 3.0])
    def test_barely_admitted_input_stays_accurate(self, t):
        # sigma_q spans 1.55 spacings; short times, which the kernel does
        # not smooth, are the worst case
        grid, cov0 = (-20, 20, 114, -6, 6, 96), np.diag([0.3, 1.0])
        w0 = ps.gaussian_wigner(*grid, var_q=cov0[0, 0], var_p=cov0[1, 1])
        a = pr.kernel_mean_map(UNIT, t)
        cov = a @ cov0 @ a.T + pr.kernel_covariance(UNIT, t)
        exact = ps.gaussian_wigner(*grid, var_q=cov[0, 0], var_p=cov[1, 1],
                                   cov_qp=cov[0, 1])
        wt = pr.propagate_analytic(w0, t, UNIT)
        assert ps.l1_distance(wt, exact) <= 1e-5


class TestKernelCheck:
    """``_kernel_check`` against ``propagate_analytic``, which raises a
    ResolutionError for t > 0 exactly when the check refuses."""

    @pytest.mark.parametrize("grid, mean, var, t, refused", [
        ((-25, 25, 256, -6, 6, 128), (0.0, 0.0), (0.25, 0.5), 10.0, []),
        ((-20, 20, 64, -6, 6, 12), (0.0, 0.0), (1.0, 0.3), 3.0,
         [("spacing", "p")]),
        ((-20, 20, 40, -6, 6, 64), (0.0, 0.0), (0.3, 1.0), 3.0,
         [("spacing", "q")]),
        ((-4, 4, 64, -4, 4, 64), (0.0, 0.0), (0.25, 0.5), 20.0,
         [("domain", "q")]),
        ((-20, 20, 100, -2.5, 2.5, 80), (0.0, 0.0), (0.3, 1.0), 3.0,
         [("spacing", "q"), ("domain", "p")]),
        # off centre: 3 sigma of the evolved q, 5.5, fits the half-width
        # 12, but mean + 3 sigma leaves the grid
        ((-12, 12, 192, -6, 6, 96), (7.0, 0.0), (1.0, 0.5), 3.0,
         [("domain", "q")]),
    ], ids=["accepted", "coarse-p", "coarse-q", "narrow", "coarse-and-narrow",
            "off-centre"])
    def test_propagate_analytic_refuses_iff_the_check_does(
            self, grid, mean, var, t, refused):
        w0 = ps.gaussian_wigner(*grid, mean_q=mean[0], mean_p=mean[1],
                                var_q=var[0], var_p=var[1])
        _, refusals = pr._kernel_check(w0, t, UNIT)
        assert [r[:2] for r in refusals] == refused
        if not refusals:
            pr.propagate_analytic(w0, t, UNIT)
            return
        with pytest.raises(ResolutionError) as info:
            pr.propagate_analytic(w0, t, UNIT)
        assert str(info.value) == refusals[0][2]

    def test_off_centre_state_within_the_half_width_is_refused(self):
        # 3 sigma fits each half-width, but the mean + 3 sigma of q leaves
        # the grid: propagated, 23 % of the mass would sit on the wall
        w0 = ps.gaussian_wigner(-12, 12, 192, -6, 6, 96, mean_q=7.0,
                                var_p=0.5)
        sigma, refusals = pr._kernel_check(w0, 3.0, UNIT)
        assert np.all(3.0 * sigma <= (12.0, 6.0))
        assert [r[:2] for r in refusals] == [("domain", "q")]

    def test_sigma_is_the_evolved_moments(self):
        w0 = ps.gaussian_wigner(-25, 25, 256, -6, 6, 128, var_q=0.25,
                                var_p=0.5)
        wt = pr.propagate_analytic(w0, 10.0, UNIT)
        sigma, _ = pr._kernel_check(w0, 10.0, UNIT)
        _, _, vq, vp, _ = ps.moments(wt)
        assert sigma == pytest.approx(np.sqrt([vq, vp]), rel=1e-3)


def _full_spectrum_kernel(w0, t, params):
    """The exact kernel on the full two-dimensional spectrum: fft along q,
    the same shear and Gaussian factors at every (kq, kp) of fftfreq, and
    the real part of ifft2, before normalization."""
    a = pr.kernel_mean_map(params, t)
    sigma = pr.kernel_covariance(params, t)
    kq = 2 * np.pi * np.fft.fftfreq(w0.n_q, d=w0.dq)[:, None]
    kp = 2 * np.pi * np.fft.fftfreq(w0.n_p, d=w0.dp)[None, :]
    p = w0.p[:, None]
    ft = np.fft.fft(w0.values, axis=0)
    ft *= np.exp(-1j * a[0, 1] * kq * p.T)
    ft = ft @ np.exp(-1j * a[1, 1] * p * kp)
    ft *= np.exp(-0.5 * (sigma[0, 0] * kq ** 2 + 2.0 * sigma[0, 1] * kq * kp
                         + sigma[1, 1] * kp ** 2))
    ft *= np.exp(1j * kp * w0.p_min)
    return np.fft.ifft2(ft).real


class TestHalfSpectrumKernel:
    """propagate_analytic on the rows kq >= 0 against the full spectrum."""

    @pytest.mark.parametrize("grid, var, t", [
        ((-25, 25, 256, -6, 6, 128), (0.25, 0.5), 1.0),
        ((-18, 18, 161, -6, 6, 97), (0.25, 0.5), 2.0),
        ((-20, 20, 115, -6, 6, 95), (0.3, 1.0), 0.2),
        # sigma_p at 1.55 spacings of an even n_p: the Nyquist column
        # carries weight, so its mirror must be averaged in
        ((-20, 20, 160, -6, 6, 24), (0.3, (1.55 * 12 / 23) ** 2), 0.2),
        ((-20, 20, 160, -6, 6, 24), (0.3, (1.55 * 12 / 23) ** 2), 0.02),
        ((-20, 20, 160, -6, 6, 25), (0.3, (1.55 * 12 / 24) ** 2), 0.2),
    ])
    def test_matches_full_spectrum(self, grid, var, t):
        w0 = ps.gaussian_wigner(*grid, mean_q=0.3, mean_p=0.5,
                                var_q=var[0], var_p=var[1])
        want = ps.normalize(w0.with_values(
            _full_spectrum_kernel(w0, t, UNIT))).values
        got = pr.propagate_analytic(w0, t, UNIT).values
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    def test_reads_the_cached_spectrum(self):
        # evolving one grid to several times leaves its spectrum as it was
        w0 = ps.gaussian_wigner(-18, 18, 160, -6, 6, 96, var_q=0.25,
                                var_p=0.5)
        first = pr.propagate_analytic(w0, 1.0, UNIT)
        spectrum = w0._q_spectrum
        pr.propagate_analytic(w0, 2.0, UNIT)
        again = pr.propagate_analytic(w0, 1.0, UNIT)
        assert w0._q_spectrum is spectrum
        assert np.array_equal(spectrum, np.fft.rfft(w0.values, axis=0))
        assert np.array_equal(first.values, again.values)


class TestRefinementOrder:
    """Each integrator converges to the exact kernel at second order: its L1
    distance from propagate_analytic falls by at least 3.5 when the lattice
    is halved.  A first-order (Lie) splitting of the Fokker-Planck step
    measures 1.96 here."""

    def test_fokker_planck(self):
        # the plans take 12 and 24 steps, at Courant numbers up to
        # COURANT_CAP: measures 9.86e-4 / 2.47e-4 = 4.00 (at Courant
        # numbers up to 1, 6.88e-4 / 1.54e-4 = 4.47)
        errors = []
        for n_q, n_p in ((225, 97), (449, 193)):
            w0 = ps.gaussian_wigner(-14, 14, n_q, -6, 6, n_p, var_q=1.0,
                                    var_p=0.5)
            errors.append(ps.l1_distance(pr.propagate_analytic(w0, 1.0, UNIT),
                                         pr.evolve_fokker_planck(w0, 1.0,
                                                                 UNIT)))
        assert errors[0] / errors[1] >= 3.5

    def test_master_equation(self):
        # 64 and 128 sites on [-10, 10], each with its conjugate momentum
        # lattice, read back through density_to_wigner; measures
        # 1.92e-2 / 4.57e-3 = 4.20
        errors = []
        for n in (64, 128):
            w0 = ps.gaussian_wigner(-10, 10, n,
                                    *ps.conjugate_momentum_axis(-10, 10, n),
                                    var_q=1.0, var_p=0.5)
            rho = pr.evolve_master_equation(ps.wigner_to_density(w0), 1.0,
                                            UNIT)
            errors.append(ps.l1_distance(pr.propagate_analytic(w0, 1.0, UNIT),
                                         ps.density_to_wigner(rho)))
        assert errors[0] / errors[1] >= 3.5

    def test_fokker_planck_time_error(self):
        # the time error on one lattice, the L1 distance of the runs at dt
        # and at dt/2 from a dt/8 run there, falls at second order when the
        # lattice and dt are halved together, from dt 0.1 at Courant
        # numbers up to 2.4: it measures 4.21 and 3.97 (3.92 and
        # 3.85 at Courant numbers up to 1).  On one lattice it falls by
        # 1.96 and 1.85 from dt to dt/2: the van Leer step's
        # kappa = |c - k| (1 - |c - k|) / 2 ties its dt error to the
        # lattice, so the scheme is second order in dt and dq together, not
        # in dt alone
        errors = []
        for n_q, n_p, n_steps in ((113, 49, 10), (225, 97, 20)):
            w0 = ps.gaussian_wigner(-14, 14, n_q, -6, 6, n_p, var_q=1.0,
                                    var_p=0.5)
            dt = 1.0 / n_steps
            ref = pr._integrate_fokker_planck(w0, dt / 8, 8 * n_steps, UNIT)
            errors.append([ps.l1_distance(ref, pr._integrate_fokker_planck(
                w0, dt / k, k * n_steps, UNIT)) for k in (1, 2)])
        coarse, fine = np.array(errors)
        assert np.all(coarse / fine >= 3.5)

    def test_master_equation_time_order(self):
        # one 64-site lattice at the bound's dt and at dt/2 against a dt/8
        # run: the Strang splitting's error, 4.2e-4 and 9.9e-5 in the
        # kernel's L1 norm (a ratio of 4.20), stands far above rounding
        n = 64
        w0 = ps.gaussian_wigner(-10, 10, n,
                                *ps.conjugate_momentum_axis(-10, 10, n),
                                var_q=1.0, var_p=0.5)
        rho = ps.wigner_to_density(w0)
        n_steps, dt = pr._step_plan(1.0, pr.master_dt_bound(rho, UNIT))
        ref, coarse, fine = (pr._integrate_master_equation(
            rho.kernel, rho.x, rho.dx, dt / k, k * n_steps, UNIT)
            for k in (8, 1, 2))
        errors = [np.sum(np.abs(ker - ref)) for ker in (coarse, fine)]
        assert errors[1] > 1e6 * np.finfo(float).eps * np.sum(np.abs(ref))
        assert errors[0] / errors[1] >= 3.5


class TestFokkerPlanck:
    def test_thermal_state_stationary(self):
        # the sampled Maxwellian exp(-p^2 / 2 M kT) is an exact fixed point
        # of the Chang-Cooper momentum step
        p = np.linspace(-5, 5, 96)
        row = np.exp(-p ** 2 / 2.0)
        step = pr._momentum_propagator(p, p[1] - p[0], 1.0, UNIT) @ row
        assert np.max(np.abs(step - row)) < 1e-12 * row.max()

    def test_moments_match_exact_kernel(self):
        w0 = ps.gaussian_wigner(-18, 18, 160, -6, 6, 96, var_q=0.25, var_p=0.5)
        t = 2.0
        wt = pr.evolve_fokker_planck(w0, t, UNIT)
        a = pr.kernel_mean_map(UNIT, t)
        cov0 = np.array([[0.25, 0.0], [0.0, 0.5]])
        cov = a @ cov0 @ a.T + pr.kernel_covariance(UNIT, t)
        _, _, vq, vp, cqp = ps.moments(wt)
        assert vq == pytest.approx(cov[0, 0], rel=2e-2)
        assert vp == pytest.approx(cov[1, 1], rel=2e-2)
        assert cqp == pytest.approx(cov[0, 1], rel=5e-2)

    def test_l1_against_analytic(self):
        w0 = ps.gaussian_wigner(-18, 18, 160, -6, 6, 96, var_q=0.25, var_p=0.5)
        t = 2.0
        wt = pr.evolve_fokker_planck(w0, t, UNIT)
        wa = pr.propagate_analytic(w0, t, UNIT)
        assert ps.l1_distance(wa, wt) < 1e-2

    def test_mass_conserved(self):
        w0 = ps.gaussian_wigner(-18, 18, 160, -6, 6, 96, var_q=0.25, var_p=0.5)
        wt = pr.evolve_fokker_planck(w0, 1.0, UNIT)
        assert wt.integral() == pytest.approx(1.0, abs=1e-8)

    def test_advection_matches_reference(self):
        # Courant numbers in both directions, up to 0.8, and an odd column
        # count with a column at rest, to 1e-14; then up to 9.7, integers
        # and columns in no order, whose wall cells sum up to 10 cells, to
        # 1e-14 of the largest cell
        for c, scaled in ((np.linspace(-0.4, 0.4, 25), False),
                          (np.linspace(-0.8, 0.8, 25), False),
                          (np.arange(-8, 7) / 10, False),
                          (np.linspace(-9.7, 9.7, 25), True),
                          (np.arange(-6, 7, 0.5), True),
                          (np.random.default_rng(3).uniform(-10, 10, 17),
                           True)):
            rng = np.random.default_rng(7)
            vals = rng.random((40, c.size))
            vals[:5] = 0.0                  # flat region: zero slopes
            vals[20] = vals[21]
            buf = pr._FokkerPlanckBuffers(vals)
            buf.set_courant(c)
            pr._advect_q(buf)
            want = _reference_advect(vals, c)
            scale = np.max(want) if scaled else 1.0
            assert np.max(np.abs(buf.values - want)) < 1e-14 * scale

    def test_integer_courant_number_is_an_exact_shift(self):
        # k whole cells up (k > 0) or down: away from the walls every cell
        # moves k rows unrounded, the rows it leaves are 0, and the cells
        # carried past a wall sum into the wall row
        rng = np.random.default_rng(5)
        vals = rng.random((30, 9))
        c = np.array([-29.0, -7.0, -2.0, -1.0, 0.0, 1.0, 3.0, 12.0, 40.0])
        buf = pr._FokkerPlanckBuffers(vals)
        buf.set_courant(c)
        pr._advect_q(buf)
        out = buf.values
        for j, k in enumerate(c.astype(int)):
            col, k = (out[:, j], vals[:, j]), min(abs(k), 29)
            if c[j] < 0:
                col = tuple(a[::-1] for a in col)
            got, was = col
            assert np.array_equal(got[k:-1], was[:29 - k])
            assert not np.any(got[:k])
            assert got[-1] == pytest.approx(was[29 - k:].sum(), rel=1e-15)

    @pytest.mark.parametrize("c_max", [0.8, 1.0, 10.0])
    def test_advection_total_variation_diminishing(self, c_max):
        # one step keeps W nonnegative and each column's mass, up to |c| = 1
        # and, the whole cells shifted, up to |c| = 10; zero-flux walls can
        # raise the total variation, so it is not checked
        rng = np.random.default_rng(11)
        for _ in range(50):
            vals = rng.random((33, 17)) ** 4
            vals[rng.random(33) < 0.3] = 0.0
            c = np.sort(rng.uniform(-c_max, c_max, 17))
            c[[0, -1]] = -c_max, c_max
            buf = pr._FokkerPlanckBuffers(vals)
            buf.set_courant(c)
            pr._advect_q(buf)
            out = buf.values
            assert out.min() >= 0.0
            assert np.max(np.abs(out.sum(axis=0) - vals.sum(axis=0))) < 1e-12

    def test_walls_block_outflow(self):
        # mass in the edge rows, carried into the walls at |c| = 1, cannot
        # leave: no flux passes a wall and the empty neighbours send none
        vals = np.zeros((12, 4))
        vals[0, :2] = 1.0, 2.0          # columns moving down, c < 0
        vals[-1, 2:] = 3.0, 4.0         # columns moving up, c > 0
        buf = pr._FokkerPlanckBuffers(vals)
        buf.set_courant(np.array([-1.0, -0.5, 0.5, 1.0]))
        pr._advect_q(buf)
        assert np.array_equal(buf.values, vals)

    def test_default_dt_converged(self):
        # at Courant numbers up to 1 the step agrees with steps a quarter as
        # long (1.86e-3).  The plan's dt 0.1, where the damping term binds,
        # lies 2.83e-3 from its quarter-step run, and no Courant cap above
        # 1 meets 2e-3 here (1.5: 2.38e-3): the van Leer step's lattice
        # error grows as its Courant fractions fall.  The plan's run lies
        # closer to the exact kernel than the Courant-1 run, 4.09e-3
        # against 5.77e-3
        w0 = ps.gaussian_wigner(-18, 18, 160, -6, 6, 96, var_q=0.25, var_p=0.5)
        runs = []
        for bound in (w0.dq / 6.0, w0.dq / 24.0):   # Courant numbers 1, 1/4
            n_steps, dt = pr._step_plan(2.0, bound)
            runs.append(pr._integrate_fokker_planck(w0, dt, n_steps, UNIT))
        assert ps.l1_distance(*runs) < 2e-3
        exact = pr.propagate_analytic(w0, 2.0, UNIT)
        assert (ps.l1_distance(pr.evolve_fokker_planck(w0, 2.0, UNIT), exact)
                < ps.l1_distance(runs[0], exact))

    def test_time_error_on_the_oracle_grid(self):
        # on oracle-compare's grid, from the plan's 12 steps to t = 1, the
        # L1 distance from a run of steps 64 times shorter falls as dt
        # halves three times: 1.13e-3, 7.55e-4, 4.39e-4, 2.23e-4.  The
        # distance from the exact kernel does not: 9.86e-4, 6.04e-4,
        # 6.88e-4, 8.51e-4, as the van Leer step's error on the lattice
        # grows when its Courant numbers fall
        w0 = ps.gaussian_wigner(-14, 14, 225, -6, 6, 97, var_q=1.0,
                                var_p=0.5)
        n_steps, _ = pr.fokker_planck_step_plan(w0, 1.0, UNIT)
        assert n_steps == 12
        ref = pr._integrate_fokker_planck(w0, 1.0 / 768, 768, UNIT)
        errors = [ps.l1_distance(ref, pr._integrate_fokker_planck(
            w0, 1.0 / n, n, UNIT)) for n in (12, 24, 48, 96)]
        assert all(a > 1.3 * b for a, b in zip(errors, errors[1:])), errors

    def test_step_beyond_explicit_diffusion_limit(self):
        # three times the bound 0.4 dp^2 / (2 M gamma kT) of an explicit
        # momentum step; the implicit step stays finite and conservative
        w0 = ps.gaussian_wigner(-18, 18, 160, -6, 6, 96, var_q=0.25, var_p=0.5)
        dt = 3.0 * 0.4 * w0.dp ** 2 / 2.0
        assert dt < _fp_bound(w0, UNIT)
        wt = pr._integrate_fokker_planck(w0, dt, 1, UNIT)
        assert np.all(np.isfinite(wt.values))
        assert wt.integral() == pytest.approx(w0.integral(), abs=1e-8)

    def test_dt_bound_terms(self):
        # the plan is the fewest equal steps within the Courant cap's
        # COURANT_CAP dq M / p_max and 0.1 / gamma
        w0 = ps.gaussian_wigner(-18, 18, 160, -6, 6, 96, var_q=0.25, var_p=0.5)
        params = pr.QbmParams(M=0.5, gamma=0.5, kT=1.0)
        courant = pr.COURANT_CAP * w0.dq * params.M / 6.0
        assert _fp_bound(w0, params) == pytest.approx(courant)
        n_steps, dt = pr.fokker_planck_step_plan(w0, 1.0, params)
        assert n_steps == int(np.ceil(1.0 / courant))
        assert dt == pytest.approx(1.0 / n_steps)
        assert pr.fokker_planck_step_plan(w0, 0.0, params) == (0, 0.0)
        params = pr.QbmParams(M=2.0, gamma=0.5, kT=1.0)
        assert pr.fokker_planck_step_plan(w0, 1.0, params) == (5, 0.2)
        params = pr.QbmParams(M=2.0, gamma=20.0, kT=1.0)
        assert pr.fokker_planck_step_plan(w0, 1.0, params) == (200, 0.005)

    def test_courant_number_splits_exactly(self):
        # random grids, parameters and times, half of them a whole number
        # of step bounds: the plan keeps |c| within COURANT_CAP to rounding,
        # and the coefficients set for the full and the half advection
        # split c into whole cells and a fraction below 1 in size, which
        # sum to c exactly, with kappa >= 0; the runs cover the columns in
        # order, each of one shift and one sign of c
        rng = np.random.default_rng(20261019)
        for i in range(2000):
            n_q, n_p = rng.integers(8, 400), rng.integers(8, 120)
            w = ps.WignerGrid(-rng.uniform(1, 100), rng.uniform(1, 100), n_q,
                              -rng.uniform(0.5, 20), rng.uniform(0.5, 20),
                              n_p, np.zeros((n_q, n_p)))
            params = pr.QbmParams(rng.uniform(0.1, 10),
                                  10 ** rng.uniform(-3, 1), 1.0)
            bound = _fp_bound(w, params)
            t = (bound * rng.integers(1, 400) if i % 2
                 else rng.uniform(0, 20))
            _, dt = pr.fokker_planck_step_plan(w, t, params)
            c = w.p * dt / (params.M * w.dq)
            assert np.max(np.abs(c)) <= pr.COURANT_CAP * (1.0 + 1e-12)
            buf = pr._FokkerPlanckBuffers(np.zeros((n_q, n_p)))
            for courant in (c, 0.5 * c):
                buf.set_courant(courant)
                frac = buf.c[:, 0]
                assert np.max(np.abs(frac)) < 1.0
                assert buf.kappa.min() >= 0.0
                assert np.array_equal(np.trunc(courant) + frac, courant)
                assert [lo for lo, *_ in buf.runs] == [
                    0, *(hi for _, hi, *_ in buf.runs[:-1])]
                for lo, hi, k, down in buf.runs:
                    assert np.all(np.clip(np.trunc(courant[lo:hi]),
                                          1 - n_q, n_q - 1) == k)
                    assert np.all((courant[lo:hi] < 0) == down)

    def test_steps_allocate_nothing(self):
        # the traced peak does not grow with the step count: every step
        # works in the integration's own buffers
        w0 = ps.gaussian_wigner(-18, 18, 160, -6, 6, 96, var_q=0.25, var_p=0.5)
        dt = _fp_bound(w0, UNIT)
        pr._integrate_fokker_planck(w0, dt, 2, UNIT)  # warm-up
        peaks = []
        for n_steps in (2, 20, 200):
            tracemalloc.start()
            pr._integrate_fokker_planck(w0, dt, n_steps, UNIT)
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        assert max(peaks) - min(peaks) < 4096

    @pytest.mark.parametrize("t", [0.5, 1.0, 3.0])
    def test_no_subnormals_on_diffusion_grid(self, t):
        # the initial tails below START_FLOOR * max W start at 0, so the
        # front carries no subnormal number on (the unfloored start left
        # about 500 of them at each of these times)
        g = sc.SCENARIOS["diffusion"]["grid"]
        w0 = ps.gaussian_wigner(g["q_min"], g["q_max"], g["n_q"],
                                g["p_min"], g["p_max"], g["n_p"],
                                var_q=1.0, var_p=1.0)
        assert np.any((w0.values > 0)
                      & (w0.values < np.finfo(float).tiny))
        size = np.abs(pr.evolve_fokker_planck(w0, t, UNIT).values)
        assert not np.any((size > 0) & (size < np.finfo(float).tiny))

    @pytest.mark.parametrize("bad", [
        NAN,
        # inf - inf warns, which pyproject.toml makes an error
        pytest.param(np.inf, marks=pytest.mark.filterwarnings(
            "ignore::RuntimeWarning")),
    ])
    def test_non_finite_cell_raises(self, bad):
        # finiteness is checked once, after the last step: a non-finite
        # cell must survive every step to be seen there
        w0 = ps.gaussian_wigner(-18, 18, 160, -6, 6, 96, var_q=0.25, var_p=0.5)
        vals = w0.values.copy()
        vals[80, 48] = bad
        with pytest.raises(DivergenceError, match="Fokker-Planck"):
            pr._integrate_fokker_planck(w0.with_values(vals),
                                        _fp_bound(w0, UNIT), 20, UNIT)

    def test_sharp_state_stays_nonnegative(self):
        # a momentum width below one cell at dt 2 M gamma kT / dp^2 near 10,
        # ten times the step at which a Crank-Nicolson momentum step is
        # still sure to keep W nonnegative
        params = pr.QbmParams(M=1.0, gamma=5.0, kT=1.0)
        w0 = ps.gaussian_wigner(-12, 12, 81, -6, 6, 86, var_q=0.5,
                                var_p=0.005)
        dt = _fp_bound(w0, params)
        assert dt == pytest.approx(0.1 / params.gamma)   # the damping term
        assert dt * 2.0 * params.gamma / w0.dp ** 2 > 9.5
        for t in (dt, 5 * dt, 0.5):
            wt = pr.evolve_fokker_planck(w0, t, params)
            assert wt.values.min() >= -1e-10 * wt.values.max()


    @pytest.mark.parametrize("scenario, override", [
        ("maxwellization", {"grid": {"q_max": 7, "n_p": 24}}),
        ("oracle-compare", {"params": {"t_kernel": 18, "t_master": 1}}),
    ])
    def test_mass_on_the_q_walls_is_kept(self, scenario, override):
        # two fuzz draws whose integrations carry mass into the q-wall
        # rows: with whole wall cells the advection kept sum_i W_i, and the
        # integral moved by 6.9e-4 and 3.9e-4; the half wall cells keep
        # the trapezoid sum that integral() reads
        config = sc.validate_config({"schema_version": 1,
                                     "scenario": scenario, **override})
        c = {**config.params, **config.grid}
        plan = sc.SCENARIOS[scenario]["plan"](c)
        w0 = plan["state"]
        for t in ((c["t"],) if scenario == "maxwellization"
                  else (c["t_master"], c["t_kernel"])):
            wt = pr.evolve_fokker_planck(w0, t, plan["params"])
            assert wt.values.min() >= 0.0
            assert abs(wt.integral() - w0.integral()) < 1e-12


class TestStepPlan:
    @pytest.mark.parametrize("t, bound, n", [
        (0.05, 0.1, 1),
        (0.7, 0.1, 7),            # 0.7 / 0.1 rounds below 7
        (3 * 0.1, 0.1, 3),        # 3 * 0.1 rounds above 0.3
        (0.30001, 0.1, 4),
    ])
    def test_fewest_equal_steps_within_bound(self, t, bound, n):
        n_steps, dt = pr._step_plan(t, bound)
        assert n_steps == n and dt == t / n
        assert dt <= bound * (1 + 1e-12)
        if n > 1:
            assert t / (n - 1) > bound

    def test_zero_time_takes_no_steps(self):
        assert pr._step_plan(0.0, 0.1) == (0, 0.0)

    @pytest.mark.parametrize("t", [-1e-3, float("nan")])
    def test_invalid_time_rejected(self, t):
        with pytest.raises(ValueError, match="nonnegative"):
            pr._step_plan(t, 0.1)

    @pytest.mark.parametrize("t, bound", [
        (np.inf, 0.1),
        (1.0, 0.0),
        (5.0, 1e-309),            # t / bound overflows
    ])
    def test_no_finite_step_count_rejected(self, t, bound):
        with pytest.raises(ValueError, match="no finite step count"):
            pr._step_plan(t, bound)

    def test_vast_rate_has_no_fokker_planck_plan(self):
        w0 = ps.gaussian_wigner(-30, 30, 241, -6, 6, 97, var_q=1.0,
                                var_p=0.25)
        with pytest.raises(ValueError, match="no finite step count"):
            pr.fokker_planck_step_plan(w0, 5.0,
                                       pr.QbmParams(1.0, 1e308, 1.0))


class TestMomentumPropagator:
    @pytest.mark.parametrize("grid", [
        (-60, 60, 481, -6, 6, 65),      # diffusion
        (-30, 30, 241, -6, 6, 97),      # maxwellization
        (-14, 14, 225, -6, 6, 97),      # oracle-compare
    ])
    def test_matches_scipy_expm(self, grid, monkeypatch):
        w = ps.gaussian_wigner(*grid)
        dt = _fp_bound(w, UNIT)
        for step in (dt, 0.5 * dt):
            got = pr._momentum_propagator(w.p, w.dp, step, UNIT)
            with monkeypatch.context() as m:
                m.setattr(pr, "_nonnegative_expm", expm)
                want = pr._momentum_propagator(w.p, w.dp, step, UNIT)
            assert np.max(np.abs(got - want)) < 1e-13

    def test_nonnegative_and_mass_conserving_on_wide_grid(self):
        # p_max = 8 at kT = 0.5: here a symmetrized eigh route gives
        # entries down to -5.7e-3
        params = pr.QbmParams(M=1.0, gamma=1.0, kT=0.5)
        p = np.linspace(-8.0, 8.0, 201)
        w = ps._trapezoid_weights(p.size, p[1] - p[0])
        for dt in (0.01, 0.025, 0.1, 1.0):
            mat = pr._momentum_propagator(p, p[1] - p[0], dt, params)
            assert mat.min() >= 0.0
            # the conserved mass is the trapezoid sum that integral() reads
            assert np.max(np.abs(w @ mat - w)) < 1e-12 * np.max(w)

    def test_mass_on_the_p_walls_is_kept(self):
        # a maxwellization run on 9 p points that puts mass on the p walls:
        # with whole wall cells the momentum step kept sum_j W_j, and the
        # integral read 0.9634 at t = 3.72, so the run exited 3
        config = sc.validate_config({
            "schema_version": 1, "scenario": "maxwellization",
            "params": {"M": 11, "gamma": 0.606, "t": 3.72},
            "grid": {"n_p": 9}})
        plan = sc._maxwellization_plan({**config.params, **config.grid})
        wt = pr.evolve_fokker_planck(plan["state"], config.params["t"],
                                     plan["params"])
        assert abs(wt.integral() - 1.0) <= 1e-12


def _reference_advect(vals, c):
    """Flux-form step in q between zero-flux walls at any Courant number,
    face by face: the flux through each face is the trunc(c) whole cells
    upwind of it plus the van Leer flux of the fraction out of the next
    cell, and cells past a wall are 0."""
    def limited(num, den):  # phi(num / den) * den, van Leer phi
        r = num / den if den != 0 else 0.0
        return (r + abs(r)) / (1.0 + abs(r)) * den

    n = vals.shape[0]
    out = np.empty_like(vals)
    for j, cj in enumerate(c):
        k, frac = int(np.trunc(cj)), cj - np.trunc(cj)
        col = np.concatenate([np.zeros(n + 2), vals[:, j], np.zeros(n + 2)])
        w = lambda i: col[i + n + 2]   # noqa: E731  cell i, 0 past a wall
        face = np.zeros(n + 1)         # face[i]: between cells i - 1 and i
        for i in range(1, n):
            if cj >= 0:
                whole = sum(w(i - m) for m in range(1, k + 1))
                d = i - 1 - k
                part = w(d) + 0.5 * (1.0 - frac) * limited(
                    w(d) - w(d - 1), w(d + 1) - w(d))
            else:
                whole = -sum(w(i + m) for m in range(-k))
                d = i - k
                part = w(d) - 0.5 * (1.0 + frac) * limited(
                    w(d + 1) - w(d), w(d) - w(d - 1))
            face[i] = whole + frac * part
        out[:, j] = vals[:, j] - (face[1:] - face[:-1])
    return out


def _reference_master(kernel, x, dx, dt, n_steps, params):
    """Strang steps D(dt/2) RK(dt) D(dt/2) of the master equation, with
    stage-form RK4 over the kinetic and dissipation terms, built from
    zero-filled shifted copies of the kernel."""
    def shift(a, di, dj):  # out[i, j] = a[i + di, j + dj], 0 outside
        out = np.zeros_like(a)
        n = a.shape[0]
        out[max(0, -di):n - max(0, di), max(0, -dj):n - max(0, dj)] = \
            a[max(0, di):n - max(0, -di), max(0, dj):n - max(0, -dj)]
        return out

    kinetic = 1j / (2.0 * params.M * dx ** 2)
    dissipation = -params.gamma * (x[:, None] - x[None, :]) / (2.0 * dx)

    def rhs(k):  # c+ (N - E) + c- (S - W)
        return ((kinetic + dissipation) * (shift(k, 1, 0) - shift(k, 0, 1))
                + (kinetic - dissipation) * (shift(k, -1, 0) - shift(k, 0, -1)))

    rate = 2.0 * params.M * params.gamma * params.kT
    dist2 = (x[:, None] - x[None, :]) ** 2
    full, half = (np.exp(-rate * h * dist2) for h in (dt, 0.5 * dt))
    ker = kernel * half
    for step in range(n_steps):
        k1 = rhs(ker)
        k2 = rhs(ker + 0.5 * dt * k1)
        k3 = rhs(ker + 0.5 * dt * k2)
        k4 = rhs(ker + dt * k3)
        ker = ker + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        ker = ker * (full if step < n_steps - 1 else half)
    return ker


def master_equation_rhs(rho, params):
    """Generator of the position-basis master equation (hbar = 1), from the
    integrator's own kinetic, dissipation and decoherence terms.

    Linear in the kernel, which may be any complex matrix: it is the
    generator of the map ``evolve_master_equation`` integrates.  Only
    ``n_x``, ``x``, ``dx`` and ``kernel`` of ``rho`` are read.
    """
    n, x = rho.n_x, rho.x
    padded = np.zeros((n + 2, n + 2), dtype=complex)
    padded[1:-1, 1:-1] = rho.kernel
    c_plus, c_minus = pr._generator_coefficients(x, rho.dx, params)
    terms = pr._kinetic_dissipation(padded, c_plus, c_minus,
                                    np.empty((n, n + 2), dtype=complex),
                                    np.empty((n, n + 2), dtype=complex))
    return terms[:, 1:-1] - (pr._decoherence_rate(params)
                             * (x[:, None] - x[None, :]) ** 2 * rho.kernel)


class TestMasterEquation:
    def setup_method(self):
        self.params = pr.QbmParams(M=1.0, gamma=0.25, kT=1.0)
        self.n = 128
        self.x_min, self.x_max = -10.0, 10.0
        self.x = np.linspace(self.x_min, self.x_max, self.n)

    def cat_state(self, d=4.0, s2=0.25):
        psi = (np.exp(-(self.x - d / 2) ** 2 / (4 * s2))
               + np.exp(-(self.x + d / 2) ** 2 / (4 * s2)))
        psi /= np.sqrt(np.trapezoid(np.abs(psi) ** 2, self.x))
        return ps.DensityMatrix(self.x_min, self.x_max, self.n,
                                np.outer(psi, psi.conj()))

    def test_off_diagonal_decay_rate(self):
        # initial rate of |rho(x, -x)| decay is 2 M gamma kT (2x)^2
        d = 4.0
        rho0 = self.cat_state(d=d)
        i = np.argmin(np.abs(self.x - d / 2))
        j = np.argmin(np.abs(self.x + d / 2))
        dt = 5e-4             # below master_dt_bound: a single step
        rho1 = pr.evolve_master_equation(rho0, dt, self.params)
        num = np.abs(rho1.kernel[i, j]) - np.abs(rho0.kernel[i, j])
        rate = -num / (dt * np.abs(rho0.kernel[i, j]))
        sep = self.x[i] - self.x[j]
        expected = 2 * self.params.M * self.params.gamma * self.params.kT * sep ** 2
        assert rate == pytest.approx(expected, rel=0.05)

    def test_trace_conserved(self):
        rho0 = self.cat_state()
        rho1 = pr.evolve_master_equation(rho0, 0.05, self.params)
        assert rho1.trace() == pytest.approx(rho0.trace(), abs=1e-8)

    def test_hermitian_after_step(self):
        rho0 = self.cat_state()
        rho1 = pr.evolve_master_equation(rho0, 0.05, self.params)
        dev = np.max(np.abs(rho1.kernel - rho1.kernel.conj().T))
        assert dev < 1e-12

    def test_moments_cross_check_with_kernel(self):
        # evolve a Gaussian state through the density-matrix picture and
        # compare Wigner-space moments with the exact kernel prediction
        p0, p1, n_p = ps.conjugate_momentum_axis(self.x_min, self.x_max, self.n)
        w0 = ps.gaussian_wigner(self.x_min, self.x_max, self.n, p0, p1, n_p,
                                var_q=1.0, var_p=0.5)
        rho0 = ps.wigner_to_density(w0)
        t = 0.5
        rho_t = pr.evolve_master_equation(rho0, t, self.params)
        w_t = ps.density_to_wigner(rho_t)
        _, _, vq, vp, cqp = ps.moments(w_t)
        a = pr.kernel_mean_map(self.params, t)
        cov0 = np.array([[1.0, 0.0], [0.0, 0.5]])
        cov = a @ cov0 @ a.T + pr.kernel_covariance(self.params, t)
        assert vq == pytest.approx(cov[0, 0], rel=2e-2)
        assert vp == pytest.approx(cov[1, 1], rel=2e-2)
        assert cqp == pytest.approx(cov[0, 1], rel=5e-2)

    def test_matches_fine_step_reference(self):
        # unsplit RK4 over the full generator at a quarter of the
        # step bound that includes the decoherence rate
        rho0 = self.cat_state()
        t = 0.25
        n_steps = int(np.ceil(t / (0.25 * _full_generator_dt_bound(
            rho0, self.params))))
        h = t / n_steps
        ker = rho0.kernel

        def rhs(k):
            return master_equation_rhs(rho0.with_kernel(k), self.params)

        for _ in range(n_steps):
            k1 = rhs(ker)
            k2 = rhs(ker + 0.5 * h * k1)
            k3 = rhs(ker + 0.5 * h * k2)
            k4 = rhs(ker + h * k3)
            ker = ker + h / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        want = ps.density_to_wigner(rho0.with_kernel(ker))
        got = ps.density_to_wigner(
            pr.evolve_master_equation(rho0, t, self.params))
        assert ps.l1_distance(want, got) < 1e-3

    def test_generator_linear_on_off_diagonal_block(self):
        # the generator oracle is the generator of the linear integrator:
        # on X = P_L rho P_R it acts as on H1 + i H2, which a Hermitian
        # projection of its output would break.  X is no DensityMatrix, so
        # a plain holder passes it.
        rho = self.cat_state()
        left = rho.x < 0
        block = rho.kernel * np.outer(left, ~left)
        h1 = 0.5 * (block + block.conj().T)
        h2 = (block - block.conj().T) / 2j

        def rhs(k):
            holder = types.SimpleNamespace(n_x=rho.n_x, x=rho.x, dx=rho.dx,
                                           kernel=k)
            return master_equation_rhs(holder, self.params)

        got = rhs(block)
        want = rhs(h1) + 1j * rhs(h2)
        assert np.max(np.abs(got - want)) < 1e-13 * np.max(np.abs(want))
        assert np.max(np.abs(got)) > 1e-3 * np.max(np.abs(rhs(rho.kernel)))

    def test_linear_on_off_diagonal_block(self):
        # an off-diagonal block X = P_L rho P_R is neither Hermitian nor of
        # unit trace; the map must act on it as on H1 + i H2 with
        # H1 = (X + X^dag)/2 and H2 = (X - X^dag)/2i Hermitian
        spec = sc.SCENARIOS["oracle-compare"]
        p, g = spec["params"], spec["grid"]
        params = pr.QbmParams(p["M"], p["gamma"], p["kT"])
        x_max, n_x = g["master_x_max"], g["master_n_x"]
        p0, p1, n_p = ps.conjugate_momentum_axis(-x_max, x_max, n_x)
        rho = ps.wigner_to_density(ps.gaussian_wigner(
            -x_max, x_max, n_x, p0, p1, n_p, mean_q=-0.5, mean_p=1.0,
            var_q=1.0, var_p=0.5))
        left = rho.x < 0
        block = rho.kernel * np.outer(left, ~left)
        h1 = 0.5 * (block + block.conj().T)
        h2 = (block - block.conj().T) / 2j
        n_steps, dt = pr._step_plan(p["t_master"],
                                    pr.master_dt_bound(rho, params))

        def evolve(k):
            return pr._integrate_master_equation(k, rho.x, rho.dx, dt,
                                                 n_steps, params)

        got = evolve(block)
        want = evolve(h1) + 1j * evolve(h2)
        assert np.max(np.abs(got - want)) < 1e-13 * np.max(np.abs(want))
        assert np.max(np.abs(got)) > 1e-3 * np.max(np.abs(block))

    def test_exactly_hermitian_stays_exactly_hermitian(self):
        # the step commutes with the conjugate transpose in floating point,
        # so no projection is needed to keep a Hermitian kernel Hermitian
        rho0 = self.cat_state()
        n_steps, dt = pr._step_plan(0.25,
                                    pr.master_dt_bound(rho0, self.params))
        rng = np.random.default_rng(5)
        a = rng.standard_normal((self.n, self.n)) \
            + 1j * rng.standard_normal((self.n, self.n))
        herm = a + a.conj().T
        psi = np.exp(-(self.x - 1.0) ** 2 + 2j * self.x) \
            + np.exp(-(self.x + 1.5) ** 2 / 2.0 - 1j * self.x)
        cat = np.outer(psi, psi.conj())
        cat = 0.5 * (cat + cat.conj().T)
        for kernel in (herm, cat):
            assert np.array_equal(kernel, kernel.conj().T)
            k = pr._integrate_master_equation(kernel, rho0.x, rho0.dx, dt,
                                              n_steps, self.params)
            assert np.array_equal(k, k.conj().T)

    @pytest.mark.parametrize("part", ["cat", "off-diagonal block"])
    def test_matches_stage_form_rk4(self, part):
        # the Horner-form step against the stage-form RK4 loop, on shifted
        # zero-filled copies of the kernel
        kernel = self.cat_state().kernel
        if part != "cat":
            left = self.x < 0
            kernel = kernel * np.outer(left, ~left)
        dx = self.x[1] - self.x[0]
        n_steps, dt = pr._step_plan(0.25, pr.master_dt_bound(
            self.cat_state(), self.params))
        got = pr._integrate_master_equation(kernel, self.x, dx, dt, n_steps,
                                            self.params)
        want = _reference_master(kernel, self.x, dx, dt, n_steps,
                                 self.params)
        assert np.max(np.abs(got - want)) < 1e-14 * np.max(np.abs(want))

    @pytest.mark.parametrize("bad", [
        NAN,
        # inf - inf warns, which pyproject.toml makes an error
        pytest.param(np.inf, marks=pytest.mark.filterwarnings(
            "ignore::RuntimeWarning")),
    ])
    def test_non_finite_entry_raises(self, bad):
        kernel = self.cat_state().kernel.copy()
        kernel[60, 70] = bad
        dx = self.x[1] - self.x[0]
        with pytest.raises(DivergenceError, match="master-equation"):
            pr._integrate_master_equation(kernel, self.x, dx, 1e-3, 20,
                                          self.params)

    def test_oracle_compare_step_count(self):
        # the exact decoherence factor takes the (x - y)^2 rate out of the
        # RK4 bound, and the Gershgorin radius of the kinetic and
        # dissipation stencil sets it: 547 steps become 120 on the
        # oracle-compare grid
        spec = sc.SCENARIOS["oracle-compare"]
        p, g = spec["params"], spec["grid"]
        params = pr.QbmParams(p["M"], p["gamma"], p["kT"])
        x = np.linspace(-g["master_x_max"], g["master_x_max"],
                        g["master_n_x"])
        psi = np.exp(-x ** 2 / 4.0)
        psi /= np.sqrt(np.trapezoid(psi ** 2, x))
        rho0 = ps.DensityMatrix(x[0], x[-1], x.size, np.outer(psi, psi))
        t = p["t_master"]
        assert np.ceil(t / pr.master_dt_bound(rho0, params)) == 120
        assert np.ceil(t / _full_generator_dt_bound(rho0, params)) == 547

    @pytest.mark.parametrize("n_x, x_min, x_max, params", [
        (128, -10.0, 10.0, UNIT),
        (64, -10.0, 10.0, UNIT),
        (96, -6.0, 8.0, pr.QbmParams(M=2.5, gamma=0.3, kT=1.0)),
    ], ids=["oracle-compare", "n_x-64", "gamma-M"])
    def test_dt_bound_is_the_gershgorin_radius(self, n_x, x_min, x_max,
                                               params):
        # R = max(2|c+| + 2|c-|) over the coefficients the stencil uses;
        # the bound is never below the old sum of scales
        # 4/(M dx^2) + 2 gamma span/dx, so no lattice takes more steps
        rho = _lattice(x_min, x_max, n_x)
        c_plus, c_minus = pr._generator_coefficients(rho.x, rho.dx, params)
        radius = np.max(2.0 * np.abs(c_plus) + 2.0 * np.abs(c_minus))
        bound = pr.master_dt_bound(rho, params)
        assert bound == pytest.approx(0.8 * 2.78 / radius, rel=1e-12)
        summed = (4.0 / (params.M * rho.dx ** 2)
                  + 2.0 * params.gamma * (x_max - x_min) / rho.dx)
        assert bound >= 0.8 * 2.78 / summed

    @staticmethod
    def _stencil(x, dx, params):
        """The kinetic and dissipation terms as a map of (n, n) kernels."""
        n = x.size
        c_plus, c_minus = pr._generator_coefficients(x, dx, params)
        padded = np.zeros((n + 2, n + 2), dtype=complex)
        out, tmp = (np.empty((n, n + 2), dtype=complex) for _ in range(2))

        def apply(kernel):
            padded[1:-1, 1:-1] = kernel
            pr._kinetic_dissipation(padded, c_plus, c_minus, out, tmp)
            return out[:, 1:-1].copy()
        return apply

    def test_stencil_spectrum_within_the_radius(self):
        # power iteration on the default lattice finds |lambda|max ~ 242,
        # inside R = 266.5; on a 12-site lattice every eigenvalue of the
        # dense stencil matrix lies inside its own R
        rho = _lattice(-10.0, 10.0, 128)
        radius = 0.8 * 2.78 / pr.master_dt_bound(rho, UNIT)
        assert radius == pytest.approx(266.495, rel=1e-5)
        apply = self._stencil(rho.x, rho.dx, UNIT)
        v = np.random.default_rng(3).standard_normal((128, 128)) + 0j
        for _ in range(200):
            w = apply(v)
            growth = np.linalg.norm(w) / np.linalg.norm(v)
            v = w / np.linalg.norm(w)
        assert growth == pytest.approx(241.75, rel=1e-4)
        assert growth < radius

        n = 12
        params = pr.QbmParams(M=0.5, gamma=2.0, kT=1.0)
        rho = _lattice(-3.0, 3.0, n)
        apply = self._stencil(rho.x, rho.dx, params)
        dense = np.column_stack([apply(e.reshape(n, n)).ravel()
                                 for e in np.eye(n * n)])
        radius = 0.8 * 2.78 / pr.master_dt_bound(rho, params)
        assert np.max(np.abs(np.linalg.eigvals(dense))) < radius

    def test_long_run_at_the_gershgorin_step(self):
        # 2400 steps of dt 1/120 to t = 20 on the oracle-compare lattice
        # stay finite, keep the trace and keep the kernel Hermitian
        spec = sc.SCENARIOS["oracle-compare"]
        p, g = spec["params"], spec["grid"]
        params = pr.QbmParams(p["M"], p["gamma"], p["kT"])
        rho0 = ps.wigner_to_density(sc._master_state(g))
        n_steps, dt = pr._step_plan(p["t_master"],
                                    pr.master_dt_bound(rho0, params))
        assert (n_steps, dt) == (120, 1.0 / 120)
        k = pr._integrate_master_equation(rho0.kernel, rho0.x, rho0.dx, dt,
                                          20 * n_steps, params)
        assert np.isfinite(k).all()
        assert abs(np.trace(k) * rho0.dx - rho0.trace()) < 1e-10
        assert np.max(np.abs(k - k.conj().T)) <= 1e-14 * np.max(np.abs(k))


def _lattice(x_min, x_max, n_x):
    """The extent, spacing and sites of an n_x-site lattice: all that
    ``master_dt_bound`` and the stencil read of a density matrix."""
    return types.SimpleNamespace(x_min=x_min, x_max=x_max,
                                 dx=(x_max - x_min) / (n_x - 1),
                                 x=np.linspace(x_min, x_max, n_x))


def _full_generator_dt_bound(rho, params):
    """RK4 step bound of the full master-equation generator, decoherence
    rate 2 M gamma kT (x_max - x_min)^2 included."""
    span = rho.x_max - rho.x_min
    kinetic = 4.0 / (params.M * rho.dx ** 2)
    dissipation = 2.0 * params.gamma * span / rho.dx
    decoherence = 2.0 * params.M * params.gamma * params.kT * span ** 2
    return 0.8 * 2.78 / (kinetic + dissipation + decoherence)


class TestDiffusionDiagnostics:
    def test_coefficient(self):
        assert pr.diffusion_coefficient(UNIT) == pytest.approx(0.5)
        assert pr.diffusion_coefficient(
            pr.QbmParams(M=2.0, gamma=0.5, kT=1.0)) == pytest.approx(0.5)

    def test_fit_recovers_theory(self):
        w0 = ps.gaussian_wigner(-60, 60, 384, -6, 6, 96, var_q=0.5, var_p=1.0)
        times = np.linspace(5, 20, 8)
        margs = [ps.position_marginal(pr.propagate_analytic(w0, t, UNIT))
                 for t in times]
        fit = pr.fit_diffusion(times, margs, UNIT)
        assert fit.relative_error < 1e-3
        assert fit.D_theory == pytest.approx(0.5)

    def test_non_monotone_series_rejected(self):
        times = np.array([5.0, 6.0, 7.0, 8.0])
        samples = np.exp(-np.linspace(-4, 4, 64) ** 2)
        samples /= np.trapezoid(samples, dx=8 / 63)
        m = ps.Marginal(axis="position", samples=samples,
                        spacing=8 / 63, origin=-4.0)
        with pytest.raises(FitQualityError):
            pr.fit_diffusion(times, [m, m, m, m], UNIT)

    def test_too_few_samples_rejected(self):
        with pytest.raises(FitQualityError):
            pr.fit_diffusion([5.0, 6.0], [None, None], UNIT)

    def test_pre_diffusive_window_warns(self):
        w0 = ps.gaussian_wigner(-60, 60, 256, -6, 6, 64, var_q=0.5, var_p=1.0)
        times = np.linspace(1, 4, 4)
        margs = [ps.position_marginal(pr.propagate_analytic(w0, t, UNIT))
                 for t in times]
        with pytest.warns(UserWarning):
            pr.fit_diffusion(times, margs, UNIT)

    def test_constitutive_relation_longtime(self):
        w0 = ps.gaussian_wigner(-60, 60, 384, -6, 6, 96, var_q=0.5, var_p=1.0)
        wt = pr.propagate_analytic(w0, 12.0, UNIT)
        res = pr.constitutive_check(wt, UNIT)
        assert res.relative_sup < 1e-2

    def test_constitutive_fails_far_from_equilibrium(self):
        # a drifting packet violates the gradient form of the current
        w = ps.gaussian_wigner(-20, 20, 160, -6, 6, 96, mean_p=2.0,
                               var_q=1.0, var_p=0.5)
        res = pr.constitutive_check(w, UNIT)
        assert res.relative_sup > 0.5


class TestParams:
    def test_positivity_enforced(self):
        with pytest.raises(ValueError):
            pr.QbmParams(M=0.0, gamma=1.0, kT=1.0)
        with pytest.raises(ValueError):
            pr.QbmParams(M=1.0, gamma=-1.0, kT=1.0)

    @pytest.mark.parametrize("field", ["M", "gamma", "kT"])
    def test_infinite_field_rejected(self, field):
        # "not inf > 0" is False: a positivity check alone lets inf through
        fields = {"M": 1.0, "gamma": 1.0, "kT": 1.0, field: np.inf}
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            pr.QbmParams(**fields)


TWO_BINS = hist.ToyHilbert(B=2, N=1)
LATTICE = np.linspace(-4.0, 4.0, 8)


@pytest.mark.parametrize("call", [
    lambda: pr.QbmParams(M=NAN, gamma=1.0, kT=1.0),
    lambda: pr.QbmParams(M=1.0, gamma=1.0, kT=NAN),
    lambda: pr.propagate_analytic(ps.gaussian_wigner(-8, 8, 32, -4, 4, 32),
                                  NAN, UNIT),
    lambda: ps.gaussian_wigner(-8, 8, 32, -4, 4, 32, var_q=NAN),
    lambda: hist.gaussian_occupation_family(TWO_BINS, 0, (1.0,), sigma=NAN),
    lambda: hist.HistorySpec(TWO_BINS, (1.0,),
                             ([hist.occupation_family(TWO_BINS)],),
                             np.zeros((2, 2)), dephasing_rate=NAN),
    lambda: hist.product_occupation_functional(
        hist.DensityOperator(TWO_BINS, np.eye(2) / 2), np.zeros((2, 2)), 2,
        (0.5, 1.0), dephasing_rate=NAN),
    lambda: le.one_particle_gibbs([1.0, NAN, 1.0], [0.0] * 3, [0.0] * 3),
    lambda: le.LocalEquilibriumProfile(LATTICE, np.ones(8), np.zeros(8),
                                       np.full(8, NAN)),
], ids=["M", "kT", "propagate_analytic_t", "gaussian_wigner_var",
        "quasi_projector_sigma", "spec_dephasing",
        "product_dephasing", "gibbs_beta", "profile_kT"])
def test_nan_parameter_rejected(call):
    # every positivity check refuses NaN, which fails "x > 0"; the check
    # raises, not a later failure such as LinAlgError on NaN entries
    with pytest.raises(ValueError) as info:
        call()
    assert info.type is ValueError
