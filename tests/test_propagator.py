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
    return min(pr._fokker_planck_limits(w, params).values())


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
    measures 2.05 here."""

    def test_fokker_planck(self):
        # measures 6.88e-4 / 1.54e-4 = 4.47
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
        # the time error on one lattice, the L1 distance of the runs at the
        # bound's dt and at dt/2 from a dt/8 run there, falls at second
        # order when the lattice is halved: it measures 3.92 and 3.85 (Lie
        # splitting: 2.03 and 2.03).  On one lattice it falls by 2.18 from
        # dt to dt/2, Lie splitting and the advection alone (gamma 1e-4)
        # alike: the van Leer step's kappa = |c| (1 - |c|) / 2 ties its dt
        # error to the lattice, so the scheme is second order in dt and dq
        # together, not in dt alone
        errors = []
        for n_q, n_p in ((113, 49), (225, 97)):
            w0 = ps.gaussian_wigner(-14, 14, n_q, -6, 6, n_p, var_q=1.0,
                                    var_p=0.5)
            n_steps, dt, _ = pr.fokker_planck_step_plan(w0, 1.0, UNIT)
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
        step = row @ pr._momentum_propagator(p, p[1] - p[0], 1.0, UNIT)
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
        # Courant numbers in both directions, up to 0.8, and an
        # odd column count with a column at rest
        for c in (np.linspace(-0.4, 0.4, 25), np.linspace(-0.8, 0.8, 25),
                  np.arange(-8, 7) / 10):
            rng = np.random.default_rng(7)
            vals = rng.random((40, c.size))
            vals[:5] = 0.0                  # flat region: zero slopes
            vals[20] = vals[21]
            buf = pr._FokkerPlanckBuffers(vals)
            buf.set_courant(c)
            pr._advect_q(buf)
            want = _reference_advect(vals, c)
            assert np.max(np.abs(buf.values - want)) < 1e-14

    @pytest.mark.parametrize("c_max", [0.8, 1.0])
    def test_advection_total_variation_diminishing(self, c_max):
        # up to |c| = 1 one step keeps W nonnegative and each column's mass;
        # zero-flux walls can raise the total variation, so it is not checked
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
        # the bound's step agrees with steps a quarter as long
        w0 = ps.gaussian_wigner(-18, 18, 160, -6, 6, 96, var_q=0.25, var_p=0.5)
        w_default = pr.evolve_fokker_planck(w0, 2.0, UNIT)
        n_steps, dt = pr._step_plan(2.0, _fp_bound(w0, UNIT) / 4)
        w_fine = pr._integrate_fokker_planck(w0, dt, n_steps, UNIT)
        assert ps.l1_distance(w_default, w_fine) < 2e-3

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
        w0 = ps.gaussian_wigner(-18, 18, 160, -6, 6, 96, var_q=0.25, var_p=0.5)
        params = pr.QbmParams(M=2.0, gamma=0.5, kT=1.0)
        courant = w0.dq * params.M / 6.0
        assert _fp_bound(w0, params) == pytest.approx(courant)
        n_steps, dt, limit = pr.fokker_planck_step_plan(w0, 1.0, params)
        assert (n_steps, limit) == (int(np.ceil(1.0 / courant)), "courant")
        assert dt == pytest.approx(1.0 / n_steps)
        assert pr.fokker_planck_step_plan(w0, 0.0, params)[:2] == (0, 0.0)
        params = pr.QbmParams(M=2.0, gamma=20.0, kT=1.0)
        assert _fp_bound(w0, params) == pytest.approx(0.005)
        n_steps, dt, limit = pr.fokker_planck_step_plan(w0, 1.0, params)
        assert (n_steps, limit) == (200, "damping")

    def test_courant_number_within_one(self):
        # random grids, parameters and times, half of them a whole number
        # of step bounds: the coefficients set for the full and the half
        # advection keep |c| <= 1 and kappa >= 0, and a |c| <= 1 is set as
        # it is.  Without the clip in set_courant, 45 of these 2000 draws
        # give |c| a few ulps above 1 and a negative kappa; at the former
        # Courant factor 0.8, none
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
            _, dt, _ = pr.fokker_planck_step_plan(w, t, params)
            c = w.p * dt / (params.M * w.dq)
            buf = pr._FokkerPlanckBuffers(np.zeros((1, n_p)))
            for courant in (c, 0.5 * c):
                buf.set_courant(courant)
                assert np.max(np.abs(buf.c)) <= 1.0
                assert buf.kappa.min() >= 0.0
                inside = np.abs(courant) <= 1.0
                assert np.array_equal(buf.c[0, inside], courant[inside])

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
        assert pr.fokker_planck_step_plan(w0, 0.5, params)[2] == "damping"
        assert dt * 2.0 * params.gamma / w0.dp ** 2 > 9.5
        for t in (dt, 5 * dt, 0.5):
            wt = pr.evolve_fokker_planck(w0, t, params)
            assert wt.values.min() >= -1e-10 * wt.values.max()


class TestFokkerPlanckTimes:
    """evolve_fokker_planck over an increasing sequence of times."""

    def setup_method(self):
        g = sc.SCENARIOS["oracle-compare"]["grid"]
        self.w0 = ps.gaussian_wigner(g["q_min"], g["q_max"], g["n_q"],
                                     g["p_min"], g["p_max"], g["n_p"],
                                     var_q=1.0, var_p=0.5)

    def test_oracle_compare_times_match_separate_runs(self, monkeypatch):
        # t_master and t_kernel share dt = 1/48 = 5/240 bit for bit, so one
        # integration yields both; 0.7 takes 34 steps of another dt and is
        # integrated on its own, and t = 0 takes no step
        p = sc.SCENARIOS["oracle-compare"]["params"]
        times = [0.0, 0.7, p["t_master"], p["t_kernel"]]
        plans = [pr.fokker_planck_step_plan(self.w0, t, UNIT) for t in times]
        assert plans[2][1] == plans[3][1] != plans[1][1]
        assert pr.fokker_planck_step_plan(self.w0, times, UNIT) == [
            plans[0], plans[1], plans[3]]
        built = []

        class Buffers(pr._FokkerPlanckBuffers):
            def __init__(self, values):
                built.append(values.shape)
                super().__init__(values)

        monkeypatch.setattr(pr, "_FokkerPlanckBuffers", Buffers)
        grids = pr.evolve_fokker_planck(self.w0, times, UNIT)
        assert len(built) == 2
        for t, grid in zip(times, grids):
            alone = pr.evolve_fokker_planck(self.w0, t, UNIT)
            assert np.array_equal(grid.values, alone.values)

    def test_snapshots_hold_one_grid_each(self):
        # each grid taken on the way adds at most its own bytes to the
        # traced peak of the run: it is closed in the run's spare array
        pr.evolve_fokker_planck(self.w0, [1.0, 5.0], UNIT)   # warm-up
        peaks = []
        for times in (5.0, [1.0, 5.0], [1.0, 2.0, 3.0, 5.0]):
            tracemalloc.start()
            pr.evolve_fokker_planck(self.w0, times, UNIT)
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        grid = self.w0.values.nbytes
        assert peaks[1] - peaks[0] <= grid
        assert peaks[2] - peaks[0] <= 3 * grid

    @pytest.mark.parametrize("times", [[], [1.0, 1.0], [2.0, 1.0]])
    def test_times_must_increase(self, times):
        with pytest.raises(ValueError, match="increasing"):
            pr.evolve_fokker_planck(self.w0, times, UNIT)
        with pytest.raises(ValueError, match="increasing"):
            pr.fokker_planck_step_plan(self.w0, times, UNIT)


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
        for dt in (0.01, 0.025, 0.1, 1.0):
            mat = pr._momentum_propagator(p, p[1] - p[0], dt, params)
            assert mat.min() >= 0.0
            assert np.max(np.abs(mat.sum(axis=1) - 1.0)) < 1e-12


def _reference_advect(vals, c):
    """Van Leer upwind step in q, between zero-flux walls, built from
    zero-filled shifted copies of the array."""
    def shift(a, k):  # out[i] = a[i - k]
        out = np.zeros_like(a)
        if k > 0:
            out[k:] = a[:-k]
        else:
            out[:k] = a[-k:]
        return out

    def limited(num, den):  # phi(num / den) * den, van Leer phi
        r = np.divide(num, den, out=np.zeros_like(num), where=den != 0)
        return (r + np.abs(r)) / (1.0 + np.abs(r)) * den

    wm, wp, wpp = shift(vals, 1), shift(vals, -1), shift(vals, -2)
    f_pos = vals + 0.5 * (1.0 - c) * limited(vals - wm, wp - vals)
    f_neg = wp - 0.5 * (1.0 + c) * limited(wpp - wp, wp - vals)
    face = c * np.where(c >= 0, f_pos, f_neg)   # dt/dq * flux at i+1/2
    face[-1] = 0.0
    return vals - (face - shift(face, 1))


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
        # unsplit RK4 over the full public generator at a quarter of the
        # step bound that includes the decoherence rate
        rho0 = self.cat_state()
        t = 0.25
        n_steps = int(np.ceil(t / (0.25 * _full_generator_dt_bound(
            rho0, self.params))))
        h = t / n_steps
        ker = rho0.kernel

        def rhs(k):
            return pr.master_equation_rhs(rho0.with_kernel(k), self.params)

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
        # the public generator is the generator of the linear integrator:
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
            return pr.master_equation_rhs(holder, self.params)

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
        # RK4 bound: 547 steps become 187 on the oracle-compare grid
        spec = sc.SCENARIOS["oracle-compare"]
        p, g = spec["params"], spec["grid"]
        params = pr.QbmParams(p["M"], p["gamma"], p["kT"])
        x = np.linspace(-g["master_x_max"], g["master_x_max"],
                        g["master_n_x"])
        psi = np.exp(-x ** 2 / 4.0)
        psi /= np.sqrt(np.trapezoid(psi ** 2, x))
        rho0 = ps.DensityMatrix(x[0], x[-1], x.size, np.outer(psi, psi))
        t = p["t_master"]
        assert np.ceil(t / pr.master_dt_bound(rho0, params)) == 187
        assert np.ceil(t / _full_generator_dt_bound(rho0, params)) == 547


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
    # every positivity check is written "not x > 0", which NaN fails; the
    # check raises, not a later failure such as LinAlgError on NaN entries
    with pytest.raises(ValueError) as info:
        call()
    assert info.type is ValueError
