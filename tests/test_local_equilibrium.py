import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.stats import multinomial

from hydrohist import histories as hist
from hydrohist import local_equilibrium as le
from hydrohist.errors import DimensionCapError, ResolutionError


def flat_profile(nq=64, kt=1.0, u=0.0, q_lo=-8.0, q_hi=8.0):
    q = np.linspace(q_lo, q_hi, nq)
    return le.LocalEquilibriumProfile(q, np.exp(-q ** 2 / 8),
                                      np.full(nq, u), np.full(nq, kt))


class TestProfile:
    def test_validation(self):
        q = np.linspace(0, 1, 16)
        ones = np.ones(16)
        with pytest.raises(ValueError):
            le.LocalEquilibriumProfile(q, ones, ones, -ones)
        with pytest.raises(ValueError):
            le.LocalEquilibriumProfile(q, -ones, ones, ones)
        with pytest.raises(ValueError):
            le.LocalEquilibriumProfile(q[::-1], ones, ones, ones)
        with pytest.raises(ValueError):
            le.LocalEquilibriumProfile(q[:4], ones[:4], ones[:4], ones[:4])
        with pytest.raises(ValueError):
            le.LocalEquilibriumProfile(q, ones, ones, ones, mass=0.0)

    def test_fast_variation_warns(self):
        q = np.linspace(0, 1, 16)
        f = np.ones(16)
        f[8:] = 2.0
        with pytest.warns(UserWarning, match="slowly-varying"):
            le.LocalEquilibriumProfile(q, f, 0 * q, np.ones(16))


class TestBuildW1:
    def test_unit_mass(self):
        w = le.build_w1(flat_profile(), -8, 8, 129)
        assert w.integral() == pytest.approx(1.0, abs=1e-12)

    def test_momentum_moments_constant_profile(self):
        # columns are Gaussians: mean m u, variance m kT
        m, u0, kt = 2.0, 0.3, 1.5
        q = np.linspace(-8, 8, 64)
        pf = le.LocalEquilibriumProfile(q, np.exp(-q ** 2 / 8),
                                        np.full(64, u0), np.full(64, kt),
                                        mass=m)
        w = le.build_w1(pf, -12, 12, 385)
        col = w.values[32]
        mass0 = np.trapezoid(col, w.p)
        mean = np.trapezoid(col * w.p, w.p) / mass0
        var = np.trapezoid(col * (w.p - mean) ** 2, w.p) / mass0
        assert mean == pytest.approx(m * u0, abs=1e-8)
        assert var == pytest.approx(m * kt, rel=1e-6)

    def test_two_temperature_step(self):
        # per-bin momentum variance tracks the local temperature
        q = np.linspace(-8, 8, 64)
        kt = np.where(q < 0, 1.0, 1.18)
        pf = le.LocalEquilibriumProfile(q, np.exp(-q ** 2 / 8), 0 * q, kt)
        w = le.build_w1(pf, -9, 9, 385)
        for i in (10, 50):
            col = w.values[i]
            mass0 = np.trapezoid(col, w.p)
            var = np.trapezoid(col * w.p ** 2, w.p) / mass0
            assert var == pytest.approx(kt[i], rel=1e-6)

    def test_narrow_momentum_extent_rejected(self):
        with pytest.raises(ResolutionError):
            le.build_w1(flat_profile(kt=4.0), -3, 3, 64)


class TestGibbs:
    def test_canonical_at_constant_profiles(self):
        beta = np.full(3, 1.7)
        rho = le.one_particle_gibbs(beta, np.zeros(3), np.zeros(3))
        p = hist.one_particle_momentum(rho.space)
        kin = p @ p / 2.0
        want = expm(-1.7 * kin)
        want /= np.real(np.trace(want))
        assert np.max(np.abs(rho.matrix - want)) < 1e-12

    def test_large_beta_ground_state(self):
        rho = le.one_particle_gibbs(np.full(3, 60.0), np.zeros(3), np.zeros(3))
        v0 = np.full(3, 1.0 / np.sqrt(3.0))
        assert np.real(v0 @ rho.matrix @ v0) == pytest.approx(1.0, abs=1e-10)

    def test_state_properties(self):
        rho = le.one_particle_gibbs([2.0, 3.0, 2.5], [1.0, 0.0, -0.5],
                                    [0.1, 0.0, -0.1])
        m = rho.matrix
        assert np.real(np.trace(m)) == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(m - m.conj().T)) < 1e-12
        assert np.min(np.linalg.eigvalsh(m)) > -1e-14

    def test_drift_biases_momentum(self):
        p = hist.one_particle_momentum(hist.ToyHilbert(3, 1))
        still = le.one_particle_gibbs(np.full(3, 2.0), np.zeros(3), np.zeros(3))
        drift = le.one_particle_gibbs(np.full(3, 2.0), np.zeros(3),
                                      np.full(3, 0.4))
        assert abs(np.trace(still.matrix @ p)) < 1e-12
        assert np.real(np.trace(drift.matrix @ p)) > 0.05

    def test_chemical_potential_concentrates(self):
        lo = le.one_particle_gibbs(np.full(3, 3.0), [1.0, 0.0, 0.0], np.zeros(3))
        hi = le.one_particle_gibbs(np.full(3, 3.0), [4.0, 0.0, 0.0], np.zeros(3))
        assert np.real(hi.matrix[0, 0]) > np.real(lo.matrix[0, 0]) > 1.0 / 3.0

    def test_validation(self):
        with pytest.raises(ValueError):
            le.one_particle_gibbs([1.0, -1.0], [0.0, 0.0], [0.0, 0.0])
        with pytest.raises(ValueError):
            le.one_particle_gibbs([1.0, 1.0], [0.0], [0.0, 0.0])


class TestTensorPower:
    def test_occupations_follow_multinomial(self):
        rho1 = le.one_particle_gibbs(np.full(3, 2.0), [1.0, 0.3, 0.0],
                                     np.zeros(3))
        rho = le.gibbs_tensor_power(rho1, 4)
        p = np.real(np.diag(rho1.matrix))
        for nbar, mask in hist.occupation_family(rho.space):
            got = np.real(np.sum(np.diagonal(rho.matrix)[mask]))
            want = multinomial.pmf(nbar, n=4, p=p)
            assert got == pytest.approx(want, abs=1e-12)

    def test_trace_and_dimension(self):
        rho1 = le.one_particle_gibbs(np.full(2, 1.0), np.zeros(2), np.zeros(2))
        rho = le.gibbs_tensor_power(rho1, 5)
        assert rho.matrix.shape == (32, 32)
        assert np.real(np.trace(rho.matrix)) == pytest.approx(1.0, abs=1e-12)


class TestHydroAverages:
    def test_totals(self):
        w = le.build_w1(flat_profile(), -8, 8, 129)
        fields = le.hydro_averages(w, 30, np.linspace(-8, 8, 17))
        assert fields.n.sum() == pytest.approx(30.0, abs=1e-9)
        assert np.all(fields.n >= 0)
        # u = 0: no mean momentum, equipartition of the thermal energy
        assert np.max(np.abs(fields.g)) < 1e-12
        assert np.max(np.abs(fields.energy_flux)) < 1e-12
        assert fields.h.sum() == pytest.approx(30.0 * 0.5, rel=1e-6)

    def test_drifting_state_carries_current(self):
        w = le.build_w1(flat_profile(u=0.4), -9, 9, 257)
        fields = le.hydro_averages(w, 10, np.linspace(-8, 8, 9))
        assert fields.g.sum() == pytest.approx(10 * 0.4, rel=1e-6)

    def test_bad_edges_rejected(self):
        w = le.build_w1(flat_profile(), -8, 8, 129)
        with pytest.raises(ValueError):
            le.hydro_averages(w, 10, [0.0, 0.0, 1.0])


class TestEvolveFree:
    def test_mass_conserved(self):
        w = le.build_w1(flat_profile(nq=128, q_lo=-16, q_hi=16), -8, 8, 129)
        wt = le.evolve_free(w, 1.3)
        assert wt.integral() == pytest.approx(w.integral(), abs=1e-6)

    def test_reversible(self):
        w = le.build_w1(flat_profile(nq=128, q_lo=-16, q_hi=16), -8, 8, 97)
        back = le.evolve_free(le.evolve_free(w, 0.8), -0.8)
        assert np.max(np.abs(back.values - w.values)) < 1e-10

    def test_drift_moves_mean_position(self):
        w = le.build_w1(flat_profile(nq=256, u=0.5, q_lo=-16, q_hi=16),
                        -9, 9, 129)
        t = 2.0
        wt = le.evolve_free(w, t)
        for grid, want in ((w, 0.0), (wt, 0.5 * t)):
            dens = np.trapezoid(grid.values, dx=grid.dp, axis=1)
            mean = np.trapezoid(dens * grid.q, dx=grid.dq)
            assert mean == pytest.approx(want, abs=1e-4)

    @pytest.mark.parametrize("n_q", [128, 129])
    def test_matches_complex_fft_shift(self, n_q):
        # the real-FFT shift is the complex one, Nyquist bin included
        w = le.build_w1(flat_profile(nq=n_q, u=0.3, q_lo=-16, q_hi=16),
                        -8, 8, 65)
        t = 1.3
        k = 2.0 * np.pi * np.fft.fftfreq(w.n_q, d=w.dq)
        shift = np.exp(-1j * k[:, None] * (w.p[None, :] * t))
        want = np.real(np.fft.ifft(np.fft.fft(w.values, axis=0) * shift,
                                   axis=0))
        got = le.evolve_free(w, t).values
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_excessive_shear_rejected(self):
        w = le.build_w1(flat_profile(), -8, 8, 65)
        with pytest.raises(ResolutionError):
            le.evolve_free(w, 10.0)


class TestContinuity:
    @staticmethod
    def run(fac):
        nq = 160 * fac + 1
        npp = 48 * fac + 1
        width = 1.0 / fac
        dt = 0.02 / fac
        q = np.linspace(-16, 16, nq)
        pf = le.LocalEquilibriumProfile(q, np.exp(-q ** 2 / 8), 0 * q,
                                        np.ones(nq))
        w = le.build_w1(pf, -8, 8, npp)
        edges = np.arange(-6, 6 + width / 2, width)
        times = [0.5 - dt, 0.5, 0.5 + dt]
        fields = [le.hydro_averages(le.evolve_free(w, t), 1, edges)
                  for t in times]
        res = le.continuity_residual(times, fields)
        return fields, [np.max(np.abs(r)) for r in res]

    def test_uniform_state_zero_residuals(self):
        n_q, n_p = 64, 97
        vals = np.ones((n_q, n_p)) * np.exp(
            -np.linspace(-6, 6, n_p)[None, :] ** 2 / 2)
        from hydrohist.phase_space import WignerGrid, normalize
        w = normalize(WignerGrid(-8, 8, n_q, -6, 6, n_p, vals))
        times = [0.0, 0.1, 0.2]
        fields = [le.hydro_averages(le.evolve_free(w, t), 5,
                                    np.linspace(-4, 4, 9)) for t in times]
        for r in le.continuity_residual(times, fields):
            assert np.max(np.abs(r)) < 1e-12

    def test_total_number_constant(self):
        # bins covering the whole (periodic) domain hold the full mass
        q = np.linspace(-16, 16, 321)
        pf = le.LocalEquilibriumProfile(q, np.exp(-q ** 2 / 8), 0 * q,
                                        np.ones(321))
        w = le.build_w1(pf, -8, 8, 97)
        edges = np.linspace(-16, 16, 33)
        totals = [le.hydro_averages(le.evolve_free(w, t), 1, edges).n.sum()
                  for t in (0.0, 0.5, 1.0)]
        assert np.max(np.abs(np.diff(totals))) < 1e-9

    def test_second_order_refinement(self):
        _, coarse = self.run(2)
        _, fine = self.run(4)
        assert coarse[0] / fine[0] > 3.5  # number density
        assert coarse[1] / fine[1] > 3.2
        assert coarse[2] / fine[2] > 3.2

    def test_validation(self):
        fields, _ = self.run(1)
        with pytest.raises(ValueError):
            le.continuity_residual([0.0, 0.1], fields[:2])
        with pytest.raises(ValueError):
            le.continuity_residual([0.0, 0.1, 0.35], fields)


class TestPeaking:
    BETA = np.full(3, 3.0)
    MUBAR = np.array([4.0, 0.0, 0.0])
    U = np.zeros(3)

    def test_concentrates_with_environment(self):
        rep = le.local_equilibrium_peaking(self.BETA, self.MUBAR, self.U, 6,
                                           (0.0, 0.1), dephasing_rate=60.0)
        assert rep.epsilon < 0.05
        assert rep.on_trajectory_fraction >= 0.9

    def test_unitary_evolution_does_not_decohere(self):
        rep = le.local_equilibrium_peaking(self.BETA, self.MUBAR, self.U, 4,
                                           (0.0, 0.1))
        assert rep.epsilon > 0.5

    def test_single_particle_is_broad(self):
        # occupation fraction n0/N spreads as p(1-p)/N: N=1 is many times
        # broader than N=6
        spread = {}
        for n in (1, 6):
            rep = le.local_equilibrium_peaking(self.BETA, self.MUBAR, self.U,
                                               n, (0.0, 0.1),
                                               dephasing_rate=60.0)
            probs = np.array(list(rep.probabilities.values()))
            frac = np.array([lab[1][0] / n for lab in rep.probabilities])
            probs = probs / probs.sum()
            m = probs @ frac
            spread[n] = probs @ (frac - m) ** 2
        assert spread[1] > 4.0 * spread[6]

    def test_default_scenario_values(self):
        # the values the dense engine gave at one BLAS thread, to 1e-12
        rep = le.local_equilibrium_peaking(self.BETA, self.MUBAR, self.U, 6,
                                           (0.0, 0.1), dephasing_rate=60.0)
        assert rep.epsilon == pytest.approx(0.008586297398027042, rel=1e-12)
        assert rep.on_trajectory_fraction == pytest.approx(
            0.9099306360140949, abs=1e-12)

    def test_never_builds_the_n_particle_space(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("dense N-particle path used")

        toy_hilbert = hist.ToyHilbert

        def one_particle_only(B, N):
            assert N == 1, "N-particle space built"
            return toy_hilbert(B, N)

        for module, name in ((le, "gibbs_tensor_power"),
                             (hist, "lift_one_body"),
                             (hist, "occupation_family"),
                             (hist, "HistorySpec"),
                             (hist, "decoherence_functional")):
            monkeypatch.setattr(module, name, forbidden)
        # the functional's blocks are read, never the dense matrix
        monkeypatch.setattr(hist.DecoherenceMatrix, "matrix",
                            property(forbidden))
        monkeypatch.setattr(hist, "ToyHilbert", one_particle_only)
        rep = le.local_equilibrium_peaking(self.BETA, self.MUBAR, self.U, 6,
                                           (0.0, 0.1), dephasing_rate=60.0)
        assert len(rep.probabilities) == 28 ** 2

    @pytest.mark.parametrize("rate", [0.0, 60.0])
    @pytest.mark.parametrize("times", [(0.0, 0.1), (0.3, 0.5)])
    def test_trajectory_is_the_engines_final_mean(self, rate, times):
        # N <n2> from the report equals sum_n2 n2 sum_{n1, n1'} Re D((n1, n2),
        # (n1', n2)): the t2 marginal of the functional, interference included
        n = 6
        rep = le.local_equilibrium_peaking(self.BETA, self.MUBAR, self.U, n,
                                           times, dephasing_rate=rate)
        rho1 = le.one_particle_gibbs(self.BETA, self.MUBAR, self.U)
        p1 = hist.one_particle_momentum(rho1.space)
        d = hist.product_occupation_functional(rho1, p1 @ p1 / 2.0, n, times,
                                               rate).decoherence
        final = np.array([lab[1] for lab in d.labels])
        same_final = np.all(final[:, None] == final[None, :], axis=2)
        weight = np.real(d.matrix * same_final).sum(axis=1)
        assert np.max(np.abs(weight @ final - rep.mean_trajectory[1])) < 1e-12

    def test_large_n_without_the_dense_matrix(self):
        # at N = 10 the dense D is 4356^2 complex entries (304 MB); the
        # blocks it is read from are 66^3 (4.6 MB)
        tracemalloc.start()
        try:
            rep = le.local_equilibrium_peaking(self.BETA, self.MUBAR, self.U,
                                               10, (0.0, 0.1),
                                               dephasing_rate=60.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(rep.probabilities) == 66 ** 2
        assert peak < 64 * 2 ** 20

    def test_table_cap_kept(self):
        # 8 bins and N = 6: C(13, 7)^3 = 1716^3 complex entries, 81 GB
        with pytest.raises(DimensionCapError):
            le.local_equilibrium_peaking(np.full(8, 3.0),
                                         np.array([4.0] + [0.0] * 7),
                                         np.zeros(8), 6, (0.0, 0.1),
                                         dephasing_rate=60.0)

    def test_sharp_state_single_history(self):
        rep = le.local_equilibrium_peaking(np.full(3, 8.0),
                                           np.array([16.0, 0.0, 0.0]), self.U,
                                           5, (0.0, 0.05),
                                           dephasing_rate=80.0)
        top = max(rep.probabilities.values())
        assert top / sum(rep.probabilities.values()) > 0.9


class TestSerialization:
    def test_csv_layout(self, tmp_path):
        w = le.build_w1(flat_profile(nq=128, q_lo=-16, q_hi=16), -8, 8, 97)
        times = [0.0, 0.1, 0.2]
        fields = [le.hydro_averages(le.evolve_free(w, t), 3,
                                    np.linspace(-6, 6, 7)) for t in times]
        res = le.continuity_residual(times, fields)
        path = tmp_path / "series.csv"
        le.save_hydro_series_csv(times, fields, res, path)
        rows = path.read_text().strip().split("\n")
        assert rows[0] == "t,bin,n,g,h,residual_n,residual_g,residual_h"
        assert len(rows) == 1 + 3 * 6
        first = rows[1].split(",")
        assert first[5] == ""  # boundary rows carry no residual
        interior = rows[1 + 6 + 1].split(",")
        assert interior[5] != ""
        assert float(interior[2]) == pytest.approx(fields[1].n[1])
