import itertools
import math

import numpy as np
import pytest
from scipy.stats import norm

from hydrohist import ensemble as en
from hydrohist import phase_space as ps
from hydrohist import propagator as pr
from hydrohist.errors import DimensionCapError, UndefinedFluctuationError

UNIT = pr.QbmParams(M=1.0, gamma=1.0, kT=1.0)


def standard_state():
    return ps.gaussian_wigner(-12, 12, 160, -6, 6, 96, var_q=1.0, var_p=1.0)


def three_bins():
    # center bin captures exactly half the mass of a unit Gaussian
    a = norm.ppf(0.75)
    return en.SmearingWindow([-6.0, -a, a, 6.0])


class TestMeanNumberDensity:
    def test_uniform_state_equal_bins(self):
        q = np.linspace(0, 4, 128)
        samples = np.full(128, 0.25)
        m = ps.Marginal(axis="position", samples=samples, spacing=q[1] - q[0],
                        origin=0.0)
        ens = en.ProductEnsemble(100, m)
        win = en.SmearingWindow([0.0, 1.0, 2.0, 3.0, 4.0])
        out = en.mean_number_density(ens, win)
        assert np.allclose(out.values, 25.0)

    def test_half_mass_bin(self):
        ens = en.ProductEnsemble(100, standard_state())
        out = en.mean_number_density(ens, three_bins())
        assert out.values[1] == pytest.approx(50.0, abs=0.2)

    def test_linearity_in_n(self):
        win = three_bins()
        a = en.mean_number_density(en.ProductEnsemble(10, standard_state()), win)
        b = en.mean_number_density(en.ProductEnsemble(20, standard_state()), win)
        assert np.allclose(2 * a.values, b.values)

    def test_diffusive_update(self):
        # the binned density of a diffusing ensemble obeys dn/dt = D d2n/dx2
        w0 = ps.gaussian_wigner(-60, 60, 481, -6, 6, 64, var_q=0.5, var_p=1.0)
        win = en.SmearingWindow(np.arange(-12, 12.1, 0.75))
        t, dt = 12.0, 0.5
        fields = []
        for s in (t - dt, t, t + dt):
            wt = pr.propagate_analytic(w0, s, UNIT)
            fields.append(
                en.mean_number_density(en.ProductEnsemble(1, wt), win).values
            )
        dn_dt = (fields[2] - fields[0]) / (2 * dt)
        h = win.widths[0]
        lap = (fields[1][2:] - 2 * fields[1][1:-1] + fields[1][:-2]) / h ** 2
        d = pr.diffusion_coefficient(UNIT)
        resid = dn_dt[1:-1] - d * lap
        assert np.max(np.abs(resid)) < 0.02 * np.max(np.abs(dn_dt))


class TestVarianceAndFluctuation:
    def test_binomial_oracle(self):
        # brute-force oracle: enumerate all 2^N in/out outcomes for small N
        n, p = 10, 0.5
        probs = np.array([p, 1 - p])
        var_oracle = 0.0
        mean_oracle = 0.0
        for outcome in itertools.product((0, 1), repeat=n):
            pr_o = np.prod([probs[o] for o in outcome])
            k = outcome.count(0)
            mean_oracle += pr_o * k
            var_oracle += pr_o * k * k
        var_oracle -= mean_oracle ** 2
        assert var_oracle == pytest.approx(n * p * (1 - p))

    def test_half_mass_bin_variance(self):
        ens = en.ProductEnsemble(100, standard_state())
        out = en.number_density_variance(ens, three_bins())
        assert out.variances[1] == pytest.approx(25.0, abs=0.1)

    def test_half_mass_relative_fluctuation(self):
        ens = en.ProductEnsemble(100, standard_state())
        out = en.relative_fluctuation(ens, three_bins())
        assert out.values[1] == pytest.approx(0.01, abs=1e-4)

    def test_single_particle_bernoulli(self):
        ens = en.ProductEnsemble(1, standard_state())
        win = three_bins()
        p = en.bin_probabilities(ens, win)
        out = en.relative_fluctuation(ens, win)
        assert np.allclose(out.values, (1 - p) / p)

    def test_inverse_n_scaling(self):
        w = standard_state()
        win = three_bins()
        sizes = np.array([100, 1000, 10000])
        rel = [en.relative_fluctuation(en.ProductEnsemble(int(n), w), win).values[1]
               for n in sizes]
        slope = np.polyfit(np.log(sizes), np.log(rel), 1)[0]
        assert slope == pytest.approx(-1.0, abs=0.01)

    def test_empty_bin_rejected(self):
        ens = en.ProductEnsemble(10, standard_state())
        win = en.SmearingWindow([20.0, 21.0, 22.0])
        # window outside the state's support
        with pytest.raises(ValueError):
            en.SmearingWindow([1.0, 1.0])
        samples = np.zeros(64)
        samples[:32] = 1.0
        samples /= np.trapezoid(samples, dx=0.1)
        m = ps.Marginal(axis="position", samples=samples, spacing=0.1, origin=0.0)
        ens0 = en.ProductEnsemble(10, m)
        with pytest.raises(UndefinedFluctuationError):
            en.relative_fluctuation(ens0, en.SmearingWindow([5.0, 6.0]))


class TestOccupationDistribution:
    def test_two_particle_enumeration_oracle(self):
        # oracle: the 4 equally likely placements of 2 particles in 2 bins
        ens = en.ProductEnsemble(2, standard_state())
        win = en.SmearingWindow([-12.0, 0.0, 12.0])
        od = en.occupation_distribution(ens, win)
        assert od.exact
        table = {tuple(v): p for v, p in zip(od.vectors, od.probabilities)}
        assert table[(2, 0)] == pytest.approx(0.25, abs=1e-6)
        assert table[(1, 1)] == pytest.approx(0.5, abs=1e-6)
        assert table[(0, 2)] == pytest.approx(0.25, abs=1e-6)

    def test_single_bin_certain(self):
        ens = en.ProductEnsemble(7, standard_state())
        od = en.occupation_distribution(ens, en.SmearingWindow([-12.0, 12.0]))
        assert od.probabilities.sum() == pytest.approx(1.0)
        assert od.vectors.shape[1] == 1
        assert od.mean()[0] == pytest.approx(7.0, abs=1e-6)

    def test_moments_match_closed_form(self):
        ens = en.ProductEnsemble(8, standard_state())
        win = three_bins()
        od = en.occupation_distribution(ens, win)
        mean = en.mean_number_density(ens, win).values
        var = en.number_density_variance(ens, win).variances
        assert np.allclose(od.mean()[: win.n_bins], mean, atol=1e-10)
        # enumerated marginals are binomial only after the elsewhere pad
        p = od.bin_probabilities[: win.n_bins]
        assert np.allclose(od.variance()[: win.n_bins], 8 * p * (1 - p),
                           atol=1e-10)
        assert np.allclose(var, 8 * p * (1 - p), atol=1e-6)

    def test_elsewhere_bin_padded(self):
        ens = en.ProductEnsemble(3, standard_state())
        win = en.SmearingWindow([-1.0, 1.0])  # partial coverage
        od = en.occupation_distribution(ens, win)
        assert od.vectors.shape[1] == 2
        assert od.bin_probabilities.sum() == pytest.approx(1.0)

    @pytest.mark.parametrize("n", [1, 5, 12])
    @pytest.mark.parametrize("k", [2, 4, 6])
    def test_exact_law_matches_closed_form(self, n, k, monkeypatch):
        # oracle: N! / prod n_b! * prod p_b^n_b in Python integers and
        # floats; bin 1 is empty, so a vector that fills it must read 0
        rng = np.random.default_rng(100 * n + k)
        p = rng.uniform(0.1, 1.0, k)
        p[1] = 0.0
        p /= p.sum()
        monkeypatch.setattr(en, "bin_probabilities", lambda ens, window: p)
        od = en.occupation_distribution(
            en.ProductEnsemble(n, standard_state()), three_bins())
        assert od.exact
        pb = od.bin_probabilities
        assert pb.shape == (k,) and pb[1] == 0.0
        assert len(od.vectors) == math.comb(n + k - 1, k - 1)
        for vec, got in zip(od.vectors, od.probabilities):
            coef = math.factorial(n) // math.prod(
                math.factorial(int(nb)) for nb in vec)
            want = coef * math.prod(float(q) ** int(nb)
                                    for q, nb in zip(pb, vec))
            assert got == pytest.approx(want, rel=1e-14, abs=0.0)
        assert abs(od.probabilities.sum() - 1.0) < 1e-12

    def test_cap_requires_sampler(self):
        ens = en.ProductEnsemble(50, standard_state())
        with pytest.raises(DimensionCapError):
            en.occupation_distribution(ens, three_bins())

    def test_sampling_mode_reproducible(self):
        ens = en.ProductEnsemble(50, standard_state())
        win = en.SmearingWindow([-12.0, 0.0, 12.0])
        od1 = en.occupation_distribution(ens, win,
                                         rng=np.random.default_rng(11))
        od2 = en.occupation_distribution(ens, win,
                                         rng=np.random.default_rng(11))
        assert np.array_equal(od1.vectors, od2.vectors)
        assert np.array_equal(od1.probabilities, od2.probabilities)
        assert not od1.exact
        # sampled mean within a few standard errors of N p
        assert od1.mean()[0] == pytest.approx(25.0, abs=0.5)


class TestMomentumDensity:
    def setup_method(self):
        w0 = ps.gaussian_wigner(-60, 60, 481, -6, 6, 96, var_q=0.5, var_p=1.0)
        self.wt = pr.propagate_analytic(w0, 12.0, UNIT)

    def test_antisymmetric_for_symmetric_state(self):
        ens = en.ProductEnsemble(50, self.wt)
        win = en.SmearingWindow(np.arange(-15, 15.1, 0.5))
        g = en.mean_momentum_density(ens, win)
        scale = np.max(np.abs(g.values))
        assert np.max(np.abs(g.values + g.values[::-1])) < 1e-10 * scale

    def test_constitutive_residual_longtime(self):
        ens = en.ProductEnsemble(50, self.wt)
        win = en.SmearingWindow(np.arange(-15, 15.1, 0.5))
        g = en.mean_momentum_density(ens, win)
        res = en.constitutive_residual(ens, win, UNIT)
        scale = np.max(np.abs(g.values / win.widths))
        assert np.max(np.abs(res.values)) / scale < 2e-2

    def test_doubling_n_doubles_g(self):
        win = en.SmearingWindow(np.arange(-15, 15.1, 1.0))
        g1 = en.mean_momentum_density(en.ProductEnsemble(10, self.wt), win)
        g2 = en.mean_momentum_density(en.ProductEnsemble(20, self.wt), win)
        assert np.allclose(2 * g1.values, g2.values)


class TestSerialization:
    def test_csv_round_trip(self, tmp_path):
        ens = en.ProductEnsemble(100, standard_state())
        out = en.number_density_variance(ens, three_bins())
        path = tmp_path / "field.csv"
        en.save_density_field_csv(out, path)
        rows = path.read_text().strip().split("\n")
        assert rows[0] == "bin_center,bin_width,value,variance"
        assert len(rows) == 1 + 3
        vals = [float(r.split(",")[2]) for r in rows[1:]]
        assert np.allclose(vals, out.values)
