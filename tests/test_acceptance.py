"""Acceptance gate: thirteen end-to-end criteria with pinned tolerances.

Each criterion is one test that prints a single pass/fail line through the
capture, so a full run reads as a checklist.  Thresholds for the
scenario-backed criteria come from the scenario schema defaults (single
source of truth); the rest are pinned literally here.
"""

import itertools
import math
import warnings

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.stats import multinomial

from hydrohist import histories as hist
from hydrohist import local_equilibrium as le
from hydrohist import phase_space as ps
from hydrohist import propagator as pr
from hydrohist import scenarios as sc


def announce(capsys, number, name, ok, detail):
    with capsys.disabled():
        verdict = "PASS" if ok else "FAIL"
        print(f"[{verdict}] acceptance {number:2d} — {name}: {detail}")


def run_default(scenario, tmp_path, seed=None, params=None):
    raw = {"schema_version": sc.SCHEMA_VERSION, "scenario": scenario}
    if seed is not None:
        raw["seed"] = seed
    if params:
        raw["params"] = params
    cfg = sc.validate_config(raw)
    return sc.run_scenario(cfg, output_dir=tmp_path)


def metric_map(report):
    return {m.name: m for m in report.metrics}


def test_01_diffusion_constant(capsys, tmp_path):
    report = run_default("diffusion", tmp_path)
    m = metric_map(report)
    ok = report.passed
    announce(capsys, 1, "diffusion constant", ok,
             f"integrator rel err = "
             f"{m['fokker_planck_relative_error'].value:.2e} (< "
             f"{m['fokker_planck_relative_error'].threshold}), kernel rel "
             f"err = {m['analytic_relative_error'].value:.2e} (< "
             f"{m['analytic_relative_error'].threshold})")
    assert ok


def test_02_maxwellization(capsys, tmp_path):
    report = run_default("maxwellization", tmp_path)
    m = metric_map(report)["sup_distance"]
    announce(capsys, 2, "maxwellization", report.passed,
             f"sup distance = {m.value:.2e} (< {m.threshold})")
    assert report.passed


def test_03_oracle_equivalence(capsys, tmp_path):
    report = run_default("oracle-compare", tmp_path)
    m = metric_map(report)
    announce(capsys, 3, "oracle equivalence", report.passed,
             f"L1 kernel-vs-integrator = "
             f"{m['l1_kernel_vs_integrator'].value:.2e}, "
             f"L1 master-vs-integrator = "
             f"{m['l1_master_vs_integrator'].value:.2e} (both < 1e-2)")
    assert report.passed


def test_04_constitutive_relation(capsys):
    params = pr.QbmParams(1.0, 1.0, 1.0)
    w0 = ps.gaussian_wigner(-60, 60, 481, -6, 6, 97, var_q=1.0, var_p=1.0)
    wt = pr.propagate_analytic(w0, 12.0, params)
    res = pr.constitutive_check(wt, params)
    ok = res.relative_sup < 2e-2
    announce(capsys, 4, "constitutive relation", ok,
             f"relative sup residual = {res.relative_sup:.2e} (< 2e-2)")
    assert ok


def test_05_central_limit_peaking(capsys, tmp_path):
    report = run_default("variance-scaling", tmp_path)
    m = metric_map(report)
    announce(capsys, 5, "central-limit peaking", report.passed,
             f"closed-form deviation = "
             f"{m['closed_form_deviation'].value:.2e} (< 1e-12), slope "
             f"deviation = {m['slope_deviation'].value:.2e} (< 0.01)")
    assert report.passed


def test_06_quantum_classical_equivalence(capsys):
    rng = np.random.default_rng(2)
    worst = 0.0
    for b, n in ((2, 8), (3, 4), (4, 3)):
        amp = rng.standard_normal(b) + 1j * rng.standard_normal(b)
        amp /= np.linalg.norm(amp)
        space = hist.ToyHilbert(B=b, N=n)
        rho = hist.to_density(hist.product_state(space, amp)).matrix
        probs = np.abs(amp) ** 2
        for nbar, mask in hist.occupation_family(space):
            got = float(np.real(np.sum(np.diagonal(rho)[mask])))
            want = multinomial.pmf(nbar, n=n, p=probs)
            worst = max(worst, abs(got - want))
    ok = worst < 1e-10
    announce(capsys, 6, "quantum/classical equivalence", ok,
             f"max |exact - multinomial| = {worst:.2e} (< 1e-10) over "
             "(B,N) in {(2,8),(3,4),(4,3)}")
    assert ok


def test_07_decoherence_bound(capsys):
    rng = np.random.default_rng(12)
    worst = -np.inf
    n_configs = 0
    for trial in range(100):
        b = int(rng.integers(2, 4))
        n = int(rng.integers(1, 4))
        space = hist.ToyHilbert(B=b, N=n)
        dim = space.dim
        h1 = rng.standard_normal((dim, dim)) \
            + 1j * rng.standard_normal((dim, dim))
        ham = 0.5 * (h1 + h1.conj().T)
        if rng.random() < 0.5:
            amp = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            state = hist.StateVector(space, amp / np.linalg.norm(amp))
        else:
            a = rng.standard_normal((dim, dim)) \
                + 1j * rng.standard_normal((dim, dim))
            m = a @ a.conj().T
            state = hist.DensityOperator(space, m / np.real(np.trace(m)))
        fam = hist.occupation_family(space)
        times = tuple(np.sort(rng.uniform(0.1, 2.0, size=2)))
        spec = hist.HistorySpec(space, times, ([fam], [fam]), ham)
        dmat = hist.decoherence_functional(state, spec)
        report = hist.check_dh_bound(dmat)
        worst = max(worst, report.worst_excess)
        n_configs += 1
        assert report.ok
    ok = n_configs >= 100 and worst <= 1e-10
    announce(capsys, 7, "decoherence bound", ok,
             f"|D|^2 - p p' <= {worst:.2e} (slack 1e-10) over "
             f"{n_configs} randomized two-time configs")
    assert ok


def test_08_exact_conservation_decoherence(capsys, tmp_path):
    report = run_default("conserved-decoherence", tmp_path)
    m = metric_map(report)["max_offdiagonal"]
    announce(capsys, 8, "exact-conservation decoherence", report.passed,
             f"max off-diagonal |D| = {m.value:.2e} (< 1e-12) for 2- and "
             "3-time histories")
    assert report.passed


def test_09_nscaling_of_decoherence(capsys, tmp_path):
    report = run_default("histories-nscaling", tmp_path)
    m = metric_map(report)
    announce(capsys, 9, "N-scaling of decoherence", report.passed,
             f"fitted ratio r = {m['geometric_ratio'].value:.3f} (< 1), "
             f"eps(8)/eps(1) = {m['epsilon8_over_epsilon1'].value:.3f} "
             "(< 0.1)")
    assert report.passed


def test_10_ehrenfest_single_time(capsys, tmp_path):
    report = run_default("ehrenfest", tmp_path, seed=17)
    m = metric_map(report)
    announce(capsys, 10, "single-time smeared statistics", report.passed,
             f"max relative error = {m['max_relative_error'].value:.2e} "
             f"(< 0.02), argmax deviation = "
             f"{m['argmax_deviation_in_sigma'].value:.2e} sigma (< 0.1) "
             "over 20 random instances")
    assert report.passed


def test_11_ehrenfest_multi_time(capsys):
    rng = np.random.default_rng(5)

    def random_hermitian(dim):
        a = rng.standard_normal((dim, dim)) \
            + 1j * rng.standard_normal((dim, dim))
        return 0.5 * (a + a.conj().T)

    a = random_hermitian(8)
    h = random_hermitian(8)
    v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    v /= np.linalg.norm(v)
    rho = hist.DensityOperator(hist.ToyHilbert(8, 1), np.outer(v, v.conj()))
    times = (0.3, 0.7, 1.1)
    means, spreads = [], []
    for t in times:
        u = expm(-1j * h * t)
        at = u.conj().T @ a @ u
        mu = float(np.real(v.conj() @ at @ v))
        means.append(mu)
        spreads.append(math.sqrt(
            float(np.real(v.conj() @ at @ at @ v)) - mu ** 2))
    sigma = 10 * max(spreads)
    peak, _, _ = hist.argmax_scan(rho, a, times, sigma, h)
    dev = max(abs(p - mu) for p, mu in zip(peak, means))
    peak_ok = dev <= sigma / 10 + 1e-9
    p, p_bar, off = hist.complement_pair_consistency(rho, a, times,
                                                     5 * sigma, h)
    pair_ok = p > 0.99 and p_bar < 0.01 and abs(off) ** 2 <= p * p_bar + 1e-10
    ok = peak_ok and pair_ok
    announce(capsys, 11, "multi-time smeared statistics", ok,
             f"argmax within {dev / sigma:.3f} sigma of the mean "
             f"trajectory (<= 0.1); tube p = {p:.4f} (> 0.99), complement "
             f"p_bar = {p_bar:.2e} (< 0.01), |D|^2 <= p p_bar")
    assert ok


def test_12_local_equilibrium_peaking(capsys, tmp_path):
    report = run_default("local-equilibrium-peaking", tmp_path)
    m = metric_map(report)
    announce(capsys, 12, "local-equilibrium peaking", report.passed,
             f"epsilon = {m['epsilon'].value:.3f} (< 0.05), on-trajectory "
             f"fraction = {m['on_trajectory_fraction'].value:.3f} (>= 0.9) "
             "for N=6, B=3")
    assert report.passed


def test_13_continuity_refinement(capsys):
    def residuals(fac):
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
        res_n, _, _ = le.continuity_residual(times, fields)
        return float(np.max(np.abs(res_n)))

    coarse = residuals(2)
    fine = residuals(4)
    ratio = coarse / fine
    ok = ratio >= 3.5
    announce(capsys, 13, "continuity refinement", ok,
             f"number-density residual drops {ratio:.2f}x under grid/time "
             "halving (>= 3.5x)")
    assert ok
