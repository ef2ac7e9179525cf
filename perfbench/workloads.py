"""Seeded inputs and checked tasks for the three benchmark workloads.

A workload is a fixed list of tasks run one after another by one client (a
closed loop).  ``make_inputs(workload, seed)`` draws every input from the
seed; the seed moves only quantities that leave step counts, grid sizes,
Hilbert dimensions and label counts unchanged, so the per-layer work counts
repeat exactly across seeds.  ``build_tasks`` turns the inputs into tasks,
writing and validating the scenario configs on the way (part of set-up).

Every task returns ``(ok, detail)``: ``ok`` is the verdict of an output
check that reuses an oracle the library already has (a scenario's pinned
thresholds, the decoherence-functional bound, the pure-path route, or a
closed form).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import hydrohist.cli as cli
import hydrohist.ensemble as en
import hydrohist.histories as hist
import hydrohist.local_equilibrium as le
import hydrohist.phase_space as ps
import hydrohist.propagator as pr
import hydrohist.scenarios as sc

WORKLOADS = ("transport", "hydro-peaking", "histories-dense")


@dataclass
class Task:
    name: str
    run: Callable[[], tuple]
    scenario: str = None
    #: decoherence-functional route this task drives (see tracer.DH_PATHS),
    #: or a function of the state passed in; set from the inputs the task
    #: built, never from library internals
    dh_path: object = None
    #: artifact directory of a scenario task, measured after each run
    out_dir: Path = field(default=None, repr=False)


def _uniform(rng, lo, hi):
    return round(float(rng.uniform(lo, hi)), 6)


def _unit_amplitudes(rng, n):
    a = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    a /= np.linalg.norm(a)
    return [[float(z.real), float(z.imag)] for z in a]


def make_inputs(workload: str, seed: int) -> dict:
    """All inputs of one workload, drawn from ``seed`` (JSON-serializable)."""
    rng = np.random.default_rng([seed % 2 ** 64, WORKLOADS.index(workload)])
    if workload == "transport":
        return {
            # diffusion and oracle-compare have no input that keeps the
            # step count fixed, so they run their defaults
            "diffusion": {},
            "maxwellization": {"var_p0": _uniform(rng, 0.15, 0.45)},
            "oracle-compare": {},
            "variance-scaling": {"var_q": _uniform(rng, 0.5, 2.0),
                                 "var_p": _uniform(rng, 0.5, 2.0)},
            "ensemble": {"mean_q": _uniform(rng, -2.0, 2.0),
                         "mean_p": _uniform(rng, -0.5, 0.5),
                         "var_q": _uniform(rng, 0.5, 1.5),
                         "var_p": _uniform(rng, 0.5, 1.5),
                         "t": _uniform(rng, 9.0, 12.0),
                         "half_width": _uniform(rng, 2.0, 4.0)},
        }
    if workload == "hydro-peaking":
        return {
            "peaking-dephased": {"beta": _uniform(rng, 2.5, 3.5),
                                 "mubar0": _uniform(rng, 4.3, 5.5),
                                 "dephasing_rate": _uniform(rng, 55.0, 80.0)},
            # beta and mubar set the rank the mixed-fast path keeps, so
            # only the second history time moves here
            "peaking-undephased": {"t2": _uniform(rng, 0.08, 0.12)},
            "continuity": {"width": _uniform(rng, 1.8, 2.2),
                           "t_mid": _uniform(rng, 0.4, 0.6)},
        }
    if workload == "histories-dense":
        t1 = _uniform(rng, 0.2, 0.6)
        c1 = _uniform(rng, 0.2, 0.6)
        return {
            "histories-nscaling": {"overlap": _uniform(rng, 0.65, 0.8),
                                   "sigma": _uniform(rng, 0.7, 1.0)},
            "conserved-decoherence": {
                "times2": sorted(_uniform(rng, 0.1, 2.0) for _ in range(2)),
                "times3": [c1, round(c1 + _uniform(rng, 0.3, 0.7), 6),
                           round(c1 + _uniform(rng, 0.9, 1.5), 6)]},
            "ehrenfest": {"seed": int(rng.integers(0, 2 ** 32)),
                          "sigma_factor": _uniform(rng, 9.0, 12.0)},
            "mixed-dense": {"psi": _unit_amplitudes(rng, 2),
                            "chi": _unit_amplitudes(rng, 2),
                            "sigma": _uniform(rng, 0.8, 1.2),
                            "times": [t1, round(t1 + _uniform(rng, 0.5, 1.0),
                                                6)]},
            "branch-pair": {"psi": _unit_amplitudes(rng, 2),
                            "chi": _unit_amplitudes(rng, 2),
                            "dephasing_rate": _uniform(rng, 0.5, 3.0),
                            "times": [t1, round(t1 + _uniform(rng, 0.5, 1.0),
                                                6)]},
        }
    raise ValueError(f"unknown workload {workload!r}")


# --- scenario tasks -----------------------------------------------------------


def _scenario_task(name, workdir: Path, params=None, seed=None,
                   dh_path=None) -> Task:
    """Write the config, validate it now (set-up), run it through ``cli.main``."""
    raw = {"schema_version": sc.SCHEMA_VERSION, "scenario": name}
    if params:
        raw["params"] = params
    if seed is not None:
        raw["seed"] = seed
    cfg = workdir / f"{name}.json"
    cfg.write_text(json.dumps(raw))
    sc.load_config(cfg)
    out = workdir / f"{name}-out"
    report_path = out / f"{name}-report.json"

    def run():
        rc = cli.main(["run", str(cfg), "--out", str(out), "--quiet"])
        report = json.loads(report_path.read_text())
        failed = [m["name"] for m in report["metrics"] if not m["passed"]]
        ok = rc == 0 and report["passed"] is True
        return ok, f"exit {rc}, failed metrics {failed}"

    return Task(name, run, scenario=name, dh_path=dh_path, out_dir=out)


# --- transport ---------------------------------------------------------------


def _ensemble_task(inp) -> Task:
    """Ensemble statistics of an exactly evolved (late-time) state."""
    params = pr.QbmParams(1.0, 1.0, 1.0)
    a = inp["half_width"]

    def run():
        w0 = ps.gaussian_wigner(-60.0, 60.0, 481, -6.0, 6.0, 97,
                                mean_q=inp["mean_q"], mean_p=inp["mean_p"],
                                var_q=inp["var_q"], var_p=inp["var_p"])
        wt = pr.propagate_analytic(w0, inp["t"], params)
        problems = []

        # closed form Var n_b / <n_b>^2 = (1 - p_b) / (N p_b), top-hat bins
        window = en.SmearingWindow([-60.0, -a, 0.0, a, 60.0])
        n = 1000
        ens = en.ProductEnsemble(n, wt)
        p = en.bin_probabilities(ens, window)
        got = en.relative_fluctuation(ens, window).values
        dev = float(np.max(np.abs(got - (1.0 - p) / (n * p))))
        if not dev < 1e-12:
            problems.append(f"relative fluctuation off closed form by {dev:.2e}")

        # exact occupation law: normalized, mean N p_b per bin
        small = en.ProductEnsemble(10, wt)
        occ = en.occupation_distribution(small, en.SmearingWindow(
            [-3.0 * a, -a, a, 3.0 * a]))
        total = float(occ.probabilities.sum())
        mean_dev = float(np.max(np.abs(occ.mean() - 10 * occ.bin_probabilities)))
        if not (abs(total - 1.0) < 1e-10 and mean_dev < 1e-9):
            problems.append(f"occupation law sums to {total!r}, "
                            f"mean off by {mean_dev:.2e}")

        # constitutive relation, pinned 2e-2 relative sup (acceptance 4)
        rel = pr.constitutive_check(wt, params).relative_sup
        if not rel < 2e-2:
            problems.append(f"constitutive relative sup {rel:.2e}")
        res = en.constitutive_residual(ens, en.SmearingWindow(
            np.linspace(-20.0, 20.0, 21)), params).values
        if not np.all(np.isfinite(res)):
            problems.append("constitutive residual is not finite")
        return not problems, "; ".join(problems) or "ok"

    return Task("ensemble-statistics", run)


def _transport_tasks(inputs, workdir):
    return [
        _scenario_task("diffusion", workdir),
        _scenario_task("maxwellization", workdir, inputs["maxwellization"]),
        _scenario_task("oracle-compare", workdir),
        _scenario_task("variance-scaling", workdir,
                       inputs["variance-scaling"]),
        _ensemble_task(inputs["ensemble"]),
    ]


# --- hydro-peaking -----------------------------------------------------------


def _peaking_params(inp, dephasing_rate):
    return {"beta": inp["beta"], "mubar": [inp["mubar0"], 0.0, 0.0],
            "dephasing_rate": dephasing_rate}


def _undephased_peaking_task(inp) -> Task:
    """Peaking without an environment; the thresholds need dephasing, so the
    check is the exact normalization of the occupation-history probabilities."""

    def run():
        rep = le.local_equilibrium_peaking(
            np.full(3, 3.0), np.array([4.0, 0.0, 0.0]), np.zeros(3), 6,
            (0.0, inp["t2"]), dephasing_rate=0.0)
        total = sum(rep.probabilities.values())
        means = [sum(m) for m in rep.mean_trajectory]
        ok = (abs(total - 1.0) < 1e-10
              and all(abs(m - 6.0) < 1e-9 for m in means)
              and 0.0 <= rep.on_trajectory_fraction <= 1.0 + 1e-12)
        return ok, f"probabilities sum to {total!r}, mean occupations {means}"

    return Task("peaking-undephased", run, dh_path="mixed-fast")


def _continuity_task(inp) -> Task:
    """Acceptance 13: the continuity residual drops >= 3.5x under halving."""

    def residual(fac):
        nq = 160 * fac + 1
        width = 1.0 / fac
        dt = 0.02 / fac
        q = np.linspace(-16.0, 16.0, nq)
        profile = le.LocalEquilibriumProfile(
            q, np.exp(-q ** 2 / (2.0 * inp["width"] ** 2)), 0 * q,
            np.ones(nq))
        w = le.build_w1(profile, -8.0, 8.0, 48 * fac + 1)
        edges = np.arange(-6.0, 6.0 + width / 2, width)
        times = [inp["t_mid"] - dt, inp["t_mid"], inp["t_mid"] + dt]
        fields = [le.hydro_averages(le.evolve_free(w, t), 1, edges)
                  for t in times]
        res_n, _, _ = le.continuity_residual(times, fields)
        return float(np.max(np.abs(res_n)))

    def run():
        ratio = residual(2) / residual(4)
        return ratio >= 3.5, f"refinement ratio {ratio:.3f} (>= 3.5)"

    return Task("continuity-refinement", run)


def _hydro_peaking_tasks(inputs, workdir):
    deph = inputs["peaking-dephased"]
    return [
        _scenario_task("local-equilibrium-peaking", workdir,
                       _peaking_params(deph, deph["dephasing_rate"]),
                       dh_path="diagonal-dephased"),
        _undephased_peaking_task(inputs["peaking-undephased"]),
        _continuity_task(inputs["continuity"]),
    ]


# --- histories-dense ---------------------------------------------------------


def _amplitudes(pairs):
    return np.array([complex(re, im) for re, im in pairs])


def _two_particle_setup(inp, n):
    """B=2 toy space with a kinetic Hamiltonian and a branch superposition."""
    space = hist.ToyHilbert(B=2, N=n)
    p1 = hist.one_particle_momentum(hist.ToyHilbert(B=2, N=1))
    ham = hist.lift_one_body(space, p1 @ p1 / 2.0)
    state = hist.superposition_state(space, _amplitudes(inp["psi"]),
                                     _amplitudes(inp["chi"]))
    return space, ham, state


def _mixed_dense_task(inp) -> Task:
    """Gaussian-smeared two-time occupation histories of a mixed state
    (B=2, N=8, 9 smeared labels per time), checked against the pure path."""

    def run():
        space, ham, state = _two_particle_setup(inp, 8)
        fam = hist.gaussian_occupation_family(
            space, 0, centers=tuple(float(c) for c in range(9)),
            sigma=inp["sigma"])
        spec = hist.HistorySpec(space, tuple(inp["times"]), ([fam], [fam]),
                                ham)
        d_mixed = hist.decoherence_functional(hist.to_density(state), spec)
        d_pure = hist.decoherence_functional(state, spec)
        gap = float(np.max(np.abs(d_mixed.matrix - d_pure.matrix)))
        bound = hist.check_dh_bound(d_mixed)
        return (bound.ok and gap < 1e-12,
                f"bound ok {bound.ok}, |mixed - pure| = {gap:.2e}")

    def path(rho):
        return "pure" if isinstance(rho, hist.StateVector) else "mixed-dense"

    return Task("mixed-dense", run, dh_path=path)


def _branch_pair_task(inp) -> Task:
    """Exact two-time occupation histories under 8-substep dephasing
    (B=2, N=6): every branch pair is evolved as its own matrix."""

    def run():
        space, ham, state = _two_particle_setup(inp, 6)
        fam = hist.occupation_family(space)
        spec = hist.HistorySpec(space, tuple(inp["times"]), ([fam], [fam]),
                                ham, dephasing_rate=inp["dephasing_rate"],
                                dephasing_substeps=8)
        d = hist.decoherence_functional(hist.to_density(state), spec)
        total = float(d.probabilities().sum())
        bound = hist.check_dh_bound(d)
        return (bound.ok and abs(total - 1.0) < 1e-10,
                f"bound ok {bound.ok}, probabilities sum to {total!r}")

    return Task("branch-pair", run, dh_path="branch-pair")


def _histories_dense_tasks(inputs, workdir):
    ehr = inputs["ehrenfest"]
    return [
        _scenario_task("histories-nscaling", workdir,
                       inputs["histories-nscaling"], dh_path="pure"),
        _scenario_task("conserved-decoherence", workdir,
                       inputs["conserved-decoherence"], dh_path="pure"),
        _scenario_task("ehrenfest", workdir,
                       {"sigma_factor": ehr["sigma_factor"]},
                       seed=ehr["seed"]),
        _mixed_dense_task(inputs["mixed-dense"]),
        _branch_pair_task(inputs["branch-pair"]),
    ]


_BUILDERS = {
    "transport": _transport_tasks,
    "hydro-peaking": _hydro_peaking_tasks,
    "histories-dense": _histories_dense_tasks,
}


def build_tasks(workload: str, inputs: dict, workdir: Path) -> list:
    """The workload's fixed task list; scenario configs are validated here."""
    return _BUILDERS[workload](inputs, Path(workdir))
