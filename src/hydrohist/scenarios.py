"""Named, reproducible experiments over the computational modules.

Each scenario wires phase-space dynamics, ensemble statistics, the histories
engine or the local-equilibrium builders into one experiment with declared
pass/fail thresholds, writes plot-ready CSV artifacts plus a JSON run report,
and is bit-reproducible for a fixed config and seed.  Each scenario is one
entry of one schema table: its runner, defaults, thresholds and range
checks, and for a phase-space scenario its ``"plan"``, which validation and
the runner share; the command line front end in ``hydrohist.cli`` is a thin
wrapper around ``load_config`` / ``run_scenario``.
"""

from __future__ import annotations

import contextvars
import json
import math
import operator
import threading
import time
import warnings
from dataclasses import asdict, dataclass
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from . import ensemble as en
from . import histories as hist
from . import local_equilibrium as le
from . import phase_space as ps
from . import propagator as pr
from .errors import ConfigurationError, HydrohistError, ScenarioError

__all__ = [
    "SCHEMA_VERSION",
    "ScenarioConfig",
    "MetricResult",
    "RunReport",
    "load_config",
    "validate_config",
    "run_scenario",
    "list_scenarios",
]

SCHEMA_VERSION = 1

#: range checks of the Brownian-motion parameters M, gamma and kT
_QBM_RANGES = tuple((lambda p, key=key: p[key] > 0,
                     f"params.{key} must be positive")
                    for key in ("M", "gamma", "kT"))

#: cap on the bytes of one phase-space grid or master-equation density
#: matrix, checked ahead of any range rule that samples or allocates one
_GRID_BYTES = 2 ** 27

#: cap on ehrenfest's n_seeds * dim**3, its eigensolver work: dim 2048 with
#: one seed fits (13 s and 365 MiB at one BLAS thread), dim 4096 does not
_EHRENFEST_WORK = 2 ** 33

#: range checks of a phase-space grid, as ``WignerGrid`` requires them
_GRID_RANGES = (
    (lambda g: g["n_q"] >= 8, "grid.n_q must be at least 8"),
    (lambda g: g["n_p"] >= 8, "grid.n_p must be at least 8"),
    (lambda g: 8 * g["n_q"] * g["n_p"] <= _GRID_BYTES,
     f"grid.n_q and grid.n_p must keep the grid within {_GRID_BYTES} bytes"),
    (lambda g: g["q_min"] < g["q_max"],
     "grid.q_min must be less than grid.q_max"),
    (lambda g: g["p_min"] < g["p_max"],
     "grid.p_min must be less than grid.p_max"),
)


def _require(message, check, *args):
    """check(*args), unless it is falsy or raises an ArithmeticError,
    HydrohistError or ValueError under numpy's raising error state (its
    arithmetic overflows or divides by zero on extreme values, or a library
    call refuses them): then ConfigurationError(message)."""
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            value = check(*args)
    except (ArithmeticError, HydrohistError, ValueError):
        value = None
    if not value:
        raise ConfigurationError(message)
    return value


def _refuses(refusals, check, axes):
    """Whether ``_kernel_check`` made a ``check`` refusal on ``axes``."""
    return any(r[0] == check and r[1] in axes for r in refusals)


def _phase_space_plan(c, var_p, t, spans, kernel=True):
    """The plan every phase-space run shares, from its merged params and
    grid c: the initial ``"state"``, the Gaussian of var_q = 1 and var_p,
    centred at 0, sampled by ``gaussian_wigner``; its ``"params"``; and the
    step plan of the integration over each of ``spans``, under
    ``"fokker_planck"``.  The library checks the grid first:
    ``gaussian_wigner`` (and so ``normalize``) accepts the sample, the step
    plan to t, the run's longest time, is finite (so is each span's), and
    ``_kernel_check`` at 0 and t makes no spacing or domain refusal.
    Without ``kernel``, for a run with no exact kernel, no spacing is
    checked and the p domain at 0 only."""
    w0, params = _require(
        "params and grid must sample the initial Gaussian to finite values "
        "with usable mass",
        lambda: (ps.gaussian_wigner(c["q_min"], c["q_max"], c["n_q"],
                                    c["p_min"], c["p_max"], c["n_p"],
                                    var_q=1.0, var_p=var_p),
                 pr.QbmParams(c["M"], c["gamma"], c["kT"])))
    _require("params and grid must give the Fokker-Planck step plan a "
             "finite step count", pr.fokker_planck_step_plan, w0, t, params)
    spacing = (f"grid spacing must be at most 1/{pr.MIN_SPACINGS_PER_SIGMA} "
               "of the initial state's standard deviation on each axis")
    q_domain = ("the q domain grid.q_min to grid.q_max must hold the mean "
                "+/- 3 standard deviations of the initial and the evolved "
                "position")
    at_0 = _require(spacing if kernel else q_domain,
                    pr._kernel_check, w0, 0.0, params)[1]
    if kernel:
        _require(spacing, lambda: not _refuses(at_0, "spacing", "qp"))
    at_t = _require(q_domain, pr._kernel_check, w0, t, params)[1]
    _require(q_domain, lambda: not _refuses(at_0 + at_t, "domain", "q"))
    which = "the initial and the evolved" if kernel else "the initial"
    _require("the p domain grid.p_min to grid.p_max must hold the mean +/- 3 "
             f"standard deviations of {which} momentum",
             lambda: not _refuses(at_0 + at_t if kernel else at_0,
                                  "domain", "p"))
    return {"state": w0, "params": params,
            "fokker_planck": [pr.fokker_planck_step_plan(w0, s, params)
                              for s in spans]}


def _diffusion_plan(c):
    """Plan of a diffusion run: the kernel route's ``"times"`` and the
    Fokker-Planck route's ``"spans"`` between them, each at most t_end."""
    times = np.linspace(c["t_start"], c["t_end"], c["n_times"])
    spans = np.diff(times, prepend=0.0)
    return {**_phase_space_plan(c, c["kT"] * c["M"], c["t_end"], spans),
            "times": times, "spans": spans}


def _maxwellization_plan(c):
    """Plan of a maxwellization run, integrated to t: no exact kernel runs,
    and the momentum step holds the discrete Maxwellian between zero-flux p
    walls exactly (kT 5 on +/-6 runs to a sup distance of 8.6e-12)."""
    return _phase_space_plan(c, c["var_p0"], c["t"], [c["t"]], kernel=False)


def _master_edge_mass(g, w, s_q, s_p):
    """Closed-form bound on the boundary mass of oracle-compare's evolved
    master-equation state on its lattice w, as ``phase_space.l1_distance``
    weighs it: the marginal density on each edge times the extent across
    it.

    The position marginal is the Gaussian of standard deviation s_q.  The
    momentum marginal is at most the larger of the Gaussian of s_p and the
    lattice's stationary law, proportional to exp(-k (1 - cos p dx)) with
    k = 1/(M kT dx^2): on the lattice the central-difference friction drives
    p with sin(p dx)/dx, which vanishes at the edge p = pi/dx of the
    conjugate axis, so the tail there is far heavier than the Gaussian's.
    That law's normalization is at least the Gaussian integral, as
    1 - cos u <= u^2/2, so its density is at most
    dx sqrt(k / 2 pi) exp(-k (1 - cos p dx)) / erf(pi sqrt(k / 2)).
    """
    x_max, p_min, p_max, dx = w.q_max, w.p_min, w.p_max, w.dq
    k = 1.0 / (g["M"] * g["kT"] * dx * dx)

    def momentum(p):
        lattice = (dx * math.sqrt(k / (2.0 * math.pi))
                   * math.exp(-k * (1.0 - math.cos(p * dx)))
                   / math.erf(math.pi * math.sqrt(k / 2.0)))
        return max(hist._gaussian_weights(p, 0.0, s_p), lattice)

    return (2.0 * hist._gaussian_weights(x_max, 0.0, s_q) * 2.0 * x_max
            + (momentum(p_min) + momentum(p_max)) * (p_max - p_min))


def _master_state(g):
    """The initial state of oracle-compare's master-equation route: the
    Gaussian of var_q = 1 and var_p = 0.5 on its lattice, grid.master_n_x
    points on +/-grid.master_x_max, and their conjugate momenta."""
    x_max, n_x = g["master_x_max"], g["master_n_x"]
    return ps.gaussian_wigner(-x_max, x_max, n_x,
                              *ps.conjugate_momentum_axis(-x_max, x_max, n_x),
                              var_q=1.0, var_p=0.5)


def _oracle_plan(c):
    """Plan of an oracle-compare run: the shared phase-space plan of its
    integrations to t_master and t_kernel, the master route's
    ``"master_state"`` and its ``"master"`` step plan (steps, dt), which
    ``evolve_master_equation`` takes from the lattice's extent and spacing.
    The master state must pass the kernel's domain checks at 0 and
    t_master, and ``_master_edge_mass``, at the larger sigma of the two
    times, must stay within the ``COVERAGE_THRESHOLD`` above which
    ``l1_distance`` refuses to resample the evolved state."""
    t_master = c["t_master"]
    plan = _phase_space_plan(c, 0.5, max(c["t_kernel"], t_master),
                             [t_master, c["t_kernel"]])
    params = plan["params"]

    def fitting_master_state():
        w = _master_state(c)
        (s0, r0), (st, rt) = (pr._kernel_check(w, s, params)
                              for s in (0.0, t_master))
        return (not _refuses(r0 + rt, "domain", "qp")
                and _master_edge_mass(c, w, *np.maximum(s0, st))
                <= ps.COVERAGE_THRESHOLD) and w

    w = _require("the master lattice of grid.master_x_max and "
                 "grid.master_n_x must hold the initial and the evolved "
                 "state's mean +/- 3 standard deviations, and leave at most "
                 f"{ps.COVERAGE_THRESHOLD} of its mass on the boundary",
                 fitting_master_state)
    lattice = SimpleNamespace(x_min=w.q_min, x_max=w.q_max, dx=w.dq)
    master = _require(
        "params and grid must give the master-equation step plan a finite "
        "step count",
        lambda: pr._step_plan(t_master, pr.master_dt_bound(lattice, params)))
    return {**plan, "master_state": w, "master": master}


def _step_notes(plan):
    """Report notes of a phase-space plan: the step count and largest dt
    of its Fokker-Planck integrations, and the master-equation run's step
    count and dt where it has one."""
    fokker_planck = plan["fokker_planck"]
    notes = [f"Fokker-Planck: {sum(n for n, _ in fokker_planck)} steps "
             f"of dt up to {max(dt for _, dt in fokker_planck):.6g}"]
    if "master" in plan:
        steps, dt = plan["master"]
        notes.append(f"Master equation: {steps} steps of dt {dt:.6g}, "
                     "limited by the Gershgorin radius of the kinetic and "
                     "dissipation stencil")
    return notes


def _concurrently(first, second):
    """The results of the zero-argument callables ``first`` and ``second``.

    ``second`` runs on a thread of its own, in a copy of the caller's
    context, while ``first`` runs on the calling thread; numpy's error
    states and other context variables set by the caller thus apply to
    both.  Warning filters are process-global, not context variables, so a
    ``warnings.catch_warnings`` around the call records the warnings of
    both routes, but two such calls at once would mix their records.  The
    worker is joined before an exception is re-raised, as the same
    object: ``first``'s, else ``second``'s.  The routes must share no
    state that they write, a ``cached_property`` included.
    """
    outcome = {}

    def run_second():
        try:
            outcome["result"] = second()
        except BaseException as exc:   # re-raised on the calling thread
            outcome["error"] = exc

    worker = threading.Thread(target=contextvars.copy_context().run,
                              args=(run_second,))
    worker.start()
    try:
        result = first()
    finally:
        worker.join()
    if "error" in outcome:
        raise outcome["error"]
    return result, outcome["result"]


#: inner edges of the variance-scaling bins: the quartiles of a unit normal
_QUARTILE = 0.6744897501960817


_TOP_KEYS = {"schema_version", "scenario", "params", "grid", "seed",
             "output_dir"}


@dataclass(frozen=True)
class ScenarioConfig:
    scenario: str
    params: dict
    grid: dict
    seed: int = None
    output_dir: str = None


@dataclass(frozen=True)
class MetricResult:
    name: str
    value: float
    threshold: float
    comparator: str
    passed: bool


@dataclass(frozen=True)
class RunReport:
    scenario: str
    params: dict
    grid: dict
    seed: int
    metrics: tuple
    passed: bool
    wall_time_s: float
    notes: tuple = ()
    artifacts: tuple = ()

    def to_json(self):
        return json.dumps({"schema_version": SCHEMA_VERSION, **asdict(self)},
                          indent=2)


def _is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _has_default_type(value, default):
    """A value may stand where ``default`` does: an int where the default is
    an int, an int or float where it is a float, a list of numbers where it
    is a list; a bool is never a number."""
    if isinstance(default, list):
        return isinstance(value, list) and all(map(_is_number, value))
    if isinstance(default, float):
        return _is_number(value)
    return type(value) is type(default)


def _as_float(value, where):
    """float(value) of a JSON number; an int too large for a float is a
    config error."""
    try:
        return float(value)
    except OverflowError:
        raise ConfigurationError(f"{where} is too large for a float") from None


def _reject_duplicates(pairs):
    seen = {}
    for key, value in pairs:
        if key in seen:
            raise ConfigurationError(f"duplicate key {key!r} in config")
        seen[key] = value
    return seen


def load_config(path, seed_override=None) -> ScenarioConfig:
    """Read, parse and validate a JSON scenario config, applying defaults.

    ``seed_override`` replaces the config's seed before validation (the
    command-line ``--seed`` flag).
    """
    path = Path(path)
    if not path.exists():
        raise ConfigurationError(f"config file {path} does not exist")
    try:
        raw = json.loads(path.read_text(),
                         object_pairs_hook=_reject_duplicates)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(
            f"config {path} is not valid JSON (line {exc.lineno}, "
            f"column {exc.colno}): {exc.msg}") from exc
    if seed_override is not None and isinstance(raw, dict):
        raw["seed"] = seed_override
    return validate_config(raw)


def validate_config(raw: dict) -> ScenarioConfig:
    """Validate a parsed config mapping and fill in schema defaults."""
    if not isinstance(raw, dict):
        raise ConfigurationError("config must be a JSON object")
    unknown = set(raw) - _TOP_KEYS
    if unknown:
        raise ConfigurationError(
            f"unknown config keys: {', '.join(sorted(unknown))}")
    version = raw.get("schema_version")
    if type(version) is not int or version != SCHEMA_VERSION:
        raise ConfigurationError(
            f"schema_version must be {SCHEMA_VERSION}, got {version!r}")
    name = raw.get("scenario")
    if not isinstance(name, str) or name not in SCENARIOS:
        raise ConfigurationError(
            f"unknown scenario {name!r}; choose one of "
            f"{', '.join(sorted(SCENARIOS))}")
    entry = SCENARIOS[name]
    params = dict(entry["params"])
    grid = dict(entry["grid"])
    for section, defaults in (("params", params), ("grid", grid)):
        override = raw.get(section, {})
        if not isinstance(override, dict):
            raise ConfigurationError(f"{section} must be a JSON object")
        bad = set(override) - set(defaults)
        if bad:
            raise ConfigurationError(
                f"unknown {section} keys for scenario {name!r}: "
                f"{', '.join(sorted(bad))}")
        for key, value in override.items():
            if not _has_default_type(value, defaults[key]):
                raise ConfigurationError(
                    f"{section}.{key} must have the type of its default "
                    f"{defaults[key]!r}, got {value!r}")
            default = defaults[key]
            if isinstance(default, float):
                value = _as_float(value, f"{section}.{key}")
            elif isinstance(default, list) and all(
                    isinstance(v, float) for v in default):
                value = [_as_float(v, f"{section}.{key}[{i}]")
                         for i, v in enumerate(value)]
            defaults[key] = value
    merged = {**params, **grid}
    for in_range, message in entry["ranges"]:
        _require(message, in_range, merged)
    if "plan" in entry:
        entry["plan"](merged)
    seed = raw.get("seed")
    if seed is not None and (type(seed) is not int or seed < 0
                             or seed >= 2 ** 64):
        raise ConfigurationError("seed must be an unsigned 64-bit integer")
    if entry["sampling"] and seed is None:
        raise ConfigurationError(
            f"scenario {name!r} draws random samples; a seed is required")
    out = raw.get("output_dir")
    if out is not None and not isinstance(out, str):
        raise ConfigurationError("output_dir must be a string")
    return ScenarioConfig(name, params, grid, seed, out)


def list_scenarios():
    """Stable catalog of scenario names with one-line descriptions."""
    return [(name, SCENARIOS[name]["description"]) for name in SCENARIOS]


# --- scenario bodies --------------------------------------------------------


def _run_diffusion(config):
    plan = _diffusion_plan({**config.params, **config.grid})
    w0, params, times = plan["state"], plan["params"], plan["times"]

    def fokker_planck_marginals():
        marginals, cur = [], w0
        for span in plan["spans"]:
            cur = pr.evolve_fokker_planck(cur, span, params)
            marginals.append(ps.position_marginal(cur))
        return marginals

    # the kernel route alone reads w0's cached q spectrum
    marg_fp, marg_an = _concurrently(
        fokker_planck_marginals,
        lambda: [ps.position_marginal(pr.propagate_analytic(w0, t, params))
                 for t in times])
    fit_fp = pr.fit_diffusion(times, marg_fp, params)
    fit_an = pr.fit_diffusion(times, marg_an, params)
    metrics = {"fokker_planck_relative_error": fit_fp.relative_error,
               "analytic_relative_error": fit_an.relative_error}
    rows = [(t, ma.variance(), mf.variance())
            for t, ma, mf in zip(times, marg_an, marg_fp)]
    art = {"diffusion.csv": (
        ["t", "var_q_analytic", "var_q_fokker_planck"], rows)}
    notes = [f"D_fit integrator = {fit_fp.D_fit!r}, "
             f"exact kernel = {fit_an.D_fit!r}, "
             f"theory = {fit_fp.D_theory!r}", *_step_notes(plan)]
    return metrics, art, notes


def _run_maxwellization(config):
    p = config.params
    plan = _maxwellization_plan({**p, **config.grid})
    wt = pr.evolve_fokker_planck(plan["state"], p["t"], plan["params"])
    marg = ps.momentum_marginal(wt)
    f = marg.samples / np.trapezoid(marg.samples, dx=marg.spacing)
    grid_p = marg.grid
    maxw = np.exp(-grid_p ** 2 / (2.0 * p["M"] * p["kT"]))
    maxw /= np.trapezoid(maxw, dx=marg.spacing)
    art = {"maxwellization.csv": (
        ["p", "marginal", "maxwellian"], zip(grid_p, f, maxw))}
    return ({"sup_distance": np.max(np.abs(f - maxw))}, art,
            _step_notes(plan))


def _run_oracle_compare(config):
    p = config.params
    plan = _oracle_plan({**p, **config.grid})
    w0, params = plan["state"], plan["params"]

    def master_route():
        rho0 = ps.wigner_to_density(plan["master_state"])
        return ps.density_to_wigner(
            pr.evolve_master_equation(rho0, p["t_master"], params))

    # the calling thread runs the master route, the longer share on the
    # default config; the worker runs the Fokker-Planck integrations to
    # t_kernel and to t_master, and the kernel
    w_me, (w_fp, w_fp1, w_an) = _concurrently(
        master_route,
        lambda: (pr.evolve_fokker_planck(w0, p["t_kernel"], params),
                 pr.evolve_fokker_planck(w0, p["t_master"], params),
                 pr.propagate_analytic(w0, p["t_kernel"], params)))
    l1_kernel = ps.l1_distance(w_an, w_fp)
    l1_master = ps.l1_distance(w_fp1, w_me)

    metrics = {"l1_kernel_vs_integrator": l1_kernel,
               "l1_master_vs_integrator": l1_master}
    rows = zip(w_an.q,
               ps.position_marginal(w_an).samples,
               ps.position_marginal(w_fp).samples,
               ps.position_marginal(w_fp1).samples)
    art = {"oracle_compare.csv": (
        ["q", "kernel_t_kernel", "integrator_t_kernel",
         "integrator_t_master"], rows)}
    return metrics, art, _step_notes(plan)


def _variance_scaling_plan(c):
    """Plan of a variance-scaling run: the initial ``"state"`` and the
    smearing ``"window"``, each bin of which must hold positive mass of the
    state, as the relative fluctuation needs."""
    message = ("params.var_q and params.var_p must give every bin of the "
               "initial state positive mass")
    w, window = _require(message, lambda: (
        ps.gaussian_wigner(c["q_min"], c["q_max"], c["n_q"],
                           c["p_min"], c["p_max"], c["n_p"],
                           var_q=c["var_q"], var_p=c["var_p"]),
        en.SmearingWindow([c["q_min"], -_QUARTILE, _QUARTILE, c["q_max"]])))
    _require(message, lambda: np.all(en.bin_probabilities(
        en.ProductEnsemble(1, w), window) > 0))
    return {"state": w, "window": window}


def _run_variance_scaling(config):
    p = config.params
    plan = _variance_scaling_plan({**p, **config.grid})
    w, window = plan["state"], plan["window"]
    sizes = [int(n) for n in p["N_values"]]
    rel, rows, worst = [], [], 0.0
    for n in sizes:
        ens = en.ProductEnsemble(n, w)
        probs = en.bin_probabilities(ens, window)
        got = en.relative_fluctuation(ens, window).values
        want = (1.0 - probs) / (n * probs)
        worst = max(worst, float(np.max(np.abs(got - want))))
        rel.append(got[1])
        rows.append((n, got[1], want[1]))
    slope = np.polyfit(np.log(np.asarray(sizes, float)), np.log(rel), 1)[0]
    metrics = {"closed_form_deviation": worst,
               "slope_deviation": abs(slope + 1.0)}
    art = {"variance_scaling.csv": (
        ["N", "relative_fluctuation", "closed_form"], rows)}
    return metrics, art, [f"log-log slope = {float(slope)!r}"]


def _record_repeats():
    """Inside ``warnings.catch_warnings(record=True)``, let every warning
    reach the record, repeats included: the caller's ``default``, ``once``
    and ``module`` filters become ``always``, while its ``error`` and
    ``ignore`` filters stay."""
    warnings.filters[:] = [
        ("always", *f[1:]) if f[0] in ("default", "once", "module") else f
        for f in warnings.filters]
    warnings.simplefilter("always", append=True)


def _run_histories_nscaling(config):
    p = config.params
    c = p["overlap"]
    chi = (c, math.sqrt(1.0 - c * c))
    eps, notes = {}, []
    for n in range(1, p["N_max"] + 1):
        with warnings.catch_warnings(record=True) as caught:
            _record_repeats()
            eps[n] = hist.consistency_epsilon(hist.branch_count_functional(
                (1.0, 0.0), chi, n, (float(n), n * c * c), p["sigma"]))
        notes += [f"N = {n}: {w.category.__name__}: {w.message}"
                  for w in caught]
    # log epsilon is fitted where the interference survives in floating point
    fit = [n for n in eps if eps[n] > 0]
    zero = [n for n in eps if n not in fit]
    if zero:
        notes.append(f"epsilon(N) = 0 at N = {zero}; the fit leaves those N "
                     "out")
    ratio = None
    if len(fit) >= 2:
        ratio = math.exp(np.polyfit(fit, np.log([eps[n] for n in fit]), 1)[0])
        notes.append(f"fitted epsilon(N) ratio r = {ratio!r}")
    else:
        notes.append(f"epsilon(N) > 0 at {len(fit)} N only; no ratio to fit")
    decay = eps[p["N_max"]] / eps[1] if eps[1] > 0 else None
    if decay is None:
        notes.append("epsilon(1) = 0; epsilon8_over_epsilon1 is undefined")
    art = {"histories_nscaling.csv": (["N", "epsilon"], list(eps.items()))}
    return ({"geometric_ratio": ratio, "epsilon8_over_epsilon1": decay}, art,
            notes)


def _random_hermitian(rng, dim):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return 0.5 * (a + a.conj().T)


def _run_ehrenfest(config):
    p = config.params
    dim = p["dim"]
    factor = p["sigma_factor"]
    worst_err, worst_dev, rows = 0.0, 0.0, []
    for i in range(p["n_seeds"]):
        rng = np.random.default_rng(np.random.SeedSequence([config.seed, i]))
        a = _random_hermitian(rng, dim)
        v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        state = hist.StateVector(hist.ToyHilbert(dim, 1),
                                 v / np.linalg.norm(v))
        l_fac = hist._factor_of(state)
        mean, spread = hist._mean_and_spread(l_fac, a)
        sigma = factor * spread
        centers = np.linspace(mean - 2 * sigma, mean + 2 * sigma, 17)
        (grid,) = hist._center_grids(l_fac, (a,), sigma)
        # one eigh of A serves the 17 centers and the 81-point scan grid
        probs = hist.single_time_prob_exact(
            state, a, np.concatenate((centers, grid)), sigma)
        exact, scan = probs[:len(centers)], probs[len(centers):]
        asymptotic = hist.single_time_prob_asymptotic(state, a, centers, sigma)
        err = float(np.max(np.abs(exact - asymptotic) / exact))
        dev = abs(grid[np.argmax(scan)] - mean) / sigma
        worst_err = max(worst_err, err)
        worst_dev = max(worst_dev, dev)
        rows.append((i, err, dev))
    metrics = {"max_relative_error": worst_err,
               "argmax_deviation_in_sigma": worst_dev}
    notes = []
    if factor < 3.0:
        notes.append(
            f"precondition violated: sigma = {factor!r} * spread, but the "
            "asymptotic Gaussian form requires sigma to dominate the "
            "observable spread (sigma_factor >> 1)")
    art = {"ehrenfest.csv": (
        ["instance", "max_relative_error", "argmax_deviation_in_sigma"],
        rows)}
    return metrics, art, notes


def _run_conserved_decoherence(config):
    p = config.params
    space = hist.ToyHilbert(B=p["bins"], N=p["N"])
    p1 = hist.one_particle_momentum(hist.ToyHilbert(B=p["bins"], N=1))
    ham = hist.lift_one_body(space, p1 @ p1 / 2.0)
    # coarse-grain the conserved energy itself into spectral windows whose
    # edges sit between distinct eigenvalues (no window is empty)
    vals = np.unique(np.round(np.linalg.eigvalsh(ham), 9))
    n_windows = min(3, len(vals))
    groups = np.array_split(vals, n_windows)
    edges = [float(vals[0]) - 1.0]
    for left, right in zip(groups[:-1], groups[1:]):
        edges.append(0.5 * (float(left[-1]) + float(right[0])))
    edges.append(float(vals[-1]) + 1.0)
    fam = [(k, hist.window_projector(ham, (edges[k], edges[k + 1])))
           for k in range(n_windows)]
    amp = np.full(space.dim, 1.0 / math.sqrt(space.dim), dtype=complex)
    state = hist.StateVector(space, amp)
    rows, worst = [], 0.0
    for times in (tuple(p["times2"]), tuple(p["times3"])):
        spec = hist.HistorySpec(space, times, tuple([fam] for _ in times),
                                ham)
        dmat = hist.decoherence_functional(state, spec)
        off = dmat.matrix - np.diag(np.diag(dmat.matrix))
        m = float(np.max(np.abs(off)))
        worst = max(worst, m)
        rows.append((len(times), m))
    art = {"conserved_decoherence.csv": (
        ["n_times", "max_offdiagonal"], rows)}
    return {"max_offdiagonal": worst}, art, []


def _most_probable(probabilities):
    """The 50 most probable labels, in tiers: in descending order, a
    probability within 1e-12 (relative) of the one before it joins its tier,
    and a tier lists its labels in ascending order.  Histories equal up to
    rounding, such as mirror images, then keep one order whichever engine
    computed them; rounding to fixed decimals would still split a tie that
    straddles a rounding boundary."""
    tiers, prev = [], None
    for lab in sorted(probabilities, key=lambda lab: -probabilities[lab]):
        p = probabilities[lab]
        if prev is None or prev - p > 1e-12 * prev:
            tiers.append([])
        tiers[-1].append(lab)
        prev = p
    return [lab for tier in tiers for lab in sorted(tier)][:50]


def _peaking_profiles(p):
    """The (beta, mubar, u) profiles of a peaking config: uniform beta, no
    drift."""
    mubar = np.asarray(p["mubar"], dtype=float)
    b = len(mubar)
    return np.full(b, float(p["beta"])), mubar, np.zeros(b)


def _run_local_equilibrium_peaking(config):
    p = config.params
    rep = le.local_equilibrium_peaking(
        *_peaking_profiles(p), p["N"],
        tuple(p["times"]), tolerance_units=p["tolerance_units"],
        dephasing_rate=p["dephasing_rate"])
    metrics = {"epsilon": rep.epsilon,
               "on_trajectory_fraction": rep.on_trajectory_fraction}
    rows = [("|".join(map(str, lab[0])), "|".join(map(str, lab[1])),
             rep.probabilities[lab])
            for lab in _most_probable(rep.probabilities)]
    art = {"peaking.csv": (
        ["occupations_t1", "occupations_t2", "probability"], rows)}
    notes = [f"mean-field trajectory: {rep.mean_trajectory!r}"]
    return metrics, art, notes


#: catalog, one entry per scenario: description (with the defining
#: relation), the runner, which returns ({metric: value}, artifacts, notes),
#: parameter defaults, grid defaults, each metric's (comparator, threshold)
#: in report order, whether the scenario draws samples, and range checks, as
#: (predicate, message) pairs that ``validate_config`` applies to the merged
#: parameters and grid (one mapping: no key is both a parameter and a grid
#: key).  The four phase-space scenarios also give their ``"plan"``, a
#: function of that mapping which makes the library's checks of the run's
#: setup, each raising ConfigurationError with its message, and returns
#: what the run and its report notes read: the sampled initial state and
#: the step plans.  ``validate_config`` calls it after the range checks,
#: and the runner opens with it.
SCENARIOS = {
    "diffusion": {
        "description": (
            "Growth of the position variance under damped phase-space flow: "
            "var_q(t) ~ 2 D t with D = kT / (2 M gamma), fitted over the "
            "late-time window from both the finite-difference integrator and "
            "the exact Gaussian kernel."),
        "run": _run_diffusion,
        "params": {"M": 1.0, "gamma": 1.0, "kT": 1.0,
                   "t_start": 3.0, "t_end": 10.0, "n_times": 8},
        "grid": {"q_min": -60.0, "q_max": 60.0, "n_q": 481,
                 "p_min": -6.0, "p_max": 6.0, "n_p": 65},
        "thresholds": {"fokker_planck_relative_error": ("<", 0.05),
                       "analytic_relative_error": ("<", 1e-3)},
        "sampling": False,
        # fit_diffusion needs at least 4 samples of an increasing series
        "ranges": _QBM_RANGES + _GRID_RANGES + (
            (lambda p: p["n_times"] >= 4,
             "params.n_times must be at least 4"),
            (lambda p: p["t_start"] >= 0,
             "params.t_start must be nonnegative"),
            (lambda p: p["t_start"] < p["t_end"],
             "params.t_start must be less than params.t_end"),
            # the run keeps two position marginals of n_q floats per time
            (lambda c: 16 * c["n_times"] * c["n_q"] <= _GRID_BYTES,
             "params.n_times and grid.n_q must keep the run's position "
             f"marginals within {_GRID_BYTES} bytes"),
        ),
        "plan": _diffusion_plan,
    },
    "maxwellization": {
        "description": (
            "Relaxation of the momentum marginal to the Maxwellian "
            "f(p) = exp(-p^2 / 2 M kT) / Z from a cold initial state, "
            "measured as a sup-norm distance of normalized densities."),
        "run": _run_maxwellization,
        "params": {"M": 1.0, "gamma": 1.0, "kT": 1.0, "t": 5.0,
                   "var_p0": 0.25},
        "grid": {"q_min": -30.0, "q_max": 30.0, "n_q": 241,
                 "p_min": -6.0, "p_max": 6.0, "n_p": 97},
        "thresholds": {"sup_distance": ("<", 1e-2)},
        "sampling": False,
        "ranges": _QBM_RANGES + _GRID_RANGES + (
            (lambda p: p["t"] >= 0, "params.t must be nonnegative"),
            (lambda p: p["var_p0"] > 0, "params.var_p0 must be positive"),
        ),
        "plan": _maxwellization_plan,
    },
    "oracle-compare": {
        "description": (
            "Cross-validation of the three dynamical representations: exact "
            "Gaussian kernel vs finite-difference integrator of "
            "dW/dt = -(p/M) dW/dq + 2 gamma d(pW)/dp + 2 M gamma kT d2W/dp2, "
            "and the position-representation master equation mapped back to "
            "phase space, compared in L1."),
        "run": _run_oracle_compare,
        "params": {"M": 1.0, "gamma": 1.0, "kT": 1.0,
                   "t_kernel": 5.0, "t_master": 1.0},
        "grid": {"q_min": -14.0, "q_max": 14.0, "n_q": 225,
                 "p_min": -6.0, "p_max": 6.0, "n_p": 97,
                 "master_n_x": 128, "master_x_max": 10.0},
        "thresholds": {"l1_kernel_vs_integrator": ("<", 1e-2),
                       "l1_master_vs_integrator": ("<", 1e-2)},
        "sampling": False,
        "ranges": _QBM_RANGES + _GRID_RANGES + (
            (lambda p: p["t_kernel"] >= 0,
             "params.t_kernel must be nonnegative"),
            (lambda p: p["t_master"] >= 0,
             "params.t_master must be nonnegative"),
            (lambda g: g["master_n_x"] >= 8,
             "grid.master_n_x must be at least 8"),
            (lambda g: g["master_x_max"] > 0,
             "grid.master_x_max must be positive"),
            (lambda g: 16 * g["master_n_x"] ** 2 <= _GRID_BYTES,
             "grid.master_n_x must keep the master density matrix within "
             f"{_GRID_BYTES} bytes"),
        ),
        "plan": _oracle_plan,
    },
    "variance-scaling": {
        "description": (
            "Central-limit narrowing of binned counts in a product ensemble: "
            "Var n_b / <n_b>^2 = (1/N)(1 - p_b)/p_b exactly for top-hat "
            "bins, with log-log slope -1 against N."),
        "run": _run_variance_scaling,
        "params": {"N_values": [100, 1000, 10000], "var_q": 1.0,
                   "var_p": 1.0},
        "grid": {"q_min": -12.0, "q_max": 12.0, "n_q": 161,
                 "p_min": -6.0, "p_max": 6.0, "n_p": 97},
        "thresholds": {"closed_form_deviation": ("<", 1e-12),
                       "slope_deviation": ("<", 0.01)},
        "sampling": False,
        # the slope fit needs two sizes; the bins need q_min < -q* < q* < q_max
        "ranges": _GRID_RANGES + (
            (lambda p: len(set(p["N_values"])) >= 2
             and all(n >= 1 and float(n).is_integer() for n in p["N_values"]),
             "params.N_values must hold at least two distinct positive "
             "integers"),
            (lambda p: p["var_q"] > 0, "params.var_q must be positive"),
            (lambda p: p["var_p"] > 0, "params.var_p must be positive"),
            (lambda g: g["q_min"] < -_QUARTILE and g["q_max"] > _QUARTILE,
             "grid.q_min and grid.q_max must lie outside the inner bin "
             f"edges +/-{_QUARTILE:.4f}"),
        ),
        "plan": _variance_scaling_plan,
    },
    "histories-nscaling": {
        "description": (
            "Decay of branch interference with particle number for the "
            "superposition (|psi>^N + |chi>^N)/norm with |<chi|psi>| = 0.8: "
            "the consistency measure fits epsilon(N) = epsilon(1) r^N with "
            "r < 1 for smeared occupation projectors at the two branch "
            "means."),
        "run": _run_histories_nscaling,
        "params": {"overlap": 0.8, "sigma": 1.0, "N_max": 8},
        "grid": {},
        "thresholds": {"geometric_ratio": ("<", 1.0),
                       "epsilon8_over_epsilon1": ("<", 0.1)},
        "sampling": False,
        "ranges": (
            (lambda p: p["N_max"] >= 2,
             "params.N_max must be at least 2 for a fit"),
            # at overlap -1 the two branches cancel
            (lambda p: -1 < p["overlap"] <= 1,
             "params.overlap must lie in (-1, 1]"),
            # p(a) scales as 1/(2 pi sigma^2); epsilon divides by p(a) p(a')
            (lambda p: p["sigma"] > 0 and np.finfo(float).tiny
             <= (2 * math.pi * float(p["sigma"]) ** 2) ** -2 < math.inf,
             "params.sigma must keep (2 pi sigma^2)^-2 a normal float"),
            (lambda p: p["N_max"] <= hist._BRANCH_COUNT_MAX_N,
             f"params.N_max must be at most {hist._BRANCH_COUNT_MAX_N}"),
        ),
    },
    "ehrenfest": {
        "description": (
            "Single-time smeared-observable statistics on random states: the "
            "exact probability approaches p(a) = Tr(P_a rho) = "
            "exp(-(a - <A>)^2 / 2(sigma^2 + dA^2)) / sqrt(2 pi (sigma^2 + "
            "dA^2)) when sigma >> dA, and the scan peak sits at <A>."),
        "run": _run_ehrenfest,
        "params": {"dim": 8, "n_seeds": 20, "sigma_factor": 10.0},
        "grid": {},
        "thresholds": {"max_relative_error": ("<", 0.02),
                       "argmax_deviation_in_sigma": ("<", 0.1)},
        "sampling": True,
        "ranges": (
            (lambda p: p["dim"] >= 2, "params.dim must be at least 2"),
            (lambda p: p["dim"] <= hist.DEFAULT_DIM_CAP,
             f"params.dim must be at most {hist.DEFAULT_DIM_CAP}"),
            # each seed takes one eigh of a dim x dim A
            (lambda p: p["n_seeds"] * p["dim"] ** 3 <= _EHRENFEST_WORK,
             "params.n_seeds and params.dim must keep n_seeds * dim**3 "
             f"within {_EHRENFEST_WORK}"),
            (lambda p: p["n_seeds"] >= 1, "params.n_seeds must be at least 1"),
            (lambda p: p["sigma_factor"] > 0,
             "params.sigma_factor must be positive"),
            # with sigma = f dA and the centers within 2 sigma of <A>,
            # Jensen's inequality bounds the exact p below by
            # (2 pi sigma^2)^(-1/2) exp(-(1/f^2 + 4)/2), so its largest
            # eigenvalue term by 1/dim of that, and the asymptotic p is at
            # most (2 pi sigma^2)^(-1/2): the ratio, dim exp((1/f^2 + 4)/2)
            # at most, must stay below 1/tiny, or the exact p can underflow
            # to 0 and the relative error overflow
            # (1/f)^2, not 1/f^2: the square of a large f overflows
            (lambda p: ((1.0 / p["sigma_factor"]) ** 2 + 4.0) / 2.0
             + math.log(p["dim"]) <= -math.log(np.finfo(float).tiny),
             "params.sigma_factor must keep dim exp((1/sigma_factor^2 + 4)"
             "/2), the bound on the asymptotic-to-exact probability ratio, "
             "within the normal floats"),
            # the centers lie within <A> +/- 2 sigma and the scan's grid
            # within <A> +/- 4 sigma; |<A>| and dA are at most the largest
            # |eigenvalue| of A, at most dim max|A_ij|, and the entries of A,
            # means of standard normal draws, stay below 2^10
            (lambda p: (1.0 + 4.0 * p["sigma_factor"]) * 2.0 ** 10 * p["dim"]
             <= np.finfo(float).max,
             "params.sigma_factor must keep <A> +/- 4 sigma_factor dA "
             "finite for dA up to 2^10 dim"),
        ),
    },
    "conserved-decoherence": {
        "description": (
            "Histories of a conserved coarse graining: [H, A] = 0 makes "
            "every off-diagonal decoherence-functional entry vanish, "
            "D(a, a') = 0 for a != a', at two and three times."),
        "run": _run_conserved_decoherence,
        "params": {"bins": 3, "N": 2, "times2": [0.4, 1.1],
                   "times3": [0.3, 0.8, 1.5]},
        "grid": {},
        "thresholds": {"max_offdiagonal": ("<", 1e-12)},
        "sampling": False,
        "ranges": (
            (lambda p: p["bins"] >= 2, "params.bins must be at least 2"),
            (lambda p: p["N"] >= 1, "params.N must be at least 1"),
            (lambda p: hist.ToyHilbert(B=p["bins"], N=p["N"]),
             "params.N must keep bins**N within the cap "
             f"{hist.DEFAULT_DIM_CAP}"),
            (lambda p: ps._checked_times(p["times2"]),
             "params.times2 must be nonempty, nonnegative and increasing"),
            (lambda p: ps._checked_times(p["times3"]),
             "params.times3 must be nonempty, nonnegative and increasing"),
        ),
    },
    "local-equilibrium-peaking": {
        "description": (
            "Two-time occupation histories of the tensor-power Gibbs state "
            "rho1 ~ exp(-beta [p^2/2m - mu(q)]): with a position-monitoring "
            "environment the probability mass concentrates within one "
            "occupation unit of the mean-field trajectory n_b(t) = "
            "N <b|rho1(t)|b>."),
        "run": _run_local_equilibrium_peaking,
        "params": {"beta": 3.0, "mubar": [4.0, 0.0, 0.0], "N": 6,
                   "times": [0.0, 0.1], "dephasing_rate": 60.0,
                   "tolerance_units": 1},
        "grid": {},
        "thresholds": {"epsilon": ("<", 0.05),
                       "on_trajectory_fraction": (">=", 0.9)},
        "sampling": False,
        "ranges": (
            (lambda p: len(p["times"]) == 2
             and ps._checked_times(p["times"]),
             "params.times must be two times 0 <= t1 < t2"),
            (lambda p: p["N"] >= 1, "params.N must be at least 1"),
            (lambda p: len(p["mubar"]) >= 2,
             "params.mubar must give at least 2 bins"),
            # bounds len(mubar), the B of the Gibbs rule, to at most 203
            (lambda p: hist._capped_table_bytes(len(p["mubar"]), p["N"]),
             "params.N must keep the occupation table within "
             f"{hist.OCCUPATION_TABLE_BYTES} bytes"),
            (lambda p: p["beta"] > 0, "params.beta must be positive"),
            (lambda p: le.one_particle_gibbs(*_peaking_profiles(p)),
             "params.beta and params.mubar must keep the one-particle Gibbs "
             "generator finite"),
            (lambda p: p["dephasing_rate"] >= 0,
             "params.dephasing_rate must be nonnegative"),
            (lambda p: p["tolerance_units"] >= 0,
             "params.tolerance_units must be nonnegative"),
        ),
    },
}

_COMPARATORS = {"<": operator.lt, ">=": operator.ge}


def _judge(name, value, comparator, threshold):
    """The metric checked against its threshold; a value of None, for a
    metric the run could not compute (its notes say why), fails."""
    if value is None:
        return MetricResult(name, None, threshold, comparator, False)
    value = float(value)
    return MetricResult(name, value, threshold, comparator,
                        bool(_COMPARATORS[comparator](value, threshold)))


def run_scenario(config: ScenarioConfig, output_dir=None) -> RunReport:
    """Execute a scenario, write its artifacts and return the run report.

    The output directory is created before the runner starts.  A warning
    of the runner is noted in the report, unless the caller's filters make
    it an error or ignore it.  A failure of the runner (such an error
    included), of that directory or of an artifact write raises
    ScenarioError with the original exception as its cause, as does a
    runner whose metric names differ from its entry's thresholds.
    """
    start = time.perf_counter()
    out = Path(output_dir or config.output_dir
               or Path("runs") / config.scenario)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ScenarioError(
            f"scenario {config.scenario!r}: cannot create output "
            f"directory: {exc}") from exc
    entry = SCENARIOS[config.scenario]
    try:
        with warnings.catch_warnings(record=True) as caught:
            _record_repeats()
            values, artifacts, notes = entry["run"](config)
    except Exception as exc:
        raise ScenarioError(
            f"scenario {config.scenario!r} failed: "
            f"{type(exc).__name__}: {exc}") from exc
    declared = entry["thresholds"]
    if set(values) != set(declared):
        raise ScenarioError(
            f"scenario {config.scenario!r} reported the metrics "
            f"{sorted(values)}, not the declared {sorted(declared)}")
    metrics = tuple(_judge(name, values[name], *rule)
                    for name, rule in declared.items())
    notes = [*notes, *(f"{w.category.__name__}: {w.message}" for w in caught)]
    report = RunReport(
        scenario=config.scenario,
        params=config.params,
        grid=config.grid,
        seed=config.seed,
        metrics=metrics,
        passed=all(m.passed for m in metrics),
        wall_time_s=time.perf_counter() - start,
        notes=tuple(notes),
        artifacts=tuple(sorted(artifacts)),
    )
    try:
        for name, (header, rows) in artifacts.items():
            ps.write_csv(out / name, header, rows)
        ps.atomic_write(out / f"{config.scenario}-report.json",
                        report.to_json())
    except OSError as exc:
        raise ScenarioError(
            f"scenario {config.scenario!r}: cannot write artifacts: "
            f"{exc}") from exc
    return report
