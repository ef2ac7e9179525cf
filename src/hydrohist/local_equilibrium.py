"""Local-equilibrium one-particle states and hydrodynamic averages.

A local-equilibrium state is Maxwellian in momentum at every point, with
slowly varying weight, drift and temperature profiles:

    W1(p, q) ~ f(q) exp(-(p - u(q))^2 / 2 kT(q)),

in units where the particle mass is 1, as on the toy lattice.  The module
builds such states on phase-space grids and, for the finite toy lattice, as
one-particle Gibbs operators exp(-beta(q)[p^2/2 - mu(q) - u(q) p]) with
symmetrized ordering and unit spacing.  Free streaming moves them exactly
(spectral shear), and the binned number/momentum/energy fields are checked
against the collisionless continuity equations

    dn/dt + dg/dx = 0,           dg/dt + d(2h)/dx = 0,
    dh/dt + d j_h/dx = 0,        j_h = int dp p^3 W / 2,

with centered differences in time and space.  local_equilibrium_peaking runs
the tensor-power Gibbs state through the factorized histories engine, capped
by its own table, and reports how sharply two-time occupation histories
concentrate on the engine's mean-field trajectory.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import histories as hist
from .errors import ResolutionError
from .phase_space import (WignerGrid, _trapezoid_weights, bin_integrals,
                          normalize, write_csv)

__all__ = [
    "LocalEquilibriumProfile",
    "HydroFields",
    "PeakingReport",
    "build_w1",
    "one_particle_gibbs",
    "hydro_averages",
    "evolve_free",
    "continuity_residual",
    "local_equilibrium_peaking",
    "save_hydro_series_csv",
]


@dataclass(frozen=True)
class LocalEquilibriumProfile:
    """Density weight f(q), drift u(q) and temperature kT(q) on a q-lattice."""

    q: np.ndarray
    f: np.ndarray
    u: np.ndarray
    kT: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.q, dtype=float)
        f = np.asarray(self.f, dtype=float)
        u = np.asarray(self.u, dtype=float)
        kt = np.asarray(self.kT, dtype=float)
        if not (q.shape == f.shape == u.shape == kt.shape) or q.ndim != 1:
            raise ValueError("profile arrays must share one 1D shape")
        if len(q) < 8:
            raise ValueError("need at least 8 lattice points")
        if not np.all(np.diff(q) > 0):
            raise ValueError("q lattice must be strictly increasing")
        if not np.all(kt > 0):
            raise ValueError("kT must be positive everywhere")
        if not np.all(f >= 0):
            raise ValueError("f must be nonnegative")
        for name, arr in (("f", f), ("u", u), ("kT", kt)):
            scale = np.max(np.abs(arr))
            if scale > 0:
                jump = np.max(np.abs(np.diff(arr))) / scale
                if jump >= 0.2:
                    warnings.warn(
                        f"profile {name} changes by {jump:.0%} per bin; the "
                        "slowly-varying assumption is strained", stacklevel=2)
        for name, arr in (("q", q), ("f", f), ("u", u), ("kT", kt)):
            arr = arr.copy()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


@dataclass(frozen=True)
class HydroFields:
    """Binned number, momentum and energy densities plus the energy flux."""

    centers: np.ndarray
    widths: np.ndarray
    n: np.ndarray
    g: np.ndarray
    h: np.ndarray
    energy_flux: np.ndarray

    def __post_init__(self):
        for name in ("centers", "widths", "n", "g", "h", "energy_flux"):
            a = np.asarray(getattr(self, name), dtype=float)
            if not np.isfinite(a).all():
                raise ValueError(f"{name} has non-finite entries")
            a.flags.writeable = False
            object.__setattr__(self, name, a)
        if np.min(self.n) < -1e-9 * max(np.max(np.abs(self.n)), 1e-300):
            raise ValueError("number field has significantly negative entries")


@dataclass(frozen=True)
class PeakingReport:
    epsilon: float
    on_trajectory_fraction: float
    mean_trajectory: tuple
    probabilities: dict = field(repr=False)


def build_w1(profile: LocalEquilibriumProfile, p_min, p_max, n_p) -> WignerGrid:
    """Phase-space state f(q) exp(-(p - u)^2 / 2 kT)."""
    width = np.sqrt(profile.kT)
    lo = np.min(profile.u - 5.0 * width)
    hi_ = np.max(profile.u + 5.0 * width)
    if p_min > lo or p_max < hi_:
        raise ResolutionError(
            f"momentum extent [{p_min}, {p_max}] cannot hold five thermal "
            f"widths (needs [{lo:.3f}, {hi_:.3f}])"
        )
    p = np.linspace(p_min, p_max, n_p)
    vals = profile.f[:, None] * np.exp(
        -((p[None, :] - profile.u[:, None]) ** 2)
        / (2.0 * profile.kT[:, None]))
    grid = WignerGrid(float(profile.q[0]), float(profile.q[-1]),
                      len(profile.q), float(p_min), float(p_max), n_p, vals)
    return normalize(grid)


def one_particle_gibbs(beta, mubar, u):
    """Lattice Gibbs operator exp(-beta(q)[p^2/2 - mu(q) - u(q) p]), symmetrized.

    Returns a histories DensityOperator on the B-bin one-particle space; a
    generator that overflows, on which eigh would not converge, is refused.
    """
    beta = np.asarray(beta, dtype=float)
    mubar = np.asarray(mubar, dtype=float)
    u = np.asarray(u, dtype=float)
    if not (beta.shape == mubar.shape == u.shape) or beta.ndim != 1:
        raise ValueError("beta, mubar and u must share one 1D shape")
    if not np.all(beta > 0):
        raise ValueError("beta must be positive everywhere")
    space = hist.ToyHilbert(B=len(beta), N=1)
    p = hist.one_particle_momentum(space)
    du, db = np.diag(u.astype(complex)), np.diag(beta.astype(complex))
    with np.errstate(over="ignore", invalid="ignore"):
        k_sym = (p @ p / 2.0 - np.diag(mubar.astype(complex))
                 - 0.5 * (du @ p + p @ du))
        gen = 0.5 * (db @ k_sym + k_sym @ db)
    if not np.all(np.isfinite(gen)):
        raise ValueError("the Gibbs generator must be finite")
    vals, vecs = np.linalg.eigh(gen)
    w = np.exp(-(vals - np.min(vals)))
    rho = (vecs * w) @ vecs.conj().T
    rho /= np.real(np.trace(rho))
    return hist.DensityOperator(space, rho)


def hydro_averages(w1: WignerGrid, n_particles, edges) -> HydroFields:
    """Binned <n>, <g>, <h> (and the p^3 energy flux) of N copies of w1.

    The four p-integrals int dp moment(p) W(p, q) are one product of W
    with the (n_p, 4) matrix of trapezoid weight times 1, p, p^2/2 and
    p^3/2; each column is then integrated over the q-bins.
    """
    edges = np.asarray(edges, dtype=float)
    if np.any(np.diff(edges) <= 0):
        raise ValueError("bin edges must be strictly increasing")
    p = w1.p
    trap = _trapezoid_weights(len(p), w1.dp)
    moments = trap[:, None] * np.stack(
        [np.ones_like(p), p, p ** 2 / 2.0, p ** 3 / 2.0], axis=1)
    lines = w1.values @ moments
    n, g, h, flux = (n_particles * bin_integrals(line, w1.q, edges)
                     for line in lines.T)
    centers = 0.5 * (edges[1:] + edges[:-1])
    return HydroFields(centers, np.diff(edges), n, g, h, flux)


def _shift_phases(k, s):
    """The table exp(-i k_l s_j) for an equally spaced k starting at 0.

    With l = 16 a + b, k_l = k_16a + k_b, so the table is the product of
    exp(-i k_16a s_j) and exp(-i k_b s_j): two small tables of exponentials
    instead of one per entry.
    """
    coarse = np.exp(-1j * k[::16, None] * s)
    fine = np.exp(-1j * k[:16, None] * s)
    return (coarse[:, None] * fine).reshape(-1, len(s))[:len(k)]


def evolve_free(w: WignerGrid, t) -> WignerGrid:
    """Exact free streaming W(q, p, t) = W(q - p t, p, 0), periodic in q.

    Spectral shift per momentum row: the rfft of W along q times the phase
    exp(-i k p t), transformed back; conserves the norm exactly.  The rfft
    is the grid's cached half-spectrum, so evolving one grid to several
    times transforms it forward once.
    """
    if not np.isfinite(t):
        raise ValueError(f"free-streaming time must be finite, got {t}")
    span = w.q_max - w.q_min
    p_max = max(abs(w.p_min), abs(w.p_max))
    if p_max * abs(t) > span:
        raise ResolutionError(
            "free-streaming shear exceeds the domain length; shorten t or "
            "enlarge the grid")
    k = 2.0 * np.pi * np.fft.rfftfreq(w.n_q, d=w.dq)
    shift = _shift_phases(k, w.p * t)
    # spectrum times phase in this order: shift *= spectrum rounds otherwise
    vals = np.fft.irfft(np.multiply(w._q_spectrum, shift, out=shift), w.n_q,
                        axis=0)
    # drop the table before with_values copies vals: never both live
    del shift
    return w.with_values(vals)


def continuity_residual(times, fields):
    """Centered-difference residuals of the three collisionless conservation
    laws at unit mass: dn/dt + dg/dx, dg/dt + d(2h)/dx and dh/dt + d j_h/dx.

    ``fields`` holds HydroFields at three or more equally spaced times; the
    residuals are evaluated at the interior times and interior bins, on
    per-length densities.  Returns (residual_n, residual_g, residual_h) as
    arrays of shape (n_interior_times, n_interior_bins).
    """
    times = np.asarray(times, dtype=float)
    if len(times) < 3 or len(fields) != len(times):
        raise ValueError("need at least three aligned time samples")
    dts = np.diff(times)
    if np.max(np.abs(dts - dts[0])) > 1e-9 * dts[0]:
        raise ValueError("time samples must be equally spaced")
    dt = dts[0]
    widths = fields[0].widths
    if np.max(np.abs(widths - widths[0])) > 1e-9 * widths[0]:
        raise ValueError("bins must be uniform")
    dxb = widths[0]
    n = np.array([f.n for f in fields]) / dxb
    g = np.array([f.g for f in fields]) / dxb
    h = np.array([f.h for f in fields]) / dxb
    flux_h = np.array([f.energy_flux for f in fields]) / dxb

    def ddt(a):
        return (a[2:] - a[:-2]) / (2.0 * dt)

    def ddx(a):
        return (a[:, 2:] - a[:, :-2]) / (2.0 * dxb)

    res_n = ddt(n)[:, 1:-1] + ddx(g)[1:-1]
    res_g = ddt(g)[:, 1:-1] + ddx(2.0 * h)[1:-1]
    res_h = ddt(h)[:, 1:-1] + ddx(flux_h)[1:-1]
    return res_n, res_g, res_h


def local_equilibrium_peaking(beta, mubar, u, n_particles, times,
                              tolerance_units: int = 1,
                              dephasing_rate: float = 0.0) -> PeakingReport:
    """Two-time occupation histories of the tensor-power Gibbs state.

    Reports the consistency epsilon and the fraction of diagonal probability
    carried by occupation trajectories within ``tolerance_units`` of the
    mean-field trajectory in every bin at both times 0 <= t1 < t2.  A
    positive ``dephasing_rate`` couples the particles to a
    position-monitoring environment.  The trajectory is read off
    ``histories.product_occupation_functional``, which never forms the
    B^N-dimensional space, and probabilities and epsilon off the blocks of
    its decoherence functional, never off the dense matrix.
    """
    rho1 = one_particle_gibbs(beta, mubar, u)
    p1 = hist.one_particle_momentum(rho1.space)
    func = hist.product_occupation_functional(rho1, p1 @ p1 / 2.0,
                                              n_particles, times,
                                              dephasing_rate)
    mean_traj = func.mean_occupations()
    dmat = func.decoherence
    probs = dmat.probabilities()
    # labels (n1, n2) within tolerance_units of the trajectory in every bin;
    # the built-in sum adds in label order (np.sum would add pairwise)
    inside = np.all(np.abs(np.array(dmat.labels) - np.array(mean_traj))
                    <= tolerance_units, axis=(1, 2))
    on = sum(probs[inside])
    total = probs.sum()
    return PeakingReport(
        epsilon=hist.consistency_epsilon(dmat),
        on_trajectory_fraction=float(on / total),
        mean_trajectory=tuple(tuple(float(x) for x in m) for m in mean_traj),
        probabilities={lab: float(p) for lab, p in zip(dmat.labels, probs)},
    )


def save_hydro_series_csv(times, fields, residuals, path):
    """CSV rows: t, bin, n, g, h, residual_n, residual_g, residual_h.

    Residuals exist only at interior times/bins; other rows carry blanks.
    """
    rows = []
    for it, (t, f) in enumerate(zip(times, fields)):
        for b in range(len(f.centers)):
            interior = 0 < it < len(times) - 1 and 0 < b < len(f.centers) - 1
            res = [r[it - 1, b - 1] if interior else None for r in residuals]
            rows.append([float(t), f.centers[b], f.n[b], f.g[b], f.h[b], *res])
    write_csv(path, ["t", "bin", "n", "g", "h",
                     "residual_n", "residual_g", "residual_h"], rows)
