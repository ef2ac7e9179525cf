"""Statistics of non-interacting N-particle product ensembles.

The N-particle phase-space distribution is a product of identical
one-particle Wigner functions, so every coarse-grained density is a sum of
independent one-particle contributions.  Binned number densities follow a
multinomial law: with p_b the one-particle mass in top-hat bin b,

    <n_b> = N p_b,      Var n_b = N p_b (1 - p_b),

and the relative fluctuation (1/N)(1 - p_b)/p_b decays as 1/N.  The momentum
density carries the constitutive relation of the diffusive regime,

    <g(x)> = -N (kT / 2 gamma) d<f>/dx,

checked here per bin against the discrete gradient of the number density.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionCapError, UndefinedFluctuationError
from .histories import _compositions
from .phase_space import (WignerGrid, bin_integrals, position_marginal,
                          write_csv)
from .propagator import QbmParams

__all__ = [
    "ProductEnsemble",
    "SmearingWindow",
    "DensityField",
    "OccupationDistribution",
    "bin_probabilities",
    "mean_number_density",
    "number_density_variance",
    "relative_fluctuation",
    "occupation_distribution",
    "mean_momentum_density",
    "constitutive_residual",
    "save_density_field_csv",
]

#: exact multinomial enumeration is limited to this many particles / bins
ENUMERATION_N_CAP = 12
ENUMERATION_BIN_CAP = 6
#: uncovered one-particle mass above which an "elsewhere" bin is added
ELSEWHERE_MASS_TOL = 1e-9


@dataclass(frozen=True)
class ProductEnsemble:
    """N independent particles, each in the same one-particle Wigner state."""

    N: int
    one_particle_state: WignerGrid

    def __post_init__(self):
        if not isinstance(self.N, (int, np.integer)) or self.N < 1:
            raise ValueError("N must be a positive integer")
        total = self.one_particle_state.integral()
        if abs(total - 1.0) > 1e-3:
            raise ValueError(f"one-particle state integrates to {total:.6f}")


@dataclass(frozen=True)
class SmearingWindow:
    """Disjoint ordered top-hat position bins."""

    edges: np.ndarray

    def __post_init__(self):
        e = np.asarray(self.edges, dtype=float)
        if e.ndim != 1 or len(e) < 2:
            raise ValueError("need at least two bin edges")
        if np.any(np.diff(e) <= 0):
            raise ValueError("bin edges must be strictly increasing")
        e = e.copy()
        e.flags.writeable = False
        object.__setattr__(self, "edges", e)

    @property
    def n_bins(self):
        return len(self.edges) - 1

    @property
    def centers(self):
        return 0.5 * (self.edges[1:] + self.edges[:-1])

    @property
    def widths(self):
        return np.diff(self.edges)


@dataclass(frozen=True)
class DensityField:
    """Per-bin values of a coarse-grained density (counts or count-weighted)."""

    centers: np.ndarray
    widths: np.ndarray
    values: np.ndarray
    variances: np.ndarray = None

    def __post_init__(self):
        for name in ("centers", "widths", "values", "variances"):
            a = getattr(self, name)
            if a is not None:
                a = np.asarray(a, dtype=float)
                a.flags.writeable = False
                object.__setattr__(self, name, a)


@dataclass(frozen=True)
class OccupationDistribution:
    """Exact multinomial law over occupation vectors (rows of ``vectors``)."""

    vectors: np.ndarray
    probabilities: np.ndarray
    bin_probabilities: np.ndarray
    N: int

    def mean(self):
        return self.probabilities @ self.vectors

    def variance(self):
        m = self.mean()
        return self.probabilities @ (self.vectors - m) ** 2


def bin_probabilities(ens: ProductEnsemble, window: SmearingWindow):
    """One-particle mass p_b per bin."""
    density = position_marginal(ens.one_particle_state)
    return bin_integrals(density.samples, density.grid, window.edges)


def mean_number_density(ens: ProductEnsemble, window: SmearingWindow) -> DensityField:
    """<n_b> = N p_b per bin."""
    p = bin_probabilities(ens, window)
    return DensityField(window.centers, window.widths, ens.N * p)


def number_density_variance(ens: ProductEnsemble,
                            window: SmearingWindow) -> DensityField:
    """Binomial Var n_b = N (p_b - p_b^2) per bin."""
    p = bin_probabilities(ens, window)
    var = ens.N * (p - p ** 2)
    return DensityField(window.centers, window.widths, ens.N * p, variances=var)


def relative_fluctuation(ens: ProductEnsemble,
                         window: SmearingWindow) -> DensityField:
    """Var n_b / <n_b>^2 = (1/N)(p - p^2)/p^2; 1/N scaling."""
    p = bin_probabilities(ens, window)
    if np.any(p <= 0):
        bad = np.flatnonzero(p <= 0)
        raise UndefinedFluctuationError(
            f"bins {bad.tolist()} carry no one-particle mass"
        )
    rel = (p - p ** 2) / (ens.N * p ** 2)
    return DensityField(window.centers, window.widths, rel)


def occupation_distribution(ens: ProductEnsemble,
                            window: SmearingWindow) -> OccupationDistribution:
    """Multinomial law over per-bin occupation vectors, enumerated exactly.

    Bins not covering the full one-particle mass are padded with an
    "elsewhere" bin.  Every composition of N into the bins is listed with
    its probability N! / prod n_b! prod p_b^n_b, so instances are capped at
    N <= ENUMERATION_N_CAP particles and ENUMERATION_BIN_CAP bins, the pad
    included; past either cap a DimensionCapError is raised.
    """
    p = bin_probabilities(ens, window)
    rest = 1.0 - p.sum()
    if rest > ELSEWHERE_MASS_TOL:
        p = np.append(p, rest)
    p = np.clip(p, 0.0, None)
    p = p / p.sum()
    k = len(p)
    if ens.N > ENUMERATION_N_CAP or k > ENUMERATION_BIN_CAP:
        raise DimensionCapError(
            f"exact enumeration capped at N <= {ENUMERATION_N_CAP}, "
            f"{ENUMERATION_BIN_CAP} bins")
    vectors = np.array(_compositions(ens.N, k), dtype=int)
    # N! / prod n_b!, an exact integer in int64 for N <= 12
    fact = np.array([math.factorial(n) for n in range(ens.N + 1)])
    coef = math.factorial(ens.N) // fact[vectors].prod(axis=1)
    probs = coef * np.prod(p ** vectors, axis=1)
    return OccupationDistribution(vectors, probs, p, ens.N)


def mean_momentum_density(ens: ProductEnsemble,
                          window: SmearingWindow) -> DensityField:
    """<g_b> = N * (bin integral of int dp p W(p,q))."""
    w = ens.one_particle_state
    current = np.trapezoid(w.values * w.p[None, :], dx=w.dp, axis=1)
    return DensityField(window.centers, window.widths,
                        ens.N * bin_integrals(current, w.q, window.edges))


def constitutive_residual(ens: ProductEnsemble, window: SmearingWindow,
                          params: QbmParams) -> DensityField:
    """Per-bin residual of <g> = -(kT / 2 gamma) d<n>/dx for per-length densities."""
    g = mean_momentum_density(ens, window).values / window.widths
    n = mean_number_density(ens, window).values / window.widths
    grad = np.gradient(n, window.centers)
    expected = -params.kT / (2.0 * params.gamma) * grad
    return DensityField(window.centers, window.widths, g - expected)


def save_density_field_csv(fieldv: DensityField, path):
    """CSV columns: bin_center, bin_width, value[, variance]."""
    columns = [fieldv.centers, fieldv.widths, fieldv.values]
    header = ["bin_center", "bin_width", "value"]
    if fieldv.variances is not None:
        columns.append(fieldv.variances)
        header.append("variance")
    write_csv(path, header, zip(*columns))
