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
from .phase_space import (Marginal, WignerGrid, bin_integrals,
                          position_marginal, write_csv)
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
#: multinomial draws of a sampled occupation distribution
OCCUPATION_SAMPLES = 20000
#: uncovered one-particle mass above which an "elsewhere" bin is added
ELSEWHERE_MASS_TOL = 1e-9


@dataclass(frozen=True)
class ProductEnsemble:
    """N independent particles, each in the same one-particle state.

    The state may be a WignerGrid or, for position-only work, a Marginal.
    """

    N: int
    one_particle_state: object

    def __post_init__(self):
        if not isinstance(self.N, (int, np.integer)) or self.N < 1:
            raise ValueError("N must be a positive integer")
        st = self.one_particle_state
        if isinstance(st, WignerGrid):
            total = st.integral()
        elif isinstance(st, Marginal):
            total = np.trapezoid(st.samples, dx=st.spacing)
        else:
            raise TypeError("one_particle_state must be WignerGrid or Marginal")
        if abs(total - 1.0) > 1e-3:
            raise ValueError(f"one-particle state integrates to {total:.6f}")

    def position_density(self) -> Marginal:
        st = self.one_particle_state
        if isinstance(st, Marginal):
            if st.axis != "position":
                raise ValueError("marginal ensemble state must be a position density")
            return st
        return position_marginal(st)

    def wigner(self) -> WignerGrid:
        if not isinstance(self.one_particle_state, WignerGrid):
            raise TypeError("this operation needs a full phase-space state")
        return self.one_particle_state


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
    """Distribution over occupation vectors (rows of ``vectors``).

    ``exact`` marks full multinomial enumeration; sampled distributions carry
    per-vector standard errors of the empirical probabilities.
    """

    vectors: np.ndarray
    probabilities: np.ndarray
    bin_probabilities: np.ndarray
    N: int
    exact: bool
    std_errors: np.ndarray = None

    def mean(self):
        return self.probabilities @ self.vectors

    def variance(self):
        m = self.mean()
        return self.probabilities @ (self.vectors - m) ** 2


def bin_probabilities(ens: ProductEnsemble, window: SmearingWindow):
    """One-particle mass p_b per bin."""
    density = ens.position_density()
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


def occupation_distribution(ens: ProductEnsemble, window: SmearingWindow,
                            rng=None) -> OccupationDistribution:
    """Multinomial law over per-bin occupation vectors.

    Bins not covering the full one-particle mass are padded with an
    "elsewhere" bin.  Small instances (N <= 12, <= 6 bins including the pad)
    are enumerated exactly; larger ones need a generator for seeded
    multinomial sampling, with standard errors on the empirical frequencies.
    """
    p = bin_probabilities(ens, window)
    rest = 1.0 - p.sum()
    if rest > ELSEWHERE_MASS_TOL:
        p = np.append(p, rest)
    p = np.clip(p, 0.0, None)
    p = p / p.sum()
    k = len(p)
    exact_ok = ens.N <= ENUMERATION_N_CAP and k <= ENUMERATION_BIN_CAP
    if exact_ok:
        vectors = np.array(_compositions(ens.N, k), dtype=int)
        # N! / prod n_b!, an exact integer in int64 for N <= 12
        fact = np.array([math.factorial(n) for n in range(ens.N + 1)])
        coef = math.factorial(ens.N) // fact[vectors].prod(axis=1)
        probs = coef * np.prod(p ** vectors, axis=1)
        return OccupationDistribution(vectors, probs, p, ens.N, exact=True)
    if rng is None:
        raise DimensionCapError(
            f"exact enumeration capped at N <= {ENUMERATION_N_CAP}, "
            f"{ENUMERATION_BIN_CAP} bins; pass a seeded generator for sampling"
        )
    draws = rng.multinomial(ens.N, p, size=OCCUPATION_SAMPLES)
    vectors, counts = np.unique(draws, axis=0, return_counts=True)
    probs = counts / OCCUPATION_SAMPLES
    se = np.sqrt(probs * (1.0 - probs) / OCCUPATION_SAMPLES)
    return OccupationDistribution(vectors, probs, p, ens.N, exact=False,
                                  std_errors=se)


def mean_momentum_density(ens: ProductEnsemble,
                          window: SmearingWindow) -> DensityField:
    """<g_b> = N * (bin integral of int dp p W(p,q))."""
    w = ens.wigner()
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
