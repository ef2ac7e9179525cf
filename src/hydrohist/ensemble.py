"""Statistics of non-interacting N-particle product ensembles.

The N-particle phase-space distribution is a product of identical
one-particle Wigner functions, so every coarse-grained density is a sum of
independent one-particle contributions.  Binned number densities follow a
multinomial law: with p_b the one-particle mass in top-hat bin b,

    <n_b> = N p_b,      Var n_b = N p_b (1 - p_b),

and the relative fluctuation (1/N)(1 - p_b)/p_b decays as 1/N.  The binned
fields n_b and g_b come from ``local_equilibrium.hydro_averages``, and g
carries the constitutive relation of the diffusive regime,

    <g(x)> = -(kT / 2 gamma) d<n>/dx,

checked per bin by the relation ``propagator.constitutive_check`` applies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionCapError, UndefinedFluctuationError
from .histories import _compositions
from .local_equilibrium import hydro_averages
from .phase_space import WignerGrid, write_csv
from .propagator import QbmParams, _constitutive_relation

__all__ = [
    "ProductEnsemble",
    "SmearingWindow",
    "DensityField",
    "OccupationDistribution",
    "bin_probabilities",
    "number_density_variance",
    "relative_fluctuation",
    "occupation_distribution",
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
    """One-particle mass p_b per bin: the signed bin integral of W, not
    clipped at 0, so a significantly negative bin raises ``HydroFields``'
    ValueError; a bin off the grid reads exactly 0."""
    return hydro_averages(ens.one_particle_state, 1, window.edges).n


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


def constitutive_residual(ens: ProductEnsemble, window: SmearingWindow,
                          params: QbmParams) -> DensityField:
    """Per-bin residual of <g> = -(kT / 2 gamma) d<n>/dx for per-length
    densities, with n and g from one ``hydro_averages`` call."""
    fields = hydro_averages(ens.one_particle_state, ens.N, window.edges)
    res = _constitutive_relation(window.centers, fields.g / window.widths,
                                 fields.n / window.widths, params)
    return DensityField(window.centers, window.widths, res.residual)


def save_density_field_csv(fieldv: DensityField, path):
    """CSV columns: bin_center, bin_width, value[, variance]."""
    columns = [fieldv.centers, fieldv.widths, fieldv.values]
    header = ["bin_center", "bin_width", "value"]
    if fieldv.variances is not None:
        columns.append(fieldv.variances)
        header.append("variance")
    write_csv(path, header, zip(*columns))
