"""Single-particle phase-space representations.

Wigner quasi-distributions on rectangular (q, p) lattices, position-basis
density matrices rho(x, y), the Fourier map between the two (hbar = 1), the
position-dephasing factor shared by the master equation and the histories,
the check of a list of times shared by the histories and the scenario
rules, and the marginals / moments used everywhere else in the package.

Conventions: values[i, j] samples W at (q_i, p_j); all integrals are
trapezoidal; the density matrix is related to the Wigner function by

    rho(x, y) = int dp  exp(i p (x - y)) W(p, (x + y) / 2)

so that the diagonal rho(x, x) is the position marginal.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass, field, replace
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import DegenerateStateError, ResolutionError

__all__ = [
    "WignerGrid",
    "DensityMatrix",
    "position_dephasing",
    "Marginal",
    "gaussian_wigner",
    "normalize",
    "position_marginal",
    "momentum_marginal",
    "moments",
    "wigner_to_density",
    "density_to_wigner",
    "conjugate_momentum_axis",
    "l1_distance",
    "bin_integrals",
    "atomic_write",
    "write_csv",
]

#: tolerance of the Hermiticity (DensityMatrix) and negativity (Marginal) checks
DEFAULT_TOL = 1e-6
#: boundary mass above which check_domain_coverage warns and l1_distance
#: refuses to resample a grid
COVERAGE_THRESHOLD = 1e-3


def _trapz2(values, dq, dp):
    return float(np.trapezoid(np.trapezoid(values, dx=dp, axis=1), dx=dq))


def _trapezoid_weights(n, step):
    """The n trapezoid weights of spacing ``step``: step, halved at both ends."""
    weights = np.full(n, step)
    weights[[0, -1]] *= 0.5
    return weights


def _resample_matrix(x_min, x_max, n, y):
    """(len(y), n) matrix of band-limited (periodic-sinc, Dirichlet) weights
    taking n samples on [x_min, x_max] to the points y, the Nyquist term a
    cosine for even n; rows of points outside [x_min, x_max] are zero."""
    dx = (x_max - x_min) / (n - 1)
    inside = (y >= x_min) & (y <= x_max)
    # u = (y - x_j) / (n dx), |u| < 1 inside, so sinc(u) > 0
    u = (y[inside, None] - (x_min + dx * np.arange(n))) / (n * dx)
    weights = np.sinc(n * u) / np.sinc(u)
    if n % 2 == 0:
        weights *= np.cos(np.pi * u)
    mat = np.zeros((y.size, n))
    mat[inside] = weights
    return mat


@dataclass(frozen=True)
class WignerGrid:
    """Sampled real phase-space quasi-distribution on a rectangular lattice."""

    q_min: float
    q_max: float
    n_q: int
    p_min: float
    p_max: float
    n_p: int
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.n_q < 8 or self.n_p < 8:
            raise ValueError("grid must have at least 8 points per axis")
        if not (self.q_min < self.q_max and self.p_min < self.p_max):
            raise ValueError("grid extents must be strictly ordered")
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.n_q, self.n_p):
            raise ValueError(
                f"values shape {vals.shape} does not match ({self.n_q}, {self.n_p})"
            )
        vals = vals.copy()
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    @property
    def q(self):
        return np.linspace(self.q_min, self.q_max, self.n_q)

    @property
    def p(self):
        return np.linspace(self.p_min, self.p_max, self.n_p)

    @property
    def dq(self):
        return (self.q_max - self.q_min) / (self.n_q - 1)

    @property
    def dp(self):
        return (self.p_max - self.p_min) / (self.n_p - 1)

    def integral(self):
        return _trapz2(self.values, self.dq, self.dp)

    def with_values(self, values):
        return replace(self, values=values)

    @cached_property
    def _q_spectrum(self):
        """Read-only ``np.fft.rfft(values, axis=0)``, computed on first use.

        Free streaming and the exact kernel both start from it, so a grid
        evolved to several times is transformed along q once.  A grid made
        by ``with_values`` or ``replace`` starts without it.
        """
        spectrum = np.fft.rfft(self.values, axis=0)
        spectrum.flags.writeable = False
        return spectrum


@dataclass(frozen=True)
class DensityMatrix:
    """Complex position-basis kernel rho(x, y) on a uniform 1D lattice."""

    x_min: float
    x_max: float
    n_x: int
    kernel: np.ndarray = field(repr=False)

    def __post_init__(self):
        if not self.x_min < self.x_max:
            raise ValueError("x extents must be strictly ordered")
        ker = np.asarray(self.kernel, dtype=complex)
        if ker.shape != (self.n_x, self.n_x):
            raise ValueError("kernel must be square of shape (n_x, n_x)")
        scale = np.max(np.abs(ker))
        if not scale < np.inf:
            raise ValueError("kernel entries must be finite")
        herm = np.max(np.abs(ker - ker.conj().T))
        if not herm <= 100 * DEFAULT_TOL * max(scale, 1e-300):
            raise ValueError(f"kernel is not Hermitian (deviation {herm:.3e})")
        tr = float(np.real(np.sum(np.diag(ker))) * self.dx)
        if not abs(tr - 1.0) <= 1e-3:
            raise ValueError(f"kernel trace {tr:.6f} is not 1")
        ker = ker.copy()
        ker.flags.writeable = False
        object.__setattr__(self, "kernel", ker)

    @property
    def x(self):
        return np.linspace(self.x_min, self.x_max, self.n_x)

    @property
    def dx(self):
        return (self.x_max - self.x_min) / (self.n_x - 1)

    def trace(self):
        return float(np.real(np.sum(np.diag(self.kernel))) * self.dx)

    def with_kernel(self, kernel):
        return replace(self, kernel=kernel)


def position_dephasing(coords, rate, dt):
    """Elementwise factor exp(-rate dt sum_k (x_ak - x_bk)^2) on rho[a, b].

    ``coords`` is a (dim, k) array of the k position coordinates of each
    basis state.  The factor solves d rho/dt = -rate |x_a - x_b|^2 rho
    exactly over dt: position monitoring damps off-diagonals and leaves the
    diagonal, hence the trace, unchanged.
    """
    # accumulate one coordinate at a time: no (dim, dim, k) temporary
    dist2 = np.zeros((coords.shape[0], coords.shape[0]))
    for k in range(coords.shape[1]):
        d = np.subtract.outer(coords[:, k], coords[:, k])
        d *= d
        dist2 += d
    return np.exp(-(rate * dt) * dist2)


def _checked_times(times):
    """``times`` as floats, refused unless nonempty, nonnegative, increasing."""
    t = tuple(float(x) for x in times)
    if len(t) == 0 or not all(b > a for a, b in zip(t, t[1:])):
        raise ValueError("times must be nonempty and strictly increasing")
    if not t[0] >= 0:
        raise ValueError("times must be nonnegative")
    return t


@dataclass(frozen=True)
class Marginal:
    """One-dimensional probability density sampled on a uniform axis."""

    axis: str  # "position" or "momentum"
    samples: np.ndarray = field(repr=False)
    spacing: float
    origin: float = 0.0

    def __post_init__(self):
        if self.axis not in ("position", "momentum"):
            raise ValueError("axis must be 'position' or 'momentum'")
        s = np.asarray(self.samples, dtype=float)
        if np.min(s) < -100 * DEFAULT_TOL * max(np.max(np.abs(s)), 1e-300):
            raise ValueError("marginal has significantly negative samples")
        total = float(np.trapezoid(s, dx=self.spacing))
        if not abs(total - 1.0) <= 1e-3:
            raise ValueError(f"marginal integrates to {total:.6f}, expected 1")
        s = s.copy()
        s.flags.writeable = False
        object.__setattr__(self, "samples", s)

    @property
    def grid(self):
        return self.origin + self.spacing * np.arange(len(self.samples))

    def mean(self):
        return float(np.trapezoid(self.grid * self.samples, dx=self.spacing))

    def variance(self):
        m = self.mean()
        return float(
            np.trapezoid((self.grid - m) ** 2 * self.samples, dx=self.spacing)
        )


def gaussian_wigner(q_min, q_max, n_q, p_min, p_max, n_p,
                    mean_q=0.0, mean_p=0.0, var_q=1.0, var_p=1.0, cov_qp=0.0):
    """Normalized correlated-Gaussian Wigner grid (test fixture and initial data)."""
    det = var_q * var_p - cov_qp ** 2
    if not det > 0:
        raise ValueError("covariance matrix must be positive definite")
    q = np.linspace(q_min, q_max, n_q)[:, None]
    p = np.linspace(p_min, p_max, n_p)[None, :]
    dq_ = q - mean_q
    dp_ = p - mean_p
    quad = (var_p * dq_ ** 2 - 2 * cov_qp * dq_ * dp_ + var_q * dp_ ** 2) / det
    vals = np.exp(-0.5 * quad) / (2 * np.pi * np.sqrt(det))
    return normalize(WignerGrid(q_min, q_max, n_q, p_min, p_max, n_p, vals))


def normalize(w: WignerGrid) -> WignerGrid:
    """Rescale a grid so its trapezoidal integral is exactly 1."""
    abs_total = _trapz2(np.abs(w.values), w.dq, w.dp)
    total = w.integral()
    # a NaN or infinite value makes abs_total NaN or inf, and fails too
    if not (abs_total < np.inf
            and abs(total) >= max(1e-12 * abs_total, 1e-300)):
        raise DegenerateStateError("grid has no usable mass to normalize")
    return w.with_values(w.values / total)


def _check_normalized(w):
    if not abs(w.integral() - 1.0) <= 1e-3:
        raise ValueError("operation requires a normalized WignerGrid")


def position_marginal(w: WignerGrid) -> Marginal:
    """f(q) = int dp W(q, p)."""
    _check_normalized(w)
    f = np.trapezoid(w.values, dx=w.dp, axis=1)
    return Marginal("position", np.clip(f, 0.0, None), w.dq, origin=w.q_min)


def momentum_marginal(w: WignerGrid) -> Marginal:
    """g(p) = int dq W(q, p)."""
    _check_normalized(w)
    g = np.trapezoid(w.values, dx=w.dq, axis=0)
    return Marginal("momentum", np.clip(g, 0.0, None), w.dp, origin=w.p_min)


def moments(w: WignerGrid):
    """First and second quadrature moments (mean_q, mean_p, var_q, var_p, cov_qp)."""
    _check_normalized(w)
    q, p = w.q, w.p
    wq = _trapezoid_weights(w.n_q, w.dq)
    wp = _trapezoid_weights(w.n_p, w.dp)
    # the marginals int W dp and int W dq and the current int p W dp are
    # three products with trapezoid weights; the moments are 1-D sums of
    # them.  cov_qp needs no mean_p term: (q - mean_q) integrates to 0
    n_of_q = w.values @ wp
    current = w.values @ (wp * p)
    n_of_p = wq @ w.values
    mean_q = float(wq @ (q * n_of_q))
    mean_p = float(wp @ (p * n_of_p))
    var_q = float(wq @ ((q - mean_q) ** 2 * n_of_q))
    var_p = float(wp @ ((p - mean_p) ** 2 * n_of_p))
    cov_qp = float(wq @ ((q - mean_q) * current))
    return mean_q, mean_p, var_q, var_p, cov_qp


def conjugate_momentum_axis(x_min, x_max, n_x):
    """Momentum lattice conjugate to a spatial lattice (exact DFT pairing).

    Returns (p_min, p_max, n_p) with spacing 2*pi / (n_x * dx).
    """
    dx = (x_max - x_min) / (n_x - 1)
    k = np.fft.fftshift(np.fft.fftfreq(n_x, d=dx)) * 2 * np.pi
    return float(k[0]), float(k[-1]), n_x


def wigner_to_density(w: WignerGrid) -> DensityMatrix:
    """rho(x, y) = int dp exp(i p (x - y)) W(p, (x + y)/2) on the q lattice.

    W at the midpoints between grid rows is the band-limited (Fourier)
    interpolant along q; the p integral is trapezoidal.  Raises
    ResolutionError when the momentum lattice is too coarse to resolve the
    oscillatory kernel across the spatial domain.
    """
    _check_normalized(w)
    n = w.n_q
    dq, dp = w.dq, w.dp
    length = w.q_max - w.q_min
    # dp * L = 2*pi is the exact conjugate (DFT) pairing; anything coarser
    # aliases the kernel exp(i p (x - y)) across the spatial domain.
    if dp * length > 2 * np.pi * (1 + 1e-9):
        raise ResolutionError(
            "momentum lattice too coarse/narrow for the spatial extent "
            f"(dp * L = {dp * length:.3f} > 2*pi); refine or widen the p lattice"
        )
    # W on the half-spacing lattice of midpoints (x_a + x_b)/2: the grid rows,
    # and between them their band-limited resample
    w_half = np.empty((2 * n - 1, w.n_p))  # (2n-1, n_p)
    w_half[0::2] = w.values
    w_half[1::2] = _resample_matrix(w.q_min, w.q_max, n,
                                    w.q[:-1] + 0.5 * dq) @ w.values

    # m[s, d] = sum_p W(p, midpoint s) exp(i p d dq) tw(p) is rho(x_a, x_b)
    # at s = a + b, d = a - b >= 0; the upper triangle is its conjugate
    tw = _trapezoid_weights(w.n_p, dp)
    angle = w.p[:, None] * np.arange(n) * dq  # (n_p, n)
    a, b = np.indices((n, n))
    s, d = a + b, np.abs(a - b)
    sign = np.where(a >= b, 1.0, -1.0)
    rho = ((w_half @ (np.cos(angle) * tw[:, None]))[s, d]
           + 1j * sign * (w_half @ (np.sin(angle) * tw[:, None]))[s, d])
    return DensityMatrix(w.q_min, w.q_max, n, rho)


def density_to_wigner(rho: DensityMatrix) -> WignerGrid:
    """Inverse Fourier map onto the momentum lattice conjugate to the x lattice.

    rho(x + r/2, x - r/2) at r = m dx is read off the lattice for even m and
    off the band-limited resample of the kernel, half a step away, for odd m.
    """
    n = rho.n_x
    dx = rho.dx
    x = rho.x
    # cut the aliased corners |a - b| ~ n of a kernel from the conjugate
    # lattice first, or they ring into the band |a - b| <= n/2 that is read
    band = n // 2 + 1
    ker = np.triu(np.tril(rho.kernel, band), -band)
    shifted = (_resample_matrix(rho.x_min, rho.x_max, n, x + 0.5 * dx) @ ker
               @ _resample_matrix(rho.x_min, rho.x_max, n, x - 0.5 * dx).T)

    a = np.arange(n)
    m = a - n // 2
    r = m * dx
    # rho(x_a + r/2, x_a - r/2) is ker[a + j, a - j] for m = 2j and
    # shifted[a + j, a - j] for m = 2j + 1
    rows, cols = a[:, None] + m // 2, a[:, None] - m // 2
    inside = (np.minimum(rows, cols) >= 0) & (np.maximum(rows, cols) < n)
    c = np.where(inside, np.stack([ker, shifted])[m % 2, rows % n, cols % n],
                 0.0)

    p_min, p_max, n_p = conjugate_momentum_axis(rho.x_min, rho.x_max, n)
    p = np.linspace(p_min, p_max, n_p)
    kernel = np.exp(-1j * np.outer(r, p))  # (n_r, n_p)
    vals = (c @ kernel).real * dx / (2 * np.pi)
    w = WignerGrid(rho.x_min, rho.x_max, n, p_min, p_max, n_p, vals)
    return normalize(w)


def l1_distance(a: WignerGrid, b: WignerGrid) -> float:
    """L1 distance between two grids; b is resampled onto a's lattice.

    The resample is band-limited (periodic) on b's lattice and zero outside
    b's extent, so b must vanish at its edges: a ResolutionError is raised
    when b's boundary carries more than COVERAGE_THRESHOLD of mass.
    """
    if (a.q_min, a.q_max, a.n_q, a.p_min, a.p_max, a.n_p) == \
       (b.q_min, b.q_max, b.n_q, b.p_min, b.p_max, b.n_p):
        bv = b.values
    else:
        edge = _edge_mass(b)
        if edge > COVERAGE_THRESHOLD:
            raise ResolutionError(
                f"grid boundary carries non-negligible mass ({edge:.2e}); "
                "cannot resample it onto another lattice")
        bv = (_resample_matrix(b.q_min, b.q_max, b.n_q, a.q) @ b.values
              @ _resample_matrix(b.p_min, b.p_max, b.n_p, a.p).T)
    return _trapz2(np.abs(a.values - bv), a.dq, a.dp)


def bin_integrals(line, x, edges):
    """Integrals of the line density sampled on x over the bins between edges.

    Trapezoidal running integral of ``line``, linearly interpolated at the
    edges and differenced.
    """
    line, x = np.asarray(line), np.asarray(x)
    steps = np.diff(x) * (line[1:] + line[:-1]) / 2.0
    cum = np.concatenate([[0.0], np.cumsum(steps)])
    return np.diff(np.interp(edges, x, cum))


def _edge_mass(w: WignerGrid):
    """Boundary |W|, integrated along each edge times the extent across it."""
    return float(
        np.trapezoid(np.abs(w.values[0, :]) + np.abs(w.values[-1, :]), dx=w.dp)
        * (w.q_max - w.q_min)
        + np.trapezoid(np.abs(w.values[:, 0]) + np.abs(w.values[:, -1]), dx=w.dq)
        * (w.p_max - w.p_min)
    )


def check_domain_coverage(w: WignerGrid):
    """Warn when a non-negligible fraction of mass sits near the grid boundary."""
    edge = _edge_mass(w)
    if edge > COVERAGE_THRESHOLD:
        warnings.warn(
            f"grid boundary carries non-negligible mass ({edge:.2e}); "
            "consider enlarging the domain",
            stacklevel=2,
        )
    return edge


# --- serialization ---------------------------------------------------------


def atomic_write(path, text):
    """Write text to path through a temporary file beside it and os.replace.

    Readers see the old file or the complete new one, never a partial write;
    line endings are written as given.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_text(text, encoding="utf-8", newline="")
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _csv_cell(v):
    if isinstance(v, str):
        if set(v) & set(',"\r\n'):
            raise ValueError(f"CSV cell {v!r} needs quoting")
        return v
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if v is None:
        return ""
    raise TypeError(f"cannot write a {type(v).__name__} CSV cell")


def write_csv(path, header, rows):
    """Write a header row and data rows as CSV, atomically.

    Every artifact of the package goes through here.  Cells: floats (Python
    or numpy) as repr(float(v)), which reads back exactly; ints as
    str(int(v)); None as an empty cell; str unchanged (no quoting, so a str
    cell may not hold a comma, quote or line break).  Every line ends in \\n.
    """
    lines = [",".join(map(_csv_cell, header))]
    lines.extend(",".join(map(_csv_cell, row)) for row in rows)
    atomic_write(path, "\n".join(lines) + "\n")
