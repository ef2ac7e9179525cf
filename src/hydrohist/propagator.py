"""Single-particle quantum-Brownian-motion dynamics.

The model is a free particle with damping rate gamma coupled to a thermal
bath at temperature kT (hbar = 1 throughout, Boltzmann constant folded into
kT).  Three mutually consistent descriptions are implemented:

- the Kramers phase-space equation

      dW/dt = -(p/M) dW/dq + 2*gamma d(p W)/dp + 2*M*gamma*kT d^2W/dp^2

  solved either analytically (Gaussian transition kernel) or numerically
  (Strang splitting: explicit flux-limited upwind advection in q, and the
  Ornstein-Uhlenbeck momentum sector in the Chang-Cooper flux
  discretization, stepped with its exact propagator exp(dt L), which is
  nonnegative and mass-conserving for any dt, so that only the advection
  Courant limit bounds dt);

- the position-basis master equation with kinetic, dissipation
  (-gamma (x-y)(d_x - d_y) rho) and decoherence (-2 M gamma kT (x-y)^2 rho)
  terms, Strang split: the decoherence term is applied as its exact
  elementwise factor and the kinetic and dissipation terms are stepped
  with explicit RK4.  The step is a linear map on the raw kernel, so it
  also evolves kernels that are neither Hermitian nor of unit trace, such
  as the off-diagonal blocks P rho P' of a history; it commutes with the
  conjugate transpose in floating point, so a Hermitian kernel stays
  Hermitian by construction, not by a projection;

- the diffusive limit: D = kT / (2 M gamma), the constitutive relation
  <p>(q) = -(kT / 2 gamma) df/dq, and a least-squares diffusion-constant fit.

The analytic propagator applies the exact Gaussian kernel of the Kramers
equation (mean from the damped classical path, covariance from the moment
ODEs).  The truncated long-time coefficient forms

    alpha -> 1/(2 M kT),  beta -> M gamma/(2 kT t),  eps -> -1/(2 kT t)

are exposed by ``longtime_coefficients``; they reproduce the exact kernel
only up to O(1/gamma t) corrections in the covariance, which is too crude
for the tight oracle comparisons, so the propagator does not use them.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    DivergenceError,
    FitQualityError,
    ResolutionError,
    StepSizeError,
)
from .phase_space import (
    DensityMatrix,
    WignerGrid,
    check_domain_coverage,
    moments,
    normalize,
    position_dephasing,
    position_marginal,
)

__all__ = [
    "QbmParams",
    "PropagatorCoefficients",
    "DiffusionFit",
    "ConstitutiveResidual",
    "classical_path",
    "longtime_coefficients",
    "kernel_mean_map",
    "kernel_covariance",
    "propagate_analytic",
    "fokker_planck_dt_bound",
    "evolve_fokker_planck",
    "master_equation_rhs",
    "master_dt_bound",
    "evolve_master_equation",
    "diffusion_coefficient",
    "fit_diffusion",
    "constitutive_check",
]

#: fewest lattice spacings per input standard deviation, on each axis, for
#: propagate_analytic.  The exact transforms shift samples band-limitedly, so
#: their error is the input's spectral content past the Nyquist frequency,
#: about exp(-(pi r)^2 / 2) for a Gaussian of r spacings: 1.5e-5 at r = 1.5.
#: Against the closed-form W_t over t in [0.01, 3], the L1 error at r = 1.5
#: was at most 7e-6, and at r = 1 it reached 9e-3.
MIN_SPACINGS_PER_SIGMA = 1.5


@dataclass(frozen=True)
class QbmParams:
    """Mass, damping rate and thermal energy of one Brownian particle."""

    M: float
    gamma: float
    kT: float

    def __post_init__(self):
        for name in ("M", "gamma", "kT"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be strictly positive")


@dataclass(frozen=True)
class PropagatorCoefficients:
    """Gaussian kernel exponent coefficients exp(-alpha dp^2 - beta dq^2 - eps dp dq)."""

    alpha: float
    beta: float
    epsilon: float
    t: float

    def __post_init__(self):
        if not (self.alpha > 0 and self.beta > 0):
            raise ValueError("alpha and beta must be positive")
        if not 4 * self.alpha * self.beta - self.epsilon ** 2 > 0:
            raise ValueError("coefficients do not define a normalizable Gaussian")

    def covariance(self):
        """2x2 covariance of the kernel in (q, p) ordering."""
        det = 4 * self.alpha * self.beta - self.epsilon ** 2
        return np.array(
            [
                [2 * self.alpha / det, -self.epsilon / det],
                [-self.epsilon / det, 2 * self.beta / det],
            ]
        )


@dataclass(frozen=True)
class DiffusionFit:
    D_fit: float
    D_theory: float
    fit_window: tuple

    @property
    def relative_error(self):
        return abs(self.D_fit - self.D_theory) / self.D_theory


@dataclass(frozen=True)
class ConstitutiveResidual:
    """residual(q) = int dp p W(p,q) + (kT / 2 gamma) df/dq and its relative size."""

    q: np.ndarray
    current: np.ndarray
    gradient_term: np.ndarray
    residual: np.ndarray
    relative_sup: float


def classical_path(q0, p0, t, params: QbmParams):
    """Damped classical trajectory (q_cl, p_cl) at time t >= 0."""
    if not np.all(np.asarray(t) >= 0):
        raise ValueError("t must be nonnegative")
    decay = np.exp(-2.0 * params.gamma * t)
    q_cl = q0 + p0 / (2.0 * params.M * params.gamma) * (1.0 - decay)
    p_cl = p0 * decay
    return q_cl, p_cl


def longtime_coefficients(params: QbmParams, t) -> PropagatorCoefficients:
    """Asymptotic kernel coefficients, valid for gamma*t >> 1."""
    if not t > 0:
        raise ValueError("t must be positive")
    if params.gamma * t < 3:
        warnings.warn(
            f"gamma*t = {params.gamma * t:.2f} < 3: asymptotic coefficients "
            "are unreliable at this time",
            stacklevel=2,
        )
    alpha = 1.0 / (2.0 * params.M * params.kT)
    beta = params.M * params.gamma / (2.0 * params.kT * t)
    epsilon = -1.0 / (2.0 * params.kT * t)
    return PropagatorCoefficients(alpha, beta, epsilon, t)


def kernel_mean_map(params: QbmParams, t):
    """Linear map z -> A z taking (q0, p0) to the kernel mean (q_cl, p_cl)."""
    decay = math.exp(-2.0 * params.gamma * t)
    c = (1.0 - decay) / (2.0 * params.M * params.gamma)
    return np.array([[1.0, c], [0.0, decay]])


def kernel_covariance(params: QbmParams, t):
    """Exact transition-kernel covariance in (q, p) ordering.

    Solution of the second-moment ODEs of the Kramers equation from a point
    source:  d<p^2>/dt = -4 g <p^2> + 4 M g kT,  d<qp>/dt = <p^2>/M - 2 g <qp>,
    d<q^2>/dt = 2 <qp>/M.
    """
    g, M, kT = params.gamma, params.M, params.kT
    e2 = math.exp(-2.0 * g * t)
    e4 = math.exp(-4.0 * g * t)
    s_pp = M * kT * (1.0 - e4)
    s_qp = kT / (2.0 * g) * (1.0 - e2) ** 2
    s_qq = kT / (M * g) * (t - (1.0 - e2) / g + (1.0 - e4) / (4.0 * g))
    return np.array([[s_qq, s_qp], [s_qp, s_pp]])


def propagate_analytic(w0: WignerGrid, t, params: QbmParams) -> WignerGrid:
    """Apply the exact Gaussian transition kernel to w0 in Fourier space.

    The discrete characteristic function of w0 is evaluated exactly at the
    sheared frequencies A^T k, multiplied by the kernel's Gaussian factor
    and transformed back.  The output lives on the input lattice; a
    ResolutionError is raised when the input's standard deviation spans
    fewer than MIN_SPACINGS_PER_SIGMA lattice spacings on either axis, or
    when the evolved state cannot fit in the domain.
    """
    if not t >= 0:
        raise ValueError("t must be nonnegative")
    if t == 0.0:
        return w0.with_values(w0.values)
    a = kernel_mean_map(params, t)
    sigma = kernel_covariance(params, t)

    mq, mp, vq, vp, cqp = moments(w0)
    for axis, var, step in (("q", vq, w0.dq), ("p", vp, w0.dp)):
        spacings = math.sqrt(max(var, 0.0)) / step
        if not spacings >= MIN_SPACINGS_PER_SIGMA:
            raise ResolutionError(
                f"the input's {axis} standard deviation spans {spacings:.3g} "
                f"lattice spacings, fewer than {MIN_SPACINGS_PER_SIGMA}; "
                "refine the grid")
    cov0 = np.array([[vq, cqp], [cqp, vp]])
    cov = a @ cov0 @ a.T + sigma
    if 3.0 * math.sqrt(cov[0, 0]) > 0.5 * (w0.q_max - w0.q_min) or \
       3.0 * math.sqrt(cov[1, 1]) > 0.5 * (w0.p_max - w0.p_min):
        raise ResolutionError(
            "evolved state does not fit in the grid domain; enlarge the grid"
        )

    nq, np_ = w0.n_q, w0.n_p
    kq = 2 * np.pi * np.fft.fftfreq(nq, d=w0.dq)[:, None]
    kp = 2 * np.pi * np.fft.fftfreq(np_, d=w0.dp)[None, :]
    p = w0.p[:, None]

    # characteristic function of w0 at the sheared frequencies
    # A^T k = (kq, A01 kq + A11 kp): an FFT along q, then the exact sum over
    # p_j, which factorizes as exp(-i A01 kq p_j) exp(-i A11 kp p_j).  The
    # quadrature weight dq dp and the q-origin phases exp(-/+ i kq q_min)
    # cancel between this transform and the inverse one, since q is not
    # sheared.
    ft = np.fft.fft(w0.values, axis=0)
    ft *= np.exp(-1j * a[0, 1] * kq * p.T)
    ft = ft @ np.exp(-1j * a[1, 1] * p * kp)

    ft *= np.exp(-0.5 * (sigma[0, 0] * kq ** 2 + 2.0 * sigma[0, 1] * kq * kp
                         + sigma[1, 1] * kp ** 2))
    ft *= np.exp(1j * kp * w0.p_min)
    vals = np.fft.ifft2(ft).real
    out = WignerGrid(w0.q_min, w0.q_max, nq, w0.p_min, w0.p_max, np_, vals)
    check_domain_coverage(out)
    return normalize(out)


# --- step control -----------------------------------------------------------


def _step_plan(t, dt, bound):
    """(n_steps, dt_eff) of equal steps no longer than dt covering t >= 0.

    n_steps is 0 at t = 0.  dt defaults to ``bound``; a StepSizeError is
    raised when dt_eff exceeds it.
    """
    if not t >= 0:
        raise ValueError("t must be nonnegative")
    if t == 0:
        return 0, 0.0
    if dt is None:
        dt = bound
    n_steps = max(1, int(math.ceil(t / dt - 1e-12)))
    dt_eff = t / n_steps
    if dt_eff > bound * (1 + 1e-12):
        raise StepSizeError(
            f"effective dt = {dt_eff:.3e} exceeds the stability bound "
            f"{bound:.3e}"
        )
    return n_steps, dt_eff


# --- Fokker-Planck integrator ----------------------------------------------


def fokker_planck_dt_bound(w: WignerGrid, params: QbmParams) -> float:
    """Step bound 0.4 * min(dq*M/p_max, 1/(4 gamma)).

    The first term is the Courant limit of the explicit q advection.  The
    momentum sector is stepped with its exact propagator and has no
    diffusive stability limit; the second term keeps the damping
    exp(-2 gamma dt) resolved within one splitting step.
    """
    p_max = max(abs(w.p_min), abs(w.p_max))
    adv = w.dq * params.M / p_max if p_max > 0 else np.inf
    drift = 1.0 / (4.0 * params.gamma)
    return 0.4 * min(adv, drift)


class _FokkerPlanckBuffers:
    """State and scratch arrays of one Fokker-Planck integration.

    W(q_i, p_j) lives in rows 1..n_q of a padded array with one ghost row
    below and two above.  The ghost rows stay zero (no flux through the q
    boundary) or, for periodic q, are copied from the opposite edge before
    each advection.
    """

    def __init__(self, values, periodic):
        n, m = values.shape
        self.periodic = periodic
        self.padded = np.zeros((n + 3, m))
        self.values = self.padded[1:n + 1]
        self.values[...] = values
        self.diff = np.empty((n + 2, m))
        self.absdiff = np.empty((n + 2, m))
        self.slope = np.empty((n + 1, m))
        self.face = np.empty((n + 1, m))
        self.work = np.empty((n + 1, m))
        self.finite = np.empty((n, m), dtype=bool)

    def fill_ghosts(self):
        """Copy the edge rows into the ghost rows of a periodic grid."""
        if self.periodic:
            n = self.values.shape[0]
            self.padded[0] = self.padded[n]
            self.padded[n + 1:] = self.padded[1:3]


def _advect_q(buf: _FokkerPlanckBuffers, c):
    """Conservative flux-limited (van Leer) upwind step in q, in place.

    c[j] = (p_j / M) dt / dq is the Courant number of momentum column j;
    c must be ascending, as the momentum axis is.
    """
    pad, d, ad = buf.padded, buf.diff, buf.absdiff
    s, f, tmp = buf.slope, buf.face, buf.work
    n = buf.values.shape[0]
    buf.fill_ghosts()
    np.subtract(pad[1:], pad[:-1], out=d)        # d[k] = W_k - W_{k-1}
    np.abs(d, out=ad)
    # limited slope s[k] = (d_k |d_k+1| + |d_k| d_k+1) / (|d_k| + |d_k+1|)
    np.multiply(d[:-1], ad[1:], out=s)
    np.multiply(ad[:-1], d[1:], out=tmp)
    s += tmp
    np.add(ad[:-1], ad[1:], out=tmp)
    tmp += 1e-300                                # s = 0 where both vanish
    s /= tmp

    # f[i + 1] = dt/dq * flux through face i+1/2 = c W_up + kappa s_up, with
    # the upwind cell i (c >= 0) or i + 1 (c < 0)
    kappa = 0.5 * np.abs(c) * (1.0 - np.abs(c))
    j0 = int(np.searchsorted(c, 0.0))
    for cols, rows in ((slice(j0, None), 0), (slice(None, j0), 1)):
        np.multiply(pad[1 + rows:n + 1 + rows, cols], c[cols], out=f[1:, cols])
        np.multiply(s[rows:n + rows, cols], kappa[cols], out=tmp[:n, cols])
        f[1:, cols] += tmp[:n, cols]
    if buf.periodic:
        f[0] = f[n]
    else:
        f[0] = 0.0
        f[n] = 0.0
    np.subtract(f[1:], f[:-1], out=tmp[:n])
    buf.values -= tmp[:n]


def _momentum_propagator(p, dp, dt, params: QbmParams):
    """Exact propagator exp(dt L) of the Chang-Cooper momentum sector, transposed.

    dW/dt = d/dp[2 g p W + 2 M g kT dW/dp] is discretized as
    dW_j/dt = (F_j+1/2 - F_j-1/2) / dp with the face flux
    F = drift ((1 - delta) W_j+1 + delta W_j) + diff (W_j+1 - W_j) / dp and
    delta = 1/w - 1/(e^w - 1), w = drift dp / diff, which vanishes on the
    discrete Maxwellian.  The off-diagonal weights of L, (diff/dp^2) w e^w /
    (e^w - 1) and (diff/dp^2) w / (e^w - 1), are positive for every w and
    the columns of L sum to zero, so exp(dt L) is a nonnegative,
    mass-conserving matrix for any dt: W stays nonnegative and the discrete
    Maxwellian stays fixed.  Transposed so that W @ exp(dt L)^T steps every
    q row at once.

    scipy.linalg is imported on the first call, so that importing the
    package (and every run that steps no momentum sector) does not pay for
    it.
    """
    from scipy.linalg import expm

    g, M, kT = params.gamma, params.M, params.kT
    diff = 2.0 * M * g * kT
    drift = g * (p[1:] + p[:-1])             # 2 g p at interior faces
    wpe = drift * dp / diff
    # delta -> 1/2 as w -> 0
    small = np.abs(wpe) < 1e-8
    safe = np.where(small, 1.0, wpe)
    delta = np.where(
        small, 0.5 - wpe / 12.0, 1.0 / safe - 1.0 / np.expm1(safe)
    )
    upper = (drift * (1.0 - delta) + diff / dp) / dp   # weight of W_j+1
    lower = (drift * delta - diff / dp) / dp           # weight of W_j
    # face j+1/2 flux f = upper W_j+1 + lower W_j enters cell j, leaves j+1
    j = np.arange(p.size - 1)
    gen = np.zeros((p.size, p.size))
    gen[j, j + 1] = upper
    gen[j + 1, j] = -lower
    gen[j, j] += lower
    gen[j + 1, j + 1] -= upper
    return np.ascontiguousarray(expm(dt * gen).T)


def _integrate_fokker_planck(w: WignerGrid, dt, n_steps, params: QbmParams,
                             periodic_q: bool) -> WignerGrid:
    """n_steps Strang steps A(dt/2) C(dt) A(dt/2), adjacent half-advections merged.

    A is the q advection and C the momentum sector, so the product is
    A(dt/2) [C(dt) A(dt)]^(n-1) C(dt) A(dt/2).
    """
    buf = _FokkerPlanckBuffers(w.values, periodic_q)
    c = w.p * dt / (params.M * w.dq)
    momentum = _momentum_propagator(w.p, w.dp, dt, params)
    out = buf.work[:w.n_q]
    _advect_q(buf, 0.5 * c)
    for k in range(n_steps):
        np.matmul(buf.values, momentum, out=out)
        buf.values[...] = out
        _advect_q(buf, c if k < n_steps - 1 else 0.5 * c)
        if not np.isfinite(buf.values, out=buf.finite).all():
            raise DivergenceError(
                "Fokker-Planck step produced non-finite values")
    return w.with_values(buf.values)


def evolve_fokker_planck(w0: WignerGrid, t, params: QbmParams, dt=None,
                         periodic_q: bool = False) -> WignerGrid:
    """Compose steps to time t; dt defaults to the stability bound."""
    n_steps, dt_eff = _step_plan(t, dt, fokker_planck_dt_bound(w0, params))
    if n_steps == 0:
        return w0.with_values(w0.values)
    return _integrate_fokker_planck(w0, dt_eff, n_steps, params, periodic_q)


# --- master equation --------------------------------------------------------


def _generator_coefficients(x, dx, params: QbmParams):
    """Weights (c+, c-) of the kinetic and dissipation terms.

    With zero padding and N, S, E, W = rho[i+1, j], rho[i-1, j],
    rho[i, j+1], rho[i, j-1], the kinetic term i/(2M) (d_x^2 - d_y^2) rho
    is i/(2M dx^2) (N + S - E - W) and the dissipation term
    -gamma (x - y)(d_x - d_y) rho is -gamma (x - y)/(2 dx) (N - S - E + W),
    so together they are c+ (N - E) + c- (S - W).
    """
    kinetic = 1j / (2.0 * params.M * dx ** 2)
    dissipation = -params.gamma * (x[:, None] - x[None, :]) / (2.0 * dx)
    return kinetic + dissipation, kinetic - dissipation


def _kinetic_dissipation(padded, c_plus, c_minus, out, tmp):
    """Kinetic plus dissipation terms of the kernel padded[1:-1, 1:-1] into out.

    The border of ``padded`` must be zero: the kernel vanishes outside the
    lattice.
    """
    np.subtract(padded[2:, 1:-1], padded[1:-1, 2:], out=out)
    out *= c_plus
    np.subtract(padded[:-2, 1:-1], padded[1:-1, :-2], out=tmp)
    tmp *= c_minus
    out += tmp
    return out


def _decoherence_rate(params: QbmParams) -> float:
    """2 M gamma kT: the master equation's (x - y)^2 rho coefficient."""
    return 2.0 * params.M * params.gamma * params.kT


def master_equation_rhs(rho: DensityMatrix, params: QbmParams) -> np.ndarray:
    """Generator of the position-basis master equation (hbar = 1).

    Linear in the kernel, which may be any complex matrix: it is the
    generator of the map ``evolve_master_equation`` integrates.  Only
    ``n_x``, ``x``, ``dx`` and ``kernel`` of ``rho`` are read.
    """
    n, x = rho.n_x, rho.x
    padded = np.zeros((n + 2, n + 2), dtype=complex)
    padded[1:-1, 1:-1] = rho.kernel
    c_plus, c_minus = _generator_coefficients(x, rho.dx, params)
    rhs = _kinetic_dissipation(padded, c_plus, c_minus,
                               np.empty((n, n), dtype=complex),
                               np.empty((n, n), dtype=complex))
    rhs -= _decoherence_rate(params) * (x[:, None] - x[None, :]) ** 2 * rho.kernel
    return rhs


def master_dt_bound(rho: DensityMatrix, params: QbmParams) -> float:
    """RK4 stability estimate from the kinetic and dissipation spectral scales.

    The decoherence term is applied as an exact elementwise factor and does
    not limit the step.
    """
    span = rho.x_max - rho.x_min
    dx = rho.dx
    kinetic = 4.0 / (params.M * dx ** 2)
    dissipation = 2.0 * params.gamma * span / dx
    return 0.8 * 2.78 / (kinetic + dissipation)


def _integrate_master_equation(kernel, x, dx, dt, n_steps,
                               params: QbmParams) -> np.ndarray:
    """n_steps Strang steps D(dt/2) RK(dt) D(dt/2), adjacent half-damps merged.

    D is the exact decoherence factor exp(-2 M gamma kT (x - y)^2 dt) and RK
    one RK4 step of the kinetic and dissipation terms, so the product is
    D(dt/2) [RK(dt) D(dt)]^(n-1) RK(dt) D(dt/2).  The map is linear in the
    (n, n) kernel on the lattice x; the kernel may be any complex matrix.
    """
    n = x.size
    rate = _decoherence_rate(params)
    full = position_dephasing(x[:, None], rate, dt)
    half = position_dephasing(x[:, None], rate, 0.5 * dt)
    c_plus, c_minus = _generator_coefficients(x, dx, params)
    padded = np.zeros((n + 2, n + 2), dtype=complex)
    stage = padded[1:-1, 1:-1]
    ker = kernel * half
    k, acc, tmp = (np.empty((n, n), dtype=complex) for _ in range(3))
    finite = np.empty((n, n), dtype=bool)
    for step in range(n_steps):
        # RK4: ker += dt/6 (k1 + 2 k2 + 2 k3 + k4)
        stage[...] = ker
        np.copyto(acc, _kinetic_dissipation(padded, c_plus, c_minus, k, tmp))
        for frac, weight in ((0.5, 2.0), (0.5, 2.0), (1.0, 1.0)):
            np.multiply(k, frac * dt, out=stage)
            stage += ker
            _kinetic_dissipation(padded, c_plus, c_minus, k, tmp)
            np.multiply(k, weight, out=tmp)
            acc += tmp
        acc *= dt / 6.0
        ker += acc
        ker *= full if step < n_steps - 1 else half
        if not np.isfinite(ker, out=finite).all():
            raise DivergenceError(
                "master-equation step produced non-finite values")
    return ker


def evolve_master_equation(rho0: DensityMatrix, t, params: QbmParams,
                           dt=None) -> DensityMatrix:
    """Compose steps to time t; dt defaults to the stability bound."""
    n_steps, dt_eff = _step_plan(t, dt, master_dt_bound(rho0, params))
    if n_steps == 0:
        return rho0
    return rho0.with_kernel(_integrate_master_equation(
        rho0.kernel, rho0.x, rho0.dx, dt_eff, n_steps, params))


# --- diffusive-limit diagnostics -------------------------------------------


def diffusion_coefficient(params: QbmParams) -> float:
    """D = kT / (2 M gamma)."""
    return params.kT / (2.0 * params.M * params.gamma)


def fit_diffusion(times, marginals, params: QbmParams) -> DiffusionFit:
    """Least-squares slope of var_q(t); slope = 2 D_fit."""
    times = np.asarray(times, dtype=float)
    if len(times) < 4:
        raise FitQualityError("need at least 4 time samples")
    if np.any(params.gamma * times < 3):
        warnings.warn("fit window includes gamma*t < 3 (pre-diffusive times)",
                      stacklevel=2)
    var = np.array([m.variance() for m in marginals])
    if np.any(np.diff(var) <= 0):
        raise FitQualityError("variance series is not strictly increasing")
    a = np.column_stack([times, np.ones_like(times)])
    coef, *_ = np.linalg.lstsq(a, var, rcond=None)
    d_fit = 0.5 * float(coef[0])
    return DiffusionFit(d_fit, diffusion_coefficient(params),
                        (float(times[0]), float(times[-1])))


def constitutive_check(w: WignerGrid, params: QbmParams) -> ConstitutiveResidual:
    """Residual of  int dp p W(p,q) = -(kT / 2 gamma) df/dq  on a long-time state."""
    current = np.trapezoid(w.values * w.p[None, :], dx=w.dp, axis=1)
    f = position_marginal(w)
    grad = np.gradient(f.samples, w.dq)
    term = params.kT / (2.0 * params.gamma) * grad
    residual = current + term
    scale = max(np.max(np.abs(current)), np.max(np.abs(term)), 1e-300)
    return ConstitutiveResidual(
        q=w.q,
        current=current,
        gradient_term=term,
        residual=residual,
        relative_sup=float(np.max(np.abs(residual)) / scale),
    )
