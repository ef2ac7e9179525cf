"""Single-particle quantum-Brownian-motion dynamics.

The model is a free particle with damping rate gamma coupled to a thermal
bath at temperature kT (hbar = 1 throughout, Boltzmann constant folded into
kT).  Three mutually consistent descriptions are implemented:

- the Kramers phase-space equation

      dW/dt = -(p/M) dW/dq + 2*gamma d(p W)/dp + 2*M*gamma*kT d^2W/dp^2

  solved either analytically (Gaussian transition kernel) or numerically
  (Strang splitting of dt within 0.1 / gamma and Courant number
  COURANT_CAP: flux-form advection in q, whole cells shifted exactly and
  the fraction by a flux-limited upwind step, between zero-flux walls
  whose cells are half cells; and the Ornstein-Uhlenbeck momentum sector
  in the Chang-Cooper flux discretization, stepped with its exact
  propagator exp(dt L), which is nonnegative and mass-conserving for any
  dt).  Each q column of W is one contiguous row; each step's output goes
  to a second array that swaps with the state; and the far tails of the
  initial W, which would be subnormal numbers, start at 0;

- the position-basis master equation with kinetic, dissipation
  (-gamma (x-y)(d_x - d_y) rho) and decoherence (-2 M gamma kT (x-y)^2 rho)
  terms, Strang split: the decoherence term is applied as its exact
  elementwise factor and the kinetic and dissipation terms are stepped
  with explicit RK4, in the Horner form of its Taylor polynomial, over
  the contiguous rows of a zero-bordered kernel.  The step is a linear map
  on the raw kernel, so it also evolves kernels that are neither Hermitian
  nor of unit trace, such as the off-diagonal blocks P rho P' of a
  history; it commutes with the conjugate transpose in floating point, so
  a Hermitian kernel stays Hermitian by construction, not by a projection;

- the diffusive limit: D = kT / (2 M gamma), the constitutive relation
  <p>(q) = -(kT / 2 gamma) df/dq, formed once, checked pointwise on the grid
  and per bin, and a least-squares diffusion-constant fit.

The analytic propagator applies the exact Gaussian kernel of the Kramers
equation (mean from the damped classical path, covariance from the moment
ODEs).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, FitQualityError, ResolutionError
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
    "DiffusionFit",
    "ConstitutiveResidual",
    "kernel_mean_map",
    "kernel_covariance",
    "propagate_analytic",
    "fokker_planck_step_plan",
    "evolve_fokker_planck",
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
#: gamma t below which kernel_covariance sums s_qq as a series (at 0.5 the
#: closed form loses a factor 8 to cancellation; the series is converged)
SERIES_GAMMA_T = 0.5
#: entries of W below this fraction of max |W| are set to 0 before the
#: first Fokker-Planck step.  The far tails of a Gaussian are subnormal
#: numbers, and the advection front carries them on for many steps; a
#: multiply-add that reads one is several times slower on x86, and the
#: momentum product reads whole rows of them.  Cut once at the start, W on
#: the diffusion grid holds none at t = 0.1 to 5, where it held about 500;
#: a cut at every step costs more than it saves.
START_FLOOR = 1e-200
#: largest Courant number |p| dt / (M dq) of a Fokker-Planck step plan: on
#: oracle-compare's grid to t = 1, 12 steps at this cap lie 7.9e-4 (L1) from
#: the run at Courant numbers up to 1, and 10 steps with no cap 1.05e-3.
COURANT_CAP = 4


@dataclass(frozen=True)
class QbmParams:
    """Mass, damping rate and thermal energy of one Brownian particle."""

    M: float
    gamma: float
    kT: float

    def __post_init__(self):
        for name in ("M", "gamma", "kT"):
            x = getattr(self, name)
            if not (math.isfinite(x) and x > 0):
                raise ValueError(f"{name} must be finite and strictly positive")


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
    """residual(q) = current(q) + (kT / 2 gamma) d density/dq on grid points or
    bin centers q, and its relative size."""

    q: np.ndarray
    current: np.ndarray
    gradient_term: np.ndarray
    residual: np.ndarray
    relative_sup: float


def kernel_mean_map(params: QbmParams, t):
    """Linear map z -> A z taking (q0, p0) to the kernel mean (q_cl, p_cl)."""
    if not (math.isfinite(t) and t >= 0):
        raise ValueError("t must be finite and nonnegative")
    decay = math.exp(-2.0 * params.gamma * t)
    c = (1.0 - decay) / (2.0 * params.M * params.gamma)
    return np.array([[1.0, c], [0.0, decay]])


def kernel_covariance(params: QbmParams, t):
    """Exact transition-kernel covariance in (q, p) ordering.

    Solution of the second-moment ODEs of the Kramers equation from a point
    source:  d<p^2>/dt = -4 g <p^2> + 4 M g kT,  d<qp>/dt = <p^2>/M - 2 g <qp>,
    d<q^2>/dt = 2 <qp>/M.

    s_qq = kT / (M g^2) (x - (1 - e^-2x) + (1 - e^-4x) / 4), x = g t, cancels
    to O(x^3); below x = SERIES_GAMMA_T it is summed as its Taylor series
    kT t^2 / M sum_{k >= 3} ((-2)^k - (-4)^k / 4) x^(k-2) / k!, whose
    leading terms are kT / M ((4/3) g t^3 - 2 g^2 t^4).
    """
    if not (math.isfinite(t) and t >= 0):
        raise ValueError("t must be finite and nonnegative")
    g, M, kT = params.gamma, params.M, params.kT
    x = g * t
    one_e2 = -math.expm1(-2.0 * x)           # 1 - e^-2x
    one_e4 = -math.expm1(-4.0 * x)           # 1 - e^-4x
    s_pp = M * kT * one_e4
    s_qp = kT / (2.0 * g) * one_e2 ** 2
    if x < SERIES_GAMMA_T:
        series = sum(((-2.0) ** k - (-4.0) ** k / 4.0) / math.factorial(k)
                     * x ** (k - 2) for k in range(3, 26))
        s_qq = kT * t * t / M * series
    else:
        s_qq = kT / (M * g * g) * (x - one_e2 + one_e4 / 4.0)
    return np.array([[s_qq, s_qp], [s_qp, s_pp]])


def _kernel_check(w0: WignerGrid, t, params: QbmParams):
    """(sigma, refusals) of ``propagate_analytic(w0, t, params)``: the
    evolved (q, p) standard deviations, and a list of (check, axis,
    message), empty when the kernel accepts w0.  ``"spacing"``: w0's
    standard deviation spans fewer than MIN_SPACINGS_PER_SIGMA spacings on
    the axis, "q" or "p"; ``"domain"``: the evolved mean +/- 3 sigma leaves
    its extent.  The moments are w0's, mapped by the kernel to t."""
    mq, mp, vq, vp, cqp = moments(w0)
    a = kernel_mean_map(params, t)
    mean = a @ np.array([mq, mp])
    cov = (a @ np.array([[vq, cqp], [cqp, vp]]) @ a.T
           + kernel_covariance(params, t))
    sigma = np.sqrt(np.maximum(np.diag(cov), 0.0))
    spacings = np.sqrt(np.maximum([vq, vp], 0.0)) / [w0.dq, w0.dp]
    extents = ((w0.q_min, w0.q_max), (w0.p_min, w0.p_max))
    refusals = [("spacing", axis, (
        f"the input's {axis} standard deviation spans {n:.3g} lattice "
        f"spacings, fewer than {MIN_SPACINGS_PER_SIGMA}; refine the grid"))
        for axis, n in zip("qp", spacings) if not n >= MIN_SPACINGS_PER_SIGMA]
    refusals += [("domain", axis, (
        f"the evolved state's {axis} mean +/- 3 standard deviations leaves "
        f"[{lo:g}, {hi:g}]; enlarge the grid"))
        for axis, m, s, (lo, hi) in zip("qp", mean, sigma, extents)
        if not (lo <= m - 3.0 * s and m + 3.0 * s <= hi)]
    return sigma, refusals


def propagate_analytic(w0: WignerGrid, t, params: QbmParams) -> WignerGrid:
    """Apply the exact Gaussian transition kernel to w0 in Fourier space.

    The discrete characteristic function of w0 is evaluated exactly at the
    sheared frequencies A^T k, multiplied by the kernel's Gaussian factor
    and transformed back.  The output lives on the input lattice; for t > 0
    a ResolutionError gives the first refusal of ``_kernel_check``.
    """
    if t == 0.0:
        return w0.with_values(w0.values)
    _, refusals = _kernel_check(w0, t, params)
    if refusals:
        raise ResolutionError(refusals[0][2])
    a = kernel_mean_map(params, t)
    sigma = kernel_covariance(params, t)

    nq, np_ = w0.n_q, w0.n_p
    kq = 2 * np.pi * np.fft.rfftfreq(nq, d=w0.dq)[:, None]
    kp = 2 * np.pi * np.fft.fftfreq(np_, d=w0.dp)
    if np_ % 2 == 0:
        kp = np.append(kp, np.pi / w0.dp)
    kp = kp[None, :]
    p = w0.p[:, None]

    # characteristic function of w0 at the sheared frequencies
    # A^T k = (kq, A01 kq + A11 kp): an FFT along q, then the exact sum over
    # p_j, which factorizes as exp(-i A01 kq p_j) exp(-i A11 kp p_j).  The
    # quadrature weight dq dp and the q-origin phases exp(-/+ i kq q_min)
    # cancel between this transform and the inverse one, since q is not
    # sheared.  W is real, so its transform at -k is the conjugate of that
    # at k: only the rows kq >= 0 of w0's cached half-spectrum are needed,
    # and irfft along q supplies the rest.
    ft = w0._q_spectrum * np.exp(-1j * a[0, 1] * kq * p.T)
    ft = ft @ np.exp(-1j * a[1, 1] * p * kp)

    ft *= np.exp(-0.5 * (sigma[0, 0] * kq ** 2 + 2.0 * sigma[0, 1] * kq * kp
                         + sigma[1, 1] * kp ** 2))
    ft *= np.exp(1j * kp * w0.p_min)
    if np_ % 2 == 0:
        # the real part of the full inverse transform sees the Nyquist
        # column -pi/dp through its mirror +pi/dp, which fftfreq leaves
        # out; the appended column is that mirror, averaged in
        ft[:, np_ // 2] = 0.5 * (ft[:, np_ // 2] + ft[:, np_])
        ft = ft[:, :np_]
    vals = np.fft.irfft(np.fft.ifft(ft, axis=1), nq, axis=0)
    out = WignerGrid(w0.q_min, w0.q_max, nq, w0.p_min, w0.p_max, np_, vals)
    check_domain_coverage(out)
    return normalize(out)


# --- step control -----------------------------------------------------------


def _step_plan(t, bound):
    """(n_steps, dt_eff) of the fewest equal steps within bound covering t >= 0.

    n_steps is 0 at t = 0.  A ValueError is raised when t / bound is not a
    finite number: an infinite t, or a bound that is 0 or underflows
    against t, has no step count.
    """
    if not t >= 0:
        raise ValueError("t must be nonnegative")
    if t == 0:
        return 0, 0.0
    ratio = t / bound if bound > 0 else math.inf
    if not math.isfinite(ratio):
        raise ValueError(f"t = {t!r} in steps of at most {bound!r} has no "
                         "finite step count")
    n_steps = max(1, int(math.ceil(ratio - 1e-12)))
    return n_steps, t / n_steps


# --- Fokker-Planck integrator ----------------------------------------------


def fokker_planck_step_plan(w: WignerGrid, t, params: QbmParams):
    """(n_steps, dt_eff) of ``evolve_fokker_planck(w, t, params)``: the
    fewest equal steps within 0.1 / gamma, which resolves the damping
    exp(-2 gamma dt) in one step, and COURANT_CAP dq M / p_max.  Only
    ``p_min``, ``p_max`` and ``dq`` of w are read; a ValueError is raised
    when the plan has no finite step count."""
    p_max = max(abs(w.p_min), abs(w.p_max))
    courant = COURANT_CAP * w.dq * params.M / p_max if p_max > 0 else math.inf
    return _step_plan(t, min(courant, 0.1 / params.gamma))


class _FokkerPlanckBuffers:
    """State, scratch and flux-coefficient arrays of a Fokker-Planck run.

    Column j of W is row j of a padded (n_p, n_q + 4) array, between two
    zero ghost entries at each end, so the q advection runs over one
    contiguous array; ``values`` is the (n_q, n_p) view.  Each step writes
    a second such array, and ``swap`` exchanges the two.  ``set_courant``
    splits the Courant numbers c into k = trunc(c), held within
    +/-(n_q - 1), and c - k: the (n_p, 1) columns ``c`` and ``kappa`` hold
    each row's fraction and |c - k| (1 - |c - k|) / 2, and ``runs`` the
    (lo, hi, k, c < 0) of each run of rows with one k and one sign of c.
    diff, flux (with a zero at each end) and slope are flat scratch.
    """

    def __init__(self, values):
        n, m = values.shape
        self.padded, self.spare = np.zeros((m, n + 4)), np.zeros((m, n + 4))
        self.values = self.padded[:, 2:n + 2].T
        self.values[...] = values
        self.diff, self.slope = np.zeros(m * (n + 4)), np.zeros(m * (n + 4))
        self.flux = np.zeros(m * (n + 4) + 2)
        self.c, self.kappa = np.empty((m, 1)), np.empty((m, 1))
        self.runs = []

    def set_courant(self, c):
        """Fill the flux coefficients of the column Courant numbers c."""
        n = self.values.shape[0]
        whole = np.trunc(c)
        frac = np.abs(c - whole)                  # exact, and below 1
        self.c[:, 0] = np.copysign(frac, c)
        self.kappa[:, 0] = 0.5 * frac * (1.0 - frac)
        whole = np.clip(whole, 1 - n, n - 1).astype(int)
        edges = np.flatnonzero(np.diff(2 * whole - (c < 0))) + 1
        self.runs = [(lo, hi, int(whole[lo]), bool(c[lo] < 0)) for lo, hi
                     in zip([0, *edges.tolist()], [*edges.tolist(), c.size])]

    def swap(self):
        """Make the spare padded array the state, and the state the spare."""
        self.padded, self.spare = self.spare, self.padded
        self.values = self.padded[:, 2:self.values.shape[0] + 2].T


def _advect_q(buf: _FokkerPlanckBuffers):
    """Conservative flux-form advection in q at any Courant number.

    Each cell holds its mass; c[j] = (p_j / M) dt / dq were last given to
    ``buf.set_courant``.  The flux through a face is the k = trunc(c) whole
    cells upwind of it plus the van Leer flux of the fraction c - k out of
    the next cell, g_i = (c - k) W_i + kappa s_i with s_i the limited
    slope; none passes a q wall.  The whole cells' divergence is an exact
    shift by k, so the fraction's van Leer step, nonnegative at
    |c - k| < 1, is written k cells on, and the cells shifted past a wall
    sum into the wall cell: no rounded difference of whole-cell sums can
    turn a cell negative.  The output swaps in from the spare array.
    """
    n, (m, width) = buf.values.shape[0], buf.padded.shape
    pad = buf.padded.reshape(-1)
    d, s, f, ad = buf.diff, buf.slope, buf.flux, buf.flux[1:-1]
    np.subtract(pad[1:], pad[:-1], out=d[1:])    # d[i] = W_i - W_{i-1}
    np.abs(d, out=ad)
    # limited slope s[i] = (d_i |d_i+1| + |d_i| d_i+1) / (|d_i| + |d_i+1|);
    # once s holds the first term, d[1:] is spent and holds the others
    np.multiply(d[:-1], ad[1:], out=s[:-1])
    d[1:] *= ad[:-1]
    s[:-1] += d[1:]
    np.add(ad[:-1], ad[1:], out=d[1:])
    d[1:] += 1e-300                              # s = 0 where both vanish
    s[:-1] /= d[1:]
    # g = (c - k) W + kappa s, 0 on the ghosts, in f[1:-1]: f[i + 1] = g_i
    g = np.multiply(buf.padded, buf.c, out=ad.reshape(m, width))
    g += np.multiply(sv := s.reshape(m, width), buf.kappa, out=sv)
    for lo, hi, k, down in buf.runs:
        # W_i - g_i + g_i-1 written k cells on; a run moving down moves up
        # in the mirrored arrays, where g changes sign
        pad2, out2, g2, f_ = buf.padded, buf.spare, g, f
        minus, plus = np.subtract, np.add
        if down:
            pad2, out2, g2 = (a[::-1, ::-1] for a in (pad2, out2, g2))
            f_, minus, plus = f[::-1], plus, minus
            lo, hi, k = m - hi, m - lo, -k
        pad_, out_ = pad2.reshape(-1), out2.reshape(-1)  # views, not copies
        b, e, rows = lo * width, hi * width, slice(lo, hi)
        g2[rows, n + 1] = 0.0
        minus(pad_[b:e - k], f_[b + 1:e + 1 - k], out=out_[b + k:e])
        plus(out_[b + k:e], f_[b:e - k], out=out_[b + k:e])
        if k:              # the wall cell's sum; the vacated cells and ghosts
            out2[rows, :k + 2] = 0.0
            out2[rows, n + 2:] = 0.0
            np.sum(pad2[rows, n + 1 - k:n + 2], axis=1, out=out2[rows, n + 1])
            plus(out2[rows, n + 1], g2[rows, n - k], out=out2[rows, n + 1])
    buf.swap()


def _momentum_propagator(p, dp, dt, params: QbmParams):
    """Exact propagator exp(dt L) of the Chang-Cooper momentum sector.

    dW/dt = d/dp[2 g p W + 2 M g kT dW/dp] is discretized as
    dW_j/dt = (F_j+1/2 - F_j-1/2) / dp with the face flux
    F = drift ((1 - delta) W_j+1 + delta W_j) + diff (W_j+1 - W_j) / dp and
    delta = 1/w - 1/(e^w - 1), w = drift dp / diff, which vanishes on the
    discrete Maxwellian.  The two wall cells are half cells, of width dp/2,
    so their rows of L are doubled: with the trapezoid weights w_j, sum_j
    w_j L_jk = 0, and exp(dt L) conserves the trapezoid sum sum_j w_j W_j
    that ``WignerGrid.integral`` reads, to rounding once its columns are
    rescaled (squaring left it 5e-15 high).  The off-diagonal weights of L,
    (diff/dp^2) w e^w / (e^w - 1) and (diff/dp^2) w / (e^w - 1), doubled in
    the wall rows, are positive for every w, so exp(dt L) is nonnegative for
    any dt: W stays nonnegative and the discrete Maxwellian stays fixed.
    """
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
    gen[[0, -1]] *= 2.0
    prop, weights = _nonnegative_expm(dt * gen), np.ones(p.size)
    weights[[0, -1]] = 0.5
    return prop * (weights / (weights @ prop))


def _nonnegative_expm(gen):
    """exp(gen) of a matrix with nonnegative off-diagonal entries.

    Uniformized scaling and squaring: A = gen + alpha I, alpha =
    max(-diag(gen)), is nonnegative and exp(gen) = (e^(-alpha/2^s)
    exp(A/2^s))^(2^s), the inner exponential a 13-term Taylor series at
    ||A/2^s||_1 < 0.5.  Every term is nonnegative, and the factor
    e^(-alpha/2^s), taken before the squarings, keeps them bounded.
    """
    n = gen.shape[0]
    alpha = max(-float(np.min(np.diag(gen))), 0.0)
    a = gen + alpha * np.eye(n)
    s = max(0, math.frexp(2.0 * float(np.max(np.sum(a, axis=0))))[1])
    a /= 2.0 ** s
    out = np.eye(n)
    for k in range(12, 0, -1):                   # Horner: I + a (I + a/2 (...))
        out = a @ out
        out /= k
        out.flat[::n + 1] += 1.0
    out *= math.exp(-alpha / 2.0 ** s)
    for _ in range(s):
        out = out @ out
    return out


def _integrate_fokker_planck(w: WignerGrid, dt, n_steps,
                             params: QbmParams) -> WignerGrid:
    """n_steps >= 1 Strang steps A(dt/2) C(dt) A(dt/2) of w, adjacent
    half-advections merged: A(dt/2) [C(dt) A(dt)]^(n-1) C(dt) A(dt/2), with
    A the q advection and C the momentum sector.

    The advection moves cell masses: the two q-wall rows are half cells,
    which hold W dq / 2, so the steps conserve the trapezoid sum that
    ``WignerGrid.integral`` reads.  Entries below START_FLOOR times max |W|
    start at exactly 0.  NaN and inf survive every step, so the grid is
    checked for them once, at the end.
    """
    buf = _FokkerPlanckBuffers(w.values)
    scale = np.max(np.abs(buf.values))
    buf.values[np.abs(buf.values) < START_FLOOR * scale] = 0.0
    buf.values[[0, -1]] *= 0.5                   # masses of the half cells
    c = w.p * dt / (params.M * w.dq)
    momentum = _momentum_propagator(w.p, w.dp, dt, params)
    buf.set_courant(0.5 * c)
    _advect_q(buf)
    for k in range(1, n_steps + 1):
        np.matmul(momentum, buf.padded, out=buf.spare)
        buf.swap()
        if k in (1, n_steps):
            buf.set_courant(0.5 * c if k == n_steps else c)
        _advect_q(buf)
    values = buf.values.copy()
    values[[0, -1]] *= 2.0
    if not np.isfinite(values).all():
        raise DivergenceError("Fokker-Planck step produced non-finite values")
    return w.with_values(values)


def evolve_fokker_planck(w0: WignerGrid, t, params: QbmParams) -> WignerGrid:
    """Compose the fewest equal steps within the step bound to time t;
    t = 0 takes no step and gives a copy of w0."""
    n_steps, dt_eff = fokker_planck_step_plan(w0, t, params)
    if n_steps == 0:
        return w0.with_values(w0.values)
    return _integrate_fokker_planck(w0, dt_eff, n_steps, params)


# --- master equation --------------------------------------------------------


def _generator_coefficients(x, dx, params: QbmParams):
    """Weights (c+, c-) of the kinetic and dissipation terms.

    With zero padding and N, S, E, W = rho[i+1, j], rho[i-1, j],
    rho[i, j+1], rho[i, j-1], the kinetic term i/(2M) (d_x^2 - d_y^2) rho
    is i/(2M dx^2) (N + S - E - W) and the dissipation term
    -gamma (x - y)(d_x - d_y) rho is -gamma (x - y)/(2 dx) (N - S - E + W),
    so together they are c+ (N - E) + c- (S - W).  Both are (n, n + 2)
    arrays laid out like the rows of a bordered kernel: column j + 1 holds
    column j of the lattice, and the first and last columns are zero.
    """
    kinetic = 1j / (2.0 * params.M * dx ** 2)
    dissipation = -params.gamma * (x[:, None] - x[None, :]) / (2.0 * dx)
    return (_bordered(kinetic + dissipation), _bordered(kinetic - dissipation))


def _bordered(a):
    """(n, n) array a between two zero columns, as an (n, n + 2) array."""
    return np.pad(a, ((0, 0), (1, 1)))


def _kinetic_dissipation(padded, c_plus, c_minus, out, tmp):
    """Kinetic plus dissipation terms of the kernel padded[1:-1, 1:-1] into out.

    ``padded`` is (n + 2, n + 2), and its border must be zero: the kernel
    vanishes outside the lattice.  Its rows 1..n, border columns included,
    are one contiguous run, on which the neighbours N, S, E and W sit at
    fixed offsets; the terms are formed over that run, so out, tmp and the
    coefficients are (n, n + 2), and out is zero in its border columns,
    where the coefficients are.
    """
    m = padded.shape[1]
    flat, o, t = padded.reshape(-1), out.reshape(-1), tmp.reshape(-1)

    def shifted(offset):                     # rows 1..n moved by offset
        return flat[m + offset:flat.size - m + offset]

    np.subtract(shifted(m), shifted(1), out=o)           # N - E
    o *= c_plus.reshape(-1)
    np.subtract(shifted(-m), shifted(-1), out=t)         # S - W
    t *= c_minus.reshape(-1)
    o += t
    return out


def _decoherence_rate(params: QbmParams) -> float:
    """2 M gamma kT: the master equation's (x - y)^2 rho coefficient."""
    return 2.0 * params.M * params.gamma * params.kT


def master_dt_bound(rho: DensityMatrix, params: QbmParams) -> float:
    """RK4 step bound 0.8 * 2.78 / R, R the Gershgorin radius of the
    kinetic and dissipation stencil.

    The decoherence term is applied as an exact elementwise factor, so only
    the stencil c+ (N - E) + c- (S - W) of ``_generator_coefficients``
    limits the step.  Its row for site (x, y) has the four entries
    +-c+ and +-c-, and no diagonal entry, so every eigenvalue lies in a disc
    about 0 of radius max(2|c+| + 2|c-|).  With c+- = i k +- d, k the real
    kinetic weight 1/(2M dx^2) and d the real dissipation weight
    -gamma (x - y)/(2 dx), |c+| = |c-| = hypot(k, d), largest at the
    corners x - y = +-(x_max - x_min).  2.78 is RK4's reach along the
    imaginary axis, 0.8 a safety factor.  Only ``x_min``, ``x_max`` and
    ``dx`` of rho are read.
    """
    span = rho.x_max - rho.x_min
    dx = rho.dx
    kinetic = 1.0 / (2.0 * params.M * dx ** 2)
    dissipation = params.gamma * span / (2.0 * dx)
    return 0.8 * 2.78 / (4.0 * math.hypot(kinetic, dissipation))


def _integrate_master_equation(kernel, x, dx, dt, n_steps,
                               params: QbmParams) -> np.ndarray:
    """n_steps Strang steps D(dt/2) RK(dt) D(dt/2), adjacent half-damps merged.

    D is the exact decoherence factor exp(-2 M gamma kT (x - y)^2 dt) and RK
    one RK4 step of the kinetic and dissipation terms, so the product is
    D(dt/2) [RK(dt) D(dt)]^(n-1) RK(dt) D(dt/2).  The map is linear in the
    (n, n) kernel on the lattice x; the kernel may be any complex matrix.

    For a linear, time-independent generator L, one RK4 step is the
    degree-4 Taylor polynomial of exp(dt L), taken in Horner form:
    ker + hL(ker + hL/2 (ker + hL/3 (ker + hL/4 ker))) with h = dt.  The
    kernel and the stages live inside two zero-bordered arrays.  NaN and
    inf survive every step, so the kernel is checked for them once, at the
    end.
    """
    n = x.size
    rate = _decoherence_rate(params)
    full = _bordered(position_dephasing(x[:, None], rate, dt))
    half = position_dephasing(x[:, None], rate, 0.5 * dt)
    c_plus, c_minus = _generator_coefficients(x, dx, params)
    c_plus *= dt
    c_minus *= dt
    padded_ker, padded_stage = (np.zeros((n + 2, n + 2), dtype=complex)
                                for _ in range(2))
    ker, stage = padded_ker[1:-1], padded_stage[1:-1]
    np.multiply(kernel, half, out=ker[:, 1:-1])
    k, tmp = (np.empty((n, n + 2), dtype=complex) for _ in range(2))
    for step in range(n_steps):
        if step:
            ker *= full
        _kinetic_dissipation(padded_ker, c_plus, c_minus, stage, tmp)
        stage *= 0.25
        stage += ker
        for inv_j in (1.0 / 3.0, 0.5):
            _kinetic_dissipation(padded_stage, c_plus, c_minus, k, tmp)
            k *= inv_j
            np.add(ker, k, out=stage)
        ker += _kinetic_dissipation(padded_stage, c_plus, c_minus, k, tmp)
    out = ker[:, 1:-1] * half
    if not np.isfinite(out).all():
        raise DivergenceError("master-equation step produced non-finite values")
    return out


def evolve_master_equation(rho0: DensityMatrix, t,
                           params: QbmParams) -> DensityMatrix:
    """Compose the fewest equal steps within master_dt_bound to time t."""
    n_steps, dt_eff = _step_plan(t, master_dt_bound(rho0, params))
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


def _constitutive_relation(x, current, density, params: QbmParams):
    """The diffusive constitutive relation  current = -(kT / 2 gamma)
    d(density)/dx  on the samples x: its residual and that residual's sup
    relative to the larger sup of the two terms."""
    term = params.kT / (2.0 * params.gamma) * np.gradient(density, x)
    residual = current + term
    scale = max(np.max(np.abs(current)), np.max(np.abs(term)), 1e-300)
    return ConstitutiveResidual(
        q=x,
        current=current,
        gradient_term=term,
        residual=residual,
        relative_sup=float(np.max(np.abs(residual)) / scale),
    )


def constitutive_check(w: WignerGrid, params: QbmParams) -> ConstitutiveResidual:
    """Residual of  int dp p W(p,q) = -(kT / 2 gamma) df/dq  on a long-time
    state, pointwise on the grid's q."""
    current = np.trapezoid(w.values * w.p[None, :], dx=w.dp, axis=1)
    return _constitutive_relation(w.q, current, position_marginal(w).samples,
                                  params)
