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
  Courant limit, at Courant number 1, bounds dt).  The advection forms
  one flux per cell and gives each face that of its upwind cell; the
  momentum product goes to a second array that then swaps with the state;
  the far tails of the initial W, which would be subnormal numbers, start
  at 0; and times whose step plans share one dt take one integration;

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


def _fokker_planck_limits(w: WignerGrid, params: QbmParams) -> dict:
    """The terms of the step bound min(dq M / p_max, 0.1 / gamma), by name.

    The first, ``"courant"``, holds the Courant number |c| = |p| dt / (M dq)
    of the explicit q advection at 1.  The van Leer flux-limited upwind
    step is total-variation diminishing, hence nonnegative, for |c| <= 1,
    and its numerical diffusion shrinks as |c| -> 1: at |c| = 1 the step is
    an exact shift by one cell.  A dt = t / n that rounds above the bound
    is clipped back to |c| = 1 by ``_FokkerPlanckBuffers.set_courant``.
    The momentum sector is stepped with its exact propagator and has no
    stability limit of its own; the second, ``"damping"``, keeps the
    damping exp(-2 gamma dt) resolved within one splitting step.  Only
    ``p_min``, ``p_max`` and ``dq`` of w are read.
    """
    p_max = max(abs(w.p_min), abs(w.p_max))
    courant = w.dq * params.M / p_max if p_max > 0 else np.inf
    return {"courant": courant, "damping": 0.1 / params.gamma}


def fokker_planck_step_plan(w: WignerGrid, t, params: QbmParams):
    """(n_steps, dt_eff, limit) of ``evolve_fokker_planck(w, t, params)``.

    ``limit`` names the term of the step bound that binds, ``"courant"`` or
    ``"damping"``.  Only ``p_min``, ``p_max`` and ``dq`` of w are read, and
    a ValueError is raised when the plan has no finite step count.  For an
    increasing sequence of times t, a list of the plans of the integrations
    that ``evolve_fokker_planck(w, t, params)`` runs: one per time that
    has a run of its own, and last the run of the longest time.
    """
    if np.ndim(t):
        plans = [fokker_planck_step_plan(w, ti, params)
                 for ti in _increasing(t)]
        taken = _taken_from_last_run(plans)[:-1]
        return [plan for i, plan in enumerate(plans) if i not in taken]
    limits = _fokker_planck_limits(w, params)
    limit = min(limits, key=limits.get)
    return (*_step_plan(t, limits[limit]), limit)


def _increasing(times):
    """times as a list, required to be nonempty and strictly increasing."""
    times = list(times)
    if not times or not all(a < b for a, b in zip(times, times[1:])):
        raise ValueError("times must be a nonempty increasing sequence")
    return times


def _taken_from_last_run(plans):
    """Indices of the plans whose grids the integration of the last plan
    yields on its way: each plan that takes steps of exactly its dt, the
    last one included unless it takes no step."""
    dt = plans[-1][1]
    return [i for i, (n, dt_i, _) in enumerate(plans) if n and dt_i == dt]


class _FokkerPlanckBuffers:
    """State, scratch and flux-coefficient arrays of one Fokker-Planck integration.

    W(q_i, p_j) lives in rows 1..n_q of a padded array with one ghost row
    below and two above.  The ghost rows stay zero, and no flux passes the
    q walls.  A second padded array of the same shape takes the momentum
    step's product, and ``swap`` exchanges the two, so no step copies W
    back.  ``set_courant`` sets the flux coefficients of one Courant vector
    c, clipped to [-1, 1]: c itself and kappa = |c| (1 - |c|) / 2 as
    contiguous (n_q + 1, n_p) arrays, and the mask ``down`` of the columns
    with c < 0, whose upwind cell lies above the face.  diff and absdiff are scratch: an advection
    spends them on slopes, then on the cell fluxes and the face fluxes.
    """

    def __init__(self, values):
        n, m = values.shape
        self.padded = np.zeros((n + 3, m))
        self.values = self.padded[1:n + 1]
        self.values[...] = values
        self.spare = np.zeros((n + 3, m))
        self.diff = np.empty((n + 2, m))
        self.absdiff = np.empty((n + 2, m))
        self.slope = np.empty((n + 1, m))
        self.c, self.kappa = np.empty((n + 1, m)), np.empty((n + 1, m))
        self.down = np.empty(m, dtype=bool)

    def set_courant(self, c):
        """Fill the flux coefficients of the column Courant numbers c.

        A |c| that a rounded dt puts a few ulps above 1 is clipped to 1,
        where kappa would turn negative and the step lose its sign.
        """
        c = np.clip(c, -1.0, 1.0)
        self.c[...] = c
        self.kappa[...] = 0.5 * np.abs(c) * (1.0 - np.abs(c))
        np.less(c, 0, out=self.down)

    def swap(self):
        """Make the spare padded array the state, and the state the spare."""
        self.padded, self.spare = self.spare, self.padded
        self.values = self.padded[1:self.values.shape[0] + 1]


def _advect_q(buf: _FokkerPlanckBuffers):
    """Conservative flux-limited (van Leer) upwind step in q, in place.

    The step uses the Courant numbers c[j] = (p_j / M) dt / dq last given
    to ``buf.set_courant``; |c| <= 1 keeps it total-variation diminishing.
    Every cell k gets one flux g_k = c W_k + kappa s_k, contiguous over the
    whole array, and each face takes that of its upwind cell: the cell
    below (c >= 0) or the one above (c < 0).
    """
    pad, d, ad, s = buf.padded, buf.diff, buf.absdiff, buf.slope
    n = buf.values.shape[0]
    np.subtract(pad[1:], pad[:-1], out=d)        # d[k] = W_k - W_{k-1}
    np.abs(d, out=ad)
    # limited slope s[k] = (d_k |d_k+1| + |d_k| d_k+1) / (|d_k| + |d_k+1|);
    # once s holds the first term, d[1:] is spent and holds the others
    np.multiply(d[:-1], ad[1:], out=s)
    d[1:] *= ad[:-1]
    s += d[1:]
    np.add(ad[:-1], ad[1:], out=d[1:])
    d[1:] += 1e-300                              # s = 0 where both vanish
    s /= d[1:]

    # g[k] = c W_k + kappa s_k over the cells and the first ghost above
    # (its slope is 0); f[i + 1] = dt/dq * flux through face i+1/2 = g[i],
    # or g[i + 1] where c < 0.  f takes diff's rows, g absdiff's.
    g, f = ad[:n + 1], d[:n + 1]
    np.multiply(pad[1:n + 2], buf.c, out=g)
    s *= buf.kappa
    g += s
    f[1:] = g[:n]
    np.copyto(f[1:], g[1:], where=buf.down)
    f[0] = 0.0
    f[n] = 0.0
    np.subtract(f[1:], f[:-1], out=g[:n])
    buf.values -= g[:n]


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
    return np.ascontiguousarray(_nonnegative_expm(dt * gen).T)


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
    """n_steps Strang steps A(dt/2) C(dt) A(dt/2), adjacent half-advections merged.

    A is the q advection and C the momentum sector, so the product is
    A(dt/2) [C(dt) A(dt)]^(n-1) C(dt) A(dt/2).
    """
    return _fokker_planck_states(w, dt, [n_steps], params)[0]


def _fokker_planck_states(w: WignerGrid, dt, counts, params: QbmParams):
    """Grids after each of the increasing step counts of one integration.

    The integration takes counts[-1] steps of ``_integrate_fokker_planck``.
    The flux coefficients are set three times: for the first
    half-advection, the full ones and the last half-advection.  The state
    after k < counts[-1] steps is taken after the k-th momentum step: it is
    copied into the spare padded array and closed there with a
    half-advection in the same scratch, which equals the k-step
    integration bit for bit; each such state sets the coefficients twice
    more, to the half ones and back.
    Entries below START_FLOOR times max |W| start at exactly 0.  NaN and
    inf survive every step, so each grid is checked for them once.
    """
    n_steps, stops = counts[-1], set(counts[:-1])
    buf = _FokkerPlanckBuffers(w.values)
    scale = np.max(np.abs(buf.values))
    buf.values[np.abs(buf.values) < START_FLOOR * scale] = 0.0
    c = w.p * dt / (params.M * w.dq)
    momentum = _momentum_propagator(w.p, w.dp, dt, params)
    buf.set_courant(0.5 * c)
    half = True                     # the coefficients are those of c / 2
    _advect_q(buf)
    grids = []
    for k in range(1, n_steps + 1):
        np.matmul(buf.values, momentum, out=buf.spare[1:w.n_q + 1])
        buf.swap()
        if k in stops:
            if not half:
                buf.set_courant(0.5 * c)
                half = True
            np.copyto(buf.spare, buf.padded)
            buf.swap()
            _advect_q(buf)
            grids.append(w.with_values(buf.values))
            buf.swap()
        if half != (k == n_steps):
            half = k == n_steps
            buf.set_courant(0.5 * c if half else c)
        _advect_q(buf)
    grids.append(w.with_values(buf.values))
    if not all(np.isfinite(grid.values).all() for grid in grids):
        raise DivergenceError("Fokker-Planck step produced non-finite values")
    return grids


def evolve_fokker_planck(w0: WignerGrid, t, params: QbmParams):
    """Compose the fewest equal steps within the step bound to time t.

    For an increasing sequence of times t, a list of one grid per time,
    each equal bit for bit to ``evolve_fokker_planck(w0, t_i, params)``.
    The longest time is integrated once, and every time whose plan has
    exactly its dt is taken from that integration on its way; any other
    time is integrated on its own.
    """
    times = _increasing(t) if np.ndim(t) else [t]
    plans = [fokker_planck_step_plan(w0, ti, params) for ti in times]
    taken = _taken_from_last_run(plans)
    grids = {i: w0.with_values(w0.values) if n_steps == 0
             else _integrate_fokker_planck(w0, dt_eff, n_steps, params)
             for i, (n_steps, dt_eff, _) in enumerate(plans)
             if i not in taken}
    if taken:
        grids.update(zip(taken, _fokker_planck_states(
            w0, plans[-1][1], [plans[i][0] for i in taken], params)))
    grids = [grids[i] for i in range(len(times))]
    return grids if np.ndim(t) else grids[0]


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
    terms = _kinetic_dissipation(padded, c_plus, c_minus,
                                 np.empty((n, n + 2), dtype=complex),
                                 np.empty((n, n + 2), dtype=complex))
    return terms[:, 1:-1] - (_decoherence_rate(params)
                             * (x[:, None] - x[None, :]) ** 2 * rho.kernel)


def master_dt_bound(rho: DensityMatrix, params: QbmParams) -> float:
    """RK4 stability estimate from the kinetic and dissipation spectral scales.

    The decoherence term is applied as an exact elementwise factor and does
    not limit the step.  Only ``x_min``, ``x_max`` and ``dx`` of rho are
    read.
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
