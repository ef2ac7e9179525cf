"""Exact decoherent-histories computations on finite toy Hilbert spaces.

One particle lives on B position bins; N distinguishable particles span the
B^N tensor-product space.  A state is a StateVector or a DensityOperator,
checked when built and read through its kept factor L, rho = L L^dag.  The
module builds

- collective observables: one-body operators (such as the lattice
  momentum) summed over particles;
- projectors: a projector diagonal in the basis is its diagonal, a real
  ``(dim,)`` vector: exact occupation projectors are boolean masks (the 0/1
  case) and Gaussian quasi-projectors
  (2 pi sigma^2)^(-1/2) exp(-(n - a)^2 / 2 sigma^2) of a bin's occupation
  count are weight vectors; spectral-window projectors are matrices;
- the decoherence functional of a multi-time history,

      D(a, a') = Tr[ P_{a_n}(t_n) ... P_{a_1}(t_1) rho P_{a'_1}(t_1) ... P_{a'_n}(t_n) ],

  with Heisenberg projectors generated by a Hamiltonian, decomposed once
  by one eigh, and, optionally, a per-particle position dephasing map
  interleaved with the unitary steps: from projected chains of L without
  dephasing, and from damp-then-rotate branch-pair matrices with it (the
  dense engines);
- the two-time occupation decoherence functional of a product state
  rho1^(x N) under a one-body Hamiltonian and per-particle dephasing, from
  the one-particle tensor d1 and a dynamic program over particles, capped
  by its own table (the factorized engine);
- the single-time D of a bin-0 count on a two-bin superposition of two
  product states, from the law of that count, without the 2^n space;
- consistency diagnostics on a DecoherenceMatrix, whatever engine made it:
  epsilon and the bound |D(a,a')|^2 <= p(a) p(a'), which any D satisfies;
- Gaussian-history probabilities and their peak structure: the exact
  single-time probability, at any number of centers from one eigh of A,
  its large-sigma asymptotic form
  (2 pi (sigma^2 + dA^2))^(-1/2) exp(-(<A> - a)^2 / 2(sigma^2 + dA^2)),
  argmax scans over multi-time chains, and tube/complement pairs that make the
  "probabilities concentrate on the mean trajectory" statement quantitative.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionCapError
from .phase_space import (_TILE, _checked_times, _held, _skew_and_scale,
                          position_dephasing)

__all__ = [
    "ToyHilbert",
    "StateVector",
    "DensityOperator",
    "ProjectorFamily",
    "HistorySpec",
    "DecoherenceMatrix",
    "OccupationFunctional",
    "BoundReport",
    "product_state",
    "superposition_state",
    "to_density",
    "one_particle_momentum",
    "lift_one_body",
    "window_projector",
    "occupation_family",
    "gaussian_occupation_family",
    "decoherence_functional",
    "branch_count_functional",
    "product_occupation_functional",
    "occupation_table_bytes",
    "consistency_epsilon",
    "check_dh_bound",
    "single_time_prob_exact",
    "single_time_prob_asymptotic",
    "argmax_scan",
    "complement_pair_consistency",
]

#: the dense engines' cap on dim = B^N: one complex dim x dim matrix, 256 MiB
DEFAULT_DIM_CAP = 2 ** 12
#: the cap on OccupationFunctional's table, 2^23 complex entries; the dynamic
#: program peaks at about 2.3 times the table (220 MB RSS at B = 3, N = 18)
OCCUPATION_TABLE_BYTES = 2 ** 27
_BRANCH_COUNT_MAX_N = 1000  #: the largest n of branch_count_functional
#: tolerance of check_dh_bound: |D(a,a')|^2 may exceed p(a) p(a') by this much
DH_BOUND_SLACK = 1e-10


@dataclass(frozen=True)
class ToyHilbert:
    """N distinguishable particles on B position bins of unit spacing."""

    B: int
    N: int

    def __post_init__(self):
        if self.B < 2 or self.N < 1:
            raise ValueError("need B >= 2 bins and N >= 1 particles")
        # 2^N passes the cap from this N on, so B ** N is never formed there
        if (self.N >= DEFAULT_DIM_CAP.bit_length()
                or self.B ** self.N > DEFAULT_DIM_CAP):
            raise DimensionCapError(
                f"B^N = {self.B}^{self.N} exceeds the cap {DEFAULT_DIM_CAP}")

    @property
    def dim(self):
        return self.B ** self.N

    def digits(self):
        """(dim, N) array: bin index of each particle per basis state."""
        idx = np.arange(self.dim)
        out = np.empty((self.dim, self.N), dtype=int)
        for k in range(self.N - 1, -1, -1):
            out[:, k] = idx % self.B
            idx //= self.B
        return out

    def occupation_table(self):
        """(dim, B) array: per-basis-state occupation count of each bin."""
        d = self.digits()
        out = np.zeros((self.dim, self.B), dtype=int)
        for b in range(self.B):
            out[:, b] = np.sum(d == b, axis=1)
        return out


@dataclass(frozen=True)
class StateVector:
    space: ToyHilbert
    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self):
        a = np.asarray(self.amplitudes, dtype=complex)
        if a.shape != (self.space.dim,):
            raise ValueError("amplitude vector has the wrong length")
        norm = np.linalg.norm(a)
        if not abs(norm - 1.0) <= 1e-8:  # False for a NaN norm too
            raise ValueError(f"state norm is {norm:.2e}, expected 1")
        object.__setattr__(self, "amplitudes", _held(a, self.amplitudes))


@dataclass(frozen=True)
class DensityOperator:
    """A read-only density matrix, checked once: finite, Hermitian to 1e-6,
    of unit trace, and positive by ||rho - L L^dag||_F <= 1e-8 for the L of
    ``_density_factor``, kept for the engines; that rejects lambda_min < -1e-8,
    some lambda_min in the band [-1e-8, -3e-10], and a skew part of norm over
    1e-8.  Once it passes, the matrix is held by ``phase_space._held``."""

    space: ToyHilbert
    matrix: np.ndarray = field(repr=False)
    _factor: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (self.space.dim, self.space.dim):
            raise ValueError("density matrix has the wrong shape")
        # a NaN entry, or an inf one (inf - inf is NaN), fails this test,
        # so every check after it sees finite entries
        if not _skew_and_scale(m)[0] <= 1e-6:
            raise ValueError("density matrix is not Hermitian")
        tr = np.real(np.trace(m))
        if abs(tr - 1.0) > 1e-6:
            raise ValueError(f"trace is {tr:.6f}, expected 1")
        l_fac = _density_factor(m)
        cuts = [slice(i, i + _TILE) for i in range(0, len(m), _TILE)]
        res = math.hypot(*(  # ||rho - L L^dag||_F over square tiles
            np.linalg.norm(m[a, b] - l_fac[a] @ l_fac[b].conj().T)
            for a in cuts for b in cuts))
        if not res <= 1e-8:
            raise ValueError("density matrix has a negative eigenvalue or a "
                             f"skew part: ||rho - L L^dag||_F = {res:.2e}")
        object.__setattr__(self, "matrix", _held(m, self.matrix))
        object.__setattr__(self, "_factor", l_fac)


def product_state(space: ToyHilbert, psi) -> StateVector:
    """Tensor power of a normalized one-particle amplitude vector."""
    psi = np.asarray(psi, dtype=complex)
    if psi.shape != (space.B,):
        raise ValueError("one-particle amplitudes must have length B")
    if not abs(np.linalg.norm(psi) - 1.0) <= 1e-8:
        raise ValueError("one-particle state must be normalized")
    amp = psi
    for _ in range(space.N - 1):
        amp = np.multiply.outer(amp, psi).ravel()
    return StateVector(space, amp)


def _uncancelled(norm):
    """The norm of |psi>^N + |chi>^N, required not to vanish."""
    if norm < 1e-12:
        raise ValueError("the two branches cancel the state")
    return norm


def superposition_state(space: ToyHilbert, psi, chi) -> StateVector:
    """Normalized |psi>^N + |chi>^N."""
    amp = (product_state(space, psi).amplitudes
           + product_state(space, chi).amplitudes)
    return StateVector(space, amp / _uncancelled(np.linalg.norm(amp)))


def to_density(state: StateVector) -> DensityOperator:
    """|a><a| of a state vector, a read-only DensityOperator."""
    outer = np.outer(state.amplitudes, state.amplitudes.conj())
    outer.flags.writeable = False
    return DensityOperator(state.space, outer)


# --- collective observables -------------------------------------------------


def one_particle_momentum(space: ToyHilbert) -> np.ndarray:
    """Discrete momentum p = F^dag diag(2 pi k / B) F on one particle."""
    b = space.B
    j = np.arange(b)
    f = np.exp(-2j * np.pi * np.outer(j, j) / b) / math.sqrt(b)
    diag = 2.0 * np.pi * np.fft.fftfreq(b)
    p = f.conj().T @ np.diag(diag) @ f
    return 0.5 * (p + p.conj().T)


def lift_one_body(space: ToyHilbert, op1) -> np.ndarray:
    """Sum over particles of a one-particle operator: sum_k 1 x op1 x 1.

    Built in the one dim x dim output, with no Kronecker temporaries.  With
    the basis index of particle k between i < B^k and j < B^(N-k-1), the
    term of particle k is op1[a, b] at row (i, a, j) and column (i, b, j),
    so op1 is added into that strided diagonal view of the output.  Each
    entry takes the same additions, in the same order, as the sum of
    Kronecker products.
    """
    b, n = space.B, space.N
    op1 = np.asarray(op1, dtype=complex)
    if op1.shape != (b, b):
        raise ValueError("one-particle operator must be B x B")
    out = np.zeros((space.dim, space.dim), dtype=complex)
    for k in range(n):
        left, right = b ** k, b ** (n - k - 1)
        # einsum returns a writeable view here: no index is summed
        term = np.einsum("iajibj->ijab",
                         out.reshape(left, b, right, left, b, right))
        term += op1
    return out


# --- projectors -------------------------------------------------------------


def _gaussian_weights(x, center, sigma):
    """(2 pi sigma^2)^(-1/2) exp(-(x - center)^2 / 2 sigma^2), elementwise,
    formed without sigma^2, which overflows first."""
    if not (math.isfinite(sigma) and sigma > 0 and np.isfinite(center).all()):
        raise ValueError("sigma must be positive and finite, center finite")
    g = np.exp(-0.5 * ((x - center) / sigma) ** 2)
    return g / (math.sqrt(2.0 * np.pi) * sigma)


def window_projector(a_op, interval) -> np.ndarray:
    """Spectral projector onto eigenvalues of A inside [lo, hi]."""
    lo, hi = interval
    if not lo < hi:
        raise ValueError("interval must be nondegenerate")
    a_op = _checked_hamiltonian(a_op, len(a_op), "observable A")
    vals, vecs = np.linalg.eigh(a_op)
    sel = (vals >= lo) & (vals <= hi)
    if not np.any(sel):
        warnings.warn("spectral window is empty; returning the zero projector",
                      stacklevel=2)
        return np.zeros_like(a_op)
    v = vecs[:, sel]
    return v @ v.conj().T


def occupation_family(space: ToyHilbert):
    """Exhaustive exact projector family over all occupation vectors, as
    (occupation tuple, boolean basis mask) pairs; the masks partition the basis."""
    vectors, inverse = np.unique(space.occupation_table(), axis=0,
                                 return_inverse=True)
    return [(tuple(int(v) for v in nbar), inverse.ravel() == k)
            for k, nbar in enumerate(vectors)]


def gaussian_occupation_family(space: ToyHilbert, b: int, centers, sigma):
    """Gaussian quasi-projectors of the bin-b number operator at given centers.

    The operator is diagonal in the basis, with the bin-b occupation counts
    as its spectrum, so each quasi-projector is diagonal too: the ``(dim,)``
    vector of their Gaussian weights.
    """
    if not 0 <= b < space.B:
        raise ValueError("bin index out of range")
    counts = space.occupation_table()[:, b]
    return [(float(c), _gaussian_weights(counts, c, sigma)) for c in centers]


# --- histories --------------------------------------------------------------


@dataclass(frozen=True)
class ProjectorFamily:
    """Labeled alternatives at one time: a list of (label, operator) pairs.

    An operator is either the diagonal of a projector diagonal in the basis,
    a ``(dim,)`` boolean mask (the 0/1 case) or float weight vector, or a
    ``(dim, dim)`` matrix.
    """

    members: tuple

    def __post_init__(self):
        if len(self.members) == 0:
            raise ValueError("a projector family needs at least one member")
        object.__setattr__(self, "members", tuple(self.members))


def _checked_family(family, dim, time):
    """The family with matrices as complex arrays."""
    members = []
    for label, op in family.members:
        op = np.asarray(op)
        if op.shape == (dim, dim):
            op = op.astype(complex, copy=False)
        elif op.shape != (dim,) or not (op.dtype == bool or
                                        np.issubdtype(op.dtype, np.floating)):
            raise ValueError(
                f"projector {label!r} at t = {time} is neither a ({dim},) "
                f"boolean mask or float weight vector nor a ({dim}, {dim}) "
                f"matrix: {op.dtype} {op.shape}")
        members.append((label, op))
    return ProjectorFamily(tuple(members))


def _checked_hamiltonian(h, dim, name="Hamiltonian"):
    """``h`` as a complex array, required to be a finite Hermitian dim x dim
    matrix, by ``_skew_and_scale``; an observable passes the same rule, and
    the errors give the operator's ``name``."""
    h = np.asarray(h, dtype=complex)
    if h.shape != (dim, dim):
        raise ValueError(f"{name} has the wrong shape")
    skew, scale = _skew_and_scale(h)
    if not scale < np.inf:
        raise ValueError(f"{name} entries must be finite")
    if not skew <= 1e-10 * max(scale, 1e-300):
        raise ValueError(f"{name} must be Hermitian")
    return h


def _spectrum(h):
    """(w, v) with h = v diag(w) v^dag for a Hermitian h, by one eigh.  When
    max|Im h| <= dim eps max|h|, a perturbation within eigh's own backward
    error, h.real is decomposed in real arithmetic, and v is real.  A
    diagonal h gets a signed permutation v, so a unitary through it equals
    diag(exp(-i dt diag(h))) exactly."""
    if (np.max(np.abs(h.imag))
            <= len(h) * np.finfo(float).eps * np.max(np.abs(h))):
        return np.linalg.eigh(h.real)
    return np.linalg.eigh(h)


def _times(m, y):
    """m @ y; a real m meets a complex y in real arithmetic, with y read as
    a real array of twice the columns."""
    if np.isrealobj(m) and np.iscomplexobj(y):
        return (m @ np.ascontiguousarray(y).view(float)).view(complex)
    return m @ y


def _unitary(spectrum, dt):
    """exp(-i h dt) = v diag(exp(-i dt w)) v^dag from the spectrum (w, v)."""
    w, v = spectrum
    return _times(v, np.exp(-1j * dt * w)[:, None] * v.conj().T)


@dataclass(frozen=True)
class HistorySpec:
    """Times, per-time projector families, Hamiltonian, optional dephasing.

    ``slots[k]`` is a one-element list holding the family at ``times[k]``.
    Each member must be a ``(dim,)`` boolean mask or float weight vector (a
    diagonal projector) or a ``(dim, dim)`` matrix.  With dephasing, each
    interval is ``dephasing_substeps`` damp-then-rotate steps.  ``spectrum``
    is the Hamiltonian's eigenvalues and eigenbasis (w, v), decomposed once
    here for every unitary.
    """

    space: ToyHilbert
    times: tuple
    slots: tuple
    hamiltonian: np.ndarray = field(repr=False)
    dephasing_rate: float = 0.0
    dephasing_substeps: int = 8
    spectrum: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        t = _checked_times(self.times)
        if len(self.slots) != len(t):
            raise ValueError("need one projector slot per time")
        if any(len(slot) != 1 for slot in self.slots):
            raise ValueError("each slot must hold exactly one projector family")
        slots = tuple(
            tuple(_checked_family(f if isinstance(f, ProjectorFamily)
                                  else ProjectorFamily(tuple(f)),
                                  self.space.dim, time)
                  for f in slot)
            for slot, time in zip(self.slots, t)
        )
        h = _checked_hamiltonian(self.hamiltonian, self.space.dim)
        if not self.dephasing_rate >= 0:
            raise ValueError("dephasing rate must be nonnegative")
        substeps = self.dephasing_substeps
        if not isinstance(substeps, (int, np.integer)) or substeps < 1:
            raise ValueError("dephasing_substeps must be an integer >= 1")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "slots", slots)
        object.__setattr__(self, "hamiltonian", h)
        object.__setattr__(self, "spectrum", _spectrum(h))


@dataclass(frozen=True)
class DecoherenceMatrix:
    """Decoherence functional over history labels (k, g), g fastest, held
    as blocks: D((k, g), (k', g')) = delta(g, g') blocks[k, k', g].  A (K, K)
    matrix is the one-block case; ``matrix`` is the dense array."""

    labels: tuple
    blocks: np.ndarray = field(repr=False)

    def __post_init__(self):
        # held before the one-block view of a matrix, which _held would copy
        c = _held(np.asarray(self.blocks, dtype=complex), self.blocks)
        if c.ndim == 2:
            c = c[:, :, None]
        if (c.ndim != 3 or c.shape[0] != c.shape[1]
                or c.shape[0] * c.shape[2] != len(self.labels)):
            raise ValueError("matrix shape must match the label catalog")
        skew, scale = _skew_and_scale(c.transpose(2, 0, 1))
        if not scale < np.inf:
            raise ValueError("decoherence matrix entries must be finite")
        if not skew <= 1e-8 * max(scale, 1e-300):
            raise ValueError("decoherence matrix must be Hermitian")
        if not np.min(np.real(np.einsum("iig->ig", c))) >= -1e-10:
            raise ValueError("diagonal entries must be nonnegative")
        object.__setattr__(self, "blocks", c)
        object.__setattr__(self, "labels", tuple(self.labels))

    @property
    def matrix(self):
        """The dense matrix, with the blocks scattered into zeros."""
        k, _, g = self.blocks.shape
        if g == 1:
            return self.blocks[:, :, 0]
        out = np.zeros((k, g, k, g), dtype=complex)
        same = np.arange(g)
        out[:, same, :, same] = self.blocks.transpose(2, 0, 1)
        return out.reshape(k * g, k * g)

    def probabilities(self):
        return np.real(np.einsum("iig->ig", self.blocks)).clip(0.0).ravel()


@dataclass(frozen=True)
class OccupationFunctional:
    """Two-time occupation decoherence functional of n particles, each with
    the one-particle tensor d1[b, b', c].

    ``decoherence`` holds D as its n2 blocks, the ``_occupation_coefficients``
    table, held to OCCUPATION_TABLE_BYTES before it is computed, each axis
    indexed by ``comps``; its labels (n1, n2) are the catalog of
    ``decoherence_functional`` with ``occupation_family`` at both times.
    """

    d1: np.ndarray = field(repr=False)
    n: int
    comps: tuple = field(init=False, repr=False)
    decoherence: DecoherenceMatrix = field(init=False, repr=False)

    def __post_init__(self):
        d1 = np.asarray(self.d1, dtype=complex)
        b = len(d1)
        if b < 2 or d1.shape != (b,) * 3 or self.n < 1:
            raise ValueError("need a (B, B, B) d1, B >= 2, and N >= 1")
        _capped_table_bytes(b, self.n)
        comps = tuple(_compositions(self.n, b))
        coef = _occupation_coefficients(d1, self.n)
        object.__setattr__(self, "d1", _held(d1, self.d1))
        object.__setattr__(self, "comps", comps)
        object.__setattr__(self, "decoherence", DecoherenceMatrix(
            tuple(itertools.product(comps, repeat=2)), coef))

    def mean_occupations(self):
        """N <b|rho1(t)|b> at t1 and t2, as the one-particle map keeps the
        trace: sum_c d1[b, b, c] and sum_{b, b'} d1[b, b', c]."""
        d1 = self.d1.real
        return self.n * np.einsum("bbc->b", d1), self.n * d1.sum(axis=(0, 1))


@dataclass(frozen=True)
class BoundReport:
    ok: bool
    worst_excess: float
    worst_pair: tuple


_ALL = slice(None)  # row/column selector of a block that spans the basis


def _is_diagonal(op):
    return op.ndim == 1


def _keep(op, m, axis=0):
    """diag(op) applied along ``axis`` of m, keeping only the rows (axis 0)
    or columns (axis 1) where op is nonzero: (the kept rows, the block).
    A boolean mask, the 0/1 case, only selects."""
    kept = op if op.dtype == bool else op != 0
    block = m[(_ALL,) * axis + (kept,)]
    if op.dtype != bool:
        block = block * np.expand_dims(op[kept],
                                       tuple(range(axis + 1, m.ndim)))
    return kept, block


def _disjoint_diagonals(ops):
    """Whether every projector is diagonal and no basis row is weighted by
    two of them, so that D vanishes between distinct final alternatives and
    each of its blocks weights the rows by w^2 (w for 0/1 masks)."""
    return (all(_is_diagonal(op) for op in ops)
            and np.max(np.count_nonzero(ops, axis=0)) <= 1)


def _dephasing_mask(space: ToyHilbert, rate, dt):
    """Position dephasing factor over dt; particle k of basis state a sits at
    digits[a, k]."""
    return position_dephasing(space.digits().astype(float), rate, dt)


def _damp_rotate(rows, cols, m, u, damp, substeps):
    """Evolve the (rows, cols) block M of a matrix zero elsewhere by substeps
    M -> U (M o damp) U^dag.  Returns factors (A, B) of the result A @ B^dag,
    so that a caller needing only its diagonal need not form it."""
    for _ in range(substeps - 1):
        m = u[:, rows] @ (m * damp[rows][:, cols]) @ u[:, cols].conj().T
        rows = cols = _ALL
    return u[:, rows] @ (m * damp[rows][:, cols]), u[:, cols]


def _apply_unitary(spectrum, dt, chains):
    """U(dt) Y for each chain (rows, Y[rows]), on the whole basis.

    U Y = v (e^{-i w dt} o (v^dag[:, rows] Y)): for chains of W entries and
    R columns in all that costs dim W + dim^2 R, and forming U first
    dim^3 + dim W, so U is formed only when R >= dim.
    """
    w, v = spectrum
    if sum(y.shape[1] for _, y in chains) >= len(w):
        u = _unitary(spectrum, dt)
        return [u[:, rows] @ y for rows, y in chains]
    phase = np.exp(-1j * dt * w)
    vh = v.conj().T
    return [_times(v, phase[:, None] * _times(vh[:, rows], y))
            for rows, y in chains]


def _project_chain(op, y):
    """P Y as a chain (rows, Y[rows]); a diagonal P keeps the rows where it
    is nonzero."""
    return _keep(op, y) if _is_diagonal(op) else (_ALL, op @ y)


#: the residual diagonal at which the factor of rho stops: every column
#: left out has a squared norm of at most this, so the trace it drops is at
#: most dim times it
_FACTOR_CUT = 1e-14


def _density_factor(rho_m):
    """L, read-only, with rho = L L^dag, up to the columns _FACTOR_CUT leaves
    out, by diagonally pivoted Cholesky.

    Each step takes the largest residual diagonal d_j as the pivot, appends
    the column (rho[:, j] - L L[j]^dag) / sqrt(d_j) and takes its squared
    moduli off d.  A rank-r rho costs O(dim r^2) time and O(dim r) memory:
    the columns are held as the rows of a buffer that doubles when full.
    """
    dim = len(rho_m)
    resid = np.real(np.diagonal(rho_m)).copy()
    cols = np.empty((min(dim, 8), dim), dtype=complex)  # L^T, grown by rows
    r = 0
    while r < dim:
        j = int(np.argmax(resid))
        if not resid[j] > _FACTOR_CUT:
            break
        if r == len(cols):
            cols = np.concatenate((cols, np.empty_like(cols)))[:dim]
        col = (rho_m[:, j] - cols[:r].T @ cols[:r, j].conj()) / math.sqrt(
            resid[j])
        cols[r] = col
        resid -= col.real ** 2 + col.imag ** 2
        r += 1
    l_fac = cols[:r].T
    l_fac.flags.writeable = False
    return l_fac


def _factor_of(rho):
    """The kept L with rho = L L^dag of a StateVector (its amplitudes, one
    column) or a DensityOperator; no other form is a state."""
    if isinstance(rho, StateVector):
        return rho.amplitudes[:, None]
    if isinstance(rho, DensityOperator):
        return rho._factor
    raise TypeError("a state is a StateVector or a DensityOperator, not "
                    f"{type(rho).__name__}")


def _chain_functional(l_fac, history, levels):
    """Undephased D(a, a') = Tr(Y_a Y_a'^dag), Y_a = P_{a_n} U_n ... P_{a_1} U_1 L.

    rho = L L^dag.  A chain projected by a diagonal keeps only its nonzero
    rows, scaled.  If the final level is disjoint diagonals, D's blocks are
    returned: that of final c is the Gram matrix of the chains on c's rows,
    scaled.
    """
    steps = np.diff((0.0,) + history.times)
    *inner, final = levels
    chains = [(_ALL, l_fac)]  # (rows, Y[rows]) per label prefix
    for dt, ops in zip(steps, inner):
        chains = [_project_chain(op, y) for y
                  in _apply_unitary(history.spectrum, dt, chains)
                  for op in ops]
    ys = _apply_unitary(history.spectrum, steps[-1], chains)
    if _disjoint_diagonals(final):
        blocks = np.empty((len(ys), len(ys), len(final)), dtype=complex)
        for c, op in enumerate(final):
            flat = np.array([_keep(op, y)[1].ravel() for y in ys])
            blocks[:, :, c] = flat @ flat.conj().T
        return blocks
    flat = np.array([(y * op[:, None] if _is_diagonal(op) else op @ y).ravel()
                     for y in ys for op in final])
    return flat @ flat.conj().T


def _project(m, left, right):
    """P_left M P_right^dag as a block (rows, cols, matrix)."""
    rows, m = _keep(left, m) if _is_diagonal(left) else (_ALL, left @ m)
    cols, m = (_keep(right, m, 1) if _is_diagonal(right)
               else (_ALL, m @ right.conj().T))
    return rows, cols, m


def _trace_pair(m, left, right):
    """Tr(P_left M P_right^dag)."""
    lm = m * left[:, None] if _is_diagonal(left) else left @ m
    if _is_diagonal(right):
        return np.sum(_keep(right, np.diagonal(lm))[1])
    return np.vdot(right, lm)


def _backward_last_interval(n_final, substeps, n_pairs):
    """Whether ``_branch_pair_functional`` evolves the final weights backward
    through the last interval rather than the prefix pairs forward.

    The rule counts dim^3 products.  Forward, a pair takes two per substep,
    but the first acts on its projected block and the last is needed only
    on the diagonal, one product each: 2(s - 1) for s >= 2, and at s = 1
    one product on the block alone, counted as none.  Backward, a final
    weight takes one product for its first conjugation, which only scales
    rows on the way in, and two per later substep: 2s - 1.
    """
    return n_final * (2 * substeps - 1) < n_pairs * 2 * (substeps - 1)


def _backward_blocks(pairs, weights, u, damp, substeps):
    """D(p c, q c) = Tr(W_c E(X_pq)) = Tr(E^dag(W_c) X_pq) for each entering
    pair block X_pq = (rows, cols, m) and final weight W_c = diag(weights[c]),
    with E^dag ``substeps`` steps Y -> (U^dag Y U) o damp, the adjoint of
    M -> U (M o damp) U^dag.  One E^dag(W_c) is held at a time."""
    out = {pair: np.empty(len(weights), dtype=complex) for pair in pairs}
    uh = u.conj().T
    for c, w in enumerate(weights):
        kept = w != 0
        y = (uh[:, kept] @ (w[kept, None] * u[kept])) * damp
        for _ in range(substeps - 1):
            y = (uh @ y @ u) * damp
        for pair, (rows, cols, m) in pairs.items():
            out[pair][c] = np.vdot(y[rows][:, cols], m)
    return out


def _branch_pair_functional(rho_m, history, levels):
    """Dephased D(a, a') from the branch-pair matrices P_a E(...) P_a'^dag.

    E is ``dephasing_substeps`` damp-then-rotate steps per interval of the
    HistorySpec ``history``, under its Hamiltonian's spectrum and at its
    dephasing rate; ``levels`` holds the projectors of each time.  Only
    prefix pairs p <= q are evolved (D is Hermitian).  If the final level
    is disjoint diagonals w_c, the blocks are D(p c, q c) = Tr(W_c E(X_pq)),
    W_c = diag(w_c^2): forward, each evolved pair's diagonal weighted by
    w_c^2; backward, when ``_backward_last_interval`` counts fewer products
    that way, each W_c evolved by the adjoint of E and traced against every
    entering pair.
    """
    substeps = history.dephasing_substeps
    final = levels[-1]
    blocked = _disjoint_diagonals(final)
    weights = np.array(final, dtype=float) ** 2 if blocked else None
    pairs = {(0, 0): (_ALL, _ALL, rho_m)}
    for k, (dt, ops) in enumerate(zip(np.diff((0.0,) + history.times),
                                      levels)):
        last, n = k == len(levels) - 1, len(ops)
        if dt > 0:
            u = _unitary(history.spectrum, dt / substeps)
            damp = _dephasing_mask(history.space, history.dephasing_rate,
                                   dt / substeps)
            if last and blocked and _backward_last_interval(n, substeps,
                                                            len(pairs)):
                pairs = _backward_blocks(pairs, weights, u, damp, substeps)
                break
        nxt = {}
        for (p, q), (rows, cols, m) in pairs.items():
            if dt > 0:  # else this is the first time, t = 0, and m is rho
                a, b = _damp_rotate(rows, cols, m, u, damp, substeps)
                if last and blocked:
                    nxt[(p, q)] = weights @ np.einsum("ij,ij->i", a, b.conj())
                    continue
                m = a @ b.conj().T
            if last and blocked:  # a single time, t = 0
                nxt[(p, q)] = [_trace_pair(m, op, op) for op in ops]
                continue
            step = _trace_pair if last else _project
            for l, r in itertools.product(range(n), repeat=2):
                if p * n + l <= q * n + r:
                    nxt[(p * n + l, q * n + r)] = step(m, ops[l], ops[r])
        pairs = nxt
    size = math.prod(map(len, levels[:-1] if blocked else levels))
    # (final, prefix, prefix) when blocked, one block of all labels otherwise
    out = np.zeros((len(final) if blocked else 1, size, size), dtype=complex)
    out[(_ALL,) + tuple(np.array(list(pairs)).T)] = np.array(
        list(pairs.values())).reshape(len(pairs), -1).T
    return (out + np.triu(out, 1).conj().transpose(0, 2, 1)).transpose(1, 2, 0)


def decoherence_functional(rho, history: HistorySpec) -> DecoherenceMatrix:
    """Evaluate D(a, a') for every pair of history labels.

    ``rho`` is a StateVector or a DensityOperator.  Without dephasing D is
    a Gram matrix of projected chains of its factor L; the dephasing map is
    a damping of rho, not a unitary chain, so with it branch-pair matrices
    of rho, |a><a| for a StateVector, are evolved.
    """
    l_fac = _factor_of(rho)
    if rho.space != history.space:
        raise ValueError(f"the state's space {rho.space} differs from the "
                         f"history's space {history.space}")
    families = [family.members for (family,) in history.slots]
    catalog = list(itertools.product(*([lab for lab, _ in f] for f in families)))
    levels = [[op for _, op in f] for f in families]
    if history.dephasing_rate == 0.0:
        mat = _chain_functional(l_fac, history, levels)
    else:
        mat = _branch_pair_functional(
            rho.matrix if isinstance(rho, DensityOperator)
            else np.outer(l_fac, l_fac.conj()), history, levels)
    return DecoherenceMatrix(tuple(catalog), mat)


def branch_count_functional(psi, chi, n, centers, sigma) -> DecoherenceMatrix:
    """``decoherence_functional`` of Gaussian quasi-projectors of the bin-0
    count, at one time under a zero Hamiltonian, for (|psi>^n + |chi>^n)/norm
    on two bins, from the law of the count, q(k) = C(n, k) |psi_0^k
    psi_1^(n-k) + chi_0^k chi_1^(n-k)|^2 / norm^2: D(a, a') = sum_k w_a(k)
    w_a'(k) q(k).  n is at most 1000: there C(n, k) < 2^n and the largest
    term of each branch's law, at least 2^-n / (n + 1), are normal floats."""
    psi, chi = (product_state(ToyHilbert(2, 1), v).amplitudes
                for v in (psi, chi))
    if n < 1:
        raise ValueError("need n >= 1 particles")
    if n > _BRANCH_COUNT_MAX_N:
        raise ValueError(f"need n <= {_BRANCH_COUNT_MAX_N} particles")
    k = np.arange(n + 1)
    law = np.array(list(itertools.accumulate(  # C(n, k), exact integers
        range(n), lambda c, j: c * (n - j) // (j + 1), initial=1)), float)
    law *= np.abs(psi[0] ** k * psi[1] ** (n - k)
                  + chi[0] ** k * chi[1] ** (n - k)) ** 2
    law /= _uncancelled(math.sqrt(law.sum())) ** 2
    w = np.array([_gaussian_weights(k, c, sigma) for c in centers])
    return DecoherenceMatrix(tuple((float(c),) for c in centers),
                             (w * law) @ w.T)


def _compositions(n, b):
    """Occupation vectors of n particles in b bins, lexicographically ordered
    as ``occupation_family`` orders them."""
    if b == 1:
        return [(n,)]
    return [(k,) + rest for k in range(n + 1)
            for rest in _compositions(n - k, b - 1)]


def occupation_table_bytes(b, n):
    """Bytes of the C(n + b - 1, b - 1)^3 complex entries of n in b bins."""
    return 16 * math.comb(n + b - 1, b - 1) ** 3


def _capped_table_bytes(b, n):
    """``occupation_table_bytes``, refused past OCCUPATION_TABLE_BYTES."""
    if (size := occupation_table_bytes(b, n)) > OCCUPATION_TABLE_BYTES:
        raise DimensionCapError(f"N = {n} in {b} bins exceeds the occupation "
                                f"table cap of {OCCUPATION_TABLE_BYTES} bytes")
    return size


#: bytes of one row block of the product in ``_occupation_coefficients``
_ROW_BLOCK_BYTES = 2 ** 20


def _occupation_coefficients(d1, n):
    """Coefficients of (sum_{b b' c} d1[b, b', c] x_b x'_b' y_c)^n.

    The array is indexed by the compositions of n, in ``_compositions``
    order, of the exponents of x, of x' and of y.  One particle at a time,
    the coefficients of k particles (L compositions) move to the U
    compositions of k + 1: for each bin pair (i, j),

        nxt[S_i, S_j, :] += coef.reshape(L^2, L) @ Q_ij,

    with S_b the composition with one more particle in bin b and Q_ij the
    (L, U) matrix that holds d1[i, j, c] at (l, S_c(l)).  A step costs B^2
    complex products of L^3 U multiply-adds, in row blocks of ``coef`` of
    about ``_ROW_BLOCK_BYTES`` each; the scatters address whole rows, not
    B^3 single terms.  The call peaks at about 2.0 tables at B = 3,
    N = 12 and 2.9 at B = 2, N = 64.
    """
    b = d1.shape[0]
    coef = np.ones((1, 1, 1), dtype=complex)
    lower = _compositions(0, b)
    for k in range(1, n + 1):
        upper = _compositions(k, b)
        index = {comp: i for i, comp in enumerate(upper)}
        # shift[i, bin]: the composition lower[i] with one more in bin
        shift = np.array([[index[comp[:bin_] + (comp[bin_] + 1,)
                                 + comp[bin_ + 1:]] for bin_ in range(b)]
                          for comp in lower])
        lo, up = len(lower), len(upper)
        nxt = np.zeros((up,) * 3, dtype=complex)
        q = np.zeros((lo, up), dtype=complex)
        rows = np.arange(lo)[:, None]
        step = max(1, _ROW_BLOCK_BYTES // q.nbytes)
        for i, j in itertools.product(range(b), repeat=2):
            q[rows, shift] = d1[i, j]
            for r in range(0, lo, step):
                block = coef[r:r + step]
                nxt[shift[r:r + step, i, None], shift[:, j]] += (
                    block.reshape(-1, lo) @ q).reshape(len(block), lo, up)
        coef, lower = nxt, upper
    return coef


def product_occupation_functional(rho1: DensityOperator, h1, n, times,
                                  dephasing_rate=0.0) -> OccupationFunctional:
    """Two-time occupation decoherence functional of the product state
    rho1^(x n) under the one-body Hamiltonian ``h1``, from one-particle
    objects only.

    Each interval is one damp-then-rotate step (``dephasing_substeps=1`` of
    the dense engines).  The map, the state and the projectors all
    factorize over particles, so D is the OccupationFunctional of the
    one-particle tensor

        d1[b, b', c] = <c| E_{t2-t1}(|b><b| rho1(t1) |b'><b'|) |c>,

    the blocks of the dense engines' branch-pair functional on the B-bin
    one-particle space, with the bin masks at both times, at every rate,
    0 included.
    """
    if rho1.space.N != 1:
        raise ValueError("rho1 must be a one-particle state")
    if len(times) != 2:
        raise ValueError("need exactly two times 0 <= t1 < t2")
    bins = np.eye(rho1.space.B, dtype=bool)
    family = [tuple(enumerate(bins))]
    spec = HistorySpec(rho1.space, times, (family, family), h1,
                       dephasing_rate, dephasing_substeps=1)
    return OccupationFunctional(
        _branch_pair_functional(rho1.matrix, spec, [bins, bins]), n)


def consistency_epsilon(dmat: DecoherenceMatrix) -> float:
    """max over a != a' of |D(a,a')| / sqrt(p(a) p(a')), skipping empty rows;
    D vanishes between blocks, so only pairs within a block are formed."""
    p = dmat.probabilities().reshape(len(dmat.blocks), -1)  # p[k, g]
    live = p > 1e-300
    dead = p.size - np.count_nonzero(live)
    if dead:
        warnings.warn(f"{dead} zero-probability histories excluded from "
                      "epsilon", stacklevel=2)
    i, j = np.triu_indices(len(p), 1)
    pair, g = np.nonzero(live[i] & live[j])
    i, j = i[pair], j[pair]
    d = dmat.blocks[i, j, g]
    # two square roots: p(a) p(a') underflows once both p are below 1e-154
    return float(np.max(np.hypot(d.real, d.imag)
                        / (np.sqrt(p[i, g]) * np.sqrt(p[j, g])), initial=0.0))


def check_dh_bound(dmat: DecoherenceMatrix) -> BoundReport:
    """Verify |D(a,a')|^2 <= p(a) p(a') + DH_BOUND_SLACK for every pair.

    ``worst_pair`` is the first pair, in row-major a < a' order, with the
    largest excess.
    """
    p = dmat.probabilities()
    i, j = np.triu_indices(p.size, 1)
    if i.size == 0:
        return BoundReport(ok=True, worst_excess=-np.inf, worst_pair=None)
    d = dmat.matrix[i, j]
    # hypot and float_power reproduce the scalar abs(d) ** 2 bit for bit
    excess = np.float_power(np.hypot(d.real, d.imag), 2) - p[i] * p[j]
    k = int(np.argmax(excess))
    return BoundReport(ok=bool(excess[k] <= DH_BOUND_SLACK),
                       worst_excess=float(excess[k]),
                       worst_pair=(dmat.labels[i[k]], dmat.labels[j[k]]))


# --- Gaussian history probabilities ----------------------------------------


def _mean_and_spread(l_fac, a_op):
    """(<A>, dA) in rho = L L^dag of a Hermitian A: <A> = Re Tr(L^dag A L)
    and <A^2> = ||A L||_F^2."""
    al = a_op @ l_fac
    mean = float(np.vdot(l_fac, al).real)
    second = float(np.vdot(al, al).real)
    return mean, math.sqrt(max(second - mean ** 2, 0.0))


def single_time_prob_exact(rho, a_op, center, sigma):
    """Tr(P_c rho) with the Gaussian quasi-projector P_c of A, at a scalar
    center (a float) or an array of centers (an array of their shape).

    Over the eigenpairs (a_j, |j>) of A, one eigh for every center,
    Tr(P_c rho) = sum_j g_c(a_j) <j|rho|j>, g_c the Gaussian weight, with
    the populations <j|rho|j> = sum_k |(V^dag L)_jk|^2 over the columns of L.
    """
    l_fac = _factor_of(rho)
    vals, vecs = np.linalg.eigh(
        _checked_hamiltonian(a_op, len(l_fac), "observable A"))
    pops = np.sum(np.abs(l_fac.conj().T @ vecs) ** 2, axis=0)
    c = np.asarray(center, dtype=float)
    p = _gaussian_weights(vals, c[..., None], sigma) @ pops
    return float(p) if c.ndim == 0 else p


def single_time_prob_asymptotic(rho, a_op, center, sigma):
    """Large-sigma form: Gaussian of width sqrt(sigma^2 + dA^2) about <A>,
    at a scalar center (a float) or an array of centers."""
    l_fac = _factor_of(rho)
    mean, spread = _mean_and_spread(
        l_fac, _checked_hamiltonian(a_op, len(l_fac), "observable A"))
    p = _gaussian_weights(mean, np.asarray(center, dtype=float),
                          math.hypot(sigma, spread))
    return float(p) if p.ndim == 0 else p


def _heisenberg_ops(a_op, h, times, dim):
    """A(t) = U^dag A U at each requested time, A and h checked as
    dim x dim and h decomposed once."""
    a_op = _checked_hamiltonian(a_op, dim, "observable A")
    spectrum = _spectrum(_checked_hamiltonian(h, dim))
    return [u.conj().T @ a_op @ u
            for u in (_unitary(spectrum, t) for t in times)]


def _center_grids(l_fac, a_t, sigma):
    """The 81 centers <A(t)> + k sigma/10, k = -40..40, at each time."""
    steps = 0.1 * sigma * np.arange(-40, 41)
    return [_mean_and_spread(l_fac, at)[0] + steps for at in a_t]


def argmax_scan(rho, a_op, times, sigma, h):
    """Peak of the multi-time Gaussian-history probability over a center grid.

    Grids are uniform with spacing sigma/10 over <A(t)> +/- 4 sigma.  The
    scan expands chains level by level in the eigenbasis of each A(t), so the
    cost is (grid size)^n vector operations, not matrix products.
    """
    if not sigma > 0:
        raise ValueError("sigma must be positive")
    times = _checked_times(times)
    l_fac = _factor_of(rho)
    a_t = _heisenberg_ops(a_op, h, times, len(l_fac))
    grids = _center_grids(l_fac, a_t, sigma)

    # probability is linear in rho = L L^dag: sum it over the columns of L
    eigs = [np.linalg.eigh(at) for at in a_t]

    shape = tuple(len(g) for g in grids)
    total = np.zeros(shape)
    for psi in l_fac.T:
        batch = psi[None, :]  # (n_chains, dim)
        for (vals, vecs), grid in zip(eigs[:-1], grids[:-1]):
            eig = batch @ vecs.conj()  # components in the A(t_k) eigenbasis
            gauss = _gaussian_weights(vals[None, :], grid[:, None], sigma)
            # new batch: one chain per (old chain, center)
            eig = eig[:, None, :] * gauss[None, :, :]
            batch = (eig.reshape(-1, len(vals))) @ vecs.T
        # final time: the projector enters once, p = Re <v|P_n(c)|v>
        vals, vecs = eigs[-1]
        eig2 = np.abs(batch @ vecs.conj()) ** 2
        gauss = _gaussian_weights(vals[None, :], grids[-1][:, None], sigma)
        total += (eig2 @ gauss.T).reshape(shape)
    best = np.unravel_index(np.argmax(total), shape)
    peak = tuple(float(grids[k][best[k]]) for k in range(len(grids)))
    return peak, grids, total


def complement_pair_consistency(rho, a_op, times, tube_width, h):
    """Tube-vs-complement two-history set around the mean trajectory of A.

    The tube class operator chains window projectors of half-width
    tube_width/2 about <A(t_k)>; the complement is C_comp = 1 - C_tube.
    Returns the tube probability p = ||C_tube L||^2, complement probability
    p_bar = ||L - C_tube L||^2, and the off-diagonal entry, which satisfy
    p + p_bar + 2 Re D = 1 exactly.
    """
    times = _checked_times(times)
    l_fac = _factor_of(rho)
    tube = l_fac
    for at in _heisenberg_ops(a_op, h, times, len(l_fac)):
        mean, _ = _mean_and_spread(l_fac, at)
        tube = window_projector(at, (mean - tube_width / 2.0,
                                     mean + tube_width / 2.0)) @ tube
    rest = l_fac - tube
    return (float(np.vdot(tube, tube).real), float(np.vdot(rest, rest).real),
            complex(np.vdot(rest, tube)))
