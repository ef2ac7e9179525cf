"""Dense reference forms that only the tests call.

Each builds, on the full B^N space, an object the library computes some
other way, so a test can compare the two.
"""

import math
import warnings

import numpy as np

from hydrohist import histories as hi


def number_density_operator(space: hi.ToyHilbert, b: int) -> np.ndarray:
    """n(b) = sum_k |b><b|_k; diagonal with occupation-count spectrum."""
    if not 0 <= b < space.B:
        raise ValueError("bin index out of range")
    return np.diag(space.occupation_table()[:, b].astype(complex))


def lift_one_body_kron(space: hi.ToyHilbert, op1) -> np.ndarray:
    """sum_k 1 x op1 x 1 as a sum of N Kronecker products of dim x dim
    arrays, the form lift_one_body builds without them."""
    op1 = np.asarray(op1, dtype=complex)
    out = np.zeros((space.dim, space.dim), dtype=complex)
    for k in range(space.N):
        left = np.eye(space.B ** k)
        right = np.eye(space.B ** (space.N - k - 1))
        out += np.kron(np.kron(left, op1), right)
    return out


def gibbs_tensor_power(rho1: hi.DensityOperator, n: int) -> hi.DensityOperator:
    """N-fold tensor power of a one-particle density operator, on the B^N
    space that the factorized engine never forms."""
    space = hi.ToyHilbert(B=rho1.space.B, N=n)
    mat = rho1.matrix
    for _ in range(n - 1):
        mat = np.kron(mat, rho1.matrix)
    return hi.DensityOperator(space, mat)


def eigh_factor(rho_m) -> np.ndarray:
    """L with rho = L L^dag from the spectrum: the eigenvectors scaled by
    sqrt(w), for the eigenvalues w above the factor's cut of 1e-14."""
    w, v = np.linalg.eigh(rho_m)
    keep = w > hi._FACTOR_CUT
    return v[:, keep] * np.sqrt(w[keep])


def min_eigenvalue(rho_m) -> float:
    """lambda_min of the Hermitian part of rho by ``eigvalsh``, in O(dim^3):
    the positivity test that DensityOperator's factor check replaced, which
    rejected lambda_min < -1e-8."""
    return float(np.linalg.eigvalsh(0.5 * (rho_m + rho_m.conj().T))[0])


def gaussian_quasi_projector(a_op, center, sigma) -> np.ndarray:
    """(2 pi sigma^2)^(-1/2) exp(-(A - center)^2 / 2 sigma^2), spectrally."""
    vals, vecs = np.linalg.eigh(np.asarray(a_op, dtype=complex))
    return (vecs * hi._gaussian_weights(vals, center, sigma)) @ vecs.conj().T


def multi_time_prob(rho, a_op, times, centers, sigma, h) -> float:
    """Probability of the Gaussian-projector chain at the given centers.

    Standard chain form with the final projector appearing once,
    p = Re Tr(P_n ... P_1 rho P_1 ... P_{n-1}), so a single-time history
    reduces exactly to Tr(P rho).  rho is a DensityOperator; the spreads
    dA(t)^2 = Tr(rho A(t)^2) - Tr(rho A(t))^2 are formed densely here.
    """
    times = tuple(float(t) for t in times)
    if any(b <= a for a, b in zip(times, times[1:])):
        raise ValueError("times must be strictly increasing")
    centers = tuple(centers)
    if len(centers) != len(times):
        raise ValueError("need one center per time")
    rho_m = rho.matrix
    a_t = hi._heisenberg_ops(a_op, h, times, len(rho_m))
    spreads = [math.sqrt(max(np.real(np.trace(rho_m @ at @ at))
                             - np.real(np.trace(rho_m @ at)) ** 2, 0.0))
               for at in a_t]
    if sigma < 3.0 * max(spreads):
        warnings.warn(
            "sigma is not large against the spread of A(t); the peak "
            "structure may deviate from the mean trajectory", stacklevel=2)
    c_op = np.eye(rho_m.shape[0], dtype=complex)
    for at, c in zip(a_t[:-1], centers[:-1]):
        c_op = gaussian_quasi_projector(at, c, sigma) @ c_op
    inner = c_op @ rho_m @ c_op.conj().T
    p_final = gaussian_quasi_projector(a_t[-1], centers[-1], sigma)
    return float(np.real(np.trace(p_final @ inner)))
