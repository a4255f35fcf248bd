"""Truncated Fock-space operators, canonical states, and shared linear algebra.

Everything in the package lives in a photon-number basis truncated at ``dim``
levels, with the annihilation operator ``a[n-1, n] = sqrt(n)``.  Operators are
plain complex numpy arrays (returned read-only); states and density matrices
get thin dataclass wrappers that validate them at construction.

Cat-qubit conventions
---------------------
For a complex amplitude ``alpha`` the normalized cat states are

    |Cat_+-> = (|alpha> +- |-alpha>) / sqrt(2 (1 +- exp(-2|alpha|^2)))

(even/odd photon-number parity).  The six cardinal states of the qubit Bloch
sphere built on an orthonormal pair (plus_cat, minus_cat) are

    z: |+Cat>, |-Cat>
    x: (|+Cat> +- |-Cat>) / sqrt(2)    (labelled +Coh / -Coh; for large cats
                                        these approach the coherent states
                                        |+alpha> and |-alpha>)
    y: (|+Cat> +- i |-Cat>) / sqrt(2)  (labelled +iCat / -iCat)

The relative phase of the pair is always fixed so that ``<alpha|+Cat>`` and
``<alpha|-Cat>`` are real and positive, which makes +Coh the right-hand lobe.
"""

from __future__ import annotations

import functools
import logging
from dataclasses import dataclass
from math import lgamma

import numpy as np

from .errors import InvalidDimensionError, TruncationError, UsageError

__all__ = [
    "ladder_ops",
    "number_op",
    "parity_op",
    "fock_state",
    "coherent_state",
    "cat_amplitudes",
    "cat_state",
    "norms",
    "state_array",
    "dm",
    "qubit_block",
    "state_fidelity",
    "assert_hermitian",
    "StateVector",
    "DensityMatrix",
    "CARDINAL_LABELS",
    "CARDINAL_COEFFS",
    "cardinal_states",
    "cardinal_populations",
]

logger = logging.getLogger(__name__)

#: Entrywise tolerance for Hermiticity checks on operators.
HERMITIAN_TOL = 1e-12


def _readonly(arr):
    arr = np.ascontiguousarray(arr)
    arr.setflags(write=False)
    return arr


def _check_dim(dim):
    if not isinstance(dim, (int, np.integer)) or dim < 2:
        raise InvalidDimensionError(f"Fock dimension must be an int >= 2, got {dim!r}")
    return int(dim)


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------

def ladder_ops(dim):
    """Annihilation and creation operators on a ``dim``-level Fock space.

    Returns ``(a, adag)`` with ``a[n-1, n] = sqrt(n)``.  On the truncated
    space ``[a, adag] = 1`` except in the last diagonal entry, which is
    ``1 - dim`` (the usual truncation artifact).
    """
    dim = _check_dim(dim)
    a = np.zeros((dim, dim), dtype=np.complex128)
    n = np.arange(1, dim)
    a[n - 1, n] = np.sqrt(n)
    return _readonly(a), _readonly(a.conj().T)


def number_op(dim):
    """Photon-number operator ``diag(0, 1, ..., dim-1)``."""
    dim = _check_dim(dim)
    return _readonly(np.diag(np.arange(dim, dtype=np.complex128)))


def parity_op(dim):
    """Photon-number parity ``diag((-1)^n)``; involutory and Hermitian."""
    dim = _check_dim(dim)
    signs = 1.0 - 2.0 * (np.arange(dim) % 2)
    return _readonly(np.diag(signs.astype(np.complex128)))


def assert_hermitian(op, name="operator"):
    """Raise ``UsageError`` unless ``op`` is Hermitian within ``HERMITIAN_TOL``."""
    op = np.asarray(op)
    err = np.max(np.abs(op - op.conj().T)) if op.size else 0.0
    if err > HERMITIAN_TOL:
        raise UsageError(f"{name} is not Hermitian (max |M - M^dag| = {err:.3e})")
    return op


# ---------------------------------------------------------------------------
# states
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StateVector:
    """A ket in the truncated Fock space, of unit norm within 1e-10.

    Construction checks the norm; an unnormalized vector stays a plain
    array.
    """

    amplitudes: np.ndarray

    def __post_init__(self):
        amp = np.asarray(self.amplitudes, dtype=np.complex128)
        if amp.ndim != 1 or amp.size < 2:
            raise InvalidDimensionError("StateVector needs a 1-d array of length >= 2")
        object.__setattr__(self, "amplitudes", _readonly(amp))
        nrm = np.linalg.norm(amp)
        if abs(nrm - 1.0) > 1e-10:
            raise UsageError(f"state has norm {nrm!r}; an unnormalized "
                             "vector stays a plain array")

    @property
    def dim(self):
        return self.amplitudes.size


@dataclass(frozen=True)
class DensityMatrix:
    """A density matrix, checked at construction.

    Hermitian within 1e-10 entrywise, unit trace within 1e-8, and smallest
    eigenvalue above -1e-8; an unphysical matrix stays a plain array.
    """

    entries: np.ndarray

    def __post_init__(self):
        rho = np.asarray(self.entries, dtype=np.complex128)
        if rho.ndim != 2 or rho.shape[0] != rho.shape[1] or rho.shape[0] < 2:
            raise InvalidDimensionError("DensityMatrix needs a square array of size >= 2")
        object.__setattr__(self, "entries", _readonly(rho))
        herm_err = np.max(np.abs(rho - rho.conj().T))
        if herm_err > 1e-10:
            raise UsageError(f"density matrix not Hermitian (err {herm_err:.3e})")
        tr = np.trace(rho).real
        if abs(tr - 1.0) > 1e-8:
            raise UsageError(f"density matrix trace {tr!r} != 1")
        eigmin = float(np.linalg.eigvalsh((rho + rho.conj().T) / 2.0)[0])
        if eigmin < -1e-8:
            raise UsageError(f"density matrix has negative eigenvalue {eigmin:.3e}")

    @property
    def dim(self):
        return self.entries.shape[0]

    def purity(self):
        return float(np.trace(self.entries @ self.entries).real)


def norms(amplitudes):
    """Norms along the last axis, each ``np.linalg.norm`` bit for bit."""
    re, im = amplitudes.real[..., None, :], amplitudes.imag[..., None, :]
    sq = re @ re.swapaxes(-1, -2) + im @ im.swapaxes(-1, -2)
    return np.sqrt(sq[..., 0, 0])


def state_array(state):
    """A ket's amplitudes, a DensityMatrix's entries, or an array as is."""
    if isinstance(state, StateVector):
        return state.amplitudes
    if isinstance(state, DensityMatrix):
        return state.entries
    return np.asarray(state, dtype=np.complex128)


def dm(rho):
    """A state as a plain density array.

    A ket (:class:`StateVector` or 1-D array) gives |psi><psi|, a
    :class:`DensityMatrix` its entries, and a 2-D array is returned as is.
    """
    arr = state_array(rho)
    return np.outer(arr, arr.conj()) if arr.ndim == 1 else arr


def state_fidelity(rho, sigma):
    """Uhlmann fidelity ``(Tr sqrt(sqrt(rho) sigma sqrt(rho)))^2``.

    Accepts kets, DensityMatrix objects, or raw arrays in any combination.
    When either argument is a :class:`StateVector` |psi>, the result is the
    exact ``Re <psi|sigma|psi>`` in either argument order (``|<psi|phi>|^2``
    for two kets), with no square roots taken.

    Otherwise the eigenvalues ``mu`` of ``sqrt(rho) sigma sqrt(rho)`` that sit
    at or below ``n * eps * max(mu)`` (``n`` the dimension) are dropped before
    the square root: they cannot be told apart from zero at working
    precision, and for a rank-deficient pair the square roots of that
    roundoff would add a bias of order 1e-8.  The result is capped at 1,
    which the few-eps roundoff of the summed square roots can cross.
    """
    if isinstance(sigma, StateVector):
        rho, sigma = sigma, rho
    if isinstance(rho, StateVector):
        amp = rho.amplitudes
        return float(np.real(np.vdot(amp, dm(sigma) @ amp)))
    r = dm(rho)
    s = dm(sigma)
    vals, vecs = np.linalg.eigh((r + r.conj().T) / 2.0)
    vals = np.clip(vals, 0.0, None)
    sqrt_r = (vecs * np.sqrt(vals)) @ vecs.conj().T
    inner = sqrt_r @ s @ sqrt_r
    mu = np.linalg.eigvalsh((inner + inner.conj().T) / 2.0)
    floor = mu.size * np.finfo(float).eps * max(mu[-1], 0.0)
    mu = mu[mu > floor]
    return min(float(np.sum(np.sqrt(mu)) ** 2), 1.0)


def fock_state(n, dim):
    """Number state |n>."""
    dim = _check_dim(dim)
    if not 0 <= n < dim:
        raise InvalidDimensionError(f"Fock index {n} outside 0..{dim - 1}")
    amp = np.zeros(dim, dtype=np.complex128)
    amp[n] = 1.0
    return StateVector(amp)


def _check_alpha_fits(alpha, dim, what):
    """Truncation guard |alpha|^2 <= dim/4 shared by coherent-state builders."""
    nbar = abs(alpha) ** 2
    if nbar > dim / 4.0:
        raise TruncationError(
            f"{what} with |alpha|^2 = {nbar:.3f} does not fit safely in dim={dim} "
            f"(need |alpha|^2 <= dim/4, so dim >= {int(np.ceil(4.0 * nbar))})"
        )


@functools.lru_cache(maxsize=None)
def _half_log_factorials(dim):
    """Read-only log(sqrt(n!)) for n < dim, shared by every coherent state."""
    return _readonly(0.5 * np.array([lgamma(k + 1.0) for k in np.arange(dim)]))


def _coherent_amplitudes(alpha, dim):
    """Raw coherent amplitudes c_n = exp(-|a|^2/2) a^n / sqrt(n!), in log space.

    ``alpha`` is a nonzero scalar or a (B, 1) column of them; ``hypot`` and
    ``float_power`` repeat Python's ``abs(alpha) ** 2``, so rows keep bits.
    """
    n = np.arange(dim)
    r = np.hypot(np.real(alpha), np.imag(alpha))
    log_mag = -0.5 * np.float_power(r, 2) + n * np.log(r) - _half_log_factorials(dim)
    return np.exp(log_mag) * np.exp(1j * (n * np.angle(alpha)))


def coherent_state(alpha, dim):
    """Coherent state |alpha> with amplitudes evaluated in log space.

    Requires ``|alpha|^2 <= dim/4`` so the Poisson tail lost to truncation is
    negligible; the renormalization deficit is logged when it exceeds 1e-8.
    """
    dim = _check_dim(dim)
    alpha = complex(alpha)
    _check_alpha_fits(alpha, dim, "coherent state")
    if alpha == 0:
        return fock_state(0, dim)
    amp = _coherent_amplitudes(alpha, dim)
    nrm = np.linalg.norm(amp)
    deficit = abs(1.0 - nrm**2)
    if deficit > 1e-8:
        logger.info(
            "coherent_state(alpha=%s, dim=%d): renormalizing, truncated weight %.3e",
            alpha, dim, deficit,
        )
    return StateVector(amp / nrm)


def cat_amplitudes(alphas, parity, dim):
    """Normalized even or odd cat amplitudes, shape (B, dim), one row per alpha.

    ``alphas`` is a 1-D stack of B amplitudes.  Each row is the coherent
    amplitudes masked to one number parity (the two-coherent-state
    superposition, with the suppressed amplitudes exactly zero).  A zero
    alpha gives the limit, |0> for ``'even'`` and |1> for ``'odd'``.
    Raises :class:`TruncationError` if any ``|alpha|^2 > dim/4``.
    """
    dim = _check_dim(dim)
    if parity not in ("even", "odd"):
        raise UsageError(f"parity must be 'even' or 'odd', got {parity!r}")
    alphas = np.atleast_1d(np.asarray(alphas, dtype=np.complex128))
    _check_alpha_fits(np.max(np.abs(alphas)), dim, "cat state")
    odd = int(parity == "odd")
    zero = alphas == 0
    amp = _coherent_amplitudes(np.where(zero, 1.0, alphas)[:, None], dim)
    amp[zero] = np.arange(dim) == odd
    amp[:, 1 - odd::2] = 0.0
    return amp / norms(amp)[:, None]


def cat_state(alpha, parity, dim):
    """Even or odd cat state: :func:`cat_amplitudes` as a stack of one.

    The odd cat is undefined at alpha = 0.
    """
    if parity == "odd" and alpha == 0:
        raise UsageError("odd cat state is undefined at alpha = 0")
    return StateVector(cat_amplitudes([alpha], parity, dim)[0])


# ---------------------------------------------------------------------------
# cardinal states of a cat qubit
# ---------------------------------------------------------------------------

CARDINAL_LABELS = ("+Cat", "-Cat", "+Coh", "-Coh", "+iCat", "-iCat")

_S = 1.0 / np.sqrt(2.0)
#: each cardinal state as (plus_cat, minus_cat) coefficients, in
#: CARDINAL_LABELS order
CARDINAL_COEFFS = _readonly(np.array([[1.0, 0.0], [0.0, 1.0], [_S, _S],
                                      [_S, -_S], [_S, 1j * _S], [_S, -1j * _S]]))


def qubit_block(rho, basis):
    """The 2x2 block V† rho V on the pair of a :class:`kposim.model.CatBasis`.

    V has ``plus_cat`` and ``minus_cat`` as its columns.  ``rho`` is any
    state :func:`dm` takes, or a (..., dim, dim) stack of density arrays,
    which gives the (..., 2, 2) stack of blocks; a state whose dim differs
    from the basis's raises :class:`InvalidDimensionError`.
    """
    rho_arr = dm(rho)
    if rho_arr.shape[-2:] != (basis.dim, basis.dim):
        raise InvalidDimensionError(
            "dimension mismatch: state dim "
            f"{'x'.join(map(str, rho_arr.shape[-2:]))}, basis dim {basis.dim}")
    v = np.array([basis.plus_cat.amplitudes, basis.minus_cat.amplitudes]).T
    return v.conj().T @ rho_arr @ v


def cardinal_states(basis):
    """The six cardinal states of a :class:`kposim.model.CatBasis`.

    The pair is used as it stands: ``CatBasis`` checked it orthonormal
    within 1e-10, the norm tolerance of the StateVector objects returned
    here, and (p +- m)/sqrt(2) has squared norm 1 + O(deviation).  Returns
    a dict keyed by :data:`CARDINAL_LABELS`.
    """
    kets = CARDINAL_COEFFS @ [basis.plus_cat.amplitudes,
                              basis.minus_cat.amplitudes]
    return {c: StateVector(k) for c, k in zip(CARDINAL_LABELS, kets)}


def cardinal_populations(rho, basis):
    """Populations of the six cardinal states in state ``rho``.

    Read off the :func:`qubit_block` of ``rho``, in :data:`CARDINAL_LABELS`
    order, along a new last axis for a stack of states.  Values land in
    [0, 1] up to numerical noise for physical states and are reported
    unclipped; the pairs along one axis sum to the same qubit-subspace
    weight.
    """
    block = qubit_block(rho, basis)
    return np.einsum("ki,...ij,kj->...k", CARDINAL_COEFFS.conj(), block,
                     CARDINAL_COEFFS).real
