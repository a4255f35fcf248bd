"""Quasienergy spectra, splitting surfaces and classical energy analysis.

The rotating-frame Hamiltonian without linear drive conserves photon-number
parity, so its spectrum is computed per parity sector and every level carries
an exact parity label.  The two qubit levels are the pair of the cat basis
(one pick, :func:`kposim.model._qubit_pair`, by overlap with the analytic
cat at alpha_c = sqrt((P+Delta)/K)); near the operating point they are the
two highest quasienergies, and :func:`qubit_splitting` frames the gates.
Sweeps stack their points, one ``eigh`` per sector per grid row.  The
classical-energy surface (operators replaced by complex amplitudes) provides
the lobe positions: its stationary points are known in closed form, the
origin, the lobes +-sqrt((Delta+P)/K) on the real axis and
+-i sqrt((Delta-P)/K) on the imaginary axis, each pair present while its
radicand is positive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import model as md
from .errors import TruncationError, UsageError
from .units import TWO_PI


@dataclass(frozen=True)
class QuasiSpectrum:
    """Eigen-decomposition of the drive-free Hamiltonian with parity labels.

    ``energies`` are sorted descending (rad/us), ``parities`` is +-1 per
    level, ``states`` holds the matching eigenvectors as columns.
    ``qubit_indices`` is (index of even qubit level, index of odd qubit
    level) within ``energies``.
    """

    energies: np.ndarray
    parities: np.ndarray
    states: np.ndarray
    qubit_indices: tuple

    @property
    def splitting(self):
        """E_odd_qubit - E_even_qubit (rad/us)."""
        i_even, i_odd = self.qubit_indices
        return self.energies[i_odd] - self.energies[i_even]

    @property
    def splitting_mhz(self):
        return self.splitting / TWO_PI

    @property
    def gap(self):
        """Distance (rad/us) from the qubit pair to the nearest other level."""
        pair = list(self.qubit_indices)
        others = np.delete(self.energies, pair)
        return float(np.min(np.abs(others[:, None] - self.energies[pair])))


def _sectors(K, P, Delta, dim):
    if K <= 0:
        raise UsageError(f"K must be positive, got {K}")
    if dim < 6:
        raise UsageError(f"dim must be >= 6 for a labelled spectrum, got {dim}")
    return md._qubit_pair(K, P, Delta, dim)


def quasienergies(K, P, Delta, dim):
    """Parity-labelled spectrum of ``Delta n - (K/2) n(n-1) + (P/2)(a†²+a²)``.

    The six highest levels are recomputed at ``dim+10``; a shift above
    ``1e-6 K`` raises :class:`TruncationError`.
    """
    sectors, picks, _ = _sectors(K, P, Delta, dim)
    energies = np.empty(dim)
    states = np.zeros((dim, dim), dtype=np.complex128)
    for par, (vals, vecs) in enumerate(sectors):
        energies[par::2], states[par::2, par::2] = vals[0], vecs[0]
    order = np.argsort(energies)[::-1]          # descending
    big = np.concatenate([v[0] for v, _ in _sectors(K, P, Delta, dim + 10)[0]])
    shift = np.max(np.abs(energies[order[:6]] - np.sort(big)[::-1][:6]))
    if shift > 1e-6 * K:
        raise TruncationError(
            f"top-6 quasienergies shift by {shift:.3e} rad/us between "
            f"dim={dim} and dim={dim + 10}; increase dim")
    rank = np.argsort(order)
    return QuasiSpectrum(energies=energies[order], parities=1 - 2 * (order % 2),
                         states=states[:, order], qubit_indices=tuple(
                             int(rank[2 * k + par]) for par, k in enumerate(picks[0])))


def qubit_splitting(K, P, Delta, dim):
    """Qubit-level splitting E_odd - E_even (rad/us) at a stack of points.

    ``P`` and ``Delta`` broadcast to a 1-D stack of B points, and each parity
    sector of the stack is one ``eigh`` of (B, dim/2, dim/2) blocks.  No
    convergence check runs (see :func:`quasienergies`), but any point with
    ``alpha_c^2 > dim/4`` raises :class:`TruncationError`.
    """
    ((e_even, _), (e_odd, _)), picks, _ = _sectors(K, P, Delta, dim)
    b = np.arange(picks.shape[0])
    return e_odd[b, picks[:, 1]] - e_even[b, picks[:, 0]]


def splitting_surface(K, P_over_K_grid, Delta_over_K_grid, dim):
    """Qubit-level splitting (E_odd - E_even)/K over a (P/K, Delta/K) grid.

    Returns an array of shape (len(P_over_K_grid), len(Delta_over_K_grid))
    with the sign retained: the splitting oscillates and changes sign along
    the detuning axis.  Each grid row is one :func:`qubit_splitting` stack,
    so memory holds one row of blocks at a time.  The truncation check of
    :func:`quasienergies` runs once, at the largest-|alpha| corner.
    """
    pg = np.asarray(P_over_K_grid, dtype=float)
    dg = np.asarray(Delta_over_K_grid, dtype=float)
    if pg.size == 0 or dg.size == 0:
        raise UsageError("grids must be nonempty")
    # convergence is monotone in cat size; checking the largest-|alpha| corner
    # once covers the whole grid
    quasienergies(K, np.max(pg) * K, np.max(dg) * K, dim)
    return np.array([qubit_splitting(K, p_rel * K, dg * K, dim) / K
                     for p_rel in pg])


def energy_gap(K, P, Delta, dim):
    """Distance (rad/us) from the qubit manifold to the nearest other level."""
    return quasienergies(K, P, Delta, dim).gap


# ---------------------------------------------------------------------------
# classical energy surface


def classical_energy(alpha, K, P, Delta):
    """E_cl = Delta |a|^2 - (K/2)|a|^4 + (P/2)(a^2 + a*^2) for complex a."""
    if K <= 0:
        raise UsageError(f"K must be positive, got {K}")
    alpha = complex(alpha)
    r2 = abs(alpha) ** 2
    return float(Delta * r2 - 0.5 * K * r2 ** 2 + P * (alpha ** 2).real)


@dataclass(frozen=True)
class StationaryPoint:
    alpha: complex
    kind: str  # 'maximum' | 'minimum' | 'saddle' | 'degenerate'


def _grad_hess(x, y, K, P, Delta):
    r2 = x * x + y * y
    gx = 2.0 * x * (Delta + P - K * r2)
    gy = 2.0 * y * (Delta - P - K * r2)
    hxx = 2.0 * (Delta + P - K * r2) - 4.0 * K * x * x
    hyy = 2.0 * (Delta - P - K * r2) - 4.0 * K * y * y
    hxy = -4.0 * K * x * y
    return np.array([gx, gy]), np.array([[hxx, hxy], [hxy, hyy]])


def stationary_points(K, P, Delta):
    """Stationary points of the classical energy, in closed form.

    With alpha = x + iy the gradient is (2x (Delta + P - K r^2),
    2y (Delta - P - K r^2)), so the candidates are the origin, the lobe pair
    +-sqrt((Delta + P)/K) on the real axis when Delta + P > 0, and the pair
    +-i sqrt((Delta - P)/K) on the imaginary axis when Delta - P > 0.  Each
    is classified by the 2x2 Hessian in (Re alpha, Im alpha); a point with a
    Hessian eigenvalue below 1e-9 max(K, |P| + |Delta|) in magnitude is
    'degenerate'.  At P = 0 with Delta > 0 the whole ring |alpha|^2 =
    Delta/K is stationary; it is returned as its four axis points, each
    'degenerate'.  Points are sorted by (Re alpha, Im alpha).
    """
    if K <= 0:
        raise UsageError(f"K must be positive, got {K}")
    candidates = [0j]
    if Delta + P > 0:
        r = np.sqrt((Delta + P) / K)
        candidates += [complex(-r, 0.0), complex(r, 0.0)]
    if Delta - P > 0:
        r = np.sqrt((Delta - P) / K)
        candidates += [complex(0.0, -r), complex(0.0, r)]
    flat = 1e-9 * max(K, abs(P) + abs(Delta))
    points = []
    for q in candidates:
        ev = np.linalg.eigvalsh(_grad_hess(q.real, q.imag, K, P, Delta)[1])
        if np.any(np.abs(ev) < flat):
            kind = "degenerate"
        elif ev[1] < 0:
            kind = "maximum"
        elif ev[0] > 0:
            kind = "minimum"
        else:
            kind = "saddle"
        points.append(StationaryPoint(alpha=q, kind=kind))
    points.sort(key=lambda s: (round(s.alpha.real, 9), round(s.alpha.imag, 9)))
    return points
