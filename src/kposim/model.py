"""System parameters, pulse schedules, and the Hamiltonian.

The rotating-frame Hamiltonian of the pumped Kerr oscillator (frame at half
the pump frequency) is, in rad/us,

    H(t) = -(K/2) adag adag a a + sum_i c_i(t) O_i,
    O = (n, adag^2 + a^2, adag, a),
    c(t) = (Delta(t) - delta_p(t)/2, P(t)/2, beta(t) e^{-i theta(t)},
            beta(t) e^{+i theta(t)}),

with K the Kerr coefficient, P the two-photon pump amplitude, Delta the
oscillator detuning from half the pump frequency, and beta a linear drive of
phase theta(t) = Delta_d t + phi_d - phi_acc(t).  A pump-frequency chirp
delta_p(t) lowers the detuning by delta_p/2 and accumulates the frame phase
phi_acc = int delta_p(t)/2 dt that offsets the phase of any drive applied
after (or during) the chirp; this representation is exact while no drive is
on.

Schedules are ordered lists of :class:`Segment`, each holding named envelope
shapes for the pump, detuning, chirp, and drive.  :class:`PulseSchedule`
derives the frame phases and builds one coefficient function c(t) per
segment, and :func:`coefficient_stack` evaluates those of a stack of
schedules as one array; :func:`operator_stack` caches O per Fock
dimension.  One parity-sector pick of the qubit pair gives the cat basis,
its phases and (through :mod:`kposim.spectral`) the splitting that frames
the gates.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from . import fockspace as fs
from .errors import BasisError, ScheduleError, UsageError
from .units import mhz_to_angular

__all__ = [
    "SystemParams",
    "Constant",
    "SinSquaredRamp",
    "SinBump",
    "SinSquaredBump",
    "Segment",
    "PulseSchedule",
    "coefficient_stack",
    "hold_schedule",
    "ramp_schedule",
    "chirp_schedule",
    "drive_schedule",
    "operator_stack",
    "hamiltonian",
    "hamiltonian_at",
    "static_hamiltonian",
    "CatBasis",
    "cat_basis_from_model",
]


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SystemParams:
    """Device operating point and propagation settings, internal units.

    Frequencies are rad/us and rates 1/us.  ``P_max`` is the plateau pump
    amplitude reached by ramp schedules; segments carry their own
    instantaneous envelopes.  ``beta`` is the linear drive amplitude of the
    Rabi, Ramsey and X/2 pulses.  ``kappa`` is the single-photon loss rate
    (0 disables dissipation); a step that must run without loss propagates
    ``params.with_(kappa=0.0)``.  ``dim`` is the Fock truncation, and
    ``rtol`` and ``atol`` are the integrator tolerances of every segment
    that is not exact.  Every float field must be finite.
    """

    K: float
    P_max: float = 0.0
    Delta: float = 0.0
    beta: float = 0.0
    kappa: float = 0.0
    dim: int = 30
    rtol: float = 1e-8
    atol: float = 1e-10

    def __post_init__(self):
        for name in ("K", "P_max", "Delta", "beta", "kappa", "rtol", "atol"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise UsageError(f"{name} must be finite, got {value}")
            if name in ("K", "rtol", "atol") and not value > 0:
                raise UsageError(f"{name} must be positive, got {value}")
            if name in ("P_max", "kappa") and value < 0:
                raise UsageError(f"{name} must be >= 0, got {value}")
        if not isinstance(self.dim, (int, np.integer)) or self.dim < 2:
            raise UsageError(f"dim must be an int >= 2, got {self.dim!r}")

    @classmethod
    def from_mhz(cls, K_MHz, P_MHz=0.0, Delta_MHz=0.0, beta_MHz=0.0,
                 kappa_per_us=0.0, dim=30):
        """Build from publication-style ordinary frequencies in MHz."""
        return cls(
            K=mhz_to_angular(K_MHz),
            P_max=mhz_to_angular(P_MHz),
            Delta=mhz_to_angular(Delta_MHz),
            beta=mhz_to_angular(beta_MHz),
            kappa=kappa_per_us,
            dim=int(dim),
        )

    def with_(self, **kwargs):
        return replace(self, **kwargs)


# ---------------------------------------------------------------------------
# envelopes
# ---------------------------------------------------------------------------

class Envelope:
    """Base class for named envelope shapes (amplitudes in rad/us, times us)."""

    def value(self, t):
        raise NotImplementedError

    def integral(self, t):
        """Closed-form integral of the envelope over [0, t]."""
        raise NotImplementedError

    def is_constant(self):
        return False


@dataclass(frozen=True)
class Constant(Envelope):
    level: float = 0.0

    def value(self, t):
        return self.level

    def integral(self, t):
        return self.level * t

    def is_constant(self):
        return True


@dataclass(frozen=True)
class SinSquaredRamp(Envelope):
    """``A sin^2(pi t / (2 tau))``: 0 at t=0, plateau value A at t=tau."""

    amplitude: float
    ramp_time: float

    def value(self, t):
        return self.amplitude * math.sin(math.pi * t / (2.0 * self.ramp_time)) ** 2

    def integral(self, t):
        tau = self.ramp_time
        return self.amplitude * (t / 2.0 - (tau / (2.0 * math.pi)) * math.sin(math.pi * t / tau))


@dataclass(frozen=True)
class SinBump(Envelope):
    """``A sin(pi t / width)``: a single half-sine arch, zero at both ends."""

    amplitude: float
    width: float

    def value(self, t):
        return self.amplitude * math.sin(math.pi * t / self.width)

    def integral(self, t):
        w = self.width
        return self.amplitude * (w / math.pi) * (1.0 - math.cos(math.pi * t / w))


@dataclass(frozen=True)
class SinSquaredBump(Envelope):
    """``A sin^2(pi t / width)``: smooth bump, zero with zero slope at ends."""

    amplitude: float
    width: float

    def value(self, t):
        return self.amplitude * math.sin(math.pi * t / self.width) ** 2

    def integral(self, t):
        w = self.width
        return self.amplitude * (t / 2.0 - (w / (4.0 * math.pi)) * math.sin(2.0 * math.pi * t / w))


@dataclass(frozen=True)
class Cosine(Envelope):
    """``A cos(omega t + phase)``: amplitude modulation at ``omega`` rad/us.

    Used for the symmetrized drive: a cosine-modulated carrier is the pair
    of tones at carrier +- omega with equal amplitude A/2.
    """

    amplitude: float
    omega: float
    phase: float = 0.0

    def value(self, t):
        return self.amplitude * math.cos(self.omega * t + self.phase)

    def integral(self, t):
        if self.omega == 0.0:
            return self.amplitude * math.cos(self.phase) * t
        return (self.amplitude / self.omega) * (
            math.sin(self.omega * t + self.phase) - math.sin(self.phase))

    def is_constant(self):
        return self.omega == 0.0


# ---------------------------------------------------------------------------
# segments and schedules
# ---------------------------------------------------------------------------

_ZERO = Constant(0.0)


@dataclass(frozen=True)
class Segment:
    """One schedule segment; all envelopes are functions of segment-local time.

    ``pump`` drives the two-photon term (adag^2 + a^2)/2.  ``chirp`` holds
    the pump-frequency offset delta_p(t); it lowers the effective detuning
    by delta_p/2 and feeds the accumulated frame phase.  The drive
    oscillation ``Delta_d t + phi_d`` is referenced to the segment start.
    """

    duration: float
    pump: Envelope = _ZERO
    detuning: Envelope = _ZERO
    chirp: Envelope = _ZERO
    drive: Envelope = _ZERO
    drive_detuning: float = 0.0
    drive_phase: float = 0.0

    def __post_init__(self):
        if not self.duration > 0:
            raise ScheduleError(f"segment duration must be positive, got {self.duration}")

    def detuning_value(self, t):
        """Effective detuning Delta(t) - delta_p(t)/2 at local time t."""
        return self.detuning.value(t) - 0.5 * self.chirp.value(t)

    def frame_phase_increment(self, t):
        """Accumulated frame phase int_0^t delta_p/2 within this segment."""
        return 0.5 * self.chirp.integral(t)

    def moving_terms(self):
        """Whether c_0 (detuning), c_1 (pump) and c_2, c_3 (drive) move.

        A drive that is on needs a still phase: a drive detuning advances
        it, and a chirp's frame phase is subtracted from it.
        """
        chirp_still = self.chirp.is_constant()
        return (not (self.detuning.is_constant() and chirp_still),
                not self.pump.is_constant(),
                not (self.drive.is_constant() and (
                    self.drive.value(0.0) == 0.0 or _phase_is_still(self))))

    def is_static(self):
        """True when the Hamiltonian is constant over the whole segment."""
        return not any(self.moving_terms())


def _phase_is_still(seg):
    """True when the drive phase of ``seg`` is the same at every time."""
    chirp = seg.chirp
    return (seg.drive_detuning == 0.0 and chirp.is_constant()
            and chirp.value(0.0) == 0.0)


def _drive_angle(seg, frame0):
    """theta(t) = Delta_d t + phi_d - phi_frame(t) of ``seg``, t segment-local.

    The frame phase of earlier chirps, ``frame0``, and of an in-progress one
    is subtracted: a drive phase-locked to the original frame appears in the
    chirped frame retarded by phi_acc.
    """
    omega, phi, frame = seg.drive_detuning, seg.drive_phase, seg.frame_phase_increment
    return lambda t: omega * t + phi - (frame0 + frame(t))


def _coefficient_function(seg, start, frame0):
    """c(t) of ``seg`` starting at global time ``start`` and frame phase ``frame0``."""
    pump, drive, detuning = seg.pump.value, seg.drive.value, seg.detuning_value
    angle = _drive_angle(seg, frame0)

    def c(t):
        t = t - start
        b = drive(t)
        phase = np.exp(-1j * angle(t)) if b != 0.0 else 1.0
        return np.array([detuning(t), 0.5 * pump(t), b * phase,
                         b * np.conj(phase)])

    return c


def _member_values(functions):
    """t -> each of ``functions`` at t; a lone one's value as it is."""
    if len(functions) == 1:
        return functions[0]
    return lambda t: np.array([f(t) for f in functions])


#: tolerance for the pump-continuity check across segment boundaries (rad/us)
_CONTINUITY_TOL = 1e-9


@dataclass(frozen=True)
class PulseSchedule:
    """An ordered, validated sequence of segments.

    Frame phases are derived here: each segment starts at the cumulative
    chirp integral of all earlier segments.  The pump envelope must be
    continuous across boundaries within 1e-9 rad/us.  Each segment gets its
    coefficient function c(t) of the Hamiltonian once, at construction (see
    :meth:`coefficients`).
    """

    segments: tuple

    def __post_init__(self):
        segs = tuple(self.segments)
        if not segs:
            raise ScheduleError("schedule needs at least one segment")
        for seg in segs:
            if not isinstance(seg, Segment):
                raise ScheduleError(f"schedule entries must be Segment, got {type(seg)!r}")
        object.__setattr__(self, "segments", segs)
        for left, right in zip(segs[:-1], segs[1:]):
            jump = abs(left.pump.value(left.duration) - right.pump.value(0.0))
            if jump > _CONTINUITY_TOL:
                raise ScheduleError(
                    f"pump discontinuity {jump:.3e} rad/us at a segment boundary")
        starts = np.concatenate(([0.0], np.cumsum([s.duration for s in segs])))
        object.__setattr__(self, "_starts", starts)
        phases = [0.0]
        for seg in segs:
            phases.append(phases[-1] + seg.frame_phase_increment(seg.duration))
        object.__setattr__(self, "_frame_phases", tuple(phases))
        object.__setattr__(self, "_coeffs", tuple(
            _coefficient_function(seg, float(start), phase)
            for seg, start, phase in zip(segs, starts, phases)))

    @property
    def total_duration(self):
        return float(self._starts[-1])

    @property
    def total_frame_phase(self):
        """Accumulated pump-frame phase phi_acc over the whole schedule."""
        return float(self._frame_phases[-1])

    def locate(self, t, index=None):
        """Map global time ``t`` to ``(index, t)``, ``t`` clamped to the schedule.

        Boundaries belong to the segment that starts there, except the final
        instant which belongs to the last segment.  A given ``index`` keeps
        ``t`` in that segment, both of its boundaries included.
        """
        total = self.total_duration
        if t < -1e-12 or t > total + 1e-12:
            raise ScheduleError(f"time {t} outside schedule [0, {total}]")
        t = min(max(t, 0.0), total)
        if index is None:
            index = int(np.searchsorted(self._starts, t, side="right")) - 1
            index = min(index, len(self.segments) - 1)
        return index, t

    def coefficients(self, index):
        """c(t) of segment ``index`` over :func:`operator_stack`, t global.

        ``t`` is not checked against the segment; see :meth:`locate`.
        """
        return self._coeffs[index]

    def then(self, other):
        """Concatenate with another schedule (pump continuity re-checked)."""
        other_segs = other.segments if isinstance(other, PulseSchedule) else tuple(other)
        return PulseSchedule(self.segments + tuple(other_segs))


def coefficient_stack(schedules, index):
    """c(t) of segment ``index`` of each of ``schedules``, one (S, 4) array.

    The schedules have equal segment durations, so the segment starts at one
    time in all of them.  Row s equals ``schedules[s].coefficients(index)(t)``
    bit for bit (a zero may differ in sign): a term that stands still in
    every member is read once from each member's own c; a moving one is
    evaluated once per member as a plain float, and the drive phases take
    one array exponential.  Returns (c, the (4,) flags of the terms that
    move in some member).
    """
    segs = [s.segments[index] for s in schedules]
    start = float(schedules[0]._starts[index])
    phases = [s._frame_phases[index] for s in schedules]
    # complex even when every drive is zero at the start, where each c
    # gives a real row, so the drive slots written later keep their phase
    template = np.array([s.coefficients(index)(start) for s in schedules],
                        dtype=np.complex128)
    detuning_moves, pump_moves, drive_moves = (
        any(flags) for flags in zip(*(g.moving_terms() for g in segs)))
    detuning = _member_values([g.detuning_value for g in segs])
    pump = _member_values([g.pump.value for g in segs])
    drive = _member_values([g.drive.value for g in segs])
    angle = _member_values([_drive_angle(g, f) for g, f in zip(segs, phases)])
    still = all(_phase_is_still(g) for g in segs)
    phase0 = np.exp(-1j * angle(0.0)) if still else None

    def c(t):
        t = t - start
        rows = template.copy()
        if detuning_moves:
            rows[:, 0] = detuning(t)
        if pump_moves:
            rows[:, 1] = 0.5 * pump(t)
        if drive_moves:
            b = drive(t)
            phase = phase0 if still else np.exp(-1j * angle(t))
            rows[:, 2] = b * phase
            rows[:, 3] = b * np.conj(phase)
        return rows

    return c, np.array([detuning_moves, pump_moves, drive_moves, drive_moves])


# ---------------------------------------------------------------------------
# schedule builders
# ---------------------------------------------------------------------------

def hold_schedule(duration, P_level, Delta):
    """Constant pump/detuning segment (free cat-qubit evolution)."""
    return PulseSchedule((
        Segment(duration=duration, pump=Constant(P_level),
                detuning=Constant(Delta)),
    ))


#: height of the counterdiabatic arch of :func:`ramp_schedule`, over P_max
_CD_SCALE = 0.3


def ramp_schedule(P_max, tau_ramp, Delta, counterdiabatic=True):
    """Adiabatic vacuum-to-cat mapping ramp.

    The pump rises as ``P_max sin^2(pi t / (2 tau_ramp))`` over
    ``tau_ramp``.  With ``counterdiabatic`` a pump-frequency chirp dips the
    effective detuning by the shortcut arch ``0.3 P_max sin(pi t /
    tau_ramp)`` during the ramp, widening the narrow even-sector gap
    ``K - 2 Delta`` mid-ramp; at the default operating point (``tau_ramp``
    = 300 ns) it keeps the even-parity mapping error below 1e-2.  The
    accumulated frame phase is tracked and offsets later drive segments.
    """
    if tau_ramp <= 0:
        raise ScheduleError(f"tau_ramp must be positive, got {tau_ramp}")
    # detuning_value subtracts chirp/2, so double the arch here
    chirp = (SinBump(2.0 * _CD_SCALE * P_max, tau_ramp) if counterdiabatic
             else _ZERO)
    return PulseSchedule((
        Segment(duration=tau_ramp, pump=SinSquaredRamp(P_max, tau_ramp),
                detuning=Constant(Delta), chirp=chirp),
    ))


def chirp_schedule(delta_peak, tau_Z, P_level, Delta):
    """Pump-frequency chirp ``delta_p(t) = delta_peak sin^2(pi t / tau_Z)``.

    Represented as an effective detuning dip ``Delta - delta_p(t)/2``.  The
    schedule's ``total_frame_phase`` records the accumulated frame phase
    ``delta_peak * tau_Z / 4``, which retards the phase of any drive applied
    in later segments.
    """
    if tau_Z <= 0:
        raise ScheduleError(f"tau_Z must be positive, got {tau_Z}")
    return PulseSchedule((
        Segment(
            duration=tau_Z,
            pump=Constant(P_level),
            detuning=Constant(Delta),
            chirp=SinSquaredBump(delta_peak, tau_Z),
        ),
    ))


def drive_schedule(duration, beta, Delta_d, phi_d, P_level, Delta):
    """Rectangular linear drive on top of a constant pump."""
    return PulseSchedule((
        Segment(
            duration=duration,
            pump=Constant(P_level),
            detuning=Constant(Delta),
            drive=Constant(beta),
            drive_detuning=Delta_d,
            drive_phase=phi_d,
        ),
    ))


# ---------------------------------------------------------------------------
# Hamiltonians
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def operator_stack(dim):
    """The operators O = (n, adag^2 + a^2, adag, a) of H(t), shape (4, dim, dim).

    Cached per ``dim`` and read-only.  Hermiticity is checked once here,
    not per Hamiltonian: every H is a real diagonal plus real multiples of
    n and of the pump block, and c adag + conj(c) a = Re(c) (adag + a)
    - Im(c) i(adag - a).
    """
    a, adag = fs.ladder_ops(dim)
    stack = np.array([fs.number_op(dim), adag @ adag + a @ a, adag, a])
    for name, op in (("pump", stack[1]), ("drive x", adag + a),
                     ("drive p", 1j * (adag - a))):
        fs.assert_hermitian(op, name=f"{name} block")
    stack.setflags(write=False)
    return stack


@functools.lru_cache(maxsize=None)
def _kerr_diagonal(dim):
    """n (n - 1), the diagonal of adag adag a a, read-only."""
    n = np.arange(dim, dtype=np.float64)
    kerr = n * (n - 1.0)
    kerr.setflags(write=False)
    return kerr


def hamiltonian(K, c, dim):
    """Dense ``-(K/2) adag adag a a + sum_i c_i O_i`` (rad/us), Hermitian.

    ``c`` is one (4,) coefficient row over :func:`operator_stack`, or a
    stack of rows with one H each.
    """
    H = c @ operator_stack(dim).reshape(4, -1)
    H[..., ::dim + 1] -= 0.5 * K * _kerr_diagonal(dim)
    return H.reshape(*c.shape[:-1], dim, dim)


def hamiltonian_at(params, schedule, t, index=None):
    """Dense Hamiltonian matrix H(t) (rad/us) for a schedule, Hermitian.

    Evaluates the schedule's coefficient function c(t) of the segment at
    ``t`` (see :meth:`PulseSchedule.coefficients`).  With ``index`` it is
    that segment's, also at its boundaries (see
    :meth:`PulseSchedule.locate`).
    """
    index, t = schedule.locate(t, index)
    return hamiltonian(params.K, schedule.coefficients(index)(t), params.dim)


def static_hamiltonian(K, P, Delta, dim):
    """Drive-free Hamiltonian ``Delta n - (K/2) adag adag a a + (P/2)(adag^2+a^2)``."""
    return hamiltonian(K, np.array([Delta, 0.5 * P, 0.0, 0.0],
                                   dtype=np.complex128), dim)


# ---------------------------------------------------------------------------
# model cat basis
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CatBasis:
    """The checked cat-qubit pair every cardinal state is built from.

    ``plus_cat`` has even photon-number parity, ``minus_cat`` odd, both
    within 1e-6.  Orthonormality is checked to 1e-10, the norm tolerance of
    :class:`kposim.fockspace.StateVector`, so every pair that constructs
    yields its cardinal states (see :func:`kposim.fockspace.cardinal_states`).
    """

    plus_cat: fs.StateVector
    minus_cat: fs.StateVector

    def __post_init__(self):
        p = self.plus_cat.amplitudes
        m = self.minus_cat.amplitudes
        err = max(abs(np.vdot(p, p) - 1.0), abs(np.vdot(m, m) - 1.0), abs(np.vdot(p, m)))
        if err > 1e-10:
            raise BasisError(f"cat basis not orthonormal (deviation {err:.3e})")
        par = fs.parity_op(p.size)
        p_par = float(np.vdot(p, par @ p).real)
        m_par = float(np.vdot(m, par @ m).real)
        if abs(p_par - 1.0) > 1e-6 or abs(m_par + 1.0) > 1e-6:
            raise BasisError(
                f"cat basis lacks definite parity (even <Pi>={p_par:.8f}, odd <Pi>={m_par:.8f})"
            )

    @property
    def dim(self):
        return self.plus_cat.dim


def _qubit_pair(K, P, Delta, dim):
    """Parity-sector eigensystems of :func:`static_hamiltonian` and qubit pairs.

    ``P`` and ``Delta`` broadcast to a 1-D stack of B points; one point is a
    stack of one.  Each parity sector is one (B, m, m) block stack, equal to
    that sector of :func:`static_hamiltonian`, and one real ``eigh``: n and
    adag^2 + a^2 are real in the Fock basis, so the eigenvectors are float64
    (sectors as in Albert & Jiang, PRA 89, 022118 (2014)).  A sector's
    qubit level overlaps most with the analytic cat at ``alpha_c = sqrt((P +
    Delta)/K)`` (Fock 0 and 1 where ``alpha_c < 1e-6``); of equal overlaps
    the higher energy wins.  Returns ``(sectors, picks, overlaps)``:
    ``(energies, states)`` of the even, then the odd sector, energies
    ascending (B, m) and eigenvector columns over that parity's Fock levels
    (B, m, m); the (B, 2) sector indices of the qubit levels; and their
    (B, 2) complex overlaps <cat|level>.
    """
    P, Delta = np.broadcast_arrays(np.atleast_1d(P), np.atleast_1d(Delta))
    alpha_c = np.sqrt(np.maximum(P + Delta, 0.0) / K)
    n, pump = operator_stack(dim)[:2].real
    sectors, picks, overlaps = [], [], []
    for par, parity in enumerate(("even", "odd")):
        s = slice(par, None, 2)
        block = (Delta[:, None, None] * n[s, s]
                 + (0.5 * P)[:, None, None] * pump[s, s])
        np.einsum("bii->bi", block)[...] -= 0.5 * K * _kerr_diagonal(dim)[s]
        energies, states = np.linalg.eigh(block)
        ref = fs.cat_amplitudes(np.where(alpha_c < 1e-6, 0, alpha_c), parity, dim)[:, s]
        ovl = (ref.conj()[:, None] @ states)[:, 0]
        sq = np.abs(ovl) ** 2
        k = sq.shape[1] - 1 - np.argmax(sq[:, ::-1], axis=1)
        sectors.append((energies, states))
        picks.append(k)
        overlaps.append(ovl[np.arange(k.size), k])
    return sectors, np.stack(picks, axis=1), np.stack(overlaps, axis=1)


def cat_basis_from_model(params):
    """Cat-qubit basis from the pumped-Hamiltonian eigenstates.

    Takes the qubit pair of :func:`_qubit_pair` at pump level
    ``params.P_max`` and detuning ``params.Delta``: in each parity sector
    the eigenstate closest to the analytic cat of amplitude
    ``alpha_c = sqrt((P + Delta)/K)``.  Phases are fixed so that the overlap
    with that cat (Fock 0 and 1 when ``alpha_c`` vanishes) is real positive;
    the parity part of the coherent state ``|alpha_c>`` is a positive
    multiple of the cat, so ``<alpha_c|level>`` is real positive too.

    Raises ``BasisError`` if the best squared overlap falls below 0.8 (the
    requested working point does not host an identifiable cat qubit).
    """
    P, Delta, dim = params.P_max, params.Delta, params.dim
    sectors, picks, overlaps = _qubit_pair(params.K, P, Delta, dim)
    pair = []
    for par, ((_, states), k, ovl) in enumerate(zip(sectors, picks[0], overlaps[0])):
        if abs(ovl) ** 2 < 0.8:
            raise BasisError(
                f"no eigenstate with parity {1 - 2 * par:+d} overlaps the analytic "
                f"cat (best overlap {abs(ovl) ** 2:.3f} < 0.8) at P={P:.3f}, "
                f"Delta={Delta:.3f}"
            )
        v = np.zeros(dim, dtype=np.complex128)
        v[par::2] = states[0, :, k]
        v = v * (np.conj(ovl) / abs(ovl))
        pair.append(fs.StateVector(v / np.linalg.norm(v)))
    return CatBasis(*pair)
