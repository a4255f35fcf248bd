"""The benchmark's experiment mixes and the self-consistency checks on them.

Every workload is a fixed sequence of ``kposim.cli.run_experiment`` calls at
the README operating point (K/2pi 3.1 MHz, P/2pi 3.13 MHz, Delta/2pi 1.0 MHz,
beta/2pi 0.65 MHz).  The seed only sets the readout-noise draw of the
simulated tomography records; everything else is fixed so that a rerun of
a seed gives the same inputs.

Sizes are cut from the full experiments so that one pass of a mix takes
about ten seconds on a 2-CPU machine; NOTES.md gives the reasoning for
each cut.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

OPERATING_POINT = {"K_MHz": 3.1, "P_MHz": 3.13, "Delta_MHz": 1.0,
                   "beta_MHz": 0.65, "dim": 30}

# Readout noise on the simulated parity records.  The parity check below
# reads the origin of the noisy map, so the noise must stay an order of
# magnitude under its 1e-3 tolerance for every seed.
NOISE_SIGMA = 1e-4


def _system(**overrides):
    s = dict(OPERATING_POINT)
    s.update(overrides)
    return s


def _grid(start, stop, count):
    return {"start": start, "stop": stop, "count": count}


@dataclass(frozen=True)
class Experiment:
    label: str          # unique within a workload; names its output directory
    name: str           # kposim CLI experiment
    config: dict
    check: Callable[[dict], list]   # summary -> list of failed-check messages


def _at_most(key, bound):
    def check(s):
        v = s.get(key)
        return [] if v is not None and v <= bound else [f"{key}={v} > {bound}"]
    return check


def _at_least(key, bound):
    def check(s):
        v = s.get(key)
        return [] if v is not None and v >= bound else [f"{key}={v} < {bound}"]
    return check


def _within(key, lo, hi):
    def check(s):
        v = s.get(key)
        return ([] if v is not None and lo <= v <= hi
                else [f"{key}={v} outside [{lo}, {hi}]"])
    return check


def _all(*checks):
    return lambda s: [msg for c in checks for msg in c(s)]


def _no_check(summary):
    return []


def _parity_is_one(s):
    v = s.get("parity")
    return [] if v is not None and abs(v - 1.0) <= 1e-3 else [f"parity={v} not within 1e-3 of 1"]


def closed_sweep(seed):
    return [
        Experiment("cat-rabi", "cat-rabi", {
            "system": _system(),
            "detuning_grid_MHz": _grid(-1.5, 1.5, 4),
            "time_grid_ns": _grid(0.0, 600.0, 13),
            "symmetrized": True,
        }, _at_most("rms_asymmetry", 1e-3)),
        Experiment("map-cat", "map-cat", {"system": _system()},
                   _all(_at_least("final_fidelity_even", 0.99),
                        _at_least("final_fidelity_odd", 0.99))),
        Experiment("rabi-pump", "rabi-pump", {
            "system": _system(), "amplitude_MHz": 3.13,
            "detuning_grid_MHz": _grid(-2.0, 2.0, 21),
            "time_grid_ns": _grid(0.0, 1000.0, 51),
        }, _no_check),
        Experiment("tls-compare", "tls-compare", {
            "system": _system(),
            "detuning_grid_MHz": _grid(-2.0, 2.0, 21),
            "time_grid_ns": _grid(0.0, 1000.0, 51),
        }, _no_check),
    ]


def open_loss(seed):
    return [
        # dim 16: the full-size dim-30 run takes about a minute.  The fit
        # needs the wait grid to span more than ~4.2 us (1.3 periods of the
        # 0.319 MHz splitting), so the span cannot be cut instead.
        Experiment("relax", "relax", {
            "system": _system(dim=16, kappa_per_us=0.1),
            "wait_grid_us": _grid(0.0, 4.5, 46),
        }, _all(_at_most("frequency_vs_splitting", 0.02),
                _within("T_z_us", 3.2, 5.3))),
        # The x2 pulse is a constant drive at zero detuning, which
        # Segment.is_static() counts as static; the mapping ramp is the
        # driven Lindblad segment of this mix.
        Experiment("qpt-x2", "qpt", {
            "system": _system(kappa_per_us=0.1), "kind": "x2",
        }, _at_least("process_fidelity", 0.95)),
        Experiment("qpt-mapping", "qpt", {
            "system": _system(dim=20, kappa_per_us=0.1), "kind": "mapping",
        }, _at_least("process_fidelity", 0.95)),
    ]


def phase_space(seed):
    return [
        Experiment("wigner-sim", "wigner", {
            "system": _system(dim=20), "mode": "simulated", "points": 9,
            "pulse_duration_ns": 20.0, "noise_sigma": NOISE_SIGMA,
            "seed": seed,
        }, _parity_is_one),
        Experiment("wigner-recon", "wigner", {
            "system": {"K_MHz": 3.1, "Delta_MHz": 1.0, "dim": 12},
            "state": {"kind": "cat_even", "alpha": 0.9},
            "mode": "simulated", "points": 13, "pulse_duration_ns": 0.5,
            "noise_sigma": NOISE_SIGMA, "seed": seed + 1,
            "reconstruct": True,
        }, _all(_parity_is_one,
                _at_least("reconstruction_fidelity", 0.95))),
        Experiment("wigner-ideal", "wigner", {
            "system": _system(), "mode": "ideal", "points": 81,
        }, _parity_is_one),
        Experiment("cat-size", "cat-size", {
            "system": _system(), "delta_grid_MHz": _grid(0.0, 2.0, 9),
            "wigner_points": 41,
        }, _at_most("max_relative_deviation", 0.05)),
        Experiment("quasi-surface", "quasi-surface", {
            "system": _system(),
            "p_over_K_grid": _grid(0.5, 3.0, 26),
            "delta_over_K_grid": _grid(0.0, 1.2, 25),
        }, _within("gap_over_K", 1.2, 1.6)),
        Experiment("qpt-z2", "qpt", {"system": _system(dim=20), "kind": "z2"},
                   _at_least("process_fidelity", 0.95)),
    ]


WORKLOADS = {
    "closed-sweep": closed_sweep,
    "open-loss": open_loss,
    "phase-space": phase_space,
}
