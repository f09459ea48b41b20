"""Discrete-event simulated multicomputer (the CM-5 substitute).

This package provides the simulator the *sim* backend
(:class:`repro.platform.simbackend.SimMachine`) runs on:

- :mod:`repro.sim.engine` — deterministic event heap and per-node
  virtual clocks;
- :mod:`repro.sim.network` — contention-aware interconnect model;
- :mod:`repro.sim.faults` / :mod:`repro.sim.invariants` — fault
  injection and the post-run protocol audit.

Layer-neutral pieces every backend shares live at the package root:
:mod:`repro.topology`, :mod:`repro.rng`, :mod:`repro.stats`,
:mod:`repro.tracing` and :mod:`repro.timeline`.
"""

from repro.sim.engine import Event, Simulator, SimNode
from repro.sim.network import Network

__all__ = ["Event", "Simulator", "SimNode", "Network"]
