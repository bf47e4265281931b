"""Fixture: the sim-clock worker only *reads*; no cross-domain write."""

import repro.state_mod as state_mod


def arm(sim):
    sim.call_in(1.0, scan)


def scan():
    return len(state_mod._SEEN)
