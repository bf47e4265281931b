"""Fixture: a background worker on the sim clock writes the same mutable."""

import repro.state_mod as state_mod


def arm(sim):
    sim.call_in(1.0, scan)


def scan():
    state_mod._SEEN.add("tick")
