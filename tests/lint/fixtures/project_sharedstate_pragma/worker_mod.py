"""Fixture: the sim-callback write carries its own pragma."""

import repro.state_mod as state_mod


def arm(sim):
    sim.call_in(1.0, scan)


def scan():
    # lint: allow[cross-domain-shared-state] fixture: suppression under test
    state_mod._SEEN.add("tick")
