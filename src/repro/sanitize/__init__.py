"""Runtime sanitizer: determinism checks static analysis cannot prove.

:mod:`repro.sanitize.hashseed` double-runs a seeded chaos schedule in
fresh interpreters under two ``PYTHONHASHSEED`` values and asserts the
trace and metrics exports are byte-identical — the end-to-end property
the ``nondeterministic-iteration`` lint rule exists to protect.
"""


class SanitizeError(AssertionError):
    """A runtime determinism-contract violation caught by the sanitizer.

    Subclasses AssertionError so test suites and the chaos harness
    treat a sanitizer hit exactly like a failed invariant assertion.
    """


__all__ = [
    "SanitizeError",
]
