"""Hypothesis settings profiles for the suite.

``mutants`` leaves out the shrink phase: a mutant's killers only need to
fail, not to find the smallest failing example, so ``tools/mutants.py``
selects it with ``--hypothesis-profile=mutants``.  Every other run keeps
Hypothesis's default profile.
"""

try:
    from hypothesis import Phase, settings
except ImportError:   # the property tests skip themselves without hypothesis
    pass
else:
    settings.register_profile("mutants", phases=[p for p in Phase if p is not Phase.shrink])
