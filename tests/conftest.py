"""Suite-wide test settings.

Hypothesis draws the same examples on every run (derandomize), seeded from
each test function, so two runs of the suite test the same cases. The
per-test settings (max_examples, deadline) still apply.
"""

from hypothesis import settings

settings.register_profile("cutflow", derandomize=True)
settings.load_profile("cutflow")
