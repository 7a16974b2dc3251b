"""Suite-wide hypothesis profile.

Property tests run derandomized and without a per-example deadline, so
a run is a pure function of the code: the examples a property sees do
not change between runs, and a loaded machine cannot fail one on time.
(With ``derandomize`` the ``--hypothesis-seed`` option has no effect;
properties that want more coverage raise their own ``max_examples``.)
"""

from hypothesis import settings

settings.register_profile(
    "repro", deadline=None, derandomize=True, print_blob=True
)
settings.load_profile("repro")
