import os
import sys

# make _gen importable regardless of how pytest resolves rootdir
sys.path.insert(0, os.path.dirname(__file__))

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves without hypothesis
    pass
else:
    # property tests draw the same examples on every run, without a
    # per-example time limit, in a bounded number, and keep no example
    # database (with fixed draws it has nothing to replay)
    settings.register_profile(
        "pitkit", derandomize=True, deadline=None, max_examples=30, database=None
    )
    settings.load_profile("pitkit")
