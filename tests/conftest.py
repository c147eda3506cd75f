import os
import sys

from hypothesis import settings

sys.path.insert(0, os.path.dirname(__file__))

# Every run draws the same examples (seeded from each test's hash), so a
# failure seen once is seen again from a clean checkout.  derandomize=True
# also switches off the local example database.
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")
