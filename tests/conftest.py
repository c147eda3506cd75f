import os
import sys

from hypothesis import settings

sys.path.insert(0, os.path.dirname(__file__))

# derandomize=True seeds each property from its test's hash and switches
# off the local example database.  Hypothesis (6.155) also draws from the
# literals of every local non-test module loaded when a property runs:
# src/nhswe, and perfbench/*.py once test_tracer_targets has imported them.
# So the same tree and test selection draw the same examples, but an edit
# that adds or removes a literal there can draw others.  A failure is kept
# by adding the example it prints to its property as an @example.
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")
