import os

import hypothesis
import pytest

from ppscontext.scenarios import three_box

hypothesis.settings.register_profile("default", max_examples=25, deadline=None)
# Deeper property runs for CI: HYPOTHESIS_PROFILE=ci.
hypothesis.settings.register_profile("ci", max_examples=200, deadline=None)
hypothesis.settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture
def box3():
    return three_box()
