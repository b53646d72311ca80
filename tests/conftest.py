import hypothesis
import numpy as np
import pytest

hypothesis.settings.register_profile(
    "default", max_examples=60, deadline=None
)
hypothesis.settings.register_profile("fast", max_examples=10, deadline=None)
# tests/mutants.py only asks whether a test fails, so it skips shrinking
hypothesis.settings.register_profile(
    "mutants",
    parent=hypothesis.settings.get_profile("default"),
    phases=[p for p in hypothesis.Phase if p is not hypothesis.Phase.shrink],
)
hypothesis.settings.load_profile("default")


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240811)
