"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from repro.llm import NPUTransformer, TransformerWeights, tiny_config

# A property passes or fails on its examples, not on how fast the host
# ran them: Hypothesis's default 200 ms per-example deadline is off for
# every ``@settings`` built after this profile loads (test modules are
# imported after conftest).  ``max_examples`` stays per test.
settings.register_profile("repro", deadline=None)
settings.load_profile("repro")


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def tiny_weights():
    """Session-wide tiny transformer weights (deterministic)."""
    return TransformerWeights.generate(tiny_config(), seed=0)


@pytest.fixture(scope="session")
def tiny_model(tiny_weights):
    """Session-wide NPU transformer on the tiny config."""
    return NPUTransformer(tiny_weights)
