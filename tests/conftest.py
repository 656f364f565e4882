import numpy as np
import pytest
from hypothesis import settings

from embsearch import data

# `pytest --hypothesis-profile=ci` runs every property test on at least
# CI_EXAMPLES examples: one without a count of its own takes the profile's, and
# every test that sets one takes it from examples(), since an explicit
# max_examples overrides the profile
CI_EXAMPLES = 1000
settings.register_profile("ci", max_examples=CI_EXAMPLES)


def examples(n: int) -> int:
    """A property test's own example count: n, or at least CI_EXAMPLES once
    the ci profile is loaded, which an explicit max_examples overrides."""
    return max(n, CI_EXAMPLES) if settings.default.max_examples == CI_EXAMPLES else n


SEED7_CONFIG = data.SynthConfig(
    n_identities=64,
    dim=32,
    noise_sigma=0.4,
    confusable_fraction=0.5,
    confusable_gap=0.02,
    seed=7,
)


@pytest.fixture(scope="session")
def seed7_dataset(tmp_path_factory):
    """The frozen confusable benchmark used by the regression fixtures."""
    out = tmp_path_factory.mktemp("seed7")
    manifest = data.generate_synthetic(SEED7_CONFIG, out, heldout=True)
    return out, manifest


@pytest.fixture
def make_dataset(tmp_path):
    def _make(cfg: data.SynthConfig, heldout: bool = False):
        return data.generate_synthetic(cfg, tmp_path, heldout=heldout)

    return _make


def unit_rows(n: int, dim: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal((n, dim))
    return v / np.linalg.norm(v, axis=1)[:, None]
