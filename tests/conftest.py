import numpy as np
import pytest
import scipy.sparse
from hypothesis import strategies as st

from ccpirl.instrumentation import counters
from ccpirl.model import DdcModel, FeatureMatrix, TransitionModel


@pytest.fixture(autouse=True)
def _reset_counters():
    counters.reset()
    yield
    counters.reset()


def random_transitions(rng, n_states, n_actions):
    mats = []
    for _ in range(n_actions):
        raw = rng.random((n_states, n_states)) + 0.05
        mats.append(raw / raw.sum(axis=1, keepdims=True))
    return TransitionModel(mats)


def random_model(rng, n_states=5, n_actions=3, beta=0.9, feature_dim=2,
                 goal_states=()):
    """Dense random DDC model; always passes validate_model."""
    dist = rng.random(n_states) + 0.1
    return DdcModel(
        n_states=n_states,
        n_actions=n_actions,
        transitions=random_transitions(rng, n_states, n_actions),
        discount=beta,
        features=FeatureMatrix(rng.standard_normal((n_states, feature_dim))),
        initial_dist=dist / dist.sum(),
        goal_states=frozenset(goal_states),
    )


@st.composite
def sparse_models(draw):
    """A model of up to 40 states and 5 actions whose T(a) rows have a
    random number of non-zeros, with a random goal set; returns it and a
    numpy generator for further draws."""
    n = draw(st.integers(1, 40))
    k = draw(st.integers(1, 5))
    density = draw(st.floats(0.0, 1.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mats = []
    for _ in range(k):
        raw = rng.random((n, n)) * (rng.random((n, n)) < density)
        raw[np.arange(n), rng.integers(0, n, n)] += rng.random(n) + 0.01
        mats.append(scipy.sparse.csr_matrix(raw / raw.sum(axis=1,
                                                          keepdims=True)))
    dist = rng.random(n) + 0.01
    model = DdcModel(
        n_states=n, n_actions=k, transitions=TransitionModel(mats),
        discount=draw(st.floats(0.0, 0.99)),
        features=FeatureMatrix(np.ones((n, 1))),
        initial_dist=dist / dist.sum(),
        goal_states=frozenset(np.flatnonzero(rng.random(n) < 0.2).tolist()))
    return model, rng
