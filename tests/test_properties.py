"""Property tests over random sparse row-stochastic models.

The Hotz-Miller closed form must give the value a converged soft VI
reaches, the sparse-LU solve must agree with successive approximation, and
a model file must read back as the model that was written.
"""

import dataclasses
import os
import tempfile

import numpy as np
from hypothesis import given, settings

from ccpirl.hotzmiller import build_operator, exante_value, \
    weighted_flow_reward
from ccpirl.model import CCPTable, FeatureMatrix, load_model, save_model
from ccpirl.softdp import SoftDpConfig, choice_values, policy_from_values, \
    solve_soft_vi

from conftest import iterative_inverse_apply, sparse_models

SETTINGS = settings(max_examples=40, deadline=None)


def _positive_policy(rng, model):
    probs = rng.random((model.n_states, model.n_actions)) + 0.01
    return probs / probs.sum(axis=1, keepdims=True)


@SETTINGS
@given(sparse_models())
def test_hotz_miller_inverts_converged_soft_vi(case):
    model, rng = case
    r = rng.standard_normal((model.n_states, model.n_actions))
    vbar, _ = solve_soft_vi(model, r, SoftDpConfig(tolerance=1e-12,
                                                   max_sweeps=10 ** 6))
    sigma = policy_from_values(choice_values(model, r, vbar)).probs
    table = CCPTable(sigma, np.zeros(sigma.shape, dtype=np.int64))
    v = exante_value(build_operator(model, table), r).values
    assert np.max(np.abs(v - vbar.values)) < 1e-8


@SETTINGS
@given(sparse_models())
def test_sparse_lu_solve_matches_successive_approximation(case):
    model, rng = case
    sigma = _positive_policy(rng, model)
    table = CCPTable(sigma, np.zeros(sigma.shape, dtype=np.int64))
    r = rng.standard_normal((model.n_states, model.n_actions))
    op = build_operator(model, table)
    # successive approximation stops once its error is below 1e-8
    iterative = iterative_inverse_apply(model.transitions.weighted(sigma),
                                        model.discount,
                                        weighted_flow_reward(op, r))
    assert np.max(np.abs(exante_value(op, r).values - iterative)) < 1e-8


@SETTINGS
@given(sparse_models())
def test_model_file_round_trip(case):
    model, rng = case
    model = dataclasses.replace(model, features=FeatureMatrix(
        rng.standard_normal((model.n_states, 3))))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.json")
        save_model(path, model)
        loaded = load_model(path)
    got, want = loaded.transitions.csr, model.transitions.csr
    assert got.shape == want.shape
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(got, name), getattr(want, name))
    assert (loaded.n_states, loaded.n_actions, loaded.discount,
            loaded.goal_states) == (model.n_states, model.n_actions,
                                    model.discount, model.goal_states)
    assert np.array_equal(loaded.features.values, model.features.values)
    assert np.array_equal(loaded.initial_dist, model.initial_dist)
