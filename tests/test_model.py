import json

import numpy as np
import pytest

from ccpirl.envs import GridSpec, build_fixed_target
from ccpirl.errors import InvalidInput
from ccpirl.model import (
    DdcModel,
    FeatureMatrix,
    Trajectory,
    TransitionModel,
    load_model,
    load_trajectories,
    model_to_json,
    save_model,
    save_trajectories,
    validate_model,
)

from conftest import per_action, random_model


def identity_model(beta=0.9):
    eye = np.eye(2)
    return DdcModel(
        n_states=2,
        n_actions=2,
        transitions=TransitionModel([eye, eye]),
        discount=beta,
        features=FeatureMatrix(np.eye(2)),
        initial_dist=np.array([0.5, 0.5]),
    )


def test_validate_well_formed_model_is_empty():
    assert validate_model(identity_model()) == []


def test_validate_reports_bad_row_sum_with_row_and_action():
    bad = np.eye(2).copy()
    bad[1, 1] = 0.5
    model = DdcModel(
        n_states=2, n_actions=1,
        transitions=TransitionModel([bad]),
        discount=0.9,
        features=FeatureMatrix(np.eye(2)),
        initial_dist=np.array([0.5, 0.5]),
    )
    report = validate_model(model)
    assert any("row 1" in msg and "action 0" in msg for msg in report)


def test_validate_flags_unit_discount():
    report = validate_model(identity_model(beta=1.0))
    assert any("discount" in msg for msg in report)


def test_validate_flags_negative_transition_entries():
    mat = np.array([[1.5, -0.5], [0.0, 1.0]])
    model = DdcModel(
        n_states=2, n_actions=1,
        transitions=TransitionModel([mat]),
        discount=0.9,
        features=FeatureMatrix(np.eye(2)),
        initial_dist=np.array([1.0, 0.0]),
    )
    assert any("outside [0, 1]" in msg for msg in validate_model(model))


def test_validate_flags_transition_shape_mismatch():
    model = DdcModel(
        n_states=3, n_actions=2,
        transitions=TransitionModel([np.eye(2), np.eye(2)]),
        discount=0.9,
        features=FeatureMatrix(np.eye(3)),
        initial_dist=np.full(3, 1 / 3),
    )
    assert any("2 x 2, expected 3 x 3" in msg for msg in validate_model(model))


def test_validate_flags_bad_initial_distribution():
    model = DdcModel(
        n_states=2, n_actions=2,
        transitions=TransitionModel([np.eye(2), np.eye(2)]),
        discount=0.9,
        features=FeatureMatrix(np.eye(2)),
        initial_dist=np.array([0.7, 0.7]),
    )
    assert any("initial distribution" in msg for msg in validate_model(model))


def test_arrays_are_read_only():
    model = identity_model()
    with pytest.raises(ValueError):
        model.initial_dist[0] = 1.0
    with pytest.raises(ValueError):
        model.transitions.csr.data[0] = 0.0
    with pytest.raises(ValueError):
        model.features.values[0, 0] = 9.0


# T(a) . Vbar, the expected next-period value per state, is column a of
# next_values(Vbar).


def test_expected_next_value_identity_transitions():
    model = identity_model()
    v = np.array([1.5, -2.0])
    assert np.array_equal(model.transitions.next_values(v)[:, 0], v)


def test_expected_next_value_uniform_two_states():
    uni = np.full((2, 2), 0.5)
    model = DdcModel(
        n_states=2, n_actions=1,
        transitions=TransitionModel([uni]),
        discount=0.9,
        features=FeatureMatrix(np.eye(2)),
        initial_dist=np.array([0.5, 0.5]),
    )
    out = model.transitions.next_values(np.array([0.0, 10.0]))[:, 0]
    assert np.allclose(out, [5.0, 5.0])


def test_expected_next_value_matches_direct_summation():
    rng = np.random.default_rng(3)
    model = random_model(rng, n_states=3, n_actions=2)
    v = rng.standard_normal(3)
    for a in range(2):
        mat = per_action(model.transitions)[a]
        oracle = np.array([sum(mat[i, j] * v[j] for j in range(3))
                           for i in range(3)])
        assert np.allclose(model.transitions.next_values(v)[:, a], oracle)


def test_expected_next_value_preserves_max_norm_bound():
    rng = np.random.default_rng(11)
    for _ in range(10):
        model = random_model(rng, n_states=6, n_actions=3)
        v = rng.standard_normal(6) * 10
        for a in range(3):
            out = model.transitions.next_values(v)[:, a]
            assert np.max(np.abs(out)) <= np.max(np.abs(v)) + 1e-12


def test_expected_next_value_rejects_wrong_length():
    with pytest.raises(ValueError):
        identity_model().transitions.next_values(np.zeros(3))


def test_trajectory_requires_steps():
    with pytest.raises(ValueError):
        Trajectory([])


def test_trajectory_views():
    t = Trajectory([(0, 1), (2, 3)])
    assert len(t) == 2
    assert np.array_equal(t.states, [0, 2])
    assert np.array_equal(t.actions, [1, 3])


def test_trajectory_round_trip(tmp_path):
    trajs = [Trajectory([(0, 1), (1, 0)]), Trajectory([(1, 1)])]
    path = tmp_path / "t.json"
    save_trajectories(path, trajs)
    loaded = load_trajectories(path)
    assert len(loaded) == 2
    for a, b in zip(trajs, loaded):
        assert np.array_equal(a.steps, b.steps)


def test_model_round_trip(tmp_path):
    rng = np.random.default_rng(7)
    model = random_model(rng, n_states=4, n_actions=2, goal_states=(1,))
    path = tmp_path / "m.json"
    save_model(path, model)
    loaded = load_model(path)
    assert loaded.n_states == model.n_states
    assert loaded.discount == model.discount
    assert loaded.goal_states == model.goal_states
    assert np.allclose(loaded.features.values, model.features.values)
    for a in range(model.n_actions):
        assert np.allclose(per_action(loaded.transitions)[a],
                           per_action(model.transitions)[a])
    assert validate_model(loaded) == []


def test_transitions_are_one_stacked_csr():
    rng = np.random.default_rng(5)
    model = random_model(rng, n_states=4, n_actions=3)
    csr = model.transitions.csr
    assert csr.format == "csr"
    assert csr.shape == (3 * 4, 4)
    for a, mat in enumerate(per_action(model.transitions)):
        for x in range(4):
            assert np.array_equal(csr[a * 4 + x].toarray().ravel(), mat[x])


def test_transition_matrices_must_share_one_square_shape():
    with pytest.raises(ValueError):
        TransitionModel([np.eye(2), np.eye(3)])
    with pytest.raises(ValueError):
        TransitionModel([np.ones((2, 3)) / 3])


def test_triplet_round_trip_keeps_every_entry():
    model, _ = build_fixed_target(GridSpec(n=5, seed=0))
    rebuilt = TransitionModel.from_triplets(model.n_states,
                                            model.transitions.triplets())
    for a, b in zip(per_action(rebuilt), per_action(model.transitions)):
        assert np.array_equal(a, b)


def test_model_file_stores_sparse_triplets(tmp_path):
    model, _ = build_fixed_target(GridSpec(n=6, seed=0))
    path = tmp_path / "m.json"
    save_model(path, model)
    with open(path) as fh:
        blocks = json.load(fh)["transitions"]
    assert len(blocks) == model.n_actions
    assert sum(len(b["values"]) for b in blocks) == model.transitions.csr.nnz
    loaded = load_model(path)
    for a, b in zip(per_action(loaded.transitions),
                    per_action(model.transitions)):
        assert np.array_equal(a, b)


def _write(path, data):
    with open(path, "w") as fh:
        json.dump(data, fh)
    return path


def test_load_rejects_dense_layout_with_regenerate_hint(tmp_path):
    model = identity_model()
    data = model_to_json(model)
    data["transitions"] = [m.ravel().tolist()
                           for m in per_action(model.transitions)]
    with pytest.raises(InvalidInput, match="gen-env"):
        load_model(_write(tmp_path / "m.json", data))


@pytest.mark.parametrize("edit, message", [
    (lambda d: d.update(discount=1.0), "discount"),
    (lambda d: d["transitions"][0]["values"].__setitem__(0, 0.5), "sums to"),
    (lambda d: d.update(n_actions=3), "actions"),
    (lambda d: d["transitions"][0]["cols"].__setitem__(0, 2), "malformed"),
    (lambda d: d["features"].pop(), "feature matrix"),
    (lambda d: d.pop("initial_dist"), "malformed"),
])
def test_load_validates_model(tmp_path, edit, message):
    data = model_to_json(identity_model())
    edit(data)
    with pytest.raises(InvalidInput, match=message):
        load_model(_write(tmp_path / "m.json", data))
