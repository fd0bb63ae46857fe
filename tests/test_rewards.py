import numpy as np

from ccpirl.model import FeatureMatrix
from ccpirl.rewards import (
    Adam,
    GradientAscent,
    LinearReward,
    MlpReward,
    broadcast_rewards,
    initial_reward,
    mlp_backward,
    mlp_forward,
)


def test_linear_reward_is_dot_product():
    feats = FeatureMatrix(np.array([[1.0, 0.0], [0.0, 2.0], [1.0, 1.0]]))
    reward = LinearReward([3.0, -1.0])
    assert np.allclose(reward.state_rewards(feats), [3.0, -2.0, 2.0])


def test_broadcast_rewards_tiles_columns():
    table = broadcast_rewards([1.0, 2.0], 3)
    assert table.shape == (2, 3)
    assert np.allclose(table, [[1, 1, 1], [2, 2, 2]])


def test_mlp_zero_weights_zero_rewards():
    reward = MlpReward(np.zeros((3, 4)), np.zeros(4), np.zeros(4), 0.0)
    feats = FeatureMatrix(np.random.default_rng(0).standard_normal((5, 3)))
    assert np.allclose(mlp_forward(reward, feats), 0.0)


def test_mlp_relu_clamps_negative_preactivation():
    reward = MlpReward(np.array([[1.0], [0.0]]), np.zeros(1), np.ones(1), 0.0)
    feats = FeatureMatrix(np.array([[-2.0, 5.0]]))
    assert mlp_forward(reward, feats)[0] == 0.0


def test_mlp_forward_matches_scalar_loop():
    rng = np.random.default_rng(1)
    reward = MlpReward.init(3, hidden_width=5, seed=2)
    feats = FeatureMatrix(rng.standard_normal((6, 3)))
    out = mlp_forward(reward, feats)
    for x in range(6):
        total = reward.b2
        for h in range(5):
            pre = reward.b1[h]
            for d in range(3):
                pre += feats.values[x, d] * reward.w1[d, h]
            total += reward.w2[h] * max(pre, 0.0)
        assert abs(out[x] - total) < 1e-12


def test_mlp_backward_zero_upstream():
    reward = MlpReward.init(2, hidden_width=3, seed=0)
    feats = FeatureMatrix(np.random.default_rng(0).standard_normal((4, 2)))
    grads = mlp_backward(reward, feats, np.zeros(4))
    for g in grads.values():
        assert np.allclose(g, 0.0)


def test_mlp_backward_hand_derivative():
    # single state, hidden width 1: r = w2 * relu(w1*f + b1) + b2
    reward = MlpReward(np.array([[2.0]]), np.array([0.5]), np.array([3.0]), 0.1)
    feats = FeatureMatrix(np.array([[1.5]]))
    u = 2.0
    grads = mlp_backward(reward, feats, np.array([u]))
    pre = 2.0 * 1.5 + 0.5
    assert np.allclose(grads["w2"], [u * pre])
    assert np.allclose(grads["b2"], [u])
    assert np.allclose(grads["w1"], [[u * 3.0 * 1.5]])
    assert np.allclose(grads["b1"], [u * 3.0])


def test_mlp_backward_matches_central_differences():
    rng = np.random.default_rng(3)
    reward = MlpReward.init(4, hidden_width=6, seed=5)
    feats = FeatureMatrix(rng.standard_normal((8, 4)))
    upstream = rng.standard_normal(8)
    grads = mlp_backward(reward, feats, upstream)

    def objective(params):
        probe = MlpReward(params["w1"], params["b1"], params["w2"],
                          params["b2"].ravel()[0])
        return float(upstream @ mlp_forward(probe, feats))

    h = 1e-5
    params = {k: np.array(v, dtype=float) for k, v in reward.param_dict().items()}
    for name, g in grads.items():
        flat_g = np.asarray(g).ravel()
        for i in range(flat_g.size):
            bumped = {k: v.copy() for k, v in params.items()}
            bumped[name].ravel()[i] += h
            plus = objective(bumped)
            bumped[name].ravel()[i] -= 2 * h
            minus = objective(bumped)
            fd = (plus - minus) / (2 * h)
            denom = max(abs(fd), 1e-8)
            assert abs(flat_g[i] - fd) / denom < 1e-4


def test_adam_zero_gradient_advances_timestep_only():
    opt = Adam()
    params = {"theta": np.array([1.0, -2.0])}
    out = opt.step(params, {"theta": np.zeros(2)})
    assert np.allclose(out["theta"], params["theta"])
    assert opt.timestep == 1


def test_adam_first_step_is_signed_step_size():
    g = np.array([3.0, -0.2, 1e-4])
    out = Adam(step_size=0.01).step({"theta": np.zeros(3)}, {"theta": g})
    # bias correction makes the first update ~ step_size * sign(g)
    assert np.allclose(out["theta"], 0.01 * np.sign(g), rtol=1e-3)


def test_adam_converges_on_quadratic_bowl():
    opt = Adam(step_size=0.05)
    target = np.array([1.0, -2.0, 0.5])
    theta = np.zeros(3)
    for _ in range(400):
        grad = -(theta - target)  # ascent on -(1/2)|theta - target|^2
        theta = opt.step({"theta": theta}, {"theta": grad})["theta"]
    assert np.max(np.abs(theta - target)) < 1e-3


def test_gradient_ascent_step():
    opt = GradientAscent(step_size=0.5)
    out = opt.step({"theta": np.array([1.0])}, {"theta": np.array([2.0])})
    assert np.allclose(out["theta"], [2.0])


def test_optimizer_state_round_trips():
    opt = Adam(step_size=0.02)
    for i in range(3):
        opt.step({"theta": np.zeros(2)}, {"theta": np.ones(2) * (i + 1)})
    clone = Adam()
    clone.load_state_dict(opt.state_dict())
    g = {"theta": np.array([0.3, -0.7])}
    a = opt.step({"theta": np.zeros(2)}, g)["theta"]
    b = clone.step({"theta": np.zeros(2)}, g)["theta"]
    assert np.allclose(a, b)

    sgd = GradientAscent(0.7)
    clone2 = GradientAscent()
    clone2.load_state_dict(sgd.state_dict())
    assert clone2.step_size == 0.7


def test_initial_reward_takes_the_default_step_only_for_none():
    for kind, default in (("linear", 0.1), ("mlp", 1e-3)):
        assert initial_reward(kind, 2)[1].step_size == default
        assert initial_reward(kind, 2, lr=0.0)[1].step_size == 0.0


def test_mlp_init_is_deterministic():
    a = MlpReward.init(3, hidden_width=4, seed=9)
    b = MlpReward.init(3, hidden_width=4, seed=9)
    c = MlpReward.init(3, hidden_width=4, seed=10)
    assert np.array_equal(a.w1, b.w1) and np.array_equal(a.w2, b.w2)
    assert not np.array_equal(a.w1, c.w1)
