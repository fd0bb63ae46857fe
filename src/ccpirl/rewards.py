"""Reward parameterizations and their optimizers.

Rewards are state-only functions of the feature rows, broadcast across
actions into the (|X|, |A|) tables the solvers consume. The linear model is
trained with plain gradient ascent; the two-layer relu network uses Adam.
Both updates follow the ascent convention: the gradient passed in is the
likelihood gradient (demo minus model feature expectations) and parameters
move along it.
"""

import math

import numpy as np


class LinearReward:
    """r(x) = theta . f(x)."""

    def __init__(self, theta):
        self.theta = np.asarray(theta, dtype=float).copy()

    def state_rewards(self, features):
        return features.values @ self.theta

    def param_dict(self):
        return {"theta": self.theta}

    def set_params(self, params):
        self.theta = np.asarray(params["theta"], dtype=float).copy()


class MlpReward:
    """Two-layer relu network r(x) = w2 . relu(W1^T f(x) + b1) + b2."""

    def __init__(self, w1, b1, w2, b2):
        self.w1 = np.asarray(w1, dtype=float).copy()  # (d, h)
        self.b1 = np.asarray(b1, dtype=float).copy()  # (h,)
        self.w2 = np.asarray(w2, dtype=float).copy()  # (h,)
        self.b2 = float(b2)

    @classmethod
    def init(cls, feature_dim, hidden_width=32, seed=0):
        """Glorot-uniform layers, deterministic per seed."""
        rng = np.random.default_rng(seed)
        lim1 = math.sqrt(6.0 / (feature_dim + hidden_width))
        lim2 = math.sqrt(6.0 / (hidden_width + 1))
        return cls(
            w1=rng.uniform(-lim1, lim1, size=(feature_dim, hidden_width)),
            b1=np.zeros(hidden_width),
            w2=rng.uniform(-lim2, lim2, size=hidden_width),
            b2=0.0,
        )

    @property
    def hidden_width(self):
        return self.w1.shape[1]

    def state_rewards(self, features):
        return mlp_forward(self, features)

    def param_dict(self):
        return {"w1": self.w1, "b1": self.b1, "w2": self.w2,
                "b2": np.asarray([self.b2])}

    def set_params(self, params):
        self.w1 = np.asarray(params["w1"], dtype=float).copy()
        self.b1 = np.asarray(params["b1"], dtype=float).copy()
        self.w2 = np.asarray(params["w2"], dtype=float).copy()
        self.b2 = float(np.asarray(params["b2"]).ravel()[0])


def mlp_forward(reward, features):
    """Per-state scalar rewards from the two-layer network."""
    pre = features.values @ reward.w1 + reward.b1
    return np.maximum(pre, 0.0) @ reward.w2 + reward.b2


def mlp_backward(reward, features, upstream):
    """Exact reverse-mode gradients of sum_x upstream(x) * r(x).

    The relu subgradient at exactly zero is taken as zero.
    """
    upstream = np.asarray(upstream, dtype=float)
    pre = features.values @ reward.w1 + reward.b1  # (X, h)
    act = np.maximum(pre, 0.0)
    d_w2 = act.T @ upstream
    d_b2 = upstream.sum()
    d_hidden = np.outer(upstream, reward.w2) * (pre > 0.0)  # (X, h)
    d_w1 = features.values.T @ d_hidden
    d_b1 = d_hidden.sum(axis=0)
    return {"w1": d_w1, "b1": d_b1, "w2": d_w2, "b2": np.asarray([d_b2])}


def broadcast_rewards(state_rewards, n_actions):
    """Tile a per-state reward vector into an (|X|, |A|) table."""
    return np.repeat(np.asarray(state_rewards, dtype=float)[:, None], n_actions, axis=1)


def reward_table(model, rewards):
    """The (|X|, |A|) reward table the solvers consume, from a reward
    parameterization (evaluated on the model's features), a per-state
    reward (a vector, or an object holding one in ``values`` such as
    ``envs.TrueReward``) or a table, which is returned as given."""
    if isinstance(rewards, (LinearReward, MlpReward)):
        rewards = rewards.state_rewards(model.features)
    r = np.asarray(getattr(rewards, "values", rewards), dtype=float)
    return broadcast_rewards(r, model.n_actions) if r.ndim == 1 else r


class GradientAscent:
    """Plain ascent with a fixed step, used for the linear reward model."""

    def __init__(self, step_size=0.1):
        self.step_size = step_size

    def step(self, params, grads):
        return {k: p + self.step_size * np.asarray(grads[k], dtype=float)
                for k, p in params.items()}

    def state_dict(self):
        return {"kind": "sgd", "step_size": self.step_size}

    def load_state_dict(self, data):
        self.step_size = float(data["step_size"])


class Adam:
    """Bias-corrected Adam ascent over a dict of arrays, used for the MLP
    reward. Moments start at zero for a parameter with none yet."""

    def __init__(self, step_size=1e-3, beta1=0.9, beta2=0.999, epsilon=1e-8):
        self.step_size = step_size
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        self.first_moment = {}
        self.second_moment = {}
        self.timestep = 0

    def step(self, params, grads):
        self.timestep += 1
        t = self.timestep
        out = {}
        for name, p in params.items():
            g = np.asarray(grads[name], dtype=float)
            m = self.first_moment.get(name, np.zeros_like(g))
            v = self.second_moment.get(name, np.zeros_like(g))
            m = self.beta1 * m + (1.0 - self.beta1) * g
            v = self.beta2 * v + (1.0 - self.beta2) * g * g
            self.first_moment[name] = m
            self.second_moment[name] = v
            m_hat = m / (1.0 - self.beta1 ** t)
            v_hat = v / (1.0 - self.beta2 ** t)
            out[name] = p + self.step_size * m_hat / (np.sqrt(v_hat)
                                                      + self.epsilon)
        return out

    def state_dict(self):
        return {
            "kind": "adam",
            "step_size": self.step_size,
            "beta1": self.beta1,
            "beta2": self.beta2,
            "epsilon": self.epsilon,
            "timestep": self.timestep,
            "first_moment": {k: v.tolist()
                             for k, v in self.first_moment.items()},
            "second_moment": {k: v.tolist()
                              for k, v in self.second_moment.items()},
        }

    def load_state_dict(self, data):
        self.step_size = float(data["step_size"])
        self.beta1 = float(data["beta1"])
        self.beta2 = float(data["beta2"])
        self.epsilon = float(data["epsilon"])
        self.timestep = int(data["timestep"])
        self.first_moment = {k: np.asarray(v, dtype=float)
                             for k, v in data["first_moment"].items()}
        self.second_moment = {k: np.asarray(v, dtype=float)
                              for k, v in data["second_moment"].items()}


def initial_reward(kind, feature_dim, lr=None, hidden_width=32, seed=0):
    """A fresh reward of kind "linear" or "mlp" and the optimizer that
    trains it: a zero linear reward with GradientAscent(lr), or a seeded
    MlpReward.init with Adam(lr). An lr of None takes 0.1 and 1e-3."""
    if kind == "linear":
        return LinearReward(np.zeros(feature_dim)), \
            GradientAscent(0.1 if lr is None else lr)
    if kind == "mlp":
        return (MlpReward.init(feature_dim, hidden_width=hidden_width,
                               seed=seed), Adam(1e-3 if lr is None else lr))
    raise ValueError(f"unknown reward kind {kind!r}")
