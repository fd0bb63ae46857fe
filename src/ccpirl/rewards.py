"""Reward parameterizations and their optimizers.

Rewards are state-only functions of the feature rows, broadcast across
actions into the (|X|, |A|) tables the solvers consume. The linear model is
trained with plain gradient ascent; the two-layer relu network uses Adam.
Both updates follow the ascent convention: the gradient passed in is the
likelihood gradient (demo minus model feature expectations) and parameters
move along it.
"""

import math
from dataclasses import dataclass, field

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


@dataclass
class AdamState:
    step_size: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    first_moment: dict = field(default_factory=dict)
    second_moment: dict = field(default_factory=dict)
    timestep: int = 0


def adam_step(state, params, grads):
    """One bias-corrected Adam ascent step over a dict of arrays.

    Returns the updated parameter dict; moments and timestep are updated on
    the state in place.
    """
    state.timestep += 1
    t = state.timestep
    out = {}
    for name, p in params.items():
        g = np.asarray(grads[name], dtype=float)
        m = state.first_moment.get(name)
        v = state.second_moment.get(name)
        if m is None:
            m = np.zeros_like(g)
            v = np.zeros_like(g)
        m = state.beta1 * m + (1.0 - state.beta1) * g
        v = state.beta2 * v + (1.0 - state.beta2) * g * g
        state.first_moment[name] = m
        state.second_moment[name] = v
        m_hat = m / (1.0 - state.beta1 ** t)
        v_hat = v / (1.0 - state.beta2 ** t)
        out[name] = p + state.step_size * m_hat / (np.sqrt(v_hat) + state.epsilon)
    return out


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
    """Stateful wrapper around adam_step for use in the training loops."""

    def __init__(self, step_size=1e-3, beta1=0.9, beta2=0.999, epsilon=1e-8):
        self.state = AdamState(step_size=step_size, beta1=beta1,
                               beta2=beta2, epsilon=epsilon)

    @property
    def step_size(self):
        return self.state.step_size

    def step(self, params, grads):
        return adam_step(self.state, params, grads)

    def state_dict(self):
        s = self.state
        return {
            "kind": "adam",
            "step_size": s.step_size,
            "beta1": s.beta1,
            "beta2": s.beta2,
            "epsilon": s.epsilon,
            "timestep": s.timestep,
            "first_moment": {k: v.tolist() for k, v in s.first_moment.items()},
            "second_moment": {k: v.tolist() for k, v in s.second_moment.items()},
        }

    def load_state_dict(self, data):
        self.state = AdamState(
            step_size=float(data["step_size"]),
            beta1=float(data["beta1"]),
            beta2=float(data["beta2"]),
            epsilon=float(data["epsilon"]),
            first_moment={k: np.asarray(v, dtype=float)
                          for k, v in data["first_moment"].items()},
            second_moment={k: np.asarray(v, dtype=float)
                           for k, v in data["second_moment"].items()},
            timestep=int(data["timestep"]),
        )


def initial_reward(kind, feature_dim, lr=None, hidden_width=32, seed=0):
    """A fresh reward of kind "linear" or "mlp" and the optimizer that
    trains it: a zero linear reward with GradientAscent(lr or 0.1), or a
    seeded MlpReward.init with Adam(lr or 1e-3)."""
    if kind == "linear":
        return LinearReward(np.zeros(feature_dim)), GradientAscent(lr or 0.1)
    if kind == "mlp":
        return (MlpReward.init(feature_dim, hidden_width=hidden_width,
                               seed=seed), Adam(lr or 1e-3))
    raise ValueError(f"unknown reward kind {kind!r}")
