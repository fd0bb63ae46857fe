"""The IRL training loop, its two trainers and the state-visitation
forward pass.

The loop ascends the demonstration likelihood with the gradient
(demo feature expectations) - (model feature expectations). The two
trainers differ only in how the ex-ante value function is produced each
iteration: maxent re-solves the soft Bellman fixed point, ccp evaluates
a linear operator built once from the empirical choice probabilities.
"""

import json
import time
from dataclasses import dataclass

import numpy as np

from .ccp import estimate_ccp
from .errors import EmptyData, InvalidInput, NonFiniteGradient
from .hotzmiller import build_operator, exante_value
from .metrics import nll
from .model import SoftPolicy, check_trajectories, validate_model
from .rewards import Adam, GradientAscent, LinearReward, MlpReward, \
    mlp_backward, reward_table
from .softdp import choice_values, policy_from_values, solve_soft_vi


@dataclass(frozen=True)
class VisitationResult:
    """State occupancies: ``per_step`` is the (horizon+1, |X|) array whose
    row i is D^(i) (iterating it yields one layer per step), ``total`` their
    sum over steps."""

    per_step: np.ndarray
    total: np.ndarray


def forward_pass(model, policy, horizon):
    """Propagate the start distribution through policy and dynamics.

    D^(0) is the initial distribution. Before each propagation step the mass
    sitting on goal states is zeroed (arrivals still count in the layer they
    happen), then D^(i)(y) = sum_{x,a} T(y|x,a) pi(a|x) D^(i-1)(x). The
    one-step operator is the transpose of the policy-weighted transition
    matrix with goal rows zeroed (``TransitionModel.push_forward``).
    """
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    probs = policy.probs if isinstance(policy, SoftPolicy) else np.asarray(policy)
    weights = np.array(probs, dtype=float)
    weights[sorted(model.goal_states)] = 0.0
    layers = model.transitions.push_forward(weights, model.initial_dist,
                                            horizon)
    return VisitationResult(per_step=layers, total=layers.sum(axis=0))


def demo_state_visits(trajectories, n_states):
    """Average per-trajectory state visit counts, as a length-|X| vector."""
    if not trajectories:
        raise EmptyData("no trajectories given")
    check_trajectories(trajectories, n_states)
    visits = np.zeros(n_states)
    for traj in trajectories:
        np.add.at(visits, traj.states, 1.0)
    return visits / len(trajectories)


def feature_expectations_from_visitation(vis, features):
    return features.values.T @ vis.total


@dataclass
class IterationRecord:
    iteration: int
    nll: float
    grad_norm: float
    dp_seconds: float
    total_seconds: float


@dataclass
class TrainReport:
    algorithm: str
    records: list
    final_rewards: np.ndarray  # (|X|, |A|)
    final_policy: SoftPolicy
    setup_seconds: float

    @property
    def total_seconds(self):
        return self.setup_seconds + sum(r.total_seconds for r in self.records)

    def to_csv(self, path):
        with open(path, "w") as fh:
            fh.write("iteration,nll,grad_norm,dp_seconds,total_seconds\n")
            for r in self.records:
                fh.write(
                    f"{r.iteration},{r.nll:.10g},{r.grad_norm:.10g},"
                    f"{r.dp_seconds:.6g},{r.total_seconds:.6g}\n"
                )


def default_horizon(trajectories):
    """Propagation steps matching the longest demonstration.

    A demo with L recorded steps occupies L state layers, so the forward
    pass propagates L-1 times; that keeps the demo and model visitation
    masses directly comparable.
    """
    return max(1, max(len(t) for t in trajectories) - 1)


def _gradient(reward_param, model, mu_demo, visit_demo, vis):
    if isinstance(reward_param, LinearReward):
        mu_model = feature_expectations_from_visitation(vis, model.features)
        grads = {"theta": mu_demo - mu_model}
    else:
        upstream = visit_demo - vis.total
        grads = mlp_backward(reward_param, model.features, upstream)
    for g in grads.values():
        if not np.all(np.isfinite(g)):
            raise NonFiniteGradient(
                f"non-finite gradient encountered: { {k: [float(np.min(v)), float(np.max(v))] for k, v in grads.items()} }"
            )
    return grads


def _train(algorithm, setup, model, trajectories, reward_param, optimizer,
           iterations, horizon, start_iteration):
    """The loop both trainers run. ``setup()``, timed as the report's setup,
    returns ``values``; ``values(rewards)`` returns the ex-ante value of a
    reward table: the one step in which the trainers differ."""
    problems = validate_model(model)
    if problems:
        raise InvalidInput("invalid model: " + "; ".join(problems))
    if iterations < 0:
        raise ValueError(f"iterations must be non-negative, got {iterations}")
    if not trajectories:
        raise EmptyData("no trajectories given")
    if horizon is None:
        horizon = default_horizon(trajectories)
    t_setup = time.perf_counter()
    values = setup()
    setup_seconds = time.perf_counter() - t_setup
    visit_demo = demo_state_visits(trajectories, model.n_states)
    mu_demo = model.features.values.T @ visit_demo

    records = []
    policy = None
    if iterations == 0:
        # no-op training: evaluate the starting point once
        rewards = reward_table(model, reward_param)
        policy = policy_from_values(choice_values(model, rewards,
                                                  values(rewards)))
        records.append(IterationRecord(start_iteration,
                                       nll(policy, trajectories),
                                       float("nan"), 0.0, 0.0))
    for it in range(start_iteration, start_iteration + iterations):
        t0 = time.perf_counter()
        rewards = reward_table(model, reward_param)
        t_dp = time.perf_counter()
        vbar = values(rewards)
        dp_seconds = time.perf_counter() - t_dp
        policy = policy_from_values(choice_values(model, rewards, vbar))
        demo_nll = nll(policy, trajectories)
        vis = forward_pass(model, policy, horizon)
        grads = _gradient(reward_param, model, mu_demo, visit_demo, vis)
        reward_param.set_params(optimizer.step(reward_param.param_dict(), grads))
        total = time.perf_counter() - t0
        grad_norm = max(float(np.max(np.abs(g))) for g in grads.values())
        records.append(IterationRecord(it, demo_nll, grad_norm, dp_seconds,
                                       total))
    return TrainReport(
        algorithm=algorithm,
        records=records,
        final_rewards=reward_table(model, reward_param),
        final_policy=policy,
        setup_seconds=setup_seconds,
    )


def train_maxent(model, trajectories, reward_param, optimizer, iterations,
                 horizon=None, start_iteration=0):
    """Classic loop: one full soft-DP solve per gradient step."""
    return _train("maxent",
                  lambda: lambda rewards: solve_soft_vi(model, rewards)[0],
                  model, trajectories, reward_param, optimizer, iterations,
                  horizon, start_iteration)


def train_ccp(model, trajectories, reward_param, optimizer, iterations,
              horizon=None, smoothing=None, start_iteration=0):
    """CCP loop: choice probabilities estimated once, the value operator
    built once, and only matrix arithmetic inside the iteration."""
    def setup():
        op = build_operator(model, estimate_ccp(trajectories, model.n_states,
                                                model.n_actions, smoothing))
        return lambda rewards: exante_value(op, rewards)

    return _train("ccp", setup, model, trajectories, reward_param, optimizer,
                  iterations, horizon, start_iteration)


# ---------------------------------------------------------------------------
# Checkpoints: enough state to resume a run and reproduce it exactly.
# ---------------------------------------------------------------------------


def save_checkpoint(path, reward_param, optimizer, iteration, seed=None):
    payload = {
        "reward_kind": "linear" if isinstance(reward_param, LinearReward) else "mlp",
        "params": {k: np.asarray(v).tolist()
                   for k, v in reward_param.param_dict().items()},
        "optimizer": optimizer.state_dict(),
        "iteration": iteration,
        "seed": seed,
    }
    with open(path, "w") as fh:
        json.dump(payload, fh)


def load_checkpoint(path):
    """Read a checkpoint; raises InvalidInput if it is absent or malformed."""
    try:
        with open(path) as fh:
            data = json.load(fh)
        params = {k: np.asarray(v, dtype=float)
                  for k, v in data["params"].items()}
        if data["reward_kind"] == "linear":
            reward = LinearReward(params["theta"])
        else:
            reward = MlpReward(params["w1"], params["b1"], params["w2"],
                               np.asarray(params["b2"]).ravel()[0])
        opt_data = data["optimizer"]
        optimizer = GradientAscent() if opt_data["kind"] == "sgd" else Adam()
        optimizer.load_state_dict(opt_data)
        return reward, optimizer, int(data["iteration"]), data["seed"]
    except (OSError, KeyError, IndexError, TypeError, ValueError,
            AttributeError) as exc:
        raise InvalidInput(f"invalid checkpoint {path}: {exc}") from exc
