"""Evaluation metrics and the wall-clock benchmark harness.

NLL scores demonstration actions under a candidate policy. EVD compares,
under the true reward, the value of the hard-optimal policy against the
value of the learned policy, averaged over the start distribution. The
benchmark harness times the two trainers on identical demonstrations and
reports paired speedups as CSV.
"""

import json
import weakref
from dataclasses import dataclass, fields

import numpy as np

from . import envs, softdp
from .errors import EmptyData, MaxSweepsExceeded
from .hotzmiller import factorize
from .model import SoftPolicy, check_trajectories
from .rewards import initial_reward, reward_table

BENCH_CSV_HEADER = (
    "algorithm,env,n_states,n_actions,beta,iterations,trajectories,"
    "setup_s,total_s,nll,evd,seed,repeat"
)


def nll(policy, trajectories):
    """Average over trajectories of -sum_t log pi(a_t | x_t).

    Probabilities are floored at the smallest positive double so unobserved
    actions cannot produce infinities. Raises InvalidInput for a state or
    action outside the policy table.
    """
    if not trajectories:
        raise EmptyData("no trajectories to score")
    probs = policy.probs if isinstance(policy, SoftPolicy) else np.asarray(policy)
    steps = np.concatenate([traj.steps for traj in trajectories])
    if np.any((steps < 0) | (steps >= probs.shape)):
        # one check over all steps; the per-trajectory one names the culprit
        check_trajectories(trajectories, *probs.shape)
    chosen = probs[steps[:, 0], steps[:, 1]]
    return -np.log(np.maximum(chosen, np.finfo(float).tiny)).sum() \
        / len(trajectories)


def soft_optimal_policy(model, rewards):
    """The policy a learned reward is scored by: soft VI on the reward, then
    the softmax of its choice values. The three steps are looked up on
    ``softdp`` at call time, so that a wrapper set there sees them."""
    vbar, _ = softdp.solve_soft_vi(model, rewards)
    return softdp.policy_from_values(
        softdp.choice_values(model, rewards, vbar))


def uniform_policy(n_states, n_actions):
    return SoftPolicy(np.full((n_states, n_actions), 1.0 / n_actions))


def hard_value_iteration(model, rewards, tolerance=1e-8, max_sweeps=100000):
    """Standard max-Bellman fixed point; no shocks, no entropy term.

    Returns the optimal values and the greedy policy (deterministic,
    encoded as a one-hot row-stochastic matrix).
    """
    # column-major like next_values, so that q is too (see next_values)
    r = np.asfortranarray(reward_table(model, rewards))
    beta = model.discount
    next_values = model.transitions.next_values
    v = np.zeros(model.n_states)
    for _ in range(max_sweeps):
        q = r + beta * next_values(v)
        v_new = q.max(axis=1)
        residual = np.max(np.abs(v_new - v))
        v = v_new
        if residual < tolerance:
            greedy = q.argmax(axis=1)
            probs = np.zeros_like(q)
            probs[np.arange(model.n_states), greedy] = 1.0
            return v, SoftPolicy(probs)
    raise MaxSweepsExceeded(
        f"hard value iteration did not converge (residual {residual:g})",
        last_iterate=v, residual=residual,
    )


def policy_evaluation(model, rewards, policy):
    """Exact value of a fixed policy: solve (I - beta*T_pi) V = R_pi."""
    r = reward_table(model, rewards)
    probs = policy.probs if isinstance(policy, SoftPolicy) else np.asarray(policy)
    r_pi = np.sum(probs * r, axis=1)
    t_pi = model.transitions.weighted(probs)
    return factorize(t_pi, model.discount).solve(r_pi)


# (weak reference to the model, copy of its true reward table, v*) of the
# last optimum evd solved; see _optimal_values
_optimal_memo = None


def _optimal_values(model, true_reward):
    """The hard-optimal values v* of the true reward, solved once per (model,
    reward table) and reused for every policy scored against them.

    The model is matched by identity, through a weak reference so that a
    dropped model is freed and its id cannot be mistaken for a later one;
    the table by value, against a copy taken at the solve.
    """
    global _optimal_memo
    table = reward_table(model, true_reward)
    if _optimal_memo is not None:
        model_ref, memo_table, v_star = _optimal_memo
        if model_ref() is model and np.array_equal(memo_table, table):
            return v_star
    v_star, _ = hard_value_iteration(model, true_reward)
    _optimal_memo = (weakref.ref(model), table.copy(), v_star)
    return v_star


def evd(model, true_reward, learned_policy):
    """Expected value difference under the true reward, from the start states."""
    v_star = _optimal_values(model, true_reward)
    v_pi = policy_evaluation(model, true_reward, learned_policy)
    return float(model.initial_dist @ (v_star - v_pi))


@dataclass(frozen=True)
class EvalResult:
    nll: float
    evd: float
    n_eval_trajectories: int
    config_fingerprint: str = ""

    def to_json(self):
        return {
            "nll": self.nll,
            "evd": self.evd,
            "n_eval_trajectories": self.n_eval_trajectories,
            "config_fingerprint": self.config_fingerprint,
        }


# ---------------------------------------------------------------------------
# Benchmark harness
# ---------------------------------------------------------------------------


@dataclass
class BenchCell:
    """One (environment, size, beta) benchmark configuration."""

    env: str  # "fixed", "macro", "objectworld"
    n: int
    beta: float = 0.9
    iterations: int = 50
    n_trajectories: int = 64
    seed: int = 0
    macro_size: int = 2
    n_colors: int = 2
    reward_model: str = "linear"  # "linear" or "mlp"

    def check(self):
        """Raise ValueError unless the cell can run: each field of its
        annotated type (an int will do for beta) and within range."""
        for f in fields(self):
            value = getattr(self, f.name)
            allowed = (float, int) if f.type is float else (f.type,)
            if type(value) not in allowed:
                raise ValueError(f"cell {f.name} must be of type "
                                 f"{f.type.__name__}, got {value!r}")
        in_range = {"beta": 0 <= self.beta < 1,
                    "iterations": self.iterations >= 0,
                    "n_trajectories": self.n_trajectories >= 1,
                    "seed": self.seed >= 0,
                    "reward_model": self.reward_model in ("linear", "mlp")}
        for name, ok in in_range.items():
            if not ok:
                raise ValueError(f"cell {name} {getattr(self, name)!r} is "
                                 "out of range")
        envs.make_spec(self.env, self.n, seed=self.seed,
                       macro_size=self.macro_size, n_colors=self.n_colors)


@dataclass
class BenchSuiteConfig:
    name: str
    cells: list
    repeats: int = 3
    warmup: bool = True

    def check(self):
        """Raise ValueError for a suite that cannot run, every cell checked,
        so that it can be refused before any cell runs."""
        if type(self.repeats) is not int or self.repeats < 1:
            raise ValueError(f"suite repeats must be a positive integer, "
                             f"got {self.repeats!r}")
        for cell in self.cells:
            cell.check()


@dataclass
class BenchRecord:
    algorithm: str
    env: str
    n_states: int
    n_actions: int
    beta: float
    iterations: int
    n_trajectories: int
    setup_seconds: float
    total_seconds: float
    nll: float
    evd: float
    seed: int
    repeat: int
    speedup: float = float("nan")
    error: str = ""


def _run_one(cell, model, trajectories, algorithm):
    from .engine import train_ccp, train_maxent

    reward, optimizer = initial_reward(cell.reward_model,
                                       model.features.feature_dim,
                                       seed=cell.seed)
    trainer = train_maxent if algorithm == "maxent" else train_ccp
    return trainer(model, trajectories, reward, optimizer, cell.iterations)


def run_benchmark(suite, output_dir=None):
    """Time every cell for both algorithms on the same demonstrations.

    Cells run strictly sequentially. Per algorithm: one optional warm-up run
    (untimed), then `repeats` timed runs; the paired speedup uses the mean
    of total times. NLL and EVD are those of the soft-optimal policy of the
    last run's learned reward, as ``ccpirl eval`` scores it. Per-cell
    failures are recorded, not raised.
    """
    records = []
    for cell in suite.cells:
        try:
            model, true_reward = envs.build(
                cell.env, cell.n, discount=cell.beta, seed=cell.seed,
                macro_size=cell.macro_size, n_colors=cell.n_colors)
            trajectories = envs.generate_experts(
                model, true_reward, cell.n_trajectories,
                envs.default_traj_length(cell.env, cell.n), seed=cell.seed)
            cell_records = {}
            for algorithm in ("maxent", "ccp"):
                if suite.warmup:
                    _run_one(cell, model, trajectories, algorithm)
                runs = [_run_one(cell, model, trajectories, algorithm)
                        for _ in range(suite.repeats)]
                policy = soft_optimal_policy(model, runs[-1].final_rewards)
                final_nll = nll(policy, trajectories)
                final_evd = evd(model, true_reward, policy)
                cell_records[algorithm] = [BenchRecord(
                    algorithm=algorithm,
                    env=f"{cell.env}-n{cell.n}",
                    n_states=model.n_states,
                    n_actions=model.n_actions,
                    beta=cell.beta,
                    iterations=cell.iterations,
                    n_trajectories=cell.n_trajectories,
                    setup_seconds=report.setup_seconds,
                    total_seconds=report.total_seconds,
                    nll=final_nll,
                    evd=final_evd,
                    seed=cell.seed,
                    repeat=rep,
                ) for rep, report in enumerate(runs)]
            speedup = np.mean([r.total_seconds
                               for r in cell_records["maxent"]]) \
                / np.mean([r.total_seconds for r in cell_records["ccp"]])
            for recs in cell_records.values():
                for r in recs:
                    r.speedup = speedup
                records.extend(recs)
        except Exception as exc:  # record the failure, keep the suite going
            records.append(BenchRecord(
                algorithm="-", env=f"{cell.env}-n{cell.n}", n_states=0,
                n_actions=0, beta=cell.beta, iterations=cell.iterations,
                n_trajectories=cell.n_trajectories, setup_seconds=0.0,
                total_seconds=0.0, nll=float("nan"), evd=float("nan"),
                seed=cell.seed, repeat=0,
                error=f"{type(exc).__name__}: {exc}",
            ))
    if output_dir is not None:
        write_benchmark_csv(records, suite, output_dir)
    return records


def write_benchmark_csv(records, suite, output_dir):
    import os

    os.makedirs(output_dir, exist_ok=True)
    csv_path = os.path.join(output_dir, f"{suite.name}.csv")
    with open(csv_path, "w") as fh:
        fh.write(BENCH_CSV_HEADER + "\n")
        for r in records:
            if r.error:
                continue
            fh.write(
                f"{r.algorithm},{r.env},{r.n_states},{r.n_actions},{r.beta},"
                f"{r.iterations},{r.n_trajectories},{r.setup_seconds:.6g},"
                f"{r.total_seconds:.6g},{r.nll:.10g},{r.evd:.10g},"
                f"{r.seed},{r.repeat}\n"
            )
    companion = {
        "name": suite.name,
        "repeats": suite.repeats,
        "warmup": suite.warmup,
        "cells": [vars(c) for c in suite.cells],
        "speedups": sorted({
            (r.env, r.beta): r.speedup for r in records if not r.error
        }.items(), key=str),
        "errors": [{"env": r.env, "error": r.error}
                   for r in records if r.error],
    }
    with open(os.path.join(output_dir, f"{suite.name}.config.json"), "w") as fh:
        json.dump(companion, fh, indent=2, default=str)
    return csv_path
