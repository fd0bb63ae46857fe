"""Command-line front end.

Subcommands: gen-env, gen-experts, estimate-ccp, train, eval, bench. Every
run is driven by a config (JSON file and/or flags; flags win), requires an
explicit seed, and re-serializes its effective config next to its outputs
so any result can be reproduced exactly.

``bench`` times both trainers on each cell of a suite (a preset or a JSON
file); its suite types and its loop live here, beside the command.

Exit codes: 0 success, 2 invalid input or config (including a flag out of
range and a model or trajectory file that fails validation), 3 numerical
failure (for ``bench``, every cell failed).
"""

import argparse
import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass, fields

import numpy as np

from . import envs
from .ccp import SmoothingConfig, estimate_ccp, save_ccp
from .engine import load_checkpoint, save_checkpoint, train_ccp, train_maxent
from .errors import CcpIrlError, InvalidInput
from .metrics import evd, nll, soft_optimal_policy
from .model import check_trajectories, load_model, load_trajectories, \
    save_model, save_trajectories, validate_model
from .rewards import LinearReward, initial_reward, reward_table

EXIT_CONFIG = 2
EXIT_NUMERIC = 3


class CliError(Exception):
    def __init__(self, message, code=EXIT_CONFIG):
        super().__init__(message)
        self.code = code


def _fingerprint(config):
    return hashlib.sha256(
        json.dumps(config, sort_keys=True, default=str).encode()
    ).hexdigest()[:16]


def _write_config(out_dir, config):
    config = dict(config)
    config["config_fingerprint"] = _fingerprint(config)
    with open(os.path.join(out_dir, "config.json"), "w") as fh:
        json.dump(config, fh, indent=2, default=str)
    return config["config_fingerprint"]


def _resolve_seed(args):
    if getattr(args, "seed", None) is not None:
        return args.seed
    env_seed = os.environ.get("CCPIRL_SEED")
    if env_seed is not None:
        print("warning: seeding from CCPIRL_SEED; prefer an explicit --seed",
              file=sys.stderr)
        try:
            return int(env_seed)
        except ValueError:
            raise CliError(f"CCPIRL_SEED is not an integer: {env_seed!r}")
    raise CliError("a seed is required (--seed or CCPIRL_SEED)")


def _require(args, *names):
    for name in names:
        if getattr(args, name, None) is None:
            flag = "--" + name.replace("_", "-")
            raise CliError(f"missing required option {flag}")


# (what the value must be, its test) for _check_flags; a config file's
# values skip the parser's types, so each test checks the type too
NON_NEGATIVE_INT = ("a non-negative integer",
                    lambda v: type(v) is int and v >= 0)
POSITIVE_INT = ("a positive integer", lambda v: type(v) is int and v > 0)
POSITIVE = ("positive and finite",
            lambda v: type(v) in (int, float) and math.isfinite(v) and v > 0)
PROBABILITY = ("in [0, 1]",
               lambda v: type(v) in (int, float) and 0 <= v <= 1)


def _check_flags(args, **rules):
    """Raise CliError for the first flag whose value breaks its rule; a flag
    left at None takes its default and is not checked."""
    for name, (what, test) in rules.items():
        value = getattr(args, name)
        if value is not None and not test(value):
            flag = "--" + name.replace("_", "-")
            raise CliError(f"invalid value for {flag}: {value!r} "
                           f"(must be {what})")


def _load_env_dir(env_dir):
    model_path = os.path.join(env_dir, "model.json")
    reward_path = os.path.join(env_dir, "true_reward.json")
    if not os.path.exists(model_path):
        raise CliError(f"missing model file {model_path}")
    model = load_model(model_path)
    true_reward = envs.load_true_reward(reward_path) \
        if os.path.exists(reward_path) else None
    return model, true_reward


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_gen_env(args):
    _require(args, "env", "n", "out")
    _check_flags(args, n=POSITIVE_INT)
    seed = _resolve_seed(args)
    os.makedirs(args.out, exist_ok=True)
    try:
        model, true_reward = envs.build(
            args.env, args.n, discount=args.beta, seed=seed, wind=args.wind,
            obstacle_density=args.obstacle_density,
            macro_size=args.macro_size, n_colors=args.n_colors,
            n_objects=args.n_objects)
    except ValueError as exc:
        raise CliError(f"invalid environment spec: {exc}")
    problems = validate_model(model)
    if problems:
        raise CliError("invalid environment: " + "; ".join(problems))
    save_model(os.path.join(args.out, "model.json"), model)
    envs.save_true_reward(os.path.join(args.out, "true_reward.json"), true_reward)
    np.savetxt(os.path.join(args.out, "features.csv"),
               model.features.values, delimiter=",")
    _write_config(args.out, {"command": "gen-env", "env": args.env,
                             "n": args.n, "beta": args.beta, "seed": seed,
                             "wind": args.wind,
                             "obstacle_density": args.obstacle_density,
                             "macro_size": args.macro_size,
                             "n_colors": args.n_colors,
                             "n_objects": args.n_objects})
    print(f"wrote environment ({model.n_states} states) to {args.out}")


def cmd_gen_experts(args):
    _require(args, "env_dir", "n_trajectories", "out")
    _check_flags(args, n_trajectories=POSITIVE_INT, traj_length=POSITIVE_INT,
                 epsilon=PROBABILITY)
    seed = _resolve_seed(args)
    model, true_reward = _load_env_dir(args.env_dir)
    if true_reward is None:
        raise CliError(f"no true_reward.json in {args.env_dir}")
    traj_length = args.traj_length or _default_traj_length(args.env_dir)
    trajectories = envs.generate_experts(
        model, true_reward, args.n_trajectories, traj_length, seed,
        mode=args.mode, epsilon=args.epsilon)
    save_trajectories(args.out, trajectories)
    print(f"wrote {len(trajectories)} trajectories to {args.out}")


def _default_traj_length(env_dir):
    """envs.default_traj_length of the environment gen-env recorded in
    env_dir's config.json."""
    path = os.path.join(env_dir, "config.json")
    try:
        with open(path) as fh:
            config = json.load(fh)
        return envs.default_traj_length(config["env"], int(config["n"]))
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise CliError(f"cannot read the environment kind and size from "
                       f"{path} ({exc}); pass --traj-length")


def cmd_estimate_ccp(args):
    _require(args, "env_dir", "trajectories", "out")
    if args.smoothing == "additive":
        _check_flags(args, alpha=POSITIVE)
    model, _ = _load_env_dir(args.env_dir)
    trajectories = _load_trajs(args.trajectories, model)
    smoothing = SmoothingConfig(mode=args.smoothing, alpha=args.alpha)
    table = estimate_ccp(trajectories, model.n_states, model.n_actions,
                         smoothing)
    save_ccp(args.out, table, smoothing)
    print(f"wrote CCP table to {args.out}")


def _load_trajs(path, model):
    """Read a trajectory file and check its indices against the model."""
    if not os.path.exists(path):
        raise CliError(f"missing trajectory file {path}")
    trajectories = load_trajectories(path)
    check_trajectories(trajectories, model.n_states, model.n_actions)
    return trajectories


def cmd_train(args):
    _require(args, "env_dir", "trajectories", "algo", "out")
    if args.algo not in ("maxent", "ccp"):
        raise CliError(f"invalid value for --algo: {args.algo!r} "
                       "(choose maxent or ccp)")
    _check_flags(args, iterations=NON_NEGATIVE_INT, horizon=POSITIVE_INT,
                 lr=POSITIVE, hidden=POSITIVE_INT, alpha=POSITIVE)
    seed = _resolve_seed(args)
    model, _ = _load_env_dir(args.env_dir)
    trajectories = _load_trajs(args.trajectories, model)
    os.makedirs(args.out, exist_ok=True)

    start_iteration = 0
    if args.resume:
        reward, optimizer, start_iteration = _checkpoint_for(args.resume, model)
    else:
        try:
            reward, optimizer = initial_reward(
                args.reward, model.features.feature_dim, args.lr,
                args.hidden, seed)
        except ValueError as exc:
            raise CliError(f"invalid value for --reward: {exc}")

    try:
        if args.algo == "maxent":
            report = train_maxent(model, trajectories, reward, optimizer,
                                  args.iterations, horizon=args.horizon,
                                  start_iteration=start_iteration)
        else:
            smoothing = SmoothingConfig(alpha=args.alpha)
            report = train_ccp(model, trajectories, reward, optimizer,
                               args.iterations, horizon=args.horizon,
                               smoothing=smoothing,
                               start_iteration=start_iteration)
        final_nll = nll(soft_optimal_policy(model, report.final_rewards),
                        trajectories)
    except CcpIrlError as exc:
        raise CliError(f"training failed: {exc}", code=EXIT_NUMERIC)

    report.to_csv(os.path.join(args.out, "report.csv"))
    _write_reward_grid(os.path.join(args.out, "reward_grid.csv"),
                       report.final_rewards[:, 0])
    save_checkpoint(os.path.join(args.out, "checkpoint.json"), reward,
                    optimizer, start_iteration + args.iterations, seed)
    _write_config(args.out, {
        "command": "train", "algo": args.algo, "reward": args.reward,
        "iterations": args.iterations, "seed": seed, "lr": args.lr,
        "hidden": args.hidden, "alpha": args.alpha, "horizon": args.horizon,
        "env_dir": args.env_dir, "trajectories": args.trajectories,
        "resume": args.resume,
    })
    print(f"trained {args.algo} for {args.iterations} iterations; "
          f"final nll {final_nll:.12g}")


def _checkpoint_for(path, model):
    """(reward, optimizer, iteration) of a checkpoint whose reward fits the
    model's features and whose Adam moments, if any, fit the reward."""
    reward, optimizer, iteration, _ = load_checkpoint(path)
    d, h = model.features.feature_dim, np.size(getattr(reward, "b1", 0))
    want = {"theta": (d,)} if isinstance(reward, LinearReward) \
        else {"w1": (d, h), "b1": (h,), "w2": (h,), "b2": (1,)}
    got = {k: np.shape(v) for k, v in reward.param_dict().items()}
    if got != want:
        raise CliError(f"checkpoint {path} has parameter shapes {got}, "
                       f"which do not fit {d} features")
    for name in ("first_moment", "second_moment"):
        moments = {k: np.shape(v)
                   for k, v in getattr(optimizer, name, {}).items()}
        # empty before the first step, one moment per parameter after it
        if moments not in ({}, got):
            raise CliError(f"checkpoint {path} has Adam {name} shapes "
                           f"{moments}, which do not fit parameter shapes "
                           f"{got}")
    return reward, optimizer, iteration


def _write_reward_grid(path, state_rewards):
    n = math.isqrt(len(state_rewards))
    grid = state_rewards.reshape(n, n) if n * n == len(state_rewards) \
        else state_rewards.reshape(1, -1)
    np.savetxt(path, grid, delimiter=",")


def cmd_eval(args):
    _require(args, "env_dir", "checkpoint", "trajectories", "out")
    model, true_reward = _load_env_dir(args.env_dir)
    trajectories = _load_trajs(args.trajectories, model)
    reward, _, _ = _checkpoint_for(args.checkpoint, model)
    table = reward_table(model, reward)
    try:
        policy = soft_optimal_policy(model, table)
        result = {
            "nll": nll(policy, trajectories),
            "evd": evd(model, true_reward, policy) if true_reward
            else float("nan"),
            "n_eval_trajectories": len(trajectories),
            "config_fingerprint": _fingerprint({
                "checkpoint": args.checkpoint,
                "trajectories": args.trajectories,
            }),
        }
    except CcpIrlError as exc:
        raise CliError(f"evaluation failed: {exc}", code=EXIT_NUMERIC)
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=2)
    print(f"nll={result['nll']:.4f} evd={result['evd']:.4f} -> {args.out}")


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


def preset_suites():
    """Benchmark suites mirroring the shipped experiment presets."""
    return {
        "table1": BenchSuiteConfig("table1", [
            BenchCell("fixed", 32, beta=0.95),
            BenchCell("fixed", 64, beta=0.95),
            BenchCell("macro", 32, beta=0.95, macro_size=8),
            BenchCell("macro", 32, beta=0.95, macro_size=4),
            BenchCell("macro", 64, beta=0.95, macro_size=8),
        ]),
        "table2-style": BenchSuiteConfig("table2-style", [
            BenchCell("objectworld", 16, beta=0.95, n_colors=2,
                      reward_model="mlp"),
            BenchCell("objectworld", 32, beta=0.95, n_colors=2,
                      reward_model="mlp"),
            BenchCell("objectworld", 16, beta=0.95, n_colors=8,
                      reward_model="mlp"),
        ]),
        "fig4-beta-sweep": BenchSuiteConfig("fig4-beta-sweep", [
            BenchCell("fixed", 32, beta=b) for b in (0.9, 0.95, 0.99)
        ]),
        "fig2-trajectory-sweep": BenchSuiteConfig("fig2-trajectory-sweep", [
            BenchCell("macro", 16, beta=0.9, macro_size=2,
                      n_trajectories=k, seed=s)
            for k in (10, 40, 80) for s in range(3)
        ]),
        "objectworld-evd": BenchSuiteConfig("objectworld-evd", [
            BenchCell("objectworld", 16, beta=0.9, n_colors=2,
                      reward_model="mlp", n_trajectories=k)
            for k in (10, 20, 40)
        ]),
    }


def cmd_bench(args):
    _require(args, "suite", "out")
    presets = preset_suites()
    if args.suite in presets:
        suite = presets[args.suite]
    elif os.path.exists(args.suite):
        try:
            with open(args.suite) as fh:
                data = json.load(fh)
            suite = BenchSuiteConfig(
                name=data.get("name", "custom"),
                cells=[BenchCell(**c) for c in data["cells"]],
                repeats=data.get("repeats", 3),
                warmup=data.get("warmup", True),
            )
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise CliError(f"invalid suite file: {exc}")
    else:
        raise CliError(
            f"unknown suite {args.suite!r}; presets: {sorted(presets)}")
    if args.repeats is not None:
        suite.repeats = args.repeats
    if args.no_warmup:
        suite.warmup = False
    try:
        suite.check()
    except ValueError as exc:
        raise CliError(f"invalid suite: {exc}")
    rows, speedups, errors = [], {}, []
    for cell in suite.cells:
        env = f"{cell.env}-n{cell.n}"
        try:
            shape, scores, speedup = bench_cell(cell, suite.repeats,
                                                suite.warmup)
        except Exception as exc:  # record the failure, keep the suite going
            errors.append({"env": env,
                           "error": f"{type(exc).__name__}: {exc}"})
            continue
        speedups[(env, cell.beta)] = speedup
        for algorithm, (times, cell_nll, cell_evd) in scores.items():
            rows += [f"{algorithm},{env},{shape[0]},{shape[1]},{cell.beta},"
                     f"{cell.iterations},{cell.n_trajectories},{setup:.6g},"
                     f"{total:.6g},{cell_nll:.10g},{cell_evd:.10g},"
                     f"{cell.seed},{repeat}\n"
                     for repeat, (setup, total) in enumerate(times)]
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, f"{suite.name}.csv"), "w") as fh:
        fh.write("algorithm,env,n_states,n_actions,beta,iterations,"
                 "trajectories,setup_s,total_s,nll,evd,seed,repeat\n")
        fh.writelines(rows)
    with open(os.path.join(args.out, f"{suite.name}.config.json"), "w") as fh:
        json.dump({"name": suite.name, "repeats": suite.repeats,
                   "warmup": suite.warmup,
                   "cells": [vars(c) for c in suite.cells],
                   "speedups": sorted(speedups.items(), key=str),
                   "errors": errors}, fh, indent=2, default=str)
    for error in errors:
        print(f"cell {error['env']} failed: {error['error']}", file=sys.stderr)
    print(f"wrote {len(rows)} records to {args.out}")
    if not rows:
        raise CliError("every benchmark cell failed", code=EXIT_NUMERIC)


def bench_cell(cell, repeats, warmup):
    """Time both trainers on one cell's demos: per algorithm an optional
    untimed warm-up, then ``repeats`` timed runs. Returns (states, actions),
    {algorithm: ([(setup_seconds, total_seconds)], NLL, EVD)}, NLL and EVD
    scored as ``eval`` scores the last run's reward, and the speedup, maxent's
    mean total time over ccp's."""
    model, true_reward = envs.build(
        cell.env, cell.n, discount=cell.beta, seed=cell.seed,
        macro_size=cell.macro_size, n_colors=cell.n_colors)
    demos = envs.generate_experts(
        model, true_reward, cell.n_trajectories,
        envs.default_traj_length(cell.env, cell.n), seed=cell.seed)

    def run(trainer):
        reward, optimizer = initial_reward(
            cell.reward_model, model.features.feature_dim, seed=cell.seed)
        return trainer(model, demos, reward, optimizer, cell.iterations)

    scores = {}
    for algorithm, trainer in (("maxent", train_maxent), ("ccp", train_ccp)):
        if warmup:
            run(trainer)
        reports = [run(trainer) for _ in range(repeats)]
        policy = soft_optimal_policy(model, reports[-1].final_rewards)
        scores[algorithm] = (
            [(r.setup_seconds, r.total_seconds) for r in reports],
            nll(policy, demos), evd(model, true_reward, policy))
    speedup = np.mean([total for _, total in scores["maxent"][0]]) \
        / np.mean([total for _, total in scores["ccp"][0]])
    return (model.n_states, model.n_actions), scores, speedup


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _read_config_file(argv):
    """Split --config FILE off the arguments; returns the remaining
    arguments and the file's values, which serve as defaults."""
    if "--config" not in argv:
        return argv, {}
    idx = argv.index("--config")
    try:
        path = argv[idx + 1]
    except IndexError:
        raise CliError("--config requires a path")
    if not os.path.exists(path):
        raise CliError(f"missing config file {path}")
    try:
        with open(path) as fh:
            values = json.load(fh)
        defaults = {k.replace("-", "_"): v for k, v in values.items()
                    if k != "command"}
    except (ValueError, AttributeError) as exc:
        raise CliError(f"invalid config file {path}: {exc}")
    return argv[:idx] + argv[idx + 2:], defaults


def build_parser(defaults=None):
    """The ccpirl parser; ``defaults`` (say, from a config file) override
    every subcommand's defaults, and explicit flags still override them."""
    parser = argparse.ArgumentParser(
        prog="ccpirl",
        description="Inverse reinforcement learning with and without "
                    "per-iteration dynamic programming.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-env", help="build a benchmark environment")
    p.add_argument("--env", choices=["fixed", "macro", "objectworld"])
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--beta", type=float, default=0.9)
    p.add_argument("--wind", type=float, default=0.3)
    p.add_argument("--obstacle-density", type=float, default=0.1)
    p.add_argument("--macro-size", type=int, default=2)
    p.add_argument("--n-colors", type=int, default=2)
    p.add_argument("--n-objects", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_gen_env)

    p = sub.add_parser("gen-experts", help="sample expert demonstrations")
    p.add_argument("--env-dir", default=None)
    p.add_argument("--n-trajectories", type=int, default=None)
    p.add_argument("--traj-length", type=int, default=None)
    p.add_argument("--mode", choices=["soft", "hard-eps"], default="soft")
    p.add_argument("--epsilon", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_gen_experts)

    p = sub.add_parser("estimate-ccp", help="estimate choice probabilities")
    p.add_argument("--env-dir", default=None)
    p.add_argument("--trajectories", default=None)
    p.add_argument("--smoothing", choices=["additive", "uniform-fallback"],
                   default="additive")
    p.add_argument("--alpha", type=float, default=0.01)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_estimate_ccp)

    p = sub.add_parser("train", help="run one of the two IRL trainers")
    p.add_argument("--env-dir", default=None)
    p.add_argument("--trajectories", default=None)
    p.add_argument("--algo", choices=["maxent", "ccp"], default=None)
    p.add_argument("--reward", choices=["linear", "mlp"], default="linear")
    p.add_argument("--iterations", type=int, default=50)
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--hidden", type=int, default=32)
    p.add_argument("--alpha", type=float, default=0.01)
    p.add_argument("--horizon", type=int, default=None)
    p.add_argument("--resume", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="score a checkpoint on held-out data")
    p.add_argument("--env-dir", default=None)
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--trajectories", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("bench", help="run a paired timing suite")
    p.add_argument("--suite", default=None)
    p.add_argument("--repeats", type=int, default=None)
    p.add_argument("--no-warmup", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_bench)
    # subcommands parse into a fresh namespace, so the defaults are set on
    # each subcommand parser
    for p in sub.choices.values():
        p.set_defaults(**(defaults or {}))
    return parser


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        argv, defaults = _read_config_file(argv)
        args = build_parser(defaults).parse_args(argv)
        args.func(args)
        return 0
    except (CliError, InvalidInput) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return getattr(exc, "code", EXIT_CONFIG)
    except CcpIrlError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
