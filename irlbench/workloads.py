"""The workloads: make the inputs from the seed, time both trainers, score
each learned reward and check the outputs.

The benchmark calls the trainers itself instead of going through
``metrics.run_benchmark`` or ``ccpirl bench``: those record a failed cell
and carry on, and time with means of repeats. Here every operation is
counted as attempted or failed, times are medians, and the outputs are
checked.
"""

import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

import numpy as np

from ccpirl import cli, engine, envs, hotzmiller, metrics, softdp
from ccpirl.errors import CcpIrlError
from ccpirl.instrumentation import counters
from ccpirl.model import CCPTable, load_trajectories
from ccpirl.rewards import GradientAscent, LinearReward, broadcast_rewards

import checks
from spans import COUNTED_LAYERS, Tracer, layer_counts, layer_metrics

# The environment layout and the network initialisation are part of a
# workload's definition; the run's seed draws the expert demonstrations.
ENV_SEED = 0
MLP_SEED = 0
MLP_HIDDEN = 32
# Tolerances of the reference solves made by the checks.
REFERENCE_VI_TOL = 1e-10
HARD_VI_TOL = 1e-8
CLI_TIMEOUT_S = 150


@dataclass(frozen=True)
class Problem:
    """A windy fixed-target grid and how both trainers learn on it."""
    n: int
    beta: float
    n_demos: int
    demo_length: int
    iterations: int
    step_size: float


# The paper's Table-1 cell. Step 0.1 brings the gradient to ~1e-5 by
# iteration 30, so NLL and EVD are read at convergence. The in-process
# round trains the linear reward with gradient ascent.
FIXED32 = Problem(32, 0.95, n_demos=64, demo_length=128, iterations=30,
                  step_size=0.1)
# A ccp training and a scoring take a few seconds, against 20 s for the
# maxent training, so the in-process round makes this many of each and
# reports their medians.
SCORINGS = 3
# The command line trains the two-layer relu reward with Adam, so that the
# ``rewards`` layer is measured.
CLI_ITERATIONS = 5
CLI_STEP = 0.01
# Times of the shorter runs vary with the load on a shared machine, so the
# command-line round runs its four commands this many times.
CLI_REPEATS = 2

WORKLOADS = ("fixed32-b95", "cli-fixed32")


def build_problem(problem):
    return envs.build_fixed_target(
        envs.GridSpec(n=problem.n, seed=ENV_SEED), discount=problem.beta)


def soft_optimal_policy(model, rewards):
    """The policy ``ccpirl eval`` scores: soft VI on the reward, then the
    softmax of the choice values."""
    vbar, _ = softdp.solve_soft_vi(model, rewards)
    return softdp.policy_from_values(softdp.choice_values(model, rewards, vbar))


@dataclass
class Scored:
    policy: object
    evd: float
    nll: float


def score(model, true_reward, demos, rewards):
    policy = soft_optimal_policy(model, rewards)
    return Scored(policy, metrics.evd(model, true_reward, policy),
                  metrics.nll(policy, demos))


class Run:
    """What one benchmark process measures, counts and checks."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.times = {"ccp_train_s": [], "maxent_train_s": [], "eval_s": []}
        self.setup_s = None
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.checks = []
        self.scores = {}
        self.info = {}

    def op(self, name, fn):
        """Attempt one operation; returns (result, seconds), or (None, None)
        if it failed with a package error."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            with self.tracer.span(f"bench.{name}", "bench"):
                result = fn()
        except CcpIrlError as exc:
            self.failed += 1
            self.errors.append(f"{name}: {type(exc).__name__}: {exc}")
            return None, None
        return result, time.perf_counter() - t0

    def skip(self, name):
        """An operation that cannot run because the one it needs failed."""
        self.attempted += 1
        self.failed += 1
        self.errors.append(f"{name}: not run, its input failed")

    def check(self, result):
        self.checks.append(result)


@contextlib.contextmanager
def traced_window(run):
    """Record spans inside the block and compare their counts with the
    package's own call counters over the same window."""
    before = counters.snapshot()
    first_span = len(run.tracer.spans)
    run.tracer.active = run.tracer.installed
    try:
        yield
    finally:
        active, run.tracer.active = run.tracer.active, False
    if active:
        after = counters.snapshot()
        delta = {k: after[k] - before[k] for k in after}
        run.check(checks.spans_match_counters(
            "spans-match-counters",
            layer_counts(run.tracer.spans[first_span:]), delta,
            COUNTED_LAYERS))


def rounds(run, seconds, one_round):
    """Whole rounds until ``seconds`` have passed; the first is traced."""
    start = time.perf_counter()
    index = 0
    while True:
        if index == 0:
            with traced_window(run):
                one_round()
        else:
            one_round()
        index += 1
        if time.perf_counter() - start >= seconds:
            return index


# ---------------------------------------------------------------------------
# In-process workload
# ---------------------------------------------------------------------------


def train(run, problem, model, demos, algo):
    """One training from a fresh reward; its report, or None if it failed."""
    trainer = engine.train_ccp if algo == "ccp" else engine.train_maxent
    reward = LinearReward(np.zeros(model.features.feature_dim))
    optimizer = GradientAscent(problem.step_size)
    before = counters.snapshot()
    report, seconds = run.op(f"{algo}_train", lambda: trainer(
        model, demos, reward, optimizer, problem.iterations))
    if report is not None:
        after = counters.snapshot()
        run.times[f"{algo}_train_s"].append(seconds)
        run.check(checks.cost_model(
            f"{algo}-cost-model", {k: after[k] - before[k] for k in after},
            soft_vi_solves=0 if algo == "ccp" else problem.iterations,
            operator_builds=1 if algo == "ccp" else 0))
        run.check(checks.policy_rows(f"{algo}-trainer-policy-rows",
                                     report.final_policy.probs))
    return report


def score_both(run, model, true_reward, demos, reports):
    """Score both learned rewards; one eval_s sample if both succeeded."""
    seconds = []
    for algo in ("ccp", "maxent"):
        if reports[algo] is None:
            run.skip(f"{algo}_eval")
            continue
        scored, t = run.op(f"{algo}_eval", lambda: score(
            model, true_reward, demos, reports[algo].final_rewards))
        if scored is not None:
            run.scores[algo] = scored
            seconds.append(t)
    if len(seconds) == 2:
        run.times["eval_s"].append(sum(seconds))


def train_and_score(run, problem, model, true_reward, demos):
    """One round: ``SCORINGS`` ccp trainings and scorings, with the one
    maxent training after the first ccp training, so that the ccp and eval
    samples spread over the whole round."""
    reports = {}
    for i in range(SCORINGS):
        reports["ccp"] = train(run, problem, model, demos, "ccp")
        if i == 0:
            reports["maxent"] = train(run, problem, model, demos, "maxent")
        score_both(run, model, true_reward, demos, reports)


def check_method(run, model, true_reward):
    """Properties of the method on the workload's true reward; returns the
    uniform policy's EVD."""
    r = broadcast_rewards(true_reward.values, model.n_actions)
    vbar, _ = softdp.solve_soft_vi(
        model, r, softdp.SoftDpConfig(tolerance=REFERENCE_VI_TOL,
                                      max_sweeps=1_000_000))
    exact = softdp.policy_from_values(softdp.choice_values(model, r, vbar))
    table = CCPTable(exact.probs, np.zeros(exact.probs.shape, dtype=np.int64))
    op = hotzmiller.build_operator(model, table)
    run.check(checks.hotz_miller_identity(
        "hotz-miller-identity", hotzmiller.exante_value(op, r).values,
        vbar.values))

    v_opt, greedy = metrics.hard_value_iteration(model, true_reward,
                                                 tolerance=HARD_VI_TOL)
    run.check(checks.hard_vi_consistent(
        "hard-vi-greedy-value", v_opt,
        metrics.policy_evaluation(model, true_reward, greedy),
        HARD_VI_TOL, model.discount))

    def evd_of(policy):
        v = metrics.policy_evaluation(model, true_reward, policy)
        return float(model.initial_dist @ (v_opt - v))

    run.info["expert_evd"] = evd_of(exact)
    return evd_of(metrics.uniform_policy(model.n_states, model.n_actions))


def check_scores(run, model, true_reward, demos):
    """Checks on the learned policies, their EVD and NLL."""
    uniform = check_method(run, model, true_reward)
    mean_length = float(np.mean([len(t) for t in demos]))
    horizon = engine.default_horizon(demos)
    slack = HARD_VI_TOL / (1.0 - model.discount)
    for algo, s in run.scores.items():
        run.check(checks.policy_rows(f"{algo}-policy-rows", s.policy.probs))
        vis = engine.forward_pass(model, s.policy, horizon)
        run.check(checks.forward_mass(
            f"{algo}-forward-mass", [layer.sum() for layer in vis.per_step],
            conserving=not model.goal_states))
        run.check(checks.evd_range(f"{algo}-evd-range", s.evd, uniform, slack))
        run.check(checks.nll_below_uniform(f"{algo}-nll-below-uniform", s.nll,
                                           mean_length, model.n_actions))
    run.info.update(uniform_evd=uniform, uniform_nll=checks.uniform_nll(
        mean_length, model.n_actions), mean_demo_length=mean_length)
    if "ccp" in run.scores and "maxent" in run.scores:
        run.check(checks.parity("parity", run.scores["ccp"].evd,
                                run.scores["maxent"].evd, uniform))


def run_in_process(run, problem, seed, seconds, process_start):
    with traced_window(run):
        with run.tracer.span("bench.setup", "bench"):
            model, true_reward = build_problem(problem)
            demos = envs.generate_experts(model, true_reward, problem.n_demos,
                                          problem.demo_length, seed=seed)
    run.setup_s = time.perf_counter() - process_start
    run.info["rounds"] = rounds(run, seconds, lambda: train_and_score(
        run, problem, model, true_reward, demos))
    run.info["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    check_scores(run, model, true_reward, demos)


# ---------------------------------------------------------------------------
# Command-line workload
# ---------------------------------------------------------------------------


class CliDriver:
    """Runs ``ccpirl`` commands: as child processes when untraced, through
    ``ccpirl.cli.main`` in-process when traced, so that model save and load
    get spans."""

    def __init__(self, run):
        self.run = run

    def __call__(self, name, argv):
        def command():
            if self.run.tracer.installed:
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main(argv)
            else:
                code = subprocess.run(
                    [sys.executable, "-m", "ccpirl.cli", *argv],
                    stdout=subprocess.PIPE,
                    stderr=subprocess.PIPE, timeout=CLI_TIMEOUT_S).returncode
            if code != 0:
                raise CcpIrlError(f"ccpirl {argv[0]} exited with code {code}")

        _, seconds = self.run.op(name, command)
        return seconds


def startup_seconds():
    """Interpreter start-up plus ``import ccpirl.cli`` in a child process."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import ccpirl.cli"], check=True,
                   timeout=CLI_TIMEOUT_S)
    return time.perf_counter() - t0


def run_cli(run, seed, seconds, process_start, out_dir):
    problem = FIXED32
    work = tempfile.mkdtemp(prefix="cli-work-", dir=out_dir)
    try:
        ccpirl = CliDriver(run)
        env_dir = os.path.join(work, "env")
        demo_path = os.path.join(work, "demos.json")
        with traced_window(run):
            with run.tracer.span("bench.setup", "bench"):
                ccpirl("gen_env", [
                    "gen-env", "--env", "fixed", "--n", str(problem.n),
                    "--beta", str(problem.beta), "--seed", str(ENV_SEED),
                    "--out", env_dir])
                ccpirl("gen_experts", [
                    "gen-experts", "--env-dir", env_dir,
                    "--n-trajectories", str(problem.n_demos),
                    "--traj-length", str(problem.demo_length),
                    "--seed", str(seed), "--out", demo_path])
        run.setup_s = time.perf_counter() - process_start
        if run.tracer.installed:
            run.info["startup_s"] = startup_seconds()

        def commands():
            for algo in ("ccp", "maxent"):
                t = ccpirl(f"{algo}_train", [
                    "train", "--env-dir", env_dir, "--trajectories", demo_path,
                    "--algo", algo, "--iterations", str(CLI_ITERATIONS),
                    "--reward", "mlp", "--hidden", str(MLP_HIDDEN),
                    "--lr", str(CLI_STEP), "--seed", str(MLP_SEED),
                    "--out", os.path.join(work, algo)])
                if t is not None:
                    run.times[f"{algo}_train_s"].append(t)
            seconds = []
            for algo in ("ccp", "maxent"):
                t = ccpirl(f"{algo}_eval", [
                    "eval", "--env-dir", env_dir, "--checkpoint",
                    os.path.join(work, algo, "checkpoint.json"),
                    "--trajectories", demo_path,
                    "--out", os.path.join(work, f"{algo}-eval.json")])
                if t is not None:
                    seconds.append(t)
            if len(seconds) == 2:  # an eval_s sample only if both succeeded
                run.times["eval_s"].append(sum(seconds))

        def one_round():
            for _ in range(CLI_REPEATS):
                commands()

        run.info["rounds"] = rounds(run, seconds, one_round)
        # the largest child; a traced run has no children doing the work
        who = resource.RUSAGE_SELF if run.tracer.installed \
            else resource.RUSAGE_CHILDREN
        run.info["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024.0
        check_cli_outputs(run, problem, work, demo_path)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def check_cli_outputs(run, problem, work, demo_path):
    """Score each checkpoint again in-process, on an environment built
    without the command line, and compare with what ``eval`` wrote."""
    model, true_reward = build_problem(problem)
    demos = load_trajectories(demo_path)
    for algo in ("ccp", "maxent"):
        eval_path = os.path.join(work, f"{algo}-eval.json")
        if not os.path.exists(eval_path):
            continue
        with open(eval_path) as fh:
            written = json.load(fh)
        reward, _, _, _ = engine.load_checkpoint(
            os.path.join(work, algo, "checkpoint.json"))
        rewards = broadcast_rewards(reward.state_rewards(model.features),
                                    model.n_actions)
        s = score(model, true_reward, demos, rewards)
        run.check(checks.same_value(f"{algo}-cli-evd", written["evd"], s.evd,
                                    checks.CLI_RTOL))
        run.check(checks.same_value(f"{algo}-cli-nll", written["nll"], s.nll,
                                    checks.CLI_RTOL))
        run.scores[algo] = Scored(s.policy, written["evd"], written["nll"])
    check_scores(run, model, true_reward, demos)


# ---------------------------------------------------------------------------
# Entry
# ---------------------------------------------------------------------------


def end_to_end_metrics(run):
    missing = [k for k, v in run.times.items() if not v]
    missing += [f"{a}_evd" for a in ("ccp", "maxent") if a not in run.scores]
    if missing:
        raise RuntimeError(f"no successful measurement of {missing}; "
                           f"errors: {run.errors}")
    out = {"setup_s": (run.setup_s, "s")}
    for key, values in run.times.items():
        out[key] = (statistics.median(values), "s")
    for algo in ("ccp", "maxent"):
        out[f"{algo}_evd"] = (run.scores[algo].evd, "reward")
        out[f"{algo}_nll"] = (run.scores[algo].nll, "nats/trajectory")
    out["peak_rss_mb"] = (run.info["peak_rss_mb"], "MB")
    return out


def run_workload(name, seed, seconds, trace, process_start, out_dir):
    """Run one workload; returns (summary line, full record, tracer)."""
    tracer = Tracer()
    if trace:
        tracer.install()
    run = Run(tracer)
    try:
        if name == "cli-fixed32":
            run_cli(run, seed, seconds, process_start, out_dir)
        else:
            run_in_process(run, FIXED32, seed, seconds, process_start)
    finally:
        tracer.uninstall()

    e2e = end_to_end_metrics(run)
    if trace:
        reported = layer_metrics(tracer.spans, run.info.get("startup_s", 0.0))
    else:
        reported = e2e
    summary = {
        "correct": all(c.ok for c in run.checks),
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in reported.items()},
    }
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "end_to_end": {k: v for k, (v, _) in e2e.items()},
        "samples": run.times,
        "checks": [c.to_json() for c in run.checks],
        "errors": run.errors,
        "absent_names": tracer.absent,
        **run.info,
    }
    return summary, record, tracer
