"""Spans around the calls into each ccpirl layer, and the layer metrics
derived from them.

The tracer replaces a public function at the module attribute its callers
resolve (for example ``ccpirl.engine.solve_soft_vi``, the name the trainers
call) with a wrapper that records a span: name, layer, start, end and
parent. Spans are kept in memory and written out when the run ends. A name
that a later version of the package no longer has is recorded as absent; its
layer then reads 0.

Private names (``engine._demo_nll`` and the like) are never wrapped, so the
time they take counts as self time of the public function that calls them.
"""

import contextlib
import functools
import importlib
import json
import os
import time
from dataclasses import dataclass, field

# (module, attribute, layer). One layer may be reached through several names:
# the trainers call softdp through ``ccpirl.engine``, expert sampling through
# ``ccpirl.envs`` and ``ccpirl eval`` through ``ccpirl.softdp`` itself.
TRACED_NAMES = (
    ("ccpirl.envs", "build_fixed_target", "envs.build"),
    ("ccpirl.envs", "build_objectworld", "envs.build"),
    ("ccpirl.envs", "generate_experts", "envs.sample"),
    ("ccpirl.envs", "solve_soft_vi", "softdp.solve"),
    ("ccpirl.envs", "choice_values", "softdp.policy"),
    ("ccpirl.envs", "policy_from_values", "softdp.policy"),
    ("ccpirl.engine", "train_ccp", "engine.train"),
    ("ccpirl.engine", "train_maxent", "engine.train"),
    ("ccpirl.engine", "forward_pass", "engine.forward"),
    ("ccpirl.engine", "estimate_ccp", "ccp.estimate"),
    ("ccpirl.engine", "build_operator", "hotzmiller.build"),
    ("ccpirl.engine", "exante_value", "hotzmiller.solve"),
    ("ccpirl.engine", "solve_soft_vi", "softdp.solve"),
    ("ccpirl.engine", "choice_values", "softdp.policy"),
    ("ccpirl.engine", "policy_from_values", "softdp.policy"),
    ("ccpirl.engine", "mlp_backward", "rewards.backward"),
    ("ccpirl.rewards", "mlp_forward", "rewards.forward"),
    ("ccpirl.softdp", "solve_soft_vi", "softdp.solve"),
    ("ccpirl.softdp", "choice_values", "softdp.policy"),
    ("ccpirl.softdp", "policy_from_values", "softdp.policy"),
    ("ccpirl.metrics", "hard_value_iteration", "metrics.hard_vi"),
    ("ccpirl.metrics", "policy_evaluation", "metrics.policy_eval"),
    ("ccpirl.metrics", "nll", "metrics.nll"),
    ("ccpirl.cli", "cmd_gen_env", "cli.gen_env"),
    ("ccpirl.cli", "cmd_gen_experts", "cli.gen_experts"),
    ("ccpirl.cli", "cmd_train", "cli.train"),
    ("ccpirl.cli", "cmd_eval", "cli.eval"),
    ("ccpirl.cli", "train_ccp", "engine.train"),
    ("ccpirl.cli", "train_maxent", "engine.train"),
    ("ccpirl.cli", "save_model", "model.save"),
    ("ccpirl.cli", "load_model", "model.load"),
    ("ccpirl.cli", "nll", "metrics.nll"),
)


def _sweeps(result, args):
    return {"sweeps": int(result[1])}


def _visited(result, args):
    return {"visited": int((result.support_counts.sum(axis=1) > 0).sum())}


def _demo_steps(result, args):
    return {"steps": int(sum(len(t) for t in result))}


def _file_bytes(result, args):
    return {"bytes": os.path.getsize(args[0])}


# Facts a layer metric needs from a call's result or arguments.
SPAN_INFO = {
    "softdp.solve": _sweeps,
    "ccp.estimate": _visited,
    "envs.sample": _demo_steps,
    "model.save": _file_bytes,
}

# Layers whose call count must equal the delta of an ``instrumentation``
# counter over the traced window: a call site that reaches the function
# through a name not in TRACED_NAMES shows up as a mismatch.
COUNTED_LAYERS = {
    "softdp.solve": "soft_vi_solves",
    "hotzmiller.build": "operator_builds",
    "hotzmiller.solve": "exante_evals",
}


@dataclass
class Span:
    id: int
    name: str
    layer: str
    start: float
    parent: int = None
    end: float = None
    info: dict = field(default_factory=dict)

    @property
    def seconds(self):
        return self.end - self.start


class Tracer:
    """Records spans while ``active``; wrappers are transparent otherwise."""

    def __init__(self):
        self.spans = []
        self.active = False
        self.installed = False
        self.absent = []
        self._stack = []
        self._installed = []

    def install(self, names=TRACED_NAMES):
        self.installed = True
        for module_name, attr, layer in names:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self._wrap(fn, f"{module_name}.{attr}", layer))
            self._installed.append((module, attr, fn))

    def uninstall(self):
        for module, attr, fn in reversed(self._installed):
            setattr(module, attr, fn)
        self._installed.clear()
        self.installed = False

    def _wrap(self, fn, name, layer):
        info = SPAN_INFO.get(layer)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            with self.span(name, layer) as span:
                result = fn(*args, **kwargs)
                if info is not None:
                    span.info.update(info(result, args))
            return result

        return traced

    @contextlib.contextmanager
    def span(self, name, layer):
        """A span around the body, or nothing while the tracer is inactive."""
        if not self.active:
            yield Span(-1, name, layer, 0.0)
            return
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, layer, time.perf_counter(), parent)
        self.spans.append(span)
        self._stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def write(self, path):
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.id, "parent": s.parent, "name": s.name,
                    "layer": s.layer, "start": s.start, "end": s.end, **s.info,
                }) + "\n")


def self_seconds(spans):
    """Per span id: its duration minus the time its direct children cover.

    Spans come from one thread and nest properly, so direct children never
    overlap and their durations simply add up.
    """
    child = {}
    for s in spans:
        if s.parent is not None:
            child[s.parent] = child.get(s.parent, 0.0) + s.seconds
    return {s.id: s.seconds - child.get(s.id, 0.0) for s in spans}


def layer_counts(spans):
    counts = {}
    for s in spans:
        counts[s.layer] = counts.get(s.layer, 0) + 1
    return counts


def layer_metrics(spans, startup_seconds=0.0):
    """The per-layer metrics of BENCHMARK.json, from one run's spans.

    Times are inclusive of child spans except ``engine.train_self_s``, which
    is the trainers' own time outside every traced call: reward table, NLL,
    gradient and optimizer step. Layers a workload never calls read 0.
    """
    def total(layer):
        return sum(s.seconds for s in spans if s.layer == layer)

    def info_sum(layer, key):
        return sum(s.info.get(key, 0) for s in spans if s.layer == layer)

    def info_last(layer, key):
        values = [s.info[key] for s in spans if s.layer == layer and key in s.info]
        return values[-1] if values else 0

    counts = layer_counts(spans)
    own = self_seconds(spans)
    return {
        "envs.build_s": (total("envs.build"), "s"),
        "envs.sample_s": (total("envs.sample"), "s"),
        "envs.demo_steps": (info_sum("envs.sample", "steps"), "count"),
        "model.save_s": (total("model.save"), "s"),
        "model.load_s": (total("model.load"), "s"),
        "model.load_calls": (counts.get("model.load", 0), "count"),
        "model.file_bytes": (info_last("model.save", "bytes"), "bytes"),
        "ccp.estimate_s": (total("ccp.estimate"), "s"),
        "ccp.visited_states": (info_last("ccp.estimate", "visited"), "count"),
        "hotzmiller.build_s": (total("hotzmiller.build"), "s"),
        "hotzmiller.solve_s": (total("hotzmiller.solve"), "s"),
        "hotzmiller.solve_calls": (counts.get("hotzmiller.solve", 0), "count"),
        "softdp.solve_s": (total("softdp.solve"), "s"),
        "softdp.solve_calls": (counts.get("softdp.solve", 0), "count"),
        "softdp.sweeps": (info_sum("softdp.solve", "sweeps"), "count"),
        "softdp.policy_s": (total("softdp.policy"), "s"),
        "engine.forward_s": (total("engine.forward"), "s"),
        "engine.forward_calls": (counts.get("engine.forward", 0), "count"),
        "engine.train_self_s": (sum(own[s.id] for s in spans
                                    if s.layer == "engine.train"), "s"),
        "rewards.forward_s": (total("rewards.forward"), "s"),
        "rewards.backward_s": (total("rewards.backward"), "s"),
        "metrics.hard_vi_s": (total("metrics.hard_vi"), "s"),
        "metrics.policy_eval_s": (total("metrics.policy_eval"), "s"),
        "metrics.nll_s": (total("metrics.nll"), "s"),
        "cli.startup_s": (startup_seconds, "s"),
        "cli.gen_env_s": (total("cli.gen_env"), "s"),
        "cli.gen_experts_s": (total("cli.gen_experts"), "s"),
        "cli.train_s": (total("cli.train"), "s"),
        "cli.eval_s": (total("cli.eval"), "s"),
    }
