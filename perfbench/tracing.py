"""Span tracing around the calls into each cookworld layer.

Spans are recorded by wrappers installed over the names callers bind (a
module global such as ``cookworld.training.loop.step``, or a class
attribute such as ``PolicyNet.q_values``), so the program under ``src/`` is
measured as it stands. Each span keeps its name, start, end and parent; the
spans live in flat in-memory arrays and are reduced to per-layer metrics
when the run ends.
"""

from __future__ import annotations

import importlib
from array import array
from time import perf_counter

import numpy as np

LAYERS = ("engine", "kg", "goals", "rl", "neural", "training")

# (module, attribute, span name): module-level names as their callers bind them
FUNCTION_SITES = (
    ("cookworld.engine.state", "observation", "engine.observation"),
    ("cookworld.engine.state", "admissible_actions", "engine.admissible_actions"),
    ("cookworld.training.loop", "reset", "engine.reset"),
    ("cookworld.training.loop", "step", "engine.step"),
    ("cookworld.training.loop", "admissible_actions", "engine.admissible_actions"),
    ("cookworld.training.agents", "reset", "engine.reset"),
    ("cookworld.training.agents", "step", "engine.step"),
    ("cookworld.training.agents", "admissible_actions", "engine.admissible_actions"),
    ("cookworld.training.gamesets", "generate_game", "engine.generate_game"),
    ("cookworld.rl.dqn", "canonical_hash", "kg.canonical_hash"),
    ("cookworld.rl.counts", "canonical_hash", "kg.canonical_hash"),
    ("cookworld.neural.nets", "canonical_hash", "kg.canonical_hash"),
    ("cookworld.training.loop", "generate_goal_set", "goals.generate_goal_set"),
    ("cookworld.training.loop", "goal_reward", "goals.goal_reward"),
    ("cookworld.training.loop", "goal_terminated", "goals.goal_terminated"),
    ("cookworld.training.agents", "generate_goal_set", "goals.generate_goal_set"),
    ("cookworld.training.agents", "goal_terminated", "goals.goal_terminated"),
    ("cookworld.rl.dqn", "apply_update", "neural.optim.apply_update"),
    ("cookworld.training.loop", "save_checkpoint", "neural.nets.save_checkpoint"),
    ("cookworld.neural.nets", "save_checkpoint", "neural.nets.save_checkpoint"),
    ("cookworld.training.loop", "load_checkpoint", "neural.nets.load_checkpoint"),
    ("cookworld.neural.nets", "load_checkpoint", "neural.nets.load_checkpoint"),
    ("cookworld.training.gamesets", "load_game_dir", "training.load_game_dir"),
    ("cookworld.training.agents", "rollout", "training.rollout"),
)

# (module, class, method, span name)
METHOD_SITES = (
    ("cookworld.kg", "KGObservation", "__init__", "kg.KGObservation"),
    ("cookworld.rl.counts", "VisitCounter", "record_visit", "rl.counts.record_visit"),
    ("cookworld.rl.replay", "PrioritizedBuffer", "push", "rl.replay.push"),
    ("cookworld.rl.replay", "PrioritizedBuffer", "sample", "rl.replay.sample"),
    ("cookworld.rl.replay", "PrioritizedBuffer", "update_priorities", "rl.replay.update_priorities"),
    ("cookworld.neural.nets", "PolicyNet", "q_values", "neural.nets.q_values"),
    ("cookworld.neural.nets", "PolicyNet", "graph_vector", "neural.nets.graph_vector"),
    ("cookworld.neural.nets", "PolicyNet", "text_vector", "neural.nets.text_vector"),
    ("cookworld.neural.nets", "PolicyNet", "graph_tensor", "neural.nets.graph_tensor"),
    ("cookworld.neural.nets", "PolicyNet", "text_tensor", "neural.nets.text_tensor"),
    ("cookworld.neural.nets", "PolicyNet", "score_tensor", "neural.nets.score_tensor"),
    ("cookworld.neural.autodiff", "Tensor", "backward", "neural.autodiff.backward"),
    ("cookworld.training.loop", "Trainer", "run_episode", "training.run_episode"),
    ("cookworld.training.loop", "Trainer", "validate", "training.validate"),
)

# spans recorded before the timed phase belong to set-up; these metrics
# describe set-up, so they read every span, not only the timed ones
SETUP_SPANS = ("engine.generate_game", "training.load_game_dir", "neural.nets.load_checkpoint")


class Tracer:
    """In-memory span recorder. One per process; install() patches cookworld."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.stack: list[int] = []
        self.tensors = [0]  # Tensor constructions so far
        self.update_tensors: list[int] = []  # Tensor constructions per td_update
        self.flushes: list[tuple[bool, bool]] = []  # (cache non-empty, accepted)

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        nid = self._id(name)
        name_id, start, end, parent, stack = self.name_id, self.start, self.end, self.parent, self.stack

        def traced(*args, **kwargs):
            idx = len(start)
            parent.append(stack[-1] if stack else -1)
            name_id.append(nid)
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()

        return traced

    def install(self) -> None:
        # import every module before patching any, so that no module binds a
        # name that is already wrapped and gets wrapped a second time
        for module_name in {site[0] for site in FUNCTION_SITES + METHOD_SITES}:
            importlib.import_module(module_name)
        for module_name, attr, name in FUNCTION_SITES:
            module = importlib.import_module(module_name)
            setattr(module, attr, self.wrap(name, getattr(module, attr)))
        for module_name, cls_name, attr, name in METHOD_SITES:
            cls = getattr(importlib.import_module(module_name), cls_name)
            setattr(cls, attr, self.wrap(name, getattr(cls, attr)))

        loop = importlib.import_module("cookworld.training.loop")
        autodiff = importlib.import_module("cookworld.neural.autodiff")

        tensors = self.tensors
        tensor_init = autodiff.Tensor.__init__

        def counted_init(self_, *args, **kwargs):
            tensors[0] += 1
            tensor_init(self_, *args, **kwargs)

        autodiff.Tensor.__init__ = counted_init

        td_update = self.wrap("rl.dqn.td_update", loop.td_update)
        update_tensors = self.update_tensors

        def counted_td_update(*args, **kwargs):
            before = tensors[0]
            try:
                return td_update(*args, **kwargs)
            finally:
                update_tensors.append(tensors[0] - before)

        loop.td_update = counted_td_update

        gated_flush = self.wrap("rl.replay.gated_flush", loop.gated_flush)
        flushes = self.flushes

        def recorded_flush(buffer, cache, *args, **kwargs):
            nonempty = bool(cache)
            accepted = gated_flush(buffer, cache, *args, **kwargs)
            flushes.append((nonempty, bool(accepted)))
            return accepted

        loop.gated_flush = recorded_flush

    # -- reduction --------------------------------------------------------------

    def layer_metrics(self, timed_start: float, timed_end: float, replay_size_end: int) -> dict:
        """Reduce the spans to the per-layer metrics named in BENCHMARK.json."""
        n = len(self.start)
        start = np.frombuffer(self.start, dtype=np.float64, count=n)
        end = np.frombuffer(self.end, dtype=np.float64, count=n)
        parent = np.frombuffer(self.parent, dtype=np.int32, count=n).astype(np.intp)
        name_id = np.frombuffer(self.name_id, dtype=np.uint16, count=n).astype(np.intp)
        dur = end - start
        has_parent = parent >= 0
        child = np.zeros(n)
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_time = dur - child
        timed = start >= timed_start
        ids = {name: i for i, name in enumerate(self.names)}
        missing = len(self.names)
        parent_name = np.where(has_parent, name_id[np.maximum(parent, 0)], missing)

        def mask(name: str, scope=None) -> np.ndarray:
            m = name_id == ids.get(name, missing)
            return m if scope is None else m & scope

        def sel(name: str) -> np.ndarray:
            return mask(name, None if name in SETUP_SPANS else timed)

        def pct(values: np.ndarray, q: float, scale: float) -> float:
            return float(np.percentile(values, q)) * scale if len(values) else 0.0

        out: dict[str, float] = {}

        def calls_and_p50(name: str, unit: str) -> None:
            m = sel(name)
            out[f"{name}.calls"] = int(m.sum())
            out[f"{name}.{unit}_p50"] = pct(dur[m], 50, 1e6 if unit == "us" else 1e3)

        # learner
        upd = sel("rl.dqn.td_update")
        upd_idx = np.flatnonzero(upd)
        out["rl.dqn.td_update.calls"] = int(upd.sum())
        out["rl.dqn.td_update.ms_p50"] = pct(dur[upd], 50, 1e3)
        out["rl.dqn.td_update.ms_p90"] = pct(dur[upd], 90, 1e3)
        out["rl.dqn.td_update.self_s"] = float(self_time[upd].sum())

        def per_update(names: tuple[str, ...], values: np.ndarray) -> np.ndarray:
            """Per td_update span, sum of `values` over its direct children named `names`."""
            slot = np.full(n, -1, dtype=np.intp)
            slot[upd_idx] = np.arange(len(upd_idx))
            kids = has_parent & np.isin(name_id, [ids.get(x, missing) for x in names])
            kids &= slot[np.maximum(parent, 0)] >= 0
            totals = np.zeros(len(upd_idx))
            np.add.at(totals, slot[parent[kids]], values[kids])
            return totals

        taped = ("neural.nets.graph_tensor", "neural.nets.text_tensor", "neural.nets.score_tensor")
        out["rl.dqn.target_pass.ms_p50"] = pct(per_update(("neural.nets.q_values",), dur), 50, 1e3)
        out["rl.dqn.taped_forward.ms_p50"] = pct(per_update(taped, dur), 50, 1e3)
        ones = np.ones(n)
        graphs = per_update(("neural.nets.graph_tensor",), ones)
        texts = per_update(("neural.nets.text_tensor",), ones)
        out["rl.dqn.graphs_per_update"] = float(graphs.mean()) if len(graphs) else 0.0
        out["rl.dqn.texts_per_update"] = float(texts.mean()) if len(texts) else 0.0
        out["neural.autodiff.backward.ms_p50"] = pct(dur[sel("neural.autodiff.backward")], 50, 1e3)
        per_update_tensors = self.update_tensors
        out["neural.autodiff.tensors_per_update"] = (
            float(np.mean(per_update_tensors)) if per_update_tensors else 0.0
        )
        out["neural.optim.apply_update.ms_p50"] = pct(dur[sel("neural.optim.apply_update")], 50, 1e3)

        # environment side
        for name in ("engine.reset", "engine.step", "engine.admissible_actions", "engine.observation"):
            calls_and_p50(name, "us")
        out["engine.step.self_s"] = float(self_time[sel("engine.step")].sum())
        steps = out["engine.step.calls"]
        out["engine.admissible_actions.per_step"] = (
            out["engine.admissible_actions.calls"] / steps if steps else 0.0
        )
        for name in ("kg.canonical_hash", "kg.KGObservation", "goals.generate_goal_set", "goals.goal_reward"):
            calls_and_p50(name, "us")
        out["goals.goal_terminated.calls"] = int(sel("goals.goal_terminated").sum())

        # replay and counts
        calls_and_p50("rl.counts.record_visit", "us")
        out["rl.replay.push.calls"] = int(sel("rl.replay.push").sum())
        calls_and_p50("rl.replay.gated_flush", "us")
        nonempty = sum(1 for ne, _ in self.flushes if ne)
        accepted = sum(1 for ne, acc in self.flushes if ne and acc)
        out["rl.replay.gate_accept_ratio"] = accepted / nonempty if nonempty else 0.0
        out["rl.replay.size_end"] = int(replay_size_end)
        out["rl.replay.sample.ms_p50"] = pct(dur[sel("rl.replay.sample")], 50, 1e3)
        out["rl.replay.update_priorities.ms_p50"] = pct(dur[sel("rl.replay.update_priorities")], 50, 1e3)

        # inference and its caches
        td_id = ids.get("rl.dqn.td_update", missing)
        acting = sel("neural.nets.q_values") & (parent_name != td_id)
        out["neural.nets.q_values.calls"] = int(acting.sum())
        out["neural.nets.q_values.us_p50"] = pct(dur[acting], 50, 1e6)
        for vec, tensor in (("graph_vector", "graph_tensor"), ("text_vector", "text_tensor")):
            lookups = sel(f"neural.nets.{vec}")
            misses = sel(f"neural.nets.{tensor}") & (parent_name == ids.get(f"neural.nets.{vec}", missing))
            total = int(lookups.sum())
            out[f"neural.nets.{vec}.hit_ratio"] = 1.0 - int(misses.sum()) / total if total else 0.0
        no_grad = sel("neural.nets.graph_tensor") & (
            parent_name == ids.get("neural.nets.graph_vector", missing)
        )
        out["neural.nets.graph_tensor.calls"] = int(no_grad.sum())
        out["neural.nets.graph_tensor.us_p50"] = pct(dur[no_grad], 50, 1e6)

        # loop glue, validation and checkpoints
        calls_and_p50("training.validate", "ms")
        out["neural.nets.save_checkpoint.ms_p50"] = pct(dur[sel("neural.nets.save_checkpoint")], 50, 1e3)
        out["training.run_episode.self_s"] = float(self_time[sel("training.run_episode")].sum())

        # set-up
        calls_and_p50("engine.generate_game", "ms")
        out["training.load_game_dir.ms"] = float(dur[sel("training.load_game_dir")].sum()) * 1e3
        out["neural.nets.load_checkpoint.ms_p50"] = pct(dur[sel("neural.nets.load_checkpoint")], 50, 1e3)

        # self time per layer over the timed phase
        wall = timed_end - timed_start
        layer_of = np.array([LAYERS.index(name.split(".")[0]) for name in self.names] or [0], dtype=np.intp)
        per_layer = np.zeros(len(LAYERS))
        if n:
            np.add.at(per_layer, layer_of[name_id[timed]], self_time[timed])
        for i, layer in enumerate(LAYERS):
            out[f"{layer}.share"] = float(per_layer[i] / wall) if wall > 0 else 0.0
        return out
