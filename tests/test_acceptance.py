"""Acceptance criteria, one test per criterion, one PASS/FAIL line each.

The one training criterion, byte-identical metrics across two runs, carries
pytest's `slow` marker; everything else runs in seconds. Criterion names
mirror the project contract.
"""

import ast
import json
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import stats as scipy_stats

from cookworld.engine.generate import generate_game
from cookworld.engine.spec import load_game
from cookworld.engine.state import admissible_actions, observation, reset, step
from cookworld.engine.trace import load_trace, record_trace, replay_trace
from cookworld.engine.walkthrough import walkthrough
from cookworld.goals import Goal, generate_goal_set, goal_reward
from cookworld.kg import KGObservation, Triplet, canonical_hash
from cookworld.neural import autodiff as ad
from cookworld.neural.nets import PolicyNet
from cookworld.rl.counts import VisitCounter, accumulate_meta_reward, bebold_reward, compose_sub_reward
from cookworld.rl.replay import PrioritizedBuffer, gated_flush
from cookworld.training.scheduler import softmax_probabilities

FIXTURES = Path(__file__).parent / "fixtures"

TABLE_STATS = {
    # level: (#triplets, rooms, #ings, reqs-per-ing, #acts, max score)
    "S1": (21.44, 1, 1, 1, 11.54, 4),
    "S2": (21.50, 1, 1, 2, 11.81, 5),
    "S3": (46.09, 9, 1, 0, 7.25, 3),
    "S4": (54.54, 6, 3, 2, 28.38, 11),
    "US1": (19.85, 1, 1, 0, 7.98, 3),
    "US2": (20.74, 1, 1, 1, 8.87, 4),
    "US3": (33.04, 6, 1, 0, 7.61, 3),
    "US4": (47.31, 6, 3, 0, 13.90, 5),
}


def report(name: str, ok: bool, detail: str = "") -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"{name}: {detail}"


# -- 1. golden traces ---------------------------------------------------------

def test_criterion_golden_traces():
    started = time.perf_counter()
    results = []
    for name, steps, score in (("s1_game1", 8, 4), ("s4_game1", 21, 11)):
        spec = load_game(FIXTURES / f"{name}.spec.json")
        trace = load_trace(FIXTURES / f"{name}.trace.json")
        action_steps = [s for s in trace if s.action is not None]
        res = replay_trace(spec, trace, strict=True)
        results.append(
            res.ok and len(action_steps) == steps and action_steps[-1].score == score
        )
        if not res.ok:
            report("golden-traces", False, res.divergence or name)
    elapsed = time.perf_counter() - started
    report(
        "golden-traces",
        all(results) and elapsed < 1.0,
        f"(both fixtures strict, {elapsed:.2f}s)",
    )


# -- 2. generator statistics ---------------------------------------------------

def test_criterion_table_structure():
    started = time.perf_counter()
    for level, (t_tgt, rooms, ings, reqs, a_tgt, max_score) in TABLE_STATS.items():
        triplets, acts = [], []
        for seed in range(100):
            spec = generate_game(level, seed)
            if (
                len(spec.rooms) != rooms
                or len(spec.recipe) != ings
                or any(len(e.requirements) != reqs for e in spec.recipe)
                or spec.max_score != max_score
            ):
                report("table-structure", False, f"{level} seed {seed} integer columns")
            trace = record_trace(spec, walkthrough(spec))
            triplets.append(len(trace[0].obs))
            acts.append(np.mean([len(st.admissible) for st in trace[:-1]]))
        if abs(np.mean(triplets) - t_tgt) > 0.25 * t_tgt:
            report("table-structure", False, f"{level} triplets {np.mean(triplets):.2f} vs {t_tgt}")
        if abs(np.mean(acts) - a_tgt) > 0.30 * a_tgt:
            report("table-structure", False, f"{level} acts {np.mean(acts):.2f} vs {a_tgt}")
    elapsed = time.perf_counter() - started
    report("table-structure", elapsed < 10.0, f"(8 levels x 100 seeds, {elapsed:.1f}s)")


# -- 3. oracle equivalence -------------------------------------------------------

def _brute_force_goal_set(state):
    goals = []
    for entry in state.spec.recipe:
        loc = state.locations.get(entry.ingredient)
        if not (loc is not None and loc[1] == "player"):
            goals.append(Goal("Find", ingredient=entry.ingredient))
            continue
        statuses = {
            s for s in (state.cut.get(entry.ingredient), state.cook.get(entry.ingredient))
            if s and s != "none"
        }
        for req in entry.requirements:
            if req not in statuses:
                goals.append(Goal("Prepare", ingredient=entry.ingredient, requirement=req))
    if not goals:
        goals.append(Goal("EatMeal"))
    from cookworld.goals import GoalSet

    return GoalSet(goals)


def _brute_force_goal_reward(state, goal):
    if goal.kind == "Find":
        loc = state.locations.get(goal.ingredient)
        hit = loc is not None and loc[1] == "player"
    elif goal.kind == "Prepare":
        hit = goal.requirement in (
            state.cut.get(goal.ingredient, "none"),
            state.cook.get(goal.ingredient, "none"),
        )
    else:
        hit = "meal" in state.locations
    return 1.0 if hit else 0.0


def _all_goals_of(spec):
    goals = [Goal("EatMeal")]
    for entry in spec.recipe:
        goals.append(Goal("Find", ingredient=entry.ingredient))
        for req in entry.requirements:
            goals.append(Goal("Prepare", ingredient=entry.ingredient, requirement=req))
    return goals


def test_criterion_oracle_equivalence():
    started = time.perf_counter()
    spec = load_game(FIXTURES / "s1_game1.spec.json")
    goals = _all_goals_of(spec)
    start, _ = reset(spec, step_limit=50)
    seen = {start.signature()}
    frontier = [start]
    states = 0
    while frontier:
        state = frontier.pop()
        obs = observation(state)
        states += 1
        if not state.done and generate_goal_set(obs) != _brute_force_goal_set(state):
            report("oracle-equivalence", False, f"goal set diverged at state {states}")
        for goal in goals:
            if goal_reward(obs, goal) != _brute_force_goal_reward(state, goal):
                report("oracle-equivalence", False, f"goal reward diverged: {goal.text}")
        if state.done:
            continue
        for action in admissible_actions(state):
            nxt, _, _, _ = step(state, action)
            sig = nxt.signature()
            if sig not in seen:
                seen.add(sig)
                frontier.append(nxt)
    elapsed = time.perf_counter() - started
    report(
        "oracle-equivalence",
        states > 500 and elapsed < 60.0,
        f"({states} reachable states, {elapsed:.1f}s)",
    )


# -- 4. equation unit suite --------------------------------------------------------

def test_criterion_equation_units():
    ok = True
    # meta reward: plain summation
    ok &= accumulate_meta_reward([0, 1, 0, 1]) == 2
    ok &= accumulate_meta_reward([]) == 0.0

    # novelty bonus, both count orders, hand-computed
    a = KGObservation([Triplet("player", "kitchen", "at")])
    b = KGObservation([Triplet("player", "pantry", "at")])
    counter = VisitCounter()
    counter.accumulated[canonical_hash(a)] = 1
    counter.accumulated[canonical_hash(b)] = 2
    counter.episodic[canonical_hash(a)] = 1
    counter.episodic[canonical_hash(b)] = 1
    ok &= abs(bebold_reward(counter, a, b, "printed") - 0.5) < 1e-12
    ok &= bebold_reward(counter, a, b, "swapped") == 0.0
    counter.accumulated[canonical_hash(a)] = 4
    counter.accumulated[canonical_hash(b)] = 2
    ok &= bebold_reward(counter, a, b, "printed") == 0.0
    ok &= abs(bebold_reward(counter, a, b, "swapped") - 0.25) < 1e-12
    counter.episodic[canonical_hash(b)] = 2
    ok &= bebold_reward(counter, a, b, "printed") == 0.0

    # reward composition at the published coefficient
    ok &= abs(compose_sub_reward(1.0, 0.5, 0.1) - 1.05) < 1e-12

    # level-sampling softmax
    p = softmax_probabilities([1.0, 0.0])
    z = np.exp(0.0) + np.exp(1.0)
    ok &= abs(p[0] - np.exp(0.0) / z) < 1e-12 * abs(p[0])
    ok &= abs(p[1] - np.exp(1.0) / z) < 1e-12 * abs(p[1])
    rng = np.random.default_rng(1)
    for _ in range(200):
        v = sorted(rng.uniform(0, 1, size=int(rng.integers(2, 7))))
        probs = softmax_probabilities(list(v))
        ok &= abs(probs.sum() - 1.0) < 1e-12
        ok &= all(x >= y - 1e-15 for x, y in zip(probs, probs[1:]))
    report("equation-units", bool(ok))


# -- 5. gradient checks ----------------------------------------------------------

def test_criterion_gradient_checks():
    from cookworld.engine.vocab import default_vocabulary

    started = time.perf_counter()
    vocab = default_vocabulary()
    obs = KGObservation(
        [
            Triplet("cilantro", "fridge", "in"),
            Triplet("knife", "table", "on"),
            Triplet("player", "kitchen", "at"),
            Triplet("cilantro", "diced", "needs"),
            Triplet("cilantro", "cookbook", "part_of"),
        ]
    )
    rng = np.random.default_rng(777)
    h = 1e-4
    worst = 0.0
    for trial in range(20):
        net = PolicyNet(vocab, hidden_dim=8, rgcn_layers=2, state_parts=2,
                        ff_dim=16, scorer_hidden=16, seed=500 + trial)
        state_vec = np.linspace(-1, 1, 16).reshape(1, 16)
        cand_vecs = rng.standard_normal((3, 8))
        # texts hold the three candidates, then the state's instruction half
        texts = np.concatenate([cand_vecs, state_vec[:, 8:]])
        builds = {
            "rgcn": lambda: net.graph_tensor([obs]),
            "attention-ff": lambda: net.text_tensor(["take knife from table"]),
            "scorer": lambda: net.score_tensor(
                ad.constant(state_vec[:, :8]), ad.constant(texts), [0, 0, 0], [0, 1, 2], [3, 3, 3]
            ),
        }
        for block, build in builds.items():
            net.zero_grad()
            with ad.tape():
                out = build()
                loss = ad.sum_all(ad.mul(out, out))
                loss.backward()
            names = [n for n, p in net.params.items() if p.grad is not None]
            for _ in range(4):
                name = names[int(rng.integers(0, len(names)))]
                p = net.params[name]
                flat = p.data.reshape(-1)
                idx = int(rng.integers(0, flat.size))
                analytic = p.grad.reshape(-1)[idx]
                orig = flat[idx]
                flat[idx] = orig + h
                up = float((build().data ** 2).sum())
                flat[idx] = orig - h
                down = float((build().data ** 2).sum())
                flat[idx] = orig
                numeric = (up - down) / (2 * h)
                if abs(numeric) < 1e-10 and abs(analytic) < 1e-10:
                    continue
                rel = abs(numeric - analytic) / max(abs(numeric), abs(analytic), 1e-8)
                worst = max(worst, rel)
    elapsed = time.perf_counter() - started
    report(
        "gradient-checks",
        worst < 1e-3 and elapsed < 60.0,
        f"(max rel err {worst:.2e}, {elapsed:.1f}s)",
    )


# -- 6. PER sampling and gating -----------------------------------------------------

class _Rec:
    __slots__ = ("gate_reward", "level")

    def __init__(self, gate_reward, level="S1"):
        self.gate_reward = gate_reward
        self.level = level


def test_criterion_per_and_gating():
    # chi-square against the exact priority distribution
    priorities = [0.25, 0.5, 1.0, 1.5, 2.0, 2.75, 3.5, 4.0]
    buf = PrioritizedBuffer(8, alpha=0.6)
    for p in priorities:
        buf.push(_Rec(0.0), priority=p)
    live = buf.priorities[: len(buf)]  # each entry's priority ** alpha
    expected = live / live.sum()
    rng = np.random.default_rng(2024)
    counts = np.zeros(8)
    draws = 100_000
    for _ in range(draws // 8):
        _, idx, _ = buf.sample(8, rng)
        for i in idx:
            counts[i] += 1
    pvalue = scipy_stats.chisquare(counts, expected * draws).pvalue
    if pvalue <= 0.01:
        report("per-and-gating", False, f"chi-square p={pvalue:.4f}")

    # gating equals brute-force level-mean recomputation on random sequences
    rng = np.random.default_rng(31337)
    levels = ("S1", "S2", "S3")
    for _ in range(1000):
        buf = PrioritizedBuffer(24)
        history = []
        for _ in range(int(rng.integers(0, 40))):
            rec = _Rec(float(rng.integers(0, 3)), level=levels[int(rng.integers(0, 3))])
            buf.push(rec)
            history.append(rec)
        history = history[-24:]
        level = levels[int(rng.integers(0, 3))]
        cache = [_Rec(float(rng.integers(0, 3)), level=level)
                 for _ in range(int(rng.integers(1, 7)))]
        tol = float(rng.choice([0.25, 0.5, 1.0, 1.5]))
        relevant = [r.gate_reward for r in history if r.level == level]
        expected_accept = (
            True if not relevant
            else float(np.mean([r.gate_reward for r in cache])) > tol * float(np.mean(relevant))
        )
        got = gated_flush(buf, cache, level, tol)
        if got != expected_accept:
            report("per-and-gating", False, "gate decision diverged from brute force")
    report("per-and-gating", True, f"(chi-square p={pvalue:.3f}, 1000 gate sequences)")


# -- 9. determinism ---------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_determinism_byte_identical_metrics(tmp_path):
    """Two identical training runs produce byte-identical metrics CSVs
    (excluding the timestamp header). Exercised with the full 4-level desk
    structure at a reduced episode count; the property is length-invariant
    and the README documents the full-length double run."""
    from cookworld.cli import main

    games = tmp_path / "games"
    assert main(["gen", "--levels", "S1,S2,S3,S4", "--train", "10", "--val", "5",
                 "--test", "5", "--seed", "0", "--out", str(games)]) == 0
    cfg = {
        "episodes": 240,
        "warmup_episodes": 40,
        "val_freq": 80,
        "update_freq_sub": 10,
        "update_freq_meta": 50,
        "tau": 0.5,
        "r_min": -0.05,
        "target_sync_every": 150,
        "seed": 2,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    bodies = []
    for name in ("run1", "run2"):
        out = tmp_path / name
        assert main(["train", "--games", str(games), "--out", str(out),
                     "--config", str(cfg_path)]) == 0
        lines = (out / "metrics.csv").read_text().splitlines()
        assert lines[0].startswith("# generated")
        bodies.append(lines[1:])
    identical = bodies[0] == bodies[1]
    report(
        "determinism",
        identical and len(bodies[0]) > 240,
        f"({len(bodies[0])} metric lines, 4 levels, two runs byte-identical)",
    )


# -- 8. ablation plumbing --------------------------------------------------------------

def test_criterion_ablation_plumbing(monkeypatch):
    from cookworld.training import loop
    from cookworld.training.config import TrainConfig
    from cookworld.training.loop import Trainer

    # "w/o Sch": each episode's level is a uniform draw from the level stream
    levels = ("S1", "S2", "S3", "S4")
    games = {lvl: [generate_game(lvl, 1)] for lvl in levels}
    cfg = TrainConfig(levels=levels, scheduled_sampling=False, episodes=12, warmup_episodes=12,
                      step_limit_train=5, hidden_dim=8, ff_dim=8, scorer_hidden=8, seed=0)
    tr = Trainer(cfg, games)
    uniform = np.random.default_rng()
    uniform.bit_generator.state = tr.rng_level.bit_generator.state
    drawn = [tr.run_episode().level for _ in range(12)]
    expected = [levels[int(uniform.integers(0, len(levels)))] for _ in range(12)]
    if drawn != expected:
        report("ablation-plumbing", False, f"w/o Sch drew {drawn}, uniform draws {expected}")

    # "w/o level-aware buffer": every flush is gated on the whole buffer's mean
    cfg = TrainConfig(levels=("S1", "S4"), level_aware_buffer=False, episodes=8, warmup_episodes=8,
                      step_limit_train=10, hidden_dim=8, ff_dim=8, scorer_hidden=8, seed=3)
    tr = Trainer(cfg, {"S1": games["S1"], "S4": games["S4"]})
    flushes = []
    flush = loop.gated_flush

    def flush_spy(buffer, cache, level, tolerance, level_aware=True):
        baseline = buffer.overall_mean()
        whole = baseline is None or sum(t.gate_reward for t in cache) / len(cache) > tolerance * baseline
        accepted = flush(buffer, cache, level, tolerance, level_aware)
        flushes.append((level_aware, accepted, whole))
        return accepted

    monkeypatch.setattr(loop, "gated_flush", flush_spy)
    for _ in range(8):
        tr.run_episode()
    monkeypatch.undo()
    if not flushes or any(level_aware or accepted != whole for level_aware, accepted, whole in flushes):
        report("ablation-plumbing", False, f"w/o level-aware buffer flushes {flushes}")

    # "w/o BeBold": logged sub transitions have a TD reward identical to the gate reward
    s1 = {"S1": [generate_game("S1", s) for s in range(2)]}
    cfg = TrainConfig(levels=("S1",), bebold=False, episodes=6, warmup_episodes=6,
                      hidden_dim=8, ff_dim=8, scorer_hidden=8, seed=1)
    tr = Trainer(cfg, s1)
    logged = []
    original = tr.sub_buffer.push
    tr.sub_buffer.push = lambda trn, priority=None: (logged.append(trn), original(trn, priority))
    for _ in range(6):
        tr.run_episode()
    if not logged or any(trn.td_reward != trn.gate_reward for trn in logged):
        report("ablation-plumbing", False, "w/o BeBold td_reward != gate_reward")

    # "Ind" second phase: sub parameters bit-identical across updates
    cfg = TrainConfig(levels=("S1",), variant="H-KGA-Ind", episodes=16,
                      warmup_episodes=0, update_freq_sub=5, update_freq_meta=5,
                      batch_size=2, hidden_dim=8, ff_dim=8, scorer_hidden=8, seed=2)
    tr = Trainer(cfg, s1)
    for _ in range(8):
        tr.run_episode()
    frozen = {k: p.data.copy() for k, p in tr.sub.online.params.items()}
    sub_updates_phase1 = tr.updates_sub
    for _ in range(8):
        tr.run_episode()
    if tr.updates_sub != sub_updates_phase1:
        report("ablation-plumbing", False, "Ind phase 2 updated the sub-policy")
    for k, p in tr.sub.online.params.items():
        if not np.array_equal(p.data, frozen[k]):
            report("ablation-plumbing", False, f"Ind phase 2 changed {k}")
    report("ablation-plumbing", True)


# -- 9. runtime dependencies ---------------------------------------------------

def test_criterion_runtime_dependencies_numpy_only():
    import ast
    import sys

    allowed = set(sys.stdlib_module_names) | {"numpy", "cookworld"}
    src = Path(__file__).parent.parent / "src" / "cookworld"
    paths = sorted(src.rglob("*.py"))
    foreign = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [
                f"{path.relative_to(src)}:{node.lineno} {name}"
                for name in names
                if name.split(".")[0] not in allowed
            ]
    report(
        "runtime-dependencies",
        not foreign,
        ", ".join(foreign) or f"({len(paths)} source files import stdlib and numpy only)",
    )


def source_defs_where(match) -> set[str]:
    """Where the source has a syntax node that match accepts, as
    "file:qualified.def" (file relative to src/cookworld; "<module>" for a
    node outside every def and class)."""
    src = Path(__file__).parent.parent / "src" / "cookworld"
    sites = set()

    def visit(node, where: str, scope: tuple[str, ...]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, where, scope + (child.name,))
                continue
            if match(child):
                sites.add(f"{where}:{'.'.join(scope) or '<module>'}")
            visit(child, where, scope)

    for path in src.rglob("*.py"):
        visit(ast.parse(path.read_text(), filename=str(path)), str(path.relative_to(src)), ())
    return sites


def source_files_where(match) -> set[str]:
    """The source files, relative to src/cookworld, with a syntax node that match accepts."""
    return {site.partition(":")[0] for site in source_defs_where(match)}


def test_only_the_nets_module_reads_and_writes_npz():
    """The checkpoint format lives behind neural/nets.py: no other source
    file calls numpy's .npz reader or writer."""
    callers = source_files_where(
        lambda node: isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id in ("np", "numpy") and node.attr in ("load", "savez", "savez_compressed")
    )
    assert set(callers) == {"neural/nets.py"}, callers


def test_only_the_nets_module_packs_q_passes():
    """Rows of a packed Q pass are laid out behind neural/nets.py
    (PolicyNet.q_tensor): no other source file calls distinct or
    .score_tensor."""
    callers = source_files_where(
        lambda node: isinstance(node, ast.Call) and (
            isinstance(node.func, ast.Name) and node.func.id == "distinct"
            or isinstance(node.func, ast.Attribute) and node.func.attr in ("distinct", "score_tensor")
        )
    )
    assert set(callers) == {"neural/nets.py"}, callers


def test_only_q_tensor_deduplicates_a_pass():
    """A packed pass is deduplicated once, by PolicyNet.q_tensor: the
    encoders encode exactly the items they are given."""
    callers = source_defs_where(
        lambda node: isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id == "distinct"
    )
    assert callers == {"neural/nets.py:PolicyNet.q_tensor"}, callers


def test_only_wrap_tape_and_backward_read_the_tape():
    """No autodiff op checks for a tape itself: _wrap decides whether an
    op's result is recorded, Tensor.backward walks the tape, and only
    tape() opens and closes one."""
    def uses(ctx):
        return source_defs_where(
            lambda node: isinstance(node, ast.Name) and node.id == "_TAPE" and isinstance(node.ctx, ctx)
        )

    assert uses(ast.Load) == {
        "neural/autodiff.py:_wrap", "neural/autodiff.py:tape", "neural/autodiff.py:Tensor.backward",
    }, uses(ast.Load)
    assert uses(ast.Store) == {"neural/autodiff.py:<module>", "neural/autodiff.py:tape"}, uses(ast.Store)


def test_only_td_update_opens_a_tape():
    """The program trains in one place: every other pass (acting,
    validation, eval, the next-state targets) runs outside a tape and
    records nothing."""
    openers = source_defs_where(
        lambda node: isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == "tape"
    )
    assert openers == {"rl/dqn.py:td_update"}, openers


def test_autodiff_defines_no_nested_function():
    """Every backward formula is a module-level function over the gradient
    and what its op handed to _wrap: no op builds a closure per call. A
    node inside a nested def sits in a scope below a function, or two below
    a class; a lambda is a nested function too."""
    path = Path(__file__).parent.parent / "src" / "cookworld" / "neural" / "autodiff.py"
    classes = {node.name for node in ast.parse(path.read_text()).body if isinstance(node, ast.ClassDef)}
    scopes = [
        site.partition(":")[2].split(".") for site in source_defs_where(lambda node: True)
        if site.startswith("neural/autodiff.py:")
    ]
    nested = [scope for scope in scopes if len(scope) > (2 if scope[0] in classes else 1)]
    assert not nested, nested
    lambdas = source_defs_where(lambda node: isinstance(node, ast.Lambda))
    assert not {site for site in lambdas if site.startswith("neural/autodiff.py:")}, lambdas


def test_every_autodiff_op_has_a_caller_in_src():
    """Every public function of neural/autodiff.py is called from another
    source file, as ad.<name>(...) or by its imported name: an op that no
    program path calls is dead code, however well its test checks it."""
    src = Path(__file__).parent.parent / "src" / "cookworld"
    autodiff = src / "neural" / "autodiff.py"
    ops = {
        node.name for node in ast.parse(autodiff.read_text()).body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    }
    called = set()
    for path in src.rglob("*.py"):
        if path == autodiff:
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                    and isinstance(node.func.value, ast.Name) and node.func.value.id == "ad":
                called.add(node.func.attr)
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                called.add(node.func.id)
    assert "attention" in ops and "matmul" in ops
    assert not ops - called, sorted(ops - called)


def test_only_the_records_module_parses_json():
    """Every JSON document is read through records.py (load_record), which
    names the file in each error: no other source file calls json.load or
    json.loads."""
    callers = source_files_where(
        lambda node: isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and isinstance(node.func.value, ast.Name) and node.func.value.id == "json"
        and node.func.attr in ("load", "loads")
    )
    assert set(callers) == {"records.py"}, callers


def test_only_the_engine_builds_trusted_graphs():
    """KGObservation._spliced skips every check of the constructor, so only
    the engine's splice of a checked parent (engine/state.py) may call it:
    no other source file names it."""
    callers = source_files_where(
        lambda node: isinstance(node, ast.Attribute) and node.attr == "_spliced"
    )
    assert set(callers) == {"engine/state.py"}, callers


def test_each_game_state_looks_its_facts_up_once():
    """A state's graph is digested and looked up in the episode memo once,
    by _facts, which keeps the entry on the state; observation() only
    renders a state from nothing, so no caller names a parent for it."""
    digests = source_defs_where(
        lambda node: isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id == "canonical_hash"
    )
    assert {site for site in digests if site.startswith("engine/state.py:")} == {
        "engine/state.py:_facts"
    }, digests
    renders = source_defs_where(
        lambda node: isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id == "observation" and len(node.args) + len(node.keywords) > 1
    )
    assert not renders, renders


def test_only_the_records_module_reads_type_hints():
    """JSON values are typed by one rule, in records.py: no other source
    file resolves type hints (get_type_hints, __annotations__) or reads a
    dataclass field's .type."""
    readers = source_defs_where(
        lambda node: isinstance(node, ast.Attribute)
        and node.attr in ("get_type_hints", "__annotations__", "type")
        or isinstance(node, ast.Name) and node.id == "get_type_hints"
    )
    assert readers == {"records.py:_hints"}, readers
