"""Command-line entry point.

Subcommands: gen, train, eval, play, replay-trace, inspect.
Exit codes: 0 success, 1 assertion/diff failure, 2 usage error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_IO = 3

CONFIG_DIR_ENV = "COOKWORLD_CONFIG_DIR"


def _resolve_config_path(name: str) -> Path:
    path = Path(name)
    if path.exists():
        return path
    config_dir = os.environ.get(CONFIG_DIR_ENV)
    if config_dir and (Path(config_dir) / name).exists():
        return Path(config_dir) / name
    return path


def cmd_gen(args) -> int:
    from .training.gamesets import generate_game_dir

    levels = [lvl.strip() for lvl in args.levels.split(",") if lvl.strip()]
    counts = {
        "train": args.train,
        "val": args.val,
        "test-seen": args.test,
        "test-unseen": args.test,
    }
    try:
        entries = generate_game_dir(args.out, levels, counts, args.seed)
    except OSError as exc:
        print(f"error: cannot write games: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(f"wrote {len(entries)} games + manifest to {args.out}")
    return EXIT_OK


def cmd_train(args) -> int:
    from .training.config import ConfigError, TrainConfig, load_config, save_config
    from .training.gamesets import load_game_dir
    from .training.loop import Trainer

    try:
        cfg = load_config(_resolve_config_path(args.config)) if args.config else TrainConfig()
        if args.seed is not None:
            cfg.seed = args.seed
        if args.episodes is not None:
            cfg.episodes = args.episodes
        if args.variant is not None:
            cfg.variant = args.variant
        cfg.validate()
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    try:
        splits = load_game_dir(args.games)
    except (OSError, FileNotFoundError, ValueError) as exc:
        print(f"error: cannot load games: {exc}", file=sys.stderr)
        return EXIT_IO
    train_games = splits.get("train", {})
    val_games = splits.get("val", {})
    cfg.levels = tuple(sorted(train_games))
    try:
        trainer = Trainer(
            cfg, train_games, val_games, out_dir=args.out, resume=args.resume
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    save_config(cfg, Path(args.out) / "config.json")
    summary = trainer.run(progress=True)
    print(
        f"finished: {summary['episodes']} episodes, {summary['steps']} steps, "
        f"best val {summary['best_val']:.3f}"
    )
    return EXIT_OK


def _agent_factory_from_checkpoint(checkpoint: Path, vocab):
    from .neural.nets import load_checkpoint
    from .training.agents import FlatAgent, HierarchicalAgent, WalkthroughAgent

    if checkpoint.is_file() and checkpoint.suffix == ".json":
        doc = json.loads(checkpoint.read_text())
        if doc.get("kind") == "walkthrough_oracle":
            return lambda level, index: WalkthroughAgent()
        raise ValueError(f"unknown pseudo-checkpoint kind in {checkpoint}")
    sub_path = checkpoint / "sub.npz"
    if not sub_path.exists():
        raise FileNotFoundError(f"no sub.npz under {checkpoint}")
    sub_net, _ = load_checkpoint(sub_path, vocab)
    meta_path = checkpoint / "meta.npz"
    if meta_path.exists():
        meta_net, _ = load_checkpoint(meta_path, vocab)
        return lambda level, index: HierarchicalAgent(sub_net, meta_net)
    if sub_net.state_parts == 1:
        return lambda level, index: FlatAgent(sub_net)
    # goal-conditioned net without a meta head: deterministic random goals
    def factory(level, index):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=(0, level_hash(level), index)))
        return HierarchicalAgent(sub_net, None, goal_rng=rng)

    return factory


def level_hash(level: str) -> int:
    return sum(ord(c) for c in level)


def cmd_eval(args) -> int:
    from .engine.vocab import default_vocabulary
    from .neural.nets import CheckpointError, VocabularyMismatchError
    from .training.gamesets import load_game_dir
    from .training.loop import evaluate_agent

    vocab = default_vocabulary()
    try:
        factory = _agent_factory_from_checkpoint(Path(args.checkpoint), vocab)
    except VocabularyMismatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except (OSError, FileNotFoundError, CheckpointError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    try:
        splits = load_game_dir(args.games)
    except (OSError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO

    games: dict[str, list] = {}
    if args.split in ("seen", "all"):
        games.update(splits.get("test-seen", {}))
    if args.split in ("unseen", "all"):
        games.update(splits.get("test-unseen", {}))
    if not games:
        print(f"error: no games for split {args.split!r} in {args.games}", file=sys.stderr)
        return EXIT_USAGE

    result = evaluate_agent(factory, games, step_limit=args.step_limit)
    lines = [("level", "normalized_score")]
    for level, value in sorted(result["per_level"].items()):
        lines.append((level, f"{value:.4f}"))
    for key in ("avg_seen", "avg_unseen", "avg_all"):
        if result.get(key) is not None:
            lines.append((key, f"{result[key]:.4f}"))
    text = "\n".join(f"{a},{b}" for a, b in lines) + "\n"
    print(text, end="")
    if args.out:
        try:
            Path(args.out).write_text(text)
        except OSError as exc:
            print(f"error: cannot write report: {exc}", file=sys.stderr)
            return EXIT_IO
    return EXIT_OK


def cmd_play(args) -> int:
    from .engine.spec import SpecParseError, load_game
    from .engine.state import admissible_actions, reset, step
    from .engine.trace import record_trace, save_trace
    from .goals import generate_goal_set

    try:
        spec = load_game(args.spec)
    except SpecParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO

    state, obs = reset(spec, step_limit=args.step_limit)
    actions: list[str] = []
    print(f"level {spec.level}, max score {spec.max_score}")
    done = False
    while not done:
        admissible = admissible_actions(state)
        print("\nobservation:")
        for t in obs:
            print(f"  [{t.subject}, {t.object}, {t.relation}]")
        print("goals:", ", ".join(generate_goal_set(obs).texts))
        for i, action in enumerate(admissible):
            print(f"  {i}: {action}")
        try:
            raw = input("choose> ").strip()
        except EOFError:
            print()
            break
        if raw in ("q", "quit", "exit"):
            break
        if not raw.isdigit() or not (0 <= int(raw) < len(admissible)):
            print(f"pick a number between 0 and {len(admissible) - 1}")
            continue
        action = admissible[int(raw)]
        state, obs, reward, done = step(state, action)
        actions.append(action)
        print(f"reward {reward} | score {state.score} | done {done}")
    if args.transcript and actions:
        save_trace(record_trace(spec, actions, args.step_limit), args.transcript)
        print(f"transcript saved to {args.transcript}")
    print(f"final score {state.score}/{spec.max_score}")
    return EXIT_OK


def cmd_replay_trace(args) -> int:
    from .engine.spec import SpecParseError, load_game
    from .engine.trace import TraceFormatError, load_trace, replay_trace

    try:
        spec = load_game(args.spec)
        trace = load_trace(args.trace)
    except (SpecParseError, TraceFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    result = replay_trace(spec, trace, strict=not args.loose, step_limit=args.step_limit)
    if result.ok:
        print(f"pass: {result.steps_checked} steps replayed identically")
        return EXIT_OK
    print(f"fail: {result.divergence}")
    return EXIT_FAIL


def cmd_inspect(args) -> int:
    path = Path(args.path)
    if not path.exists():
        print(f"error: {path} does not exist", file=sys.stderr)
        return EXIT_IO
    try:
        if path.suffix == ".npz":
            return _inspect_checkpoint(path)
        if path.suffix == ".csv":
            return _inspect_metrics(path)
        if path.suffix == ".json":
            return _inspect_json(path)
    except Exception as exc:
        print(f"error: corrupt or unreadable file: {exc}", file=sys.stderr)
        return EXIT_IO
    print(f"error: unknown file format {path.suffix!r}", file=sys.stderr)
    return EXIT_USAGE


def _inspect_checkpoint(path: Path) -> int:
    bundle = np.load(path)
    meta = json.loads(bytes(bundle["meta"]).decode())
    print(f"checkpoint version {meta['checkpoint_version']}, config {meta['config']}")
    total = 0
    for name in sorted(k for k in bundle.files if k.startswith("param.")):
        shape = bundle[name].shape
        count = int(np.prod(shape))
        total += count
        print(f"  {name[6:]:24s} {str(shape):16s} {count}")
    print(f"total parameters: {total}")
    return EXIT_OK


def _inspect_metrics(path: Path) -> int:
    lines = path.read_text().splitlines()
    print(f"{len(lines)} lines; header: {lines[1] if len(lines) > 1 else lines[0]}")
    for line in lines[-5:]:
        print(f"  {line}")
    return EXIT_OK


def _inspect_json(path: Path) -> int:
    doc = json.loads(path.read_text())
    if isinstance(doc, dict) and "rooms" in doc and "recipe" in doc:
        from .engine.spec import load_game

        spec = load_game(path)
        print(f"level {spec.level}, seed {spec.seed}, max score {spec.max_score}")
        print(f"start room: {spec.start_room}")
        print("rooms:")
        for room in spec.rooms:
            exits = ", ".join(
                f"{e.direction}->{e.to}" + (f" [{e.door}]" if e.door else "")
                for e in room.exits
            )
            print(f"  {room.name}: {exits or '(no exits)'}")
        print("recipe:")
        for entry in spec.recipe:
            print(f"  {entry.ingredient}: cut={entry.cut}, cook={entry.cook}")
        print(f"objects: {len(spec.objects)}")
        return EXIT_OK
    if isinstance(doc, dict) and "games" in doc:
        print(f"manifest with {len(doc['games'])} games, master seed {doc.get('master_seed')}")
        return EXIT_OK
    if isinstance(doc, list) and doc and "obs" in doc[0]:
        actions = [row.get("action") for row in doc if row.get("action")]
        last = next((row for row in reversed(doc) if "score" in row), None)
        print(f"trace with {len(actions)} action steps")
        if last:
            print(f"final score {last['score']}, done {last['done']}")
        return EXIT_OK
    print(f"error: unrecognized JSON document {path}", file=sys.stderr)
    return EXIT_USAGE


def _step_limit(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cookworld",
        description="Generate, play, and train on procedural cooking text-games.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate game files and a split manifest")
    p.add_argument("--levels", required=True, help="comma-separated, e.g. S1,S2,US1")
    p.add_argument("--train", type=int, default=10)
    p.add_argument("--val", type=int, default=5)
    p.add_argument("--test", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("train", help="train a policy on a generated game directory")
    p.add_argument("--games", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config", help=f"JSON config (also searched in ${CONFIG_DIR_ENV})")
    p.add_argument("--seed", type=int)
    p.add_argument("--episodes", type=int)
    p.add_argument("--variant")
    p.add_argument("--resume", action="store_true")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on test games")
    p.add_argument("--checkpoint", required=True, help="checkpoint dir or pseudo-checkpoint json")
    p.add_argument("--games", required=True)
    p.add_argument("--split", choices=("seen", "unseen", "all"), default="all")
    p.add_argument("--step-limit", type=_step_limit, default=100)
    p.add_argument("--out", help="write the report CSV here")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("play", help="interactive terminal session")
    p.add_argument("spec")
    p.add_argument("--step-limit", type=_step_limit, default=100)
    p.add_argument("--transcript", help="save the session as a replayable trace")
    p.set_defaults(func=cmd_play)

    p = sub.add_parser("replay-trace", help="verify a trace against the engine")
    p.add_argument("--spec", required=True)
    p.add_argument("--trace", required=True)
    p.add_argument("--loose", action="store_true", help="compare rewards/scores/done only")
    p.add_argument("--step-limit", type=_step_limit, default=50)
    p.set_defaults(func=cmd_replay_trace)

    p = sub.add_parser("inspect", help="summarize a spec/checkpoint/metrics/trace file")
    p.add_argument("path")
    p.set_defaults(func=cmd_inspect)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
