"""CSV metrics log: one row per episode or validation event.

The first line is a timestamp comment; every other byte of the file is a
deterministic function of the run configuration and seed.
"""

from __future__ import annotations

import datetime
from pathlib import Path
from typing import Optional


class MetricsWriter:
    def __init__(self, path: str | Path, levels: tuple[str, ...], resume_from: Optional[int] = None):
        """resume_from: the episode of the checkpoint a run resumes from. The
        rows of later episodes, written before an interruption, are dropped,
        because the resumed run writes them again; new rows are appended."""
        self.path = Path(path)
        self.levels = levels
        mode = "w"
        if resume_from is not None and self.path.exists():
            _truncate_after(self.path, resume_from)
            mode = "a"
        self._fh = open(self.path, mode)
        if mode == "w":
            stamp = datetime.datetime.now(datetime.timezone.utc).isoformat()
            self._fh.write(f"# generated {stamp}\n")
            columns = ["episode", "split", "level", "normalized_score", "loss_meta", "loss_sub", "epsilon"]
            columns += [f"p_{level}" for level in levels]
            self._fh.write(",".join(columns) + "\n")
        self._fh.flush()

    def row(
        self,
        episode: int,
        split: str,
        level: str,
        normalized_score: float,
        loss_meta: Optional[float],
        loss_sub: Optional[float],
        epsilon: float,
        level_probs: Optional[dict[str, float]] = None,
    ) -> None:
        cells = [
            str(episode),
            split,
            level,
            format(normalized_score, ".6f"),
            "" if loss_meta is None else format(loss_meta, ".8f"),
            "" if loss_sub is None else format(loss_sub, ".8f"),
            format(epsilon, ".6f"),
        ]
        for lvl in self.levels:
            p = (level_probs or {}).get(lvl)
            cells.append("" if p is None else format(p, ".8f"))
        self._fh.write(",".join(cells) + "\n")
        self._fh.flush()

    def close(self) -> None:
        self._fh.close()


def _truncate_after(path: Path, episode: int) -> None:
    """Cut the file at its first row of an episode after `episode`, or at a
    row left unfinished by a crash. Rows are in episode order."""
    with open(path, "r+b") as fh:
        keep = 0
        for line in fh:
            cell = line.split(b",", 1)[0]
            if not line.endswith(b"\n") or (cell.isdigit() and int(cell) > episode):
                break
            keep += len(line)
        fh.truncate(keep)
