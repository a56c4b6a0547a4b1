"""Token vocabularies: entity pools for generation, word list for encoders."""

from __future__ import annotations

from collections import OrderedDict
from importlib import resources

from ..kg import RELATIONS

STATE_WORDS = (
    "uncut",
    "chopped",
    "diced",
    "sliced",
    "raw",
    "fried",
    "roasted",
    "burned",
    "consumed",
    "open",
    "closed",
)

FIXED_ENTITIES = ("player", "cookbook", "knife", "meal", "fridge", "counter", "table", "stove", "oven")

GRAMMAR_WORDS = (
    "go", "north", "south", "east", "west",
    "open", "close", "take", "from", "drop", "put", "on", "insert", "into",
    "examine", "chop", "dice", "slice", "with", "cook", "prepare", "eat",
    "find", "and", "meal",
)

DOOR_NAMES = ("frosted-glass door", "sliding door", "screen door", "wooden door", "patio door")

# herbs are edible raw and carry no raw-state fact; potatoes are inedible raw
_NO_RAW_FACT = ("cilantro", "parsley", "lettuce")


def _load_list(name: str) -> tuple[str, ...]:
    path = resources.files("cookworld.engine.data").joinpath(name)
    lines = path.read_text().splitlines()
    return tuple(line.strip() for line in lines if line.strip())


INGREDIENTS = _load_list("ingredients.txt")
DISTRACTORS = _load_list("distractors.txt")
FURNITURE = _load_list("furniture.txt")
ROOMS = _load_list("rooms.txt")


def food_profile(name: str) -> tuple[str, bool]:
    """(initial cook-state fact, edible-raw flag) for a food name."""
    if "potato" in name:
        return "none", False
    if name in _NO_RAW_FACT:
        return "none", True
    return "raw", True


class Vocabulary:
    """Deterministic token-to-id map shared by text and graph encoders.

    Id 0 is the unknown-token bucket; everything else is sorted.
    """

    def __init__(self, tokens: tuple[str, ...]):
        self.tokens = ("<unk>",) + tokens
        self.index = {tok: i for i, tok in enumerate(self.tokens)}
        # the graph encoder's compiled observations (neural.nets), keyed by
        # canonical hash, with their node colours once they have joined a
        # batch; they hold token ids, so they live with this map
        self.graph_layouts: OrderedDict = OrderedDict()
        # each encoded text's token ids, read-only: the texts are the loaded
        # games' commands, goals and entity names, so the memo stays small
        self.text_ids: dict[str, tuple[int, ...]] = {}

    def __len__(self) -> int:
        return len(self.tokens)

    def id_of(self, token: str) -> int:
        return self.index.get(token, 0)

    def encode(self, text: str) -> tuple[int, ...]:
        """The text's token ids, tokenized on its first encode and kept."""
        ids = self.text_ids.get(text)
        if ids is None:
            ids = self.text_ids[text] = tuple(self.id_of(tok) for tok in text.lower().split())
        return ids


def _all_tokens() -> tuple[str, ...]:
    words: set[str] = set()
    for pool in (INGREDIENTS, DISTRACTORS, FURNITURE, ROOMS, DOOR_NAMES):
        for entry in pool:
            words.add(entry)
    for group in (STATE_WORDS, FIXED_ENTITIES, GRAMMAR_WORDS, RELATIONS):
        words.update(group)
    for entry in list(words):
        words.update(entry.split())
        words.update(entry.replace("-", " ").split())
    return tuple(sorted(words))


def default_vocabulary() -> Vocabulary:
    return Vocabulary(_all_tokens())
