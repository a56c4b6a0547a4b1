"""Knowledge-graph observations: (subject, relation, object) triplet sets.

Observations are immutable, canonically ordered, and hashable with a
platform-stable 64-bit digest so they can be used as visitation-count keys.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property
from operator import attrgetter, lt
from typing import Iterable, Iterator, Sequence

RELATIONS = (
    "at",
    "in",
    "on",
    "is",
    "needs",
    "part_of",
    "north_of",
    "south_of",
    "east_of",
    "west_of",
)
RELATION_SET = frozenset(RELATIONS)

DIRECTIONS = ("north", "south", "east", "west")
OPPOSITE_DIRECTION = {"north": "south", "south": "north", "east": "west", "west": "east"}


class InvalidTripletError(ValueError):
    """A triplet fell outside the closed relation/token vocabulary."""


class InvalidObservationError(ValueError):
    """A triplet set violates an observation invariant."""


def is_entity_token(name) -> bool:
    """Whether a graph node can carry this name: a non-empty lowercase
    string without surrounding whitespace."""
    return isinstance(name, str) and name != "" and name == name.lower() and name == name.strip()


@dataclass(frozen=True, order=True)
class Triplet:
    """One edge of the observation graph.

    Field order (subject, object, relation) matches the canonical sort key,
    so dataclass ordering agrees with the listing order.
    """

    subject: str
    object: str
    relation: str

    def __post_init__(self) -> None:
        if not isinstance(self.relation, str) or self.relation not in RELATION_SET:
            raise InvalidTripletError(f"unknown relation {self.relation!r}")
        for field in (self.subject, self.object):
            if not is_entity_token(field):
                raise InvalidTripletError(f"bad entity token {field!r}")

    def as_list(self) -> list[str]:
        return [self.subject, self.object, self.relation]

    # Built on first use and kept, so that an edge interned once per game
    # builds them once. cached_property stores them in the instance
    # __dict__, outside the fields, so they take no part in ==, hash or
    # ordering.

    @cached_property
    def key(self) -> tuple[str, str, str]:
        """(subject, object, relation): the canonical order, compared as plain tuples."""
        return (self.subject, self.object, self.relation)

    @cached_property
    def line(self) -> str:
        """This edge's line of the canonical serialization."""
        return f"{self.subject}|{self.object}|{self.relation}"


sort_key = attrgetter("key")
subject_of = attrgetter("subject")
_line = attrgetter("line")


class KGObservation:
    """An immutable, deduplicated, canonically sorted set of triplets."""

    __slots__ = ("triplets", "_digest")

    def __init__(self, triplets: Iterable[Triplet]):
        ordered = tuple(triplets)
        keys = list(map(sort_key, ordered))
        if not all(map(lt, keys, keys[1:])):
            # not already strictly ascending: drop duplicates and sort
            unique = dict(zip(keys, ordered))
            ordered = tuple(map(unique.__getitem__, sorted(unique)))
        # the player's edges are one run of the subject-first order
        lo = bisect_left(ordered, "player", key=subject_of)
        hi = bisect_right(ordered, "player", lo=lo, key=subject_of)
        player_at = [t for t in ordered[lo:hi] if t.relation == "at"]
        if len(player_at) > 1:
            raise InvalidObservationError(f"multiple player locations: {player_at}")
        object.__setattr__(self, "triplets", ordered)
        object.__setattr__(self, "_digest", None)

    @classmethod
    def _spliced(cls, triplets: list[Triplet]) -> "KGObservation":
        """A graph from edges already strictly in canonical order, with at
        most one player location: no check, dedup or sort. Only the
        engine's splice of a checked parent (engine/state.py) calls it;
        every other input goes through the checked constructor."""
        obs = object.__new__(cls)
        object.__setattr__(obs, "triplets", tuple(triplets))
        object.__setattr__(obs, "_digest", None)
        return obs

    def __setattr__(self, name: str, value) -> None:  # pragma: no cover - guard
        raise AttributeError("KGObservation is immutable")

    def __iter__(self) -> Iterator[Triplet]:
        return iter(self.triplets)

    def __len__(self) -> int:
        return len(self.triplets)

    def __contains__(self, triplet: Triplet) -> bool:
        return self.has(*triplet.key)

    def __eq__(self, other) -> bool:
        return isinstance(other, KGObservation) and self.triplets == other.triplets

    def __hash__(self) -> int:
        return hash(self.triplets)

    def __repr__(self) -> str:
        return f"KGObservation({len(self.triplets)} triplets)"

    def has(self, subject: str, obj: str, relation: str) -> bool:
        # binary search on the canonical order, without building a Triplet
        key = (subject, obj, relation)
        i = bisect_left(self.triplets, key, key=sort_key)
        return i < len(self.triplets) and self.triplets[i].key == key

    def entities(self) -> list[str]:
        """All entity strings appearing as subject or object, sorted."""
        names = {t.subject for t in self.triplets} | {t.object for t in self.triplets}
        return sorted(names)

    def as_lists(self) -> list[list[str]]:
        """Trace-file form: [subject, object, relation] rows in canonical order."""
        return [t.as_list() for t in self.triplets]

    @classmethod
    def from_lists(cls, rows: Sequence[Sequence[str]]) -> "KGObservation":
        triplets = []
        for row in rows:
            if len(row) != 3:
                raise InvalidObservationError(f"triplet row must have 3 fields: {row!r}")
            triplets.append(Triplet(row[0], row[1], row[2]))
        return cls(triplets)


def canonical_hash(obs: KGObservation) -> int:
    """Stable 64-bit digest of the canonical serialization.

    blake2b keeps the digest identical across processes and platforms,
    unlike the salted builtin hash.
    """
    cached = obs._digest
    if cached is not None:
        return cached
    payload = "\n".join(map(_line, obs.triplets))
    digest = int.from_bytes(hashlib.blake2b(payload.encode(), digest_size=8).digest(), "big")
    object.__setattr__(obs, "_digest", digest)
    return digest
