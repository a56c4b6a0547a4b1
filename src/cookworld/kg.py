"""Knowledge-graph observations: (subject, relation, object) triplet sets.

Observations are immutable, canonically ordered, and hashable with a
platform-stable 64-bit digest so they can be used as visitation-count keys.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_left
from dataclasses import dataclass
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


@dataclass(frozen=True, order=True)
class Triplet:
    """One edge of the observation graph.

    Field order (subject, object, relation) matches the canonical sort key,
    so dataclass ordering doubles as the listing order.
    """

    subject: str
    object: str
    relation: str

    def __post_init__(self) -> None:
        if self.relation not in RELATION_SET:
            raise InvalidTripletError(f"unknown relation {self.relation!r}")
        for field in (self.subject, self.object):
            if not field or field != field.lower() or field != field.strip():
                raise InvalidTripletError(f"bad entity token {field!r}")

    def as_list(self) -> list[str]:
        return [self.subject, self.object, self.relation]


def _sort_key(t: Triplet) -> tuple[str, str, str]:
    return (t.subject, t.object, t.relation)


class KGObservation:
    """An immutable, deduplicated, canonically sorted set of triplets."""

    __slots__ = ("triplets", "_digest")

    def __init__(self, triplets: Iterable[Triplet]):
        ordered = tuple(sorted(set(triplets)))
        player_at = [t for t in ordered if t.subject == "player" and t.relation == "at"]
        if len(player_at) > 1:
            raise InvalidObservationError(f"multiple player locations: {player_at}")
        object.__setattr__(self, "triplets", ordered)
        object.__setattr__(self, "_digest", None)

    def __setattr__(self, name: str, value) -> None:  # pragma: no cover - guard
        raise AttributeError("KGObservation is immutable")

    def __iter__(self) -> Iterator[Triplet]:
        return iter(self.triplets)

    def __len__(self) -> int:
        return len(self.triplets)

    def __contains__(self, triplet: Triplet) -> bool:
        i = bisect_left(self.triplets, triplet)
        return i < len(self.triplets) and self.triplets[i] == triplet

    def __eq__(self, other) -> bool:
        return isinstance(other, KGObservation) and self.triplets == other.triplets

    def __hash__(self) -> int:
        return hash(self.triplets)

    def __repr__(self) -> str:
        return f"KGObservation({len(self.triplets)} triplets)"

    def has(self, subject: str, obj: str, relation: str) -> bool:
        # binary search on the canonical order, without building a Triplet
        key = (subject, obj, relation)
        i = bisect_left(self.triplets, key, key=_sort_key)
        return i < len(self.triplets) and _sort_key(self.triplets[i]) == key

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
    payload = "\n".join("|".join(t.as_list()) for t in obs.triplets)
    digest = int.from_bytes(hashlib.blake2b(payload.encode(), digest_size=8).digest(), "big")
    object.__setattr__(obs, "_digest", digest)
    return digest
