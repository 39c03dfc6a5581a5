"""What every workload shares: the item record and the check failure."""

from __future__ import annotations

import random
from dataclasses import dataclass, field


class CheckFailed(Exception):
    """The independent check rejected an answer."""


def require(condition, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class Item:
    """One user-level query: the document the program sees, and what to expect."""

    kind: str
    doc: str
    expect: dict = field(default_factory=dict)


class Draws:
    """Bookkeeping of one run's generation: no item twice, discards counted."""

    def __init__(self):
        self.seen: set[str] = set()
        self.discarded = 0

    def discard(self) -> None:
        self.discarded += 1

    def fresh(self, doc: str) -> bool:
        if doc in self.seen:
            self.discarded += 1
            return False
        self.seen.add(doc)
        return True


def round_rng(workload: str, seed: int, round_index: int) -> random.Random:
    """The generator of one round; string seeds hash the same in every process."""
    return random.Random(f"{workload}:{seed}:{round_index}")


def nonzero(rng: random.Random, bound: int) -> int:
    return rng.choice([c for c in range(-bound, bound + 1) if c])
