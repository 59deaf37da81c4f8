"""Space Saving sketch: constant-memory tracking of the heaviest flows.

A router cannot afford per-flow state for every short transfer crossing
it, but weighing its queues fairly only needs the handful of flows that
carry most of the bytes.  The Space Saving algorithm keeps exactly K
counters; an untracked flow steals the smallest counter and inherits its
count, so a tracked flow's true byte total is always within
``count - error`` and ``count``.

Since a newcomer inherits the count it evicts, ``record(n)`` raises the
counters' sum by exactly ``n``: they sum to the bytes recorded since the
last ``clear()`` (an exact int for int sizes), the router's queue bytes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import SimTime, US_PER_S


@dataclass(slots=True)
class _Entry:
    count: float
    error: float


class SpaceSavingSketch:
    def __init__(self, k: int):
        if k < 1:
            raise ValueError(f"sketch size must be at least 1, got {k}")
        self.k = k
        self._entries: dict[str, _Entry] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def record(self, flow_id: str, n_bytes: float) -> None:
        """Account ``n_bytes`` to ``flow_id``, evicting the minimum if full."""
        if n_bytes < 0:
            raise ValueError(f"byte count must be non-negative, got {n_bytes}")
        entry = self._entries.get(flow_id)
        if entry is not None:
            entry.count += n_bytes
            return
        if len(self._entries) < self.k:
            self._entries[flow_id] = _Entry(n_bytes, 0.0)
            return
        # Evict the smallest counter (ties broken by flow id for
        # determinism) and let the newcomer inherit its count.
        victim = min(self._entries.items(), key=lambda kv: (kv[1].count, kv[0]))
        min_count = victim[1].count
        del self._entries[victim[0]]
        self._entries[flow_id] = _Entry(min_count + n_bytes, min_count)

    def counts(self) -> dict[str, float]:
        return {fid: e.count for fid, e in self._entries.items()}

    def errors(self) -> dict[str, float]:
        return {fid: e.error for fid, e in self._entries.items()}

    def top_rates(self, interval_us: SimTime) -> list[tuple[str, float]]:
        """Tracked flows as rates over ``interval_us``, heaviest first.

        Ties are broken by ascending flow id so the ordering is stable.
        """
        if interval_us <= 0:
            raise ValueError(f"interval must be positive, got {interval_us}")
        ranked = sorted(self._entries.items(), key=lambda kv: (-kv[1].count, kv[0]))
        return [(fid, e.count * 8 * US_PER_S / interval_us) for fid, e in ranked]

    def clear(self) -> None:
        self._entries.clear()
