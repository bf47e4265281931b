"""Inline deduplication: lookup, verify, anchor-extend.

For an incoming write, every sector hash is looked up (only sampled
hashes were recorded). A hit is *verified* by comparing the actual
bytes — collisions cost one block compare, never correctness. A
verified sector becomes an anchor: the match is extended forward and
backward sector by sector, so duplicate runs of at least
``min_run_sectors`` (8 by default = 4 KiB) are detected regardless of
how they align with the sampling grid.

Hot-path shape: when the caller supplies a ``fetch_run`` callback (the
data path does), extension compares whole candidate runs with a single
memoryview fetch and one vectorized mismatch scan, instead of one
``fetch_sector`` round trip per sector. The per-sector path remains as
the fallback for callers that only provide ``fetch_sector``, and the
results are identical: both stop the run at the first differing sector
or the cblock boundary.
"""

from dataclasses import dataclass

import numpy as np

from repro.dedup.hashing import sector_hash
from repro.units import SECTOR


@dataclass(frozen=True)
class DedupMatch:
    """One deduplicated run within an incoming write.

    ``sector_start``/``sector_count`` address the incoming data;
    ``location`` is the physical home of the run's first sector.
    """

    sector_start: int
    sector_count: int
    location: object

    @property
    def byte_start(self):
        return self.sector_start * SECTOR

    @property
    def byte_length(self):
        return self.sector_count * SECTOR


def _common_sector_prefix(candidate, incoming):
    """Number of leading sectors on which two equal-length views agree."""
    if candidate == incoming:
        return len(candidate) // SECTOR
    a = np.frombuffer(candidate, dtype=np.uint8)
    b = np.frombuffer(incoming, dtype=np.uint8)
    first_mismatch = int(np.argmax(a != b))
    return first_mismatch // SECTOR


def _common_sector_suffix(candidate, incoming):
    """Number of trailing sectors on which two equal-length views agree."""
    if candidate == incoming:
        return len(candidate) // SECTOR
    a = np.frombuffer(candidate, dtype=np.uint8)
    b = np.frombuffer(incoming, dtype=np.uint8)
    mismatches = np.nonzero(a != b)[0]
    last_mismatch = int(mismatches[-1])
    return (len(candidate) - 1 - last_mismatch) // SECTOR


class InlineDeduper:
    """Finds duplicate runs in incoming writes against the dedup index."""

    def __init__(self, index, fetch_sector, min_run_sectors=8, fetch_run=None):
        """``fetch_sector(location) -> bytes or None`` reads the 512 B
        sector a :class:`DedupLocation` points at (None when the
        location is no longer readable, e.g. its cblock was collected).

        ``fetch_run(location, sector_count) -> memoryview or None``
        optionally reads up to ``sector_count`` consecutive sectors
        starting at ``location`` (clamped to the cblock) so run
        extension can compare in bulk.
        """
        if min_run_sectors < 1:
            raise ValueError("min_run_sectors must be positive")
        self.index = index
        self.fetch_sector = fetch_sector
        self.fetch_run = fetch_run
        self.min_run_sectors = min_run_sectors
        self.verify_comparisons = 0
        self.false_hash_hits = 0
        self.matches_found = 0

    def _sector(self, data, index):
        return data[index * SECTOR : (index + 1) * SECTOR]

    def _verify(self, location, expected):
        self.verify_comparisons += 1
        actual = self.fetch_sector(location)
        return actual is not None and actual == expected

    def find_matches(self, data):
        """Duplicate runs in ``data``; non-overlapping, sorted, verified.

        Sectors are hashed lazily: the cursor jumps over the interior of
        every emitted match, so an exact-duplicate cblock costs roughly
        one digest instead of one per sector. The match set is identical
        to eager hashing — the cursor only ever consults the hash at its
        own position.
        """
        view = memoryview(data)
        if len(view) % SECTOR:
            raise ValueError(
                "data length %d is not a sector multiple" % len(view)
            )
        total = len(view) // SECTOR
        hashes = [None] * total
        matches = []
        claimed_until = 0  # first sector not covered by an emitted match
        cursor = 0
        while cursor < total:
            value = hashes[cursor]
            if value is None:
                value = sector_hash(view[cursor * SECTOR : (cursor + 1) * SECTOR])
                hashes[cursor] = value
            location = self.index.lookup(value)
            if location is None:
                cursor += 1
                continue
            if not self._verify(location, self._sector(view, cursor)):
                self.false_hash_hits += 1
                cursor += 1
                continue
            run_start, run_location = self._extend_backward(
                view, cursor, location, limit=cursor - claimed_until
            )
            run_end = self._extend_forward(view, cursor, location, total)
            run_length = run_end - run_start
            if run_length >= self.min_run_sectors:
                matches.append(
                    DedupMatch(
                        sector_start=run_start,
                        sector_count=run_length,
                        location=run_location,
                    )
                )
                self.matches_found += 1
                claimed_until = run_end
                cursor = run_end
            else:
                cursor += 1
        return matches

    def _extend_forward(self, data, anchor, location, total):
        """Grow the run past the anchor; returns one past the last match."""
        if self.fetch_run is not None:
            return self._extend_forward_batched(data, anchor, location, total)
        end = anchor + 1
        while end < total:
            candidate = location.shifted(end - anchor)
            if not self._verify(candidate, self._sector(data, end)):
                break
            end += 1
        return end

    def _extend_forward_batched(self, data, anchor, location, total):
        want = total - (anchor + 1)
        if want <= 0:
            return anchor + 1
        run = self.fetch_run(location.shifted(1), want)
        if run is None:
            return anchor + 1
        got = len(run) // SECTOR
        incoming = data[(anchor + 1) * SECTOR : (anchor + 1 + got) * SECTOR]
        agreed = _common_sector_prefix(run, incoming)
        self.verify_comparisons += max(1, min(agreed + 1, got))
        return anchor + 1 + agreed

    def _extend_backward(self, data, anchor, location, limit):
        """Grow the run before the anchor; returns (run start, location).

        ``limit`` caps how far back we may go without overlapping the
        previous emitted match.
        """
        if self.fetch_run is not None:
            return self._extend_backward_batched(data, anchor, location, limit)
        start = anchor
        steps = 0
        while steps < limit and start > 0 and location.sector_index - (anchor - start) - 1 >= 0:
            candidate = location.shifted(start - 1 - anchor)
            if not self._verify(candidate, self._sector(data, start - 1)):
                break
            start -= 1
            steps += 1
        return start, location.shifted(start - anchor)

    def _extend_backward_batched(self, data, anchor, location, limit):
        want = min(limit, anchor, location.sector_index)
        if want <= 0:
            return anchor, location
        run = self.fetch_run(location.shifted(-want), want)
        agreed = 0
        if run is not None and len(run) == want * SECTOR:
            incoming = data[(anchor - want) * SECTOR : anchor * SECTOR]
            agreed = _common_sector_suffix(run, incoming)
        self.verify_comparisons += max(1, min(agreed + 1, want))
        start = anchor - agreed
        return start, location.shifted(start - anchor)
