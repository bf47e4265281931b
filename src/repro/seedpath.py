"""Seed-path emulation: run the pipeline with pre-optimization kernels.

The hot-path optimizations (full-table GF(256) kernels, batched RS
encode with codec-owned scratch, sampled record hashing, memoryview
write splitting, bulk dedup-run extension) replaced the seed
implementations in place. This module patches the seed behaviours back
in, under a context manager, for two consumers:

* ``benchmarks/bench_hotpath.py`` measures seed-vs-optimized numbers
  with the *same* harness, so the recorded speedups compare identical
  workloads;
* the pipeline-equivalence test proves a mixed workload produces
  byte-identical reads and identical data-reduction stats either way.

The seed kernels themselves (``GF256.mul_array_reference``,
``ReedSolomon.encode_reference``) stay in their home modules as the
bit-exactness oracles; this module only re-wires the pipeline to them.
"""

from contextlib import contextmanager

import numpy as np

import repro.core.datapath as _datapath_module
from repro.core.datapath import DataPath
from repro.dedup.hashing import sector_hash
from repro.dedup.index import DedupLocation
from repro.dedup.inline import DedupMatch, InlineDeduper
from repro.erasure.gf256 import GF256
from repro.erasure.reed_solomon import ReedSolomon
from repro.units import MAX_CBLOCK, SECTOR


def _seed_mul_array(cls, array, scalar):
    return cls.mul_array_reference(array, scalar)


def _seed_addmul_array(cls, accumulator, array, scalar, scratch=None):
    return cls.addmul_array_reference(accumulator, array, scalar)


def _seed_encode(self, shards):
    return self.encode_reference(shards)


def _seed_encode_stripes(self, data_matrix):
    """Seed segio flush: per-shard byte strings + allocating encode."""
    matrix = np.asarray(data_matrix, dtype=np.uint8)
    shards = [matrix[index].tobytes() for index in range(matrix.shape[0])]
    parity = self.encode_reference(shards)
    return np.stack([np.frombuffer(row, dtype=np.uint8) for row in parity])


def _seed_split_write(offset, data, max_cblock=MAX_CBLOCK):
    """Seed splitter: each chunk is a copying bytes slice."""
    if offset % SECTOR:
        raise ValueError("write offset %d is not sector-aligned" % offset)
    if len(data) % SECTOR:
        raise ValueError("write length %d is not a sector multiple" % len(data))
    if max_cblock % SECTOR or max_cblock <= 0:
        raise ValueError("max_cblock must be a positive sector multiple")
    data = bytes(data)
    cursor = 0
    while cursor < len(data):
        chunk = data[cursor : cursor + max_cblock]
        yield offset + cursor, chunk
        cursor += len(chunk)


def _seed_sector_hashes(data):
    """Seed hashing: one copying bytes slice per sector."""
    data = bytes(data)
    if len(data) % SECTOR:
        raise ValueError("data length %d is not a sector multiple" % len(data))
    return [
        sector_hash(data[offset : offset + SECTOR])
        for offset in range(0, len(data), SECTOR)
    ]


def _seed_record_hashes(self, segment_id, payload_offset, stored_length, data):
    """Seed recording: hash every sector, keep every Nth digest."""
    hashes = _seed_sector_hashes(data)
    for sector, value in enumerate(hashes):
        if sector % self.config.dedup_sample_every == 0:
            self.dedup_index.record(
                value,
                DedupLocation(segment_id, payload_offset, stored_length, sector),
            )


def _seed_find_matches(self, data):
    """Seed matcher: hash every sector of the write eagerly, up front."""
    hashes = _seed_sector_hashes(data)
    total = len(hashes)
    matches = []
    claimed_until = 0
    cursor = 0
    while cursor < total:
        location = self.index.lookup(hashes[cursor])
        if location is None:
            cursor += 1
            continue
        if not self._verify(location, self._sector(data, cursor)):
            self.false_hash_hits += 1
            cursor += 1
            continue
        run_start, run_location = self._extend_backward(
            data, cursor, location, limit=cursor - claimed_until
        )
        run_end = self._extend_forward(data, cursor, location, total)
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


def _seed_extend_forward(self, data, anchor, location, total):
    end = anchor + 1
    while end < total:
        candidate = location.shifted(end - anchor)
        if not self._verify(candidate, self._sector(data, end)):
            break
        end += 1
    return end


def _seed_extend_backward(self, data, anchor, location, limit):
    start = anchor
    steps = 0
    while (
        steps < limit
        and start > 0
        and location.sector_index - (anchor - start) - 1 >= 0
    ):
        candidate = location.shifted(start - 1 - anchor)
        if not self._verify(candidate, self._sector(data, start - 1)):
            break
        start -= 1
        steps += 1
    return start, location.shifted(start - anchor)


@contextmanager
def seed_pipeline():
    """Patch the seed hot-path implementations back in, temporarily."""
    saved = {
        "mul_array": GF256.__dict__["mul_array"],
        "addmul_array": GF256.__dict__["addmul_array"],
        "encode": ReedSolomon.encode,
        "encode_stripes": ReedSolomon.encode_stripes,
        "split_write": _datapath_module.split_write,
        "record_hashes": DataPath._record_hashes,
        "find_matches": InlineDeduper.find_matches,
        "extend_forward": InlineDeduper._extend_forward,
        "extend_backward": InlineDeduper._extend_backward,
    }
    GF256.mul_array = classmethod(_seed_mul_array)
    GF256.addmul_array = classmethod(_seed_addmul_array)
    ReedSolomon.encode = _seed_encode
    ReedSolomon.encode_stripes = _seed_encode_stripes
    _datapath_module.split_write = _seed_split_write
    DataPath._record_hashes = _seed_record_hashes
    InlineDeduper.find_matches = _seed_find_matches
    InlineDeduper._extend_forward = _seed_extend_forward
    InlineDeduper._extend_backward = _seed_extend_backward
    try:
        yield
    finally:
        GF256.mul_array = saved["mul_array"]
        GF256.addmul_array = saved["addmul_array"]
        ReedSolomon.encode = saved["encode"]
        ReedSolomon.encode_stripes = saved["encode_stripes"]
        _datapath_module.split_write = saved["split_write"]
        DataPath._record_hashes = saved["record_hashes"]
        InlineDeduper.find_matches = saved["find_matches"]
        InlineDeduper._extend_forward = saved["extend_forward"]
        InlineDeduper._extend_backward = saved["extend_backward"]
