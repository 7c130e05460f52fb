"""Split statistics are read once per file per job, and shared read-only.

``split_pool`` surveys a job's splits through one open of each dataset
file, so the open cache's ``(mtime, size)`` fingerprint check runs once
per job rather than once per split, and the next job still sees a
rewritten file. The per-partition stats mapping is built once and
handed to every caller, so nobody may mutate it.
"""

import os
import random
from types import SimpleNamespace

import pytest

from repro.core.pool import split_pool
from repro.core.sampling_job import make_sampling_conf
from repro.data.predicates import MarkerEquals
from repro.engine.jobconf import STATS_MODES
from repro.scan import prune
from repro.scan.mmapstore import MmapDataset, MmapDatasetWriter, open_mmap_dataset

PARTITIONS = 64
ROWS = 8
MARKER = MarkerEquals("x", 51)
MODES = [mode for mode in STATS_MODES if mode != "off"]


def write_file(path, marked):
    """A stats file of 64 partitions; those in ``marked`` hold the marker."""
    with MmapDatasetWriter(path, ("x",), ("i",), stats=True) as writer:
        for index in range(PARTITIONS):
            values = [1 + (index + row) % 50 for row in range(ROWS)]
            if index in marked:
                values[index % ROWS] = MARKER.marker
            writer.write_partition({"x": values}, ROWS)


def splits_of(path):
    return [
        SimpleNamespace(split_id=f"p{ref.partition}", mmap_ref=ref)
        for ref in MmapDataset(path).split_refs()
    ]


def survey(path, mode, monkeypatch):
    """(split ids the job's pool keeps, opens of the dataset file)."""
    opens = []

    def counting_open(file_path):
        opens.append(file_path)
        return open_mmap_dataset(file_path)

    monkeypatch.setattr(prune, "open_mmap_dataset", counting_open)
    conf = make_sampling_conf(
        name="q", input_path="/t", predicate=MARKER, sample_size=5, stats_mode=mode
    )
    pool = split_pool(splits_of(path), conf, random.Random(0))
    kept = {split.split_id for split in pool.take_all()}
    assert pool.pruned == PARTITIONS - len(kept)
    return kept, len(opens)


def ids(partitions):
    return {f"p{index}" for index in partitions}


@pytest.mark.parametrize("mode", MODES)
def test_pool_opens_each_file_once(tmp_path, monkeypatch, mode):
    path = tmp_path / "marked.rcs"
    write_file(path, marked={3, 40})
    kept, opens = survey(path, mode, monkeypatch)
    assert kept == ids({3, 40})
    assert opens == 1


@pytest.mark.parametrize("mode", MODES)
def test_next_job_prunes_by_rewritten_stats(tmp_path, monkeypatch, mode):
    path = tmp_path / "marked.rcs"
    write_file(path, marked={3, 40})
    assert survey(path, mode, monkeypatch)[0] == ids({3, 40})
    before = os.stat(path)
    write_file(path, marked={7, 8, 63})
    # A same-size rewrite inside one filesystem timestamp tick keeps the
    # (mtime, size) fingerprint; step the mtime so the test never races
    # the clock.
    os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns + 10**9))
    kept, opens = survey(path, mode, monkeypatch)
    assert kept == ids({7, 8, 63})
    assert opens == 1


def test_partition_stats_mapping_is_shared_and_read_only(tmp_path):
    path = tmp_path / "marked.rcs"
    write_file(path, marked={0})
    dataset = MmapDataset(path)
    stats = dataset.partition_stats(0)
    assert dataset.partition_stats(0) is stats
    with pytest.raises(TypeError):
        stats["x"] = None
    with pytest.raises(TypeError):
        del stats["x"]
    assert not prune.may_match(MARKER, dataset.partition_stats(1))
    assert prune.may_match(MARKER, stats)
