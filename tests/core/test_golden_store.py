"""Golden on-disk stores: the store format is frozen byte for byte.

``data/golden_store/`` holds stores written by an earlier release of
:mod:`repro.core.store` from real campaign runs (IIS, Apache1 and SQL
under two configurations), together with what that release made of
them:

- ``single.jsonl`` — a single-file store whose lines arrived out of
  order, with one superseded line, one damaged interior line and a
  kill-truncated final line;
- ``sharded.d/`` — the same runs in a 3-segment sharded store, with a
  superseded line and a truncated tail in ``segment-001.jsonl``;
- ``expected.json`` — the ``keys()`` and ``corrupt_lines`` each store
  loaded to;
- ``single.sorted.jsonl`` — the single-file store's index dumped as
  sorted store lines;
- ``sharded.merged.jsonl`` and ``sharded.compacted.d/`` — the bytes
  ``merge_to`` and ``compact`` produced from ``sharded.d/``.

Any change to how stores load, append or rewrite must keep these
files readable and reproduce the expected bytes exactly.
"""

import json
import shutil
from pathlib import Path

import pytest

from repro.core.store import RunStore, ShardedRunStore

DATA = Path(__file__).parent / "data" / "golden_store"


@pytest.fixture()
def golden(tmp_path):
    """A private copy of the golden stores (tests rewrite them)."""
    copy = tmp_path / "golden"
    shutil.copytree(DATA, copy)
    return copy


def _expected(name):
    return json.loads((DATA / "expected.json").read_text())[name]


def _sorted_lines(name):
    return [json.loads(line)
            for line in (DATA / name).read_text().splitlines()]


def _segment_bytes(directory):
    return {path.name: path.read_bytes()
            for path in sorted(directory.iterdir())}


@pytest.mark.parametrize("name, opener", [
    ("single.jsonl", RunStore),
    ("sharded.d", ShardedRunStore),
])
def test_golden_store_loads_same_keys_and_entries(golden, name, opener):
    expected = _expected(name)
    with opener(golden / name) as store:
        assert store.keys() == [tuple(pair) for pair in expected["keys"]]
        assert store.corrupt_lines == expected["corrupt_lines"]
        for line in _sorted_lines("single.sorted.jsonl"):
            assert dict(store.entries_for(line["fp"]))[line["key"]] == \
                line["run"]
            assert store.get(line["fp"], line["key"]) is not None


def test_golden_sharded_store_keeps_its_manifest(golden):
    with ShardedRunStore(golden / "sharded.d", segments=8) as store:
        assert store.segments == 3


def test_golden_sharded_merge_reproduces_bytes(golden):
    with ShardedRunStore(golden / "sharded.d") as store:
        merged = store.merge_to(golden / "out" / "merged.jsonl")
    assert merged.read_bytes() == \
        (DATA / "sharded.merged.jsonl").read_bytes()
    assert not merged.with_name("merged.jsonl.tmp").exists()


def test_golden_sharded_compact_reproduces_bytes(golden):
    path = golden / "sharded.d"
    with ShardedRunStore(path) as store:
        store.compact()
        assert store.corrupt_lines == 0
    assert _segment_bytes(path) == \
        _segment_bytes(DATA / "sharded.compacted.d")


def test_golden_single_file_merge_and_compact_match_sorted_dump(golden):
    expected = (DATA / "single.sorted.jsonl").read_bytes()
    path = golden / "single.jsonl"
    with RunStore(path) as store:
        assert store.merge_to(golden / "merged.jsonl").read_bytes() == \
            expected
        store.compact()
        assert store.corrupt_lines == 0
    assert path.read_bytes() == expected
    with RunStore(path) as reopened:
        assert reopened.keys() == store.keys()
        assert reopened.corrupt_lines == 0
