"""Tests for the replica directory: object -> holder set."""

from __future__ import annotations

from repro.core.identifiers import IdSpace
from repro.core.replicas import ReplicaDirectory

SPACE = IdSpace(bits=16, digit_bits=4)


class TestReplicaDirectory:
    def test_store_and_lookup(self):
        directory = ReplicaDirectory()
        obj = SPACE.identifier(42)
        assert directory.store(1, obj)
        assert not directory.store(1, obj)  # idempotent
        assert directory.has(1, obj)
        assert not directory.has(2, obj)
        assert not directory.has(1, SPACE.identifier(43))
        assert directory.holders(obj) == {1}
        assert directory.replica_count(obj) == 1
        assert len(directory) == 1

    def test_remove_object(self):
        directory = ReplicaDirectory()
        obj = SPACE.identifier(9)
        other = SPACE.identifier(10)
        for node in (1, 2, 3):
            directory.store(node, obj)
        directory.store(1, other)
        assert directory.remove_object(obj) == 3
        assert directory.holders(obj) == frozenset()
        assert not directory.has(1, obj)
        assert directory.remove_object(obj) == 0
        assert directory.holders(other) == {1}
        assert len(directory) == 1

    def test_unknown_object(self):
        directory = ReplicaDirectory()
        obj = SPACE.identifier(7)
        assert directory.holders(obj) == frozenset()
        assert directory.replica_count(obj) == 0
        assert not directory.has(0, obj)
        assert directory.remove_object(obj) == 0
        assert len(directory) == 0

    def test_len_counts_node_object_pairs(self):
        directory = ReplicaDirectory()
        first, second = SPACE.identifier(1), SPACE.identifier(2)
        for node in (4, 5):
            directory.store(node, first)
        directory.store(4, second)
        directory.store(4, second)  # a repeat adds no pair
        assert len(directory) == 3
        assert directory.replica_count(first) == 2
        assert directory.replica_count(second) == 1

    def test_holders_is_a_snapshot(self):
        directory = ReplicaDirectory()
        obj = SPACE.identifier(3)
        directory.store(1, obj)
        before = directory.holders(obj)
        directory.store(2, obj)
        assert before == {1}
        assert directory.holders(obj) == {1, 2}

    def test_keyed_by_identifier_value(self):
        directory = ReplicaDirectory()
        directory.store(1, SPACE.identifier(42))
        same = SPACE.identifier(42)
        assert directory.has(1, same)
        assert not directory.store(1, same)
        assert directory.remove_object(same) == 1

    def test_store_after_remove_object_starts_over(self):
        directory = ReplicaDirectory()
        obj = SPACE.identifier(5)
        directory.store(1, obj)
        directory.store(2, obj)
        directory.remove_object(obj)
        assert directory.store(2, obj)
        assert directory.holders(obj) == {2}
        assert len(directory) == 1
