"""Tests for the symmetric heap."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fabric.errors import AddressError, PEIndexError, RegionError
from repro.fabric.memory import SymmetricHeap

U64 = (1 << 64) - 1


@pytest.fixture
def heap():
    h = SymmetricHeap(4)
    h.alloc_words("w", 16)
    h.alloc_bytes("b", 64)
    return h


class TestAllocation:
    def test_regions_independent_per_pe(self, heap):
        heap.store(0, "w", 3, 111)
        heap.store(1, "w", 3, 222)
        assert heap.load(0, "w", 3) == 111
        assert heap.load(1, "w", 3) == 222
        assert heap.load(2, "w", 3) == 0

    def test_fill_value(self):
        h = SymmetricHeap(2)
        h.alloc_words("f", 4, fill=7)
        assert h.load(0, "f", 0) == 7
        assert h.load(1, "f", 3) == 7

    def test_duplicate_region_rejected(self, heap):
        with pytest.raises(RegionError, match="already allocated"):
            heap.alloc_words("w", 8)

    def test_missing_region(self, heap):
        with pytest.raises(RegionError, match="no word region"):
            heap.load(0, "nope", 0)
        with pytest.raises(RegionError, match="no byte region"):
            heap.read_bytes(0, "nope", 0, 1)

    def test_spec_lookup(self, heap):
        assert heap.spec("w").length == 16
        assert heap.spec("b").kind == "bytes"
        with pytest.raises(RegionError):
            heap.spec("missing")

    def test_bad_sizes_rejected(self):
        h = SymmetricHeap(1)
        with pytest.raises(RegionError):
            h.alloc_words("z", 0)
        with pytest.raises(PEIndexError):
            SymmetricHeap(0)


class TestBounds:
    def test_word_offset_bounds(self, heap):
        with pytest.raises(AddressError):
            heap.load(0, "w", 16)
        with pytest.raises(AddressError):
            heap.load(0, "w", -1)
        with pytest.raises(AddressError):
            heap.load_words(0, "w", 14, 3)

    def test_byte_bounds(self, heap):
        with pytest.raises(AddressError):
            heap.read_bytes(0, "b", 60, 5)
        with pytest.raises(AddressError):
            heap.write_bytes(0, "b", 63, b"ab")

    def test_pe_bounds(self, heap):
        with pytest.raises(PEIndexError):
            heap.load(4, "w", 0)
        with pytest.raises(PEIndexError):
            heap.load(-1, "w", 0)


class TestAtomics:
    def test_fetch_add_returns_old(self, heap):
        assert heap.fetch_add(0, "w", 0, 5) == 0
        assert heap.fetch_add(0, "w", 0, 3) == 5
        assert heap.load(0, "w", 0) == 8

    def test_fetch_add_wraps_u64(self, heap):
        heap.store(0, "w", 0, U64)
        old = heap.fetch_add(0, "w", 0, 1)
        assert old == U64
        assert heap.load(0, "w", 0) == 0

    def test_fetch_add_high_field_no_corruption(self, heap):
        """A fetch-add on a high-order field never touches lower bits —
        the property the SWS stealval layout depends on."""
        low = 0xDEAD
        heap.store(0, "w", 0, ((1 << 24) - 1) << 40 | low)
        heap.fetch_add(0, "w", 0, 1 << 40)  # overflows the 24-bit field
        assert heap.load(0, "w", 0) & ((1 << 40) - 1) == low

    def test_swap(self, heap):
        heap.store(0, "w", 1, 10)
        assert heap.swap(0, "w", 1, 99) == 10
        assert heap.load(0, "w", 1) == 99

    def test_compare_swap_success(self, heap):
        heap.store(0, "w", 2, 7)
        assert heap.compare_swap(0, "w", 2, 7, 42) == 7
        assert heap.load(0, "w", 2) == 42

    def test_compare_swap_failure_leaves_value(self, heap):
        heap.store(0, "w", 2, 7)
        assert heap.compare_swap(0, "w", 2, 8, 42) == 7
        assert heap.load(0, "w", 2) == 7

    def test_store_masks_to_64_bits(self, heap):
        heap.store(0, "w", 0, (1 << 70) | 5)
        assert heap.load(0, "w", 0) == 5


class TestBulk:
    def test_words_round_trip(self, heap):
        heap.store_words(1, "w", 4, [1, 2, 3])
        assert heap.load_words(1, "w", 4, 3) == [1, 2, 3]

    def test_bytes_round_trip(self, heap):
        heap.write_bytes(2, "b", 10, b"hello world")
        assert heap.read_bytes(2, "b", 10, 11) == b"hello world"

    def test_empty_byte_read(self, heap):
        assert heap.read_bytes(0, "b", 0, 0) == b""

    @given(st.lists(st.integers(min_value=0, max_value=U64), min_size=1, max_size=16))
    @settings(max_examples=50)
    def test_word_values_round_trip(self, values):
        h = SymmetricHeap(1)
        h.alloc_words("r", len(values))
        h.store_words(0, "r", 0, values)
        assert h.load_words(0, "r", 0, len(values)) == values

    @given(st.binary(min_size=0, max_size=128))
    @settings(max_examples=50)
    def test_byte_values_round_trip(self, data):
        h = SymmetricHeap(1)
        h.alloc_bytes("r", max(1, len(data)))
        h.write_bytes(0, "r", 0, data)
        assert h.read_bytes(0, "r", 0, len(data)) == data


class TestDirtyLog:
    """The per-region log of written offsets the invariant oracle reads."""

    def test_each_mutator_logs_its_offsets_on_its_pe(self, heap):
        log = heap.dirty_log("w")
        assert len(log) == heap.npes and not any(log)
        heap.store(1, "w", 3, 5)
        heap.fetch_add(2, "w", 4, 1)
        heap.swap(3, "w", 5, 9)
        heap.compare_swap(0, "w", 6, 0, 7)
        heap.store_words(2, "w", 10, [1, 2, 3])
        assert log == [{6}, {3}, {4, 10, 11, 12}, {5}]

    def test_unchanged_value_still_logged(self, heap):
        """A write is logged whether or not it changes the word."""
        log = heap.dirty_log("w")
        heap.store(0, "w", 1, 0)
        heap.fetch_add(0, "w", 2, 0)
        assert log[0] == {1, 2}

    def test_failed_compare_swap_logs_nothing(self, heap):
        log = heap.dirty_log("w")
        heap.store(0, "w", 2, 7)
        log[0].clear()
        assert heap.compare_swap(0, "w", 2, 8, 42) == 7
        assert not any(log)

    def test_reads_log_nothing(self, heap):
        log = heap.dirty_log("w")
        heap.load(0, "w", 0)
        heap.load_words(1, "w", 0, 16)
        heap.word_view(2, "w")
        assert not any(log)

    def test_log_is_per_region_and_shared(self, heap):
        heap.alloc_words("other", 4)
        log = heap.dirty_log("w")
        assert heap.dirty_log("w") is log
        heap.store(0, "other", 1, 1)
        assert not any(log)

    def test_consumer_clears(self, heap):
        log = heap.dirty_log("w")
        heap.store(0, "w", 0, 1)
        log[0].clear()
        heap.store(0, "w", 1, 1)
        assert log[0] == {1}

    def test_missing_region_rejected(self, heap):
        with pytest.raises(RegionError):
            heap.dirty_log("nope")
        with pytest.raises(RegionError):
            heap.dirty_log("b")  # byte regions carry no log

    def test_waiters_fire_and_deregister_with_log(self, heap):
        log = heap.dirty_log("w")
        seen = []
        heap.add_waiter(1, "w", 0, lambda v: (seen.append(v), v == 3)[1])
        heap.store(1, "w", 0, 1)
        heap.fetch_add(1, "w", 0, 2)
        heap.store(1, "w", 0, 9)  # waiter already removed
        assert seen == [1, 3]
        assert heap._waiters == {}
        assert log[1] == {0}
        assert heap._watched  # the log keeps the mutators' guard on

    def test_guard_off_by_default(self, heap):
        assert not heap._watched
        heap.store(0, "w", 0, 1)
        assert not heap._watched

    def test_guard_falls_back_when_last_waiter_leaves(self, heap):
        heap.add_waiter(0, "w", 0, lambda v: v == 1)
        heap.add_waiter(2, "w", 5, lambda v: v == 2)
        assert heap._watched
        heap.store(0, "w", 0, 1)
        assert heap._watched  # one waiter left
        heap.store(2, "w", 5, 2)
        assert not heap._watched

    def test_guard_on_once_a_log_exists(self, heap):
        heap.dirty_log("w")
        assert heap._watched
