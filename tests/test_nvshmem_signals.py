"""Signal release/acquire semantics (paper Algorithm 5's memory ordering)."""

import pytest

from repro.nvshmem.signals import SignalArray, SignalError


@pytest.fixture()
def sig():
    return SignalArray(name="s", n_pes=2, n_signals=3)


class TestStoresAndWaits:
    def test_initially_unset(self, sig):
        assert not sig.is_set(0, 0, 1)

    def test_release_then_acquire(self, sig):
        sig.release_store(0, 1, 7)
        assert sig.acquire_check(0, 1, 7)

    def test_acquire_wrong_value_polls_false(self, sig):
        sig.release_store(0, 1, 7)
        assert not sig.acquire_check(0, 1, 8)

    def test_relaxed_store_without_data_need_ok(self, sig):
        """The paper's system_relaxed_store case: first pulse of the force
        send, no prior writes to flush."""
        sig.relaxed_store(1, 0, 3)
        assert sig.acquire_check(1, 0, 3, needs_data=False)

    def test_relaxed_store_with_data_need_raises(self, sig):
        """Memory-ordering misuse: a data-carrying wait satisfied by a
        relaxed store is exactly the bug class strict mode must catch."""
        sig.relaxed_store(1, 0, 3)
        with pytest.raises(SignalError, match="release store"):
            sig.acquire_check(1, 0, 3, needs_data=True)

    def test_nonstrict_mode_permits_relaxed(self):
        sig = SignalArray(name="s", n_pes=1, n_signals=1, strict=False)
        sig.relaxed_store(0, 0, 1)
        assert sig.acquire_check(0, 0, 1, needs_data=True)

    def test_release_overwrites_relaxed(self, sig):
        sig.relaxed_store(0, 0, 1)
        sig.release_store(0, 0, 2)
        assert sig.acquire_check(0, 0, 2, needs_data=True)

    def test_epoch_monotonicity(self, sig):
        """Old-epoch values never satisfy a new epoch's wait."""
        sig.release_store(0, 2, 1)
        assert not sig.acquire_check(0, 2, 2)
        sig.release_store(0, 2, 2)
        assert sig.acquire_check(0, 2, 2)

    def test_store_outside_uint64_refused(self, sig):
        """Slots hold uint64 values: a negative or 65-bit store is refused
        and leaves the slot as it was."""
        sig.release_store(0, 0, 2**64 - 1)
        for bad in (-1, 2**64):
            with pytest.raises(OverflowError, match="uint64"):
                sig.relaxed_store(0, 0, bad)
        assert sig.acquire_check(0, 0, 2**64 - 1)

    def test_validation(self):
        with pytest.raises(ValueError):
            SignalArray(name="x", n_pes=0, n_signals=1)
