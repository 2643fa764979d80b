"""The audit chain must detect every class of tampering: editing a
record, dropping one, reordering two, and truncating the tail (given an
anchored head)."""

import pytest

from repro.errors import IntegrityError
from repro.obs.audit import (
    GENESIS_HASH,
    MAX_AUDIT_RECORDS,
    AuditLog,
    record_digest,
)


def make_log(records=5):
    clock = {"now": 0.0}

    def tick():
        clock["now"] += 1.0
        return clock["now"]

    log = AuditLog(tick)
    for index in range(records):
        log.append("tag.update", policy="p", service="s", round=index)
    return log


class TestChainConstruction:
    def test_empty_log_verifies(self):
        log = AuditLog(lambda: 0.0)
        assert log.verify_chain() == 0
        assert log.head() == GENESIS_HASH

    def test_records_chain_to_genesis(self):
        log = make_log(3)
        assert log.records[0].previous_hash == GENESIS_HASH
        records = list(log.records)
        for prev, curr in zip(records, records[1:]):
            assert curr.previous_hash == prev.record_hash
        assert log.verify_chain() == 3

    def test_head_tracks_newest_record(self):
        log = make_log(4)
        assert log.head() == log.records[-1].record_hash

    def test_details_sanitized_for_hashing(self):
        log = AuditLog(lambda: 0.0)
        record = log.append("attest.accept", tag=b"\x01\x02",
                            count=3, ok=True, missing=None,
                            other=["not", "scalar"])
        assert record.details["tag"] == "0102"
        assert record.details["count"] == 3
        assert record.details["ok"] is True
        assert record.details["missing"] is None
        assert isinstance(record.details["other"], str)
        assert log.verify_chain() == 1


class TestTamperDetection:
    @pytest.mark.parametrize("field,value", [
        ("kind", "tag.update.fake"),
        ("timestamp", 99.0),
        ("sequence", 7),
    ])
    def test_editing_scalar_field_detected(self, field, value):
        log = make_log()
        setattr(log.records[2], field, value)
        with pytest.raises(IntegrityError):
            log.verify_chain()

    def test_editing_details_detected(self):
        log = make_log()
        log.records[1].details["policy"] = "someone-elses-policy"
        with pytest.raises(IntegrityError, match="edited"):
            log.verify_chain()

    def test_editing_any_single_record_detected(self):
        for position in range(5):
            log = make_log(5)
            log.records[position].details["round"] = 999
            with pytest.raises(IntegrityError):
                log.verify_chain()

    def test_dropping_interior_record_detected(self):
        log = make_log()
        del log.records[2]
        with pytest.raises(IntegrityError):
            log.verify_chain()

    def test_dropping_first_record_detected(self):
        log = make_log()
        del log.records[0]
        with pytest.raises(IntegrityError):
            log.verify_chain()

    def test_reordering_detected(self):
        log = make_log()
        log.records[1], log.records[2] = log.records[2], log.records[1]
        with pytest.raises(IntegrityError):
            log.verify_chain()

    def test_recomputed_forgery_still_breaks_successor(self):
        """Even re-hashing an edited record breaks the chain link after it."""
        log = make_log()
        record = log.records[1]
        record.details["policy"] = "forged"
        record.record_hash = record_digest(
            record.sequence, record.timestamp, record.kind, record.details,
            record.previous_hash)
        with pytest.raises(IntegrityError):
            log.verify_chain()

    def test_truncation_detected_with_anchored_head(self):
        log = make_log()
        anchored = log.head()
        log.records.pop()  # Byzantine operator truncates the newest record
        assert log.verify_chain() == 4  # chain walk alone cannot see it...
        with pytest.raises(IntegrityError, match="truncated"):
            log.verify_chain(expected_head=anchored)  # ...the anchor can

    def test_full_replacement_detected_with_anchored_head(self):
        log = make_log()
        anchored = log.head()
        replacement = AuditLog(lambda: 0.0)
        for index in range(5):
            replacement.append("tag.update", policy="benign", round=index)
        log.records = replacement.records  # internally consistent forgery
        assert log.verify_chain() == 5
        with pytest.raises(IntegrityError):
            log.verify_chain(expected_head=anchored)


class TestBoundedTail:
    """After many times the cap, the log keeps a bounded tail that still
    verifies against the anchored head, and tampering with it is caught."""

    APPENDS = 10 * MAX_AUDIT_RECORDS

    def test_tail_is_bounded_and_len_counts_everything(self):
        log = make_log(self.APPENDS)
        assert len(log.records) == MAX_AUDIT_RECORDS
        assert len(log) == self.APPENDS
        assert log.records[-1].sequence == self.APPENDS - 1
        assert log.head() == log.records[-1].record_hash

    def test_tail_verifies_against_anchored_head(self):
        log = make_log(self.APPENDS)
        assert log.verify_chain(expected_head=log.head()) == len(log.records)

    def test_head_matches_an_unbounded_chain(self):
        """Dropping old records never changes the chain itself."""
        log = make_log(self.APPENDS)
        previous = GENESIS_HASH
        for index in range(self.APPENDS):
            details = {"policy": "p", "round": index, "service": "s"}
            previous = record_digest(index, float(index + 1), "tag.update",
                                     details, previous)
        assert log.head() == previous

    def test_editing_a_retained_record_detected(self):
        log = make_log(self.APPENDS)
        anchored = log.head()
        log.records[len(log.records) // 2].details["policy"] = "forged"
        with pytest.raises(IntegrityError, match="edited"):
            log.verify_chain(expected_head=anchored)

    def test_dropping_the_oldest_retained_record_detected(self):
        log = make_log(self.APPENDS)
        anchored = log.head()
        del log.records[0]
        with pytest.raises(IntegrityError):
            log.verify_chain(expected_head=anchored)

    def test_truncating_the_tail_detected(self):
        log = make_log(self.APPENDS)
        anchored = log.head()
        log.records.pop()
        with pytest.raises(IntegrityError, match="truncated"):
            log.verify_chain(expected_head=anchored)
