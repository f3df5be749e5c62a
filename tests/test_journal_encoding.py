"""Write-ahead journal encoding: byte-identical, pinned, loud on bad input.

The journal writer and reader share one compact encoder.  These tests
hold it to the reference encoding — ``json.dumps`` with compact
separators — for arbitrary records, pin the bytes of a fixed-seed
closed loop that writes every record kind, and check that a record
which cannot be encoded leaves the file and the sequence untouched.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import tempfile
import zlib

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.exceptions import RecoveryError
from repro.recovery import (
    JOURNAL_NAME,
    JournalWriter,
    RecoveryConfig,
    read_journal,
)
from repro.runtime.admission import AdmissionConfig
from repro.runtime.loop import RuntimeConfig, run_closed_loop
from repro.runtime.policies import RoutingConfig
from repro.sim.arrivals import ClientWorkload, RetryPolicy
from repro.workloads import example_group
from repro.workloads.traces import RateTrace


def _reference_line(seq: int, t: float, kind: str, data) -> bytes:
    """The record exactly as ``json.dumps`` frames it."""
    compact = {"separators": (",", ":")}
    crc = zlib.crc32(json.dumps([seq, t, kind, data], **compact).encode("utf-8"))
    payload = {"seq": seq, "t": t, "kind": kind, "data": data, "crc": crc}
    return (json.dumps(payload, **compact) + "\n").encode("utf-8")


_FLOATS = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308, 0.1]
)
_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**70), max_value=2**70)
    | _FLOATS
    | st.text(max_size=12)
)
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)
_DATA = st.dictionaries(st.text(max_size=8), _VALUES, max_size=5)


class TestByteIdentity:
    @settings(max_examples=300, deadline=None)
    @given(
        seq=st.integers(min_value=0, max_value=2**63),
        t=_FLOATS,
        kind=st.text(max_size=16),
        data=_DATA,
    )
    @example(seq=0, t=math.nan, kind='ro"ute\\\né\U0001f600', data={})
    @example(seq=7, t=-math.inf, kind="complete", data={"server": 3, "rt": -0.0})
    @example(seq=1, t=math.inf, kind="x", data={"a": [None, True, False, 5e-324]})
    def test_append_matches_reference_encoding(self, seq, t, kind, data):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, JOURNAL_NAME)
            with JournalWriter(path, start_seq=seq) as writer:
                record = writer.append(t, kind, data)
            with open(path, "rb") as fh:
                raw = fh.read()
            assert raw == _reference_line(seq, t, kind, data)
            assert record.to_line().encode() + b"\n" == raw
            scan = read_journal(path)
        assert scan.dropped_lines == 0 and len(scan.records) == 1
        assert scan.records[0].to_line().encode() + b"\n" == raw


#: SHA-256 of the journal written by :func:`_golden_run`, recorded with
#: the two-``json.dumps``-per-record encoder this module replaced.
GOLDEN_SHA256 = "da0600ff37cb75dde34bd0f5190fa8164d5e677ab4f10922c2b330918cd354b0"
GOLDEN_BYTES = 364_320


def _golden_run(directory: str) -> None:
    """Short fixed-seed closed loop: ``jiq`` routing, two admission
    classes with retrying clients, one server down and back up."""
    group = example_group()
    config = RuntimeConfig(
        routing=RoutingConfig(policy="jiq"),
        admission=AdmissionConfig(
            classes=2, target_delay=4.0, interval=15.0, sojourn_tc=20.0
        ),
        recovery=RecoveryConfig(enabled=True, directory=directory),
    )
    run_closed_loop(
        group,
        RateTrace.constant(0.9 * group.max_generic_rate),
        config,
        horizon=40.0,
        seed=3,
        workload=ClientWorkload(
            class_shares=(0.4, 0.6),
            retry=RetryPolicy(budget=1, timeout=10.0, base_backoff=4.0),
        ),
        failures=((12.0, 2, "down"), (24.0, 2, "up")),
    )


class TestGoldenJournal:
    def test_closed_loop_journal_bytes_are_pinned(self, tmp_path):
        _golden_run(str(tmp_path))
        with open(tmp_path / JOURNAL_NAME, "rb") as fh:
            raw = fh.read()
        records = read_journal(str(tmp_path / JOURNAL_NAME)).records
        first = {}
        for r in records:
            first.setdefault(r.kind, r.data)
        assert set(first) == {"route", "complete", "resolve", "health"}
        assert {"cls", "att"} <= set(first["route"])
        assert "rt" in first["complete"]
        assert len(raw) == GOLDEN_BYTES
        assert hashlib.sha256(raw).hexdigest() == GOLDEN_SHA256


class TestEncodeFailures:
    def _writer(self, tmp_path):
        writer = JournalWriter(str(tmp_path / JOURNAL_NAME))
        writer.append(0.0, "route", {"dest": 1})
        return writer

    def _assert_untouched(self, tmp_path, writer, size):
        assert os.path.getsize(tmp_path / JOURNAL_NAME) == size
        assert writer.next_seq == 1

    def test_unserializable_data_raises_type_error(self, tmp_path):
        writer = self._writer(tmp_path)
        size = os.path.getsize(tmp_path / JOURNAL_NAME)
        bad = {"dest": 1, "obj": object()}
        with pytest.raises(TypeError):
            writer.append(1.0, "route", bad)
        self._assert_untouched(tmp_path, writer, size)
        # The failed encode leaves no marker behind: the same dict,
        # repaired, encodes on the next append.
        bad["obj"] = None
        writer.append(1.0, "route", bad)
        writer.close()
        assert [r.seq for r in read_journal(str(tmp_path / JOURNAL_NAME)).records] == [
            0,
            1,
        ]

    def test_circular_data_raises_value_error(self, tmp_path):
        writer = self._writer(tmp_path)
        size = os.path.getsize(tmp_path / JOURNAL_NAME)
        loop: dict = {"dest": 2}
        loop["self"] = loop
        with pytest.raises(ValueError, match="Circular"):
            writer.append(1.0, "route", loop)
        self._assert_untouched(tmp_path, writer, size)
        del loop["self"]
        writer.append(1.0, "route", loop)
        writer.close()
        assert read_journal(str(tmp_path / JOURNAL_NAME)).records[-1].data == {
            "dest": 2
        }


class TestResumeTruncation:
    def _one_record(self, tmp_path) -> str:
        path = str(tmp_path / JOURNAL_NAME)
        with JournalWriter(path) as writer:
            writer.append(0.0, "route", {"dest": 0})
        return path

    @pytest.mark.parametrize("offset", [-1, 118])
    def test_offset_outside_the_file_raises(self, tmp_path, offset):
        path = self._one_record(tmp_path)
        size = os.path.getsize(path)
        assert size == 68
        with pytest.raises(RecoveryError, match="truncate_at"):
            JournalWriter(path, start_seq=1, truncate_at=offset)
        assert os.path.getsize(path) == size
        assert [r.seq for r in read_journal(path).records] == [0]

    def test_offset_at_end_of_file_resumes(self, tmp_path):
        path = self._one_record(tmp_path)
        with JournalWriter(
            path, start_seq=1, truncate_at=os.path.getsize(path)
        ) as writer:
            writer.append(1.0, "route", {"dest": 1})
        scan = read_journal(path)
        assert [r.seq for r in scan.records] == [0, 1]
        assert scan.dropped_lines == 0

    def test_missing_file_accepts_only_offset_zero(self, tmp_path):
        path = str(tmp_path / JOURNAL_NAME)
        with pytest.raises(RecoveryError):
            JournalWriter(path, truncate_at=1)
        with JournalWriter(path, start_seq=4, truncate_at=0) as writer:
            writer.append(0.0, "route", {"dest": 0})
        assert [r.seq for r in read_journal(path).records] == [4]
