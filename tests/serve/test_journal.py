"""The admission journal: write-ahead appends, atomic checkpoints,
torn-tail recovery."""

import json

import pytest

from repro.exec.faults import FaultPlan, request_context
from repro.serve import AdmissionJournal


def flow(name, size=100.0):
    return {"name": name, "kind": "sporadic", "period": 1.0, "size": size,
            "source": "station-00", "destination": "station-01",
            "deadline": None}


def admit(name):
    return {"op": "admit", "flow": flow(name)}


def unbuilt_flows():
    raise AssertionError("the flow table was built with no checkpoint due")


class TestAppendAndRecover:
    def test_appends_carry_increasing_seq(self, tmp_path):
        journal = AdmissionJournal(tmp_path)
        assert journal.append(admit("a")) == 1
        assert journal.append(admit("b")) == 2
        assert journal.append({"op": "remove", "name": "a"}) == 3

    def test_recover_replays_the_tail_in_order(self, tmp_path):
        journal = AdmissionJournal(tmp_path)
        journal.append(admit("a"))
        journal.append({"op": "remove", "name": "a"})
        journal.close()
        state = AdmissionJournal(tmp_path).recover()
        assert [op["op"] for op in state.operations] == ["admit", "remove"]
        assert state.flows == ()
        assert state.checkpoint_seq == 0
        assert state.last_seq == 2
        assert not state.empty

    def test_fresh_directory_recovers_empty(self, tmp_path):
        state = AdmissionJournal(tmp_path / "nowhere").recover()
        assert state.empty
        assert state.corrupt_lines == 0
        assert not state.corrupt_checkpoint

    def test_seq_resumes_after_recovery(self, tmp_path):
        journal = AdmissionJournal(tmp_path)
        journal.append(admit("a"))
        journal.close()
        reopened = AdmissionJournal(tmp_path)
        reopened.recover()
        assert reopened.append(admit("b")) == 2


class TestCheckpoints:
    def test_checkpoint_compacts_the_journal(self, tmp_path):
        journal = AdmissionJournal(tmp_path)
        journal.append(admit("a"))
        journal.append(admit("b"))
        journal.checkpoint([flow("a"), flow("b")])
        assert journal.journal_path.read_text() == ""
        state = AdmissionJournal(tmp_path).recover()
        assert [entry["name"] for entry in state.flows] == ["a", "b"]
        assert state.operations == ()
        assert state.checkpoint_seq == 2

    def test_tail_after_checkpoint_is_replayed_on_top(self, tmp_path):
        journal = AdmissionJournal(tmp_path)
        journal.append(admit("a"))
        journal.checkpoint([flow("a")])
        journal.append(admit("b"))
        journal.close()
        state = AdmissionJournal(tmp_path).recover()
        assert [entry["name"] for entry in state.flows] == ["a"]
        assert [op["flow"]["name"] for op in state.operations] == ["b"]

    def test_maybe_checkpoint_honours_the_interval(self, tmp_path):
        journal = AdmissionJournal(tmp_path, checkpoint_every=3)
        for name in ("a", "b"):
            journal.append(admit(name))
            assert not journal.maybe_checkpoint(unbuilt_flows)
        journal.append(admit("c"))
        assert journal.maybe_checkpoint(lambda: [flow("a")])
        assert journal.journal_path.read_text() == ""

    def test_zero_interval_disables_automatic_checkpoints(self, tmp_path):
        journal = AdmissionJournal(tmp_path, checkpoint_every=0)
        for index in range(10):
            journal.append(admit(f"f{index}"))
        assert not journal.maybe_checkpoint(unbuilt_flows)

    def test_crash_between_checkpoint_and_compaction_is_safe(self, tmp_path):
        """Entries at or below the checkpoint seq are filtered out, so a
        crash that published the checkpoint but never truncated the
        journal replays nothing twice."""
        journal = AdmissionJournal(tmp_path)
        journal.append(admit("a"))
        journal.append(admit("b"))
        journal.close()
        preserved = journal.journal_path.read_text()
        journal2 = AdmissionJournal(tmp_path)
        journal2.recover()
        journal2.checkpoint([flow("a"), flow("b")])
        # Simulate the crash window: the pre-checkpoint journal returns.
        journal.journal_path.write_text(preserved)
        state = AdmissionJournal(tmp_path).recover()
        assert [entry["name"] for entry in state.flows] == ["a", "b"]
        assert state.operations == ()


class TestCorruption:
    def test_torn_tail_is_skipped_and_counted(self, tmp_path):
        journal = AdmissionJournal(tmp_path)
        journal.append(admit("a"))
        journal.close()
        with open(journal.journal_path, "a", encoding="utf-8") as handle:
            handle.write('{"seq": 2, "op": "adm')  # SIGKILL mid-append
        state = AdmissionJournal(tmp_path).recover()
        assert state.corrupt_lines == 1
        assert [op["flow"]["name"] for op in state.operations] == ["a"]

    def test_injected_torn_append_is_skipped_on_recovery(self, tmp_path):
        journal = AdmissionJournal(tmp_path)
        plan = FaultPlan.parse("journal-torn@2")
        with request_context(plan, 1):
            journal.append(admit("a"))
        with request_context(plan, 2):
            journal.append(admit("b"))  # torn on disk, memory moves on
        with request_context(plan, 3):
            journal.append(admit("c"))
        journal.close()
        state = AdmissionJournal(tmp_path).recover()
        assert state.corrupt_lines == 1
        assert [op["flow"]["name"] for op in state.operations] == ["a", "c"]

    def test_injected_eio_writes_nothing(self, tmp_path):
        journal = AdmissionJournal(tmp_path)
        journal.append(admit("a"))
        with request_context(FaultPlan.parse("journal-eio@2"), 2):
            with pytest.raises(OSError):
                journal.append(admit("b"))
        journal.close()
        state = AdmissionJournal(tmp_path).recover()
        assert state.corrupt_lines == 0
        assert [op["flow"]["name"] for op in state.operations] == ["a"]
        # The failed append consumed no seq: the next one is 2.
        journal2 = AdmissionJournal(tmp_path)
        journal2.recover()
        assert journal2.append(admit("b")) == 2

    def test_corrupt_checkpoint_is_flagged_not_fatal(self, tmp_path):
        journal = AdmissionJournal(tmp_path)
        journal.append(admit("a"))
        journal.checkpoint([flow("a")])
        journal.append(admit("b"))
        journal.close()
        journal.checkpoint_path.write_text("{torn")
        state = AdmissionJournal(tmp_path).recover()
        assert state.corrupt_checkpoint
        assert state.flows == ()
        # The journal tail survives independently of the checkpoint.
        assert [op["flow"]["name"] for op in state.operations] == ["b"]

    def test_journal_lines_are_compact_single_line_json(self, tmp_path):
        journal = AdmissionJournal(tmp_path)
        journal.append(admit("a"))
        journal.close()
        (line,) = journal.journal_path.read_text().splitlines()
        record = json.loads(line)
        assert record["seq"] == 1
        assert record["op"] == "admit"
