"""Tests for the JSONL journal and the content-addressed sample cache."""

import json

import pytest

from repro.faults import FaultInjected, FaultPlan, FaultRule, injector
from repro.sched import Journal, SampleCache, journal_path_for


class TestJournal:
    def test_round_trip(self, tmp_path):
        journal = Journal(tmp_path / "run.jsonl")
        journal.start("key1", fresh=True)
        journal.append("t1", {"status": "correct", "times": {"1": 0.5}})
        journal.append("t2", {"baseline": 1.25})
        journal.close()
        loaded = Journal(tmp_path / "run.jsonl").load("key1")
        assert loaded == {"t1": {"status": "correct", "times": {"1": 0.5}},
                          "t2": {"baseline": 1.25}}

    def test_missing_file_loads_empty(self, tmp_path):
        assert Journal(tmp_path / "absent.jsonl").load("key") == {}

    def test_wrong_run_key_is_ignored(self, tmp_path):
        journal = Journal(tmp_path / "run.jsonl")
        journal.start("key1", fresh=True)
        journal.append("t1", {"status": "correct"})
        journal.close()
        assert Journal(tmp_path / "run.jsonl").load("other-key") == {}

    def test_torn_trailing_line_is_skipped(self, tmp_path):
        path = tmp_path / "run.jsonl"
        journal = Journal(path)
        journal.start("key1", fresh=True)
        journal.append("t1", {"status": "correct"})
        journal.close()
        with path.open("a") as fh:
            fh.write('{"task": "t2", "resu')       # killed mid-write
        loaded = Journal(path).load("key1")
        assert list(loaded) == ["t1"]

    def test_restart_with_same_key_appends(self, tmp_path):
        path = tmp_path / "run.jsonl"
        journal = Journal(path)
        journal.start("key1", fresh=True)
        journal.append("t1", {"a": 1})
        journal.close()
        journal = Journal(path)
        journal.start("key1")                      # resume: append mode
        journal.append("t2", {"b": 2})
        journal.close()
        assert set(Journal(path).load("key1")) == {"t1", "t2"}

    def test_start_fresh_truncates(self, tmp_path):
        path = tmp_path / "run.jsonl"
        journal = Journal(path)
        journal.start("key1", fresh=True)
        journal.append("t1", {"a": 1})
        journal.close()
        journal = Journal(path)
        journal.start("key1", fresh=True)
        journal.close()
        assert Journal(path).load("key1") == {}

    def test_journal_path_for_slash_safe(self, tmp_path):
        path = journal_path_for(tmp_path, "Phind/V2", 8, 0.2, True, 3)
        assert "/" not in path.name
        assert path.name.endswith(".journal.jsonl")


class TestGroupCommit:
    """Appends are buffered; one fsync covers the whole batch."""

    def test_records_reach_disk_only_on_commit(self, tmp_path):
        path = tmp_path / "run.jsonl"
        journal = Journal(path)
        journal.start("key1", fresh=True)
        journal.append("t1", {"a": 1})
        journal.append("t2", {"b": 2})
        # buffered: a reader (or a crash) sees only the committed header
        assert Journal(path).load("key1") == {}
        journal.commit()
        assert set(Journal(path).load("key1")) == {"t1", "t2"}
        journal.close()

    def test_one_fsync_per_batch_not_per_record(self, tmp_path,
                                                monkeypatch):
        import os as os_mod

        fsyncs = []
        real_fsync = os_mod.fsync
        monkeypatch.setattr(os_mod, "fsync",
                            lambda fd: (fsyncs.append(fd), real_fsync(fd)))
        journal = Journal(tmp_path / "run.jsonl")
        journal.start("key1", fresh=True)        # header commit: 1 fsync
        for i in range(10):
            journal.append(f"t{i}", {"i": i})
        journal.commit()                         # the whole burst: 1 more
        assert journal.commits == 2
        assert len(fsyncs) == 2
        journal.commit()                         # empty buffer: no-op
        assert journal.commits == 2
        journal.close()

    def test_auto_commit_bounds_the_buffer(self, tmp_path):
        from repro.sched.journal import GROUP_COMMIT_BOUND

        path = tmp_path / "run.jsonl"
        journal = Journal(path)
        journal.start("key1", fresh=True)
        for i in range(GROUP_COMMIT_BOUND):
            journal.append(f"t{i}", {"i": i})
        # the bound forced a commit without anyone calling commit()
        assert len(Journal(path).load("key1")) == GROUP_COMMIT_BOUND
        journal.close()

    def test_close_commits_the_remainder(self, tmp_path):
        path = tmp_path / "run.jsonl"
        journal = Journal(path)
        journal.start("key1", fresh=True)
        journal.append("t1", {"a": 1})
        journal.close()
        assert list(Journal(path).load("key1")) == ["t1"]


def _reference_journal(tmp_path):
    """Header + two records; returns (path, raw bytes, record task ids)."""
    path = tmp_path / "ref.jsonl"
    journal = Journal(path)
    journal.start("key1", fresh=True)
    journal.append("t1", {"status": "correct"})
    journal.append("t2", {"status": "wrong_answer", "times": {"2": 0.5}})
    journal.close()
    return path, path.read_bytes(), ["t1", "t2"]


class TestKillAtEveryByteOffset:
    """Satellite: simulate a writer killed at *every* byte offset of the
    journal; recovery must yield exactly the newline-committed prefix."""

    def test_load_recovers_exactly_the_committed_prefix(self, tmp_path):
        _, data, tasks = _reference_journal(tmp_path)
        for cut in range(len(data) + 1):
            torn = tmp_path / "torn.jsonl"
            torn.write_bytes(data[:cut])
            committed_lines = data[:cut].count(b"\n")
            # record i needs the header plus i+1 newline-terminated lines
            expected = [t for i, t in enumerate(tasks)
                        if committed_lines >= i + 2]
            loaded = Journal(torn).load("key1")
            assert list(loaded) == expected, f"kill at byte {cut}"

    def test_resume_truncates_the_torn_tail(self, tmp_path):
        _, data, _ = _reference_journal(tmp_path)
        # cut mid-way through the last record (after its first byte)
        cut = data.rfind(b'{"task": "t2"') + 5
        torn = tmp_path / "torn.jsonl"
        torn.write_bytes(data[:cut])
        journal = Journal(torn)
        journal.start("key1")                  # resume: append mode
        journal.append("t3", {"status": "correct"})
        journal.close()
        loaded = Journal(torn).load("key1")
        # t2's torn half is gone, not merged with t3's record
        assert list(loaded) == ["t1", "t3"]
        for line in torn.read_text().splitlines():
            json.loads(line)                   # every line is whole again


class TestTornWriteInjection:
    def test_injected_torn_write_is_uncommitted_and_fatal(self, tmp_path):
        path = tmp_path / "run.jsonl"
        journal = Journal(path)
        journal.start("key1", fresh=True)
        journal.append("t1", {"status": "correct"})
        rule = FaultRule(point="sched.journal.torn_write", action="torn",
                         match="t2", param=0.5)
        with injector(FaultPlan(rules=(rule,))):
            with pytest.raises(FaultInjected) as exc:
                journal.append("t2", {"status": "correct"})
        assert exc.value.transient is False
        journal.close()
        assert not path.read_bytes().endswith(b"\n")   # torn tail on disk
        assert list(Journal(path).load("key1")) == ["t1"]


class TestSampleCache:
    def test_get_put_round_trip(self, tmp_path):
        cache = SampleCache(tmp_path)
        tid = "ab" + "0" * 62
        assert cache.get(tid) is None
        cache.put(tid, {"status": "correct", "times": {"4": 0.25}})
        assert cache.get(tid) == {"status": "correct", "times": {"4": 0.25}}

    def test_sharded_layout(self, tmp_path):
        cache = SampleCache(tmp_path)
        tid = "cd" + "1" * 62
        cache.put(tid, {"baseline": 1.0})
        assert (tmp_path / "cd" / f"{tid}.json").exists()

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = SampleCache(tmp_path)
        tid = "ef" + "2" * 62
        cache.put(tid, {"ok": True})
        (tmp_path / "ef" / f"{tid}.json").write_text("{nope")
        assert cache.get(tid) is None

    def test_flipped_byte_fails_the_checksum(self, tmp_path):
        cache = SampleCache(tmp_path)
        tid = "ab" + "3" * 62
        cache.put(tid, {"status": "correct", "detail": "fine"})
        path = tmp_path / "ab" / f"{tid}.json"
        text = path.read_text().replace("correct", "cOrrect")
        path.write_text(text)
        assert cache.get(tid) is None

    def test_legacy_unwrapped_entry_is_a_miss(self, tmp_path):
        cache = SampleCache(tmp_path)
        tid = "cd" + "4" * 62
        path = tmp_path / "cd" / f"{tid}.json"
        path.parent.mkdir(parents=True)
        path.write_text('{"status": "correct"}')   # pre-checksum format
        assert cache.get(tid) is None

    def test_put_fsyncs_file_then_renames_then_fsyncs_dir(self, tmp_path,
                                                          monkeypatch):
        """Satellite: the durability protocol is tmp-write → fsync(file)
        → rename → fsync(parent dir), in that order.  Without the first
        fsync a crash can journal the rename before the data blocks hit
        disk; without the second the rename itself can be lost."""
        import os as os_mod
        import stat

        events = []
        real_fsync, real_replace = os_mod.fsync, os_mod.replace

        def spy_fsync(fd):
            mode = os_mod.fstat(fd).st_mode
            events.append(("fsync",
                           "dir" if stat.S_ISDIR(mode) else "file"))
            real_fsync(fd)

        def spy_replace(src, dst):
            events.append(("replace", None))
            real_replace(src, dst)

        monkeypatch.setattr(os_mod, "fsync", spy_fsync)
        monkeypatch.setattr(os_mod, "replace", spy_replace)
        cache = SampleCache(tmp_path)
        tid = "ab" + "8" * 62
        assert cache.put(tid, {"status": "correct"}) is True
        assert events == [("fsync", "file"), ("replace", None),
                          ("fsync", "dir")]
        assert cache.get(tid) == {"status": "correct"}

    def test_injected_enospc_degrades_to_a_miss(self, tmp_path):
        """guard.disk.enospc: the write fails cleanly — no entry, no
        leftover tmp file, and the cache keeps working once space is
        back."""
        plan = FaultPlan(rules=(
            FaultRule(point="guard.disk.enospc", action="enospc"),))
        cache = SampleCache(tmp_path)
        tid = "aa" + "9" * 62
        with injector(plan):
            assert cache.put(tid, {"status": "correct"}) is False
        assert cache.get(tid) is None
        assert not (tmp_path / "aa" / f"{tid}.json").exists()
        assert list(tmp_path.rglob("*.tmp")) == []
        # the disk recovered: the same entry now persists
        assert cache.put(tid, {"status": "correct"}) is True
        assert cache.get(tid) == {"status": "correct"}

    def test_enospc_never_corrupts_an_existing_entry(self, tmp_path):
        cache = SampleCache(tmp_path)
        tid = "bb" + "0" * 62
        cache.put(tid, {"status": "correct", "times": {"1": 0.5}})
        plan = FaultPlan(rules=(
            FaultRule(point="guard.disk.enospc", action="enospc"),))
        with injector(plan):
            assert cache.put(tid, {"status": "wrong_answer"}) is False
        assert cache.get(tid) == {"status": "correct", "times": {"1": 0.5}}

    def test_injected_truncate_and_bitflip_become_misses(self, tmp_path):
        plan = FaultPlan(rules=(
            FaultRule(point="sched.cache.truncate", action="truncate",
                      match="aa"),
            FaultRule(point="sched.cache.bitflip", action="bitflip",
                      match="bb"),
        ))
        cache = SampleCache(tmp_path)
        truncated, flipped, clean = ("aa" + "5" * 62, "bb" + "6" * 62,
                                     "cc" + "7" * 62)
        with injector(plan):
            for tid in (truncated, flipped, clean):
                cache.put(tid, {"status": "correct"})
        assert cache.get(truncated) is None
        assert cache.get(flipped) is None
        assert cache.get(clean) == {"status": "correct"}
