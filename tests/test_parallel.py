"""``repro.parallel``: parallel conformance, crash recovery, no stray forks.

The contract under test is *transparency*: running conformance units
in the pool (or having a worker die mid-run) may change timing, but
never results — findings, coverage, and corpus files must be
byte-identical to the serial run.  The pool is for coarse units only:
the codec batch APIs never fork, and a parallel run leaves no worker
behind once it returns.
"""

import multiprocessing
import random

import pytest

from repro import obs
from repro.conformance.registry import all_spec_entries
from repro.conformance.runner import derive_rng, run_all
from repro.core.codec import decode_packet, encode_verbatim
from repro.fastpath import batch
from repro.parallel.confrun import execute_unit, plan_units, run_all_parallel
from repro.parallel.pool import CallError, ShardedPool

_DERIVE = "repro.conformance.runner:derive_rng"


@pytest.fixture(scope="module")
def tcp_corpus():
    entry = next(e for e in all_spec_entries() if e.name == "TcpHeader")
    rng = random.Random(11)
    packets = [entry.generate(rng) for _ in range(4096)]
    values = [p._values for p in packets]
    wires = [entry.spec.encode(p) for p in packets]
    return entry.spec, values, wires


class TestInProcessBatches:
    def test_encode_many_forks_nothing_and_matches_per_item_loop(self, tcp_corpus):
        spec, values, _ = tcp_corpus
        encoded = batch.encode_many(spec, values)
        assert multiprocessing.active_children() == []
        assert encoded == [encode_verbatim(spec, v) for v in values]

    def test_decode_many_forks_nothing_and_matches_per_item_loop(self, tcp_corpus):
        spec, _, wires = tcp_corpus
        decoded = batch.decode_many(spec, wires)
        assert multiprocessing.active_children() == []
        assert decoded == [decode_packet(spec, w) for w in wires]


class TestCrashRecovery:
    def test_worker_crash_fails_only_its_units_then_recovers(self):
        calls = [(_DERIVE, {"seed": seed}) for seed in range(4)]
        expected = [derive_rng(seed).getstate() for seed in range(4)]
        instr = obs.enable()
        instr.registry.reset()
        pool = ShardedPool(2)
        try:
            pool.inject_crash(0)
            results = pool.run_calls(calls)
            # Units are dealt round-robin: slot 0 held units 0 and 2.
            for unit in (0, 2):
                assert isinstance(results[unit], CallError)
            for unit in (1, 3):
                assert results[unit].getstate() == expected[unit]
            assert pool.stats["worker_failures"] >= 1
            assert instr.registry.value(
                "parallel.worker_failures", reason="crash"
            ) >= 1
            # The dead slot was respawned: the next run is whole again.
            assert pool.alive()
            again = pool.run_calls(calls)
            assert not any(isinstance(r, CallError) for r in again)
            assert [r.getstate() for r in again] == expected
        finally:
            pool.close()
            obs.get_default().reset()
            obs.disable()

    def test_call_errors_are_lenient(self):
        pool = ShardedPool(2)
        try:
            results = pool.run_calls(
                [
                    (_DERIVE, {"seed": 1}),
                    ("repro.no_such_module:missing", {}),
                ]
            )
        finally:
            pool.close()
        assert not isinstance(results[0], CallError)
        assert isinstance(results[1], CallError)
        assert "no_such_module" in results[1].message


class TestParallelConformance:
    def test_plan_matches_serial_budget_split(self):
        units = plan_units(400, ("fuzz", "machine"), None, None, 600)
        kinds = {u["kind"] for u in units}
        assert kinds == {"fuzz", "machine"}
        fuzz = [u for u in units if u["kind"] == "fuzz"]
        assert all(u["budget"] == max(1, 400 // len(fuzz)) for u in fuzz)
        machine = [u for u in units if u["kind"] == "machine"]
        assert all(u["shrink_budget"] == 300 for u in machine)

    def test_findings_identical_to_serial(self, tmp_path):
        serial_corpus = tmp_path / "serial.jsonl"
        parallel_corpus = tmp_path / "parallel.jsonl"
        serial = run_all(seed=5, budget=120, corpus_path=str(serial_corpus))
        report = run_all_parallel(
            workers=2, seed=5, budget=120, corpus_path=str(parallel_corpus)
        )
        assert [e.engine for e in report.engines] == [
            e.engine for e in serial.engines
        ]
        for mine, theirs in zip(report.engines, serial.engines):
            assert mine.cases == theirs.cases
            assert mine.findings == theirs.findings
        assert report.coverage == serial.coverage
        assert parallel_corpus.read_bytes() == serial_corpus.read_bytes()

    def test_merged_obs_counters_match_serial(self):
        def counters():
            return {
                (name, tuple(sorted(entry["labels"].items()))): entry["value"]
                for name, entries in obs.get_default().registry.snapshot().items()
                for entry in entries
                if entry["kind"] == "counter" and entry["value"]
            }

        instr = obs.enable()
        try:
            instr.registry.reset()
            run_all(seed=9, budget=80, engines=("fuzz",))
            serial = counters()
            instr.registry.reset()
            run_all_parallel(workers=2, seed=9, budget=80, engines=("fuzz",))
            merged = counters()
        finally:
            obs.disable()
        assert merged == serial

    def test_failed_unit_reruns_in_process(self, monkeypatch):
        # Break every remote call; the parent must quietly redo each unit
        # itself and still produce the serial report.
        from repro.parallel import confrun

        monkeypatch.setattr(confrun, "_EXECUTE", "repro.no_such_module:missing")
        serial = run_all(seed=2, budget=60, engines=("machine",))
        report = run_all_parallel(workers=2, seed=2, budget=60, engines=("machine",))
        assert report.engines[0].cases == serial.engines[0].cases
        assert report.engines[0].findings == serial.engines[0].findings
        assert report.coverage == serial.coverage

    def test_execute_unit_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown conformance unit"):
            execute_unit("quantum", "x", 0, 1, 1)


class TestPoolLifetime:
    def test_parallel_run_leaves_no_live_worker(self):
        run_all_parallel(workers=2, seed=3, budget=40, engines=("machine",))
        assert multiprocessing.active_children() == []
