"""pmap: ordering, dispatch decisions, error propagation, obs merge."""

from __future__ import annotations

import functools
import os

import numpy as np
import pytest

from repro import obs
from repro.obs import METRICS
from repro.parallel import default_workers, in_worker, pmap, pool, resolve_workers
from repro.parallel.pool import _WORKER_ENV


def _snapshot_without_parallel_keys() -> dict:
    """Metrics snapshot minus the dispatch bookkeeping pmap itself emits."""
    snap = METRICS.snapshot()
    return {
        section: {
            k: v for k, v in entries.items() if not k.startswith("parallel.")
        }
        for section, entries in snap.items()
    }


def _square(x: int) -> int:
    return x * x


def _pid_of(_: int) -> int:
    return os.getpid()


def _boom(x: int) -> int:
    if x == 3:
        raise ValueError(f"task {x} exploded")
    return x


def _nested_view(_: int) -> tuple[bool, int, list[int]]:
    """What a task launched by an outer pmap sees when it pmaps again."""
    inner = pmap(_pid_of, range(3), workers=4)
    return in_worker(), resolve_workers(4), inner


def _state_fingerprint(_: int, state: dict | None = None) -> tuple:
    return tuple(
        (name, str(arr.dtype), arr.shape, float(arr.sum()))
        for name, arr in sorted(state.items())
    )


def _traced_task(x: int) -> int:
    METRICS.inc("test.pool.work")
    with obs.span("child_work", item=x):
        pass
    return x


class TestWorkerResolution:
    def test_default_is_serial(self):
        assert default_workers() == 1
        assert resolve_workers(None) == 1

    def test_env_sets_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "6")
        assert default_workers() == 6
        assert resolve_workers(None) == 6

    def test_explicit_arg_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "6")
        assert resolve_workers(2) == 2

    @pytest.mark.parametrize("raw", ["abc", "0", "-3"])
    def test_garbage_env_raises(self, monkeypatch, raw):
        # Like ``--workers 0``: a malformed request must not silently run
        # serial.
        monkeypatch.setenv("REPRO_WORKERS", raw)
        with pytest.raises(ValueError, match="REPRO_WORKERS"):
            resolve_workers(None)
        with pytest.raises(ValueError, match="REPRO_WORKERS"):
            pmap(_square, range(4))

    def test_empty_env_is_unset(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "")
        assert resolve_workers(None) == 1

    def test_worker_marker_forces_serial(self, monkeypatch):
        monkeypatch.setenv(_WORKER_ENV, "1")
        assert in_worker()
        assert resolve_workers(8) == 1

    def test_clamped_to_cpu_count_with_warning(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        with pytest.warns(RuntimeWarning, match="clamping to 2"):
            assert resolve_workers(6) == 2

    def test_env_request_clamped_too(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "16")
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        with pytest.warns(RuntimeWarning):
            assert resolve_workers(None) == 4

    def test_at_or_below_cpu_count_passes_through(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        assert resolve_workers(4) == 4
        assert resolve_workers(3) == 3

    def test_unknown_cpu_count_clamps_to_one(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        with pytest.warns(RuntimeWarning):
            assert resolve_workers(2) == 1


class TestPmap:
    def test_results_in_input_order(self):
        assert pmap(_square, range(8), workers=2) == [x * x for x in range(8)]

    def test_serial_path_runs_in_process(self):
        METRICS.reset()
        pids = pmap(_pid_of, range(3), workers=1)
        assert set(pids) == {os.getpid()}
        assert "parallel.pmap.pools{pool=_pid_of}" not in METRICS.snapshot()["counters"]

    def test_parallel_path_uses_other_processes(self):
        pids = pmap(_pid_of, range(8), workers=2)
        assert os.getpid() not in pids
        assert 1 <= len(set(pids)) <= 2

    def test_single_item_stays_serial(self):
        assert pmap(_pid_of, [0], workers=4) == [os.getpid()]

    def test_nested_pmap_degrades_to_serial(self):
        for marked, effective, inner_pids in pmap(_nested_view, range(2), workers=2):
            # Inside a worker the marker is set, any requested count resolves
            # to 1, and the nested pmap ran in the worker's own process.
            assert marked is True
            assert effective == 1
            assert len(set(inner_pids)) == 1
            assert os.getpid() not in inner_pids

    def test_exception_propagates(self):
        METRICS.reset()
        with pytest.raises(ValueError, match="task 3 exploded"):
            pmap(_boom, range(6), workers=2, label="boom")
        assert METRICS.counter("parallel.pmap.failed", pool="boom") == 1

    def test_large_callable_matches_serial(self):
        # A partial over a ~1 MiB float64 state dict ships with every task
        # and must reach every worker bit-exact.
        rng = np.random.default_rng(7)
        state = {
            "conv1.w": rng.standard_normal((64, 3, 5, 5)),
            "conv1.b": rng.standard_normal(64),
            "fc.w": rng.standard_normal((512, 256)),
        }
        assert sum(arr.nbytes for arr in state.values()) > 1 << 20
        fn = functools.partial(_state_fingerprint, state=state)
        METRICS.reset()
        out = pmap(fn, range(6), workers=2)
        assert out == [fn(x) for x in range(6)]
        assert METRICS.counter("parallel.dispatch", path="pool_warm") == 1

    def test_pool_metrics(self):
        METRICS.reset()
        pmap(_square, range(5), workers=2, label="sq")
        assert METRICS.counter("parallel.pmap.pools", pool="sq") == 1
        assert METRICS.counter("parallel.pmap.tasks", pool="sq") == 5


class TestAdaptiveDispatch:
    def test_single_cpu_falls_back_to_serial(self, monkeypatch):
        # The BENCH_experiments regression this PR fixes: on a 1-CPU box a
        # pool can only lose, so a 2-worker request must run in-process.
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        METRICS.reset()
        with pytest.warns(RuntimeWarning):
            pids = pmap(_pid_of, range(6), workers=2)
        assert set(pids) == {os.getpid()}
        assert METRICS.counter("parallel.dispatch", path="serial") == 1
        assert METRICS.counter("parallel.dispatch.serial", reason="cpu_clamp") == 1

    def test_pool_path_records_dispatch_metric(self):
        METRICS.reset()
        pmap(_square, range(6), workers=2)
        assert METRICS.counter("parallel.dispatch", path="pool_warm") == 1

    def test_oversized_payload_stays_serial(self, monkeypatch):
        # Each item is ~64 KiB; with a 1 KiB per-task budget, IPC transfer
        # would dwarf the trivial task, so dispatch keeps the call serial.
        monkeypatch.setattr(pool, "MAX_TASK_BYTES", 1024)
        METRICS.reset()
        items = [bytes(65536) for _ in range(4)]
        assert pmap(len, items, workers=2) == [65536] * 4
        assert METRICS.counter("parallel.dispatch.serial", reason="payload") == 1

    def test_unpicklable_callable_falls_back_to_serial(self):
        METRICS.reset()
        out = pmap(lambda x: x + 1, range(4), workers=2)
        assert out == [1, 2, 3, 4]
        assert METRICS.counter("parallel.dispatch.serial", reason="unpicklable") == 1

    def test_nested_calls_record_no_dispatch(self, monkeypatch):
        monkeypatch.setenv(_WORKER_ENV, "1")
        METRICS.reset()
        pmap(_square, range(4), workers=4)
        assert METRICS.counter("parallel.dispatch", path="serial") == 0


class TestObsMerge:
    def test_obs_merge_is_identical_to_serial(self):
        METRICS.reset()
        [_traced_task(x) for x in range(12)]
        serial = _snapshot_without_parallel_keys()
        METRICS.reset()
        pmap(_traced_task, range(12), workers=2)
        assert _snapshot_without_parallel_keys() == serial

    def test_spans_reparent_under_pmap_in_input_order(self):
        obs.enable_tracing()
        METRICS.reset()
        pmap(_traced_task, range(8), workers=2, label="ordered")
        records = obs.get_collector().records()
        pmap_spans = [r for r in records if r["name"] == "pmap"]
        children = [r for r in records if r["name"] == "child_work"]
        assert len(pmap_spans) == 1
        assert len(children) == 8
        assert {c["parent"] for c in children} == {pmap_spans[0]["id"]}
        assert [c["attrs"]["item"] for c in children] == list(range(8))

    def test_worker_metrics_fold_into_parent(self):
        METRICS.reset()
        pmap(_traced_task, range(6), workers=2)
        assert METRICS.counter("test.pool.work") == 6

    def test_worker_spans_adopt_under_pmap_span(self):
        obs.enable_tracing()
        METRICS.reset()
        pmap(_traced_task, range(4), workers=2, label="traced")
        records = obs.get_collector().records()
        by_name = {}
        for rec in records:
            by_name.setdefault(rec["name"], []).append(rec)
        assert len(by_name["pmap"]) == 1
        pmap_id = by_name["pmap"][0]["id"]
        children = by_name["child_work"]
        assert len(children) == 4
        # Every shipped-back child root hangs off the parent's pmap span.
        assert {c["parent"] for c in children} == {pmap_id}
        # Adopted ids were remapped into the parent collector's id space.
        assert len({r["id"] for r in records}) == len(records)
