"""The persistent movement-trace cache (repro.perf.tracecache).

The contract under test: a cache hit is always a *verified, bit-exact*
trace (pricing a loaded trace equals pricing a fresh extraction with
``==``), every conceivable blob defect reads as a miss that silently
re-extracts, concurrent same-key writers are safe, and the durable
counters accumulate across processes and cache instances.
"""

import json
import multiprocessing
import os

import pytest

from repro.circuits.workloads import build_workload
from repro.perf.tracecache import (
    TRACE_SUBDIR,
    TraceCache,
    default_trace_cache,
    resolve_trace_cache,
)
from repro.sim.cache import simulate_optimized
from repro.sim.levels import standard_stack
from repro.sim.replay import (
    TRACE_FORMAT_VERSION,
    MovementTrace,
    extract_movement_trace,
    price_movement_trace_batch,
    trace_key,
)


def _fixture_trace(n_bits=16, depth=3, policy="lru"):
    circuit = build_workload("draper_adder", n_bits)
    stack = standard_stack("steane", depth, compute_qubits=12)
    order = simulate_optimized(circuit, stack.levels[0].capacity).order
    trace = extract_movement_trace(stack, circuit, policy, order=order)
    return trace, stack


class TestSerialization:
    def test_round_trip_bytes_and_pricing(self):
        trace, stack = _fixture_trace()
        blob = trace.to_bytes()
        restored = MovementTrace.from_bytes(blob)
        assert restored == trace
        assert restored.to_bytes() == blob
        assert price_movement_trace_batch(restored, [stack]) == \
            price_movement_trace_batch(trace, [stack])

    def test_from_bytes_rejects_tampering(self):
        trace, _ = _fixture_trace()
        blob = trace.to_bytes()
        with pytest.raises(ValueError):
            MovementTrace.from_bytes(blob[:-10])
        with pytest.raises(ValueError):
            MovementTrace.from_bytes(b"not json at all")
        # Valid JSON of the wrong shape must not round-trip either.
        payload = json.loads(blob.decode("ascii"))
        payload["extra_field"] = 1
        with pytest.raises(ValueError):
            MovementTrace.from_bytes(json.dumps(payload).encode("ascii"))

    def test_trace_key_is_versioned_and_geometry_sensitive(self):
        base = trace_key("token", 3, [12, 24, None])
        assert base != trace_key("other-token", 3, [12, 24, None])
        assert base != trace_key("token", 2, [12, 24, None])
        assert base != trace_key("token", 3, [12, 48, None])
        assert base == trace_key("token", 3, [12, 24, None])


class TestCacheRoundTrip:
    def test_put_get_is_verified_and_exact(self, tmp_path):
        trace, stack = _fixture_trace()
        cache = TraceCache(tmp_path)
        key = trace_key("tok", trace.depth, trace.capacities)
        assert cache.get(key) is None  # cold
        cache.put(key, trace)
        loaded = cache.get(key)
        assert loaded == trace
        assert price_movement_trace_batch(loaded, [stack]) == \
            price_movement_trace_batch(trace, [stack])
        assert len(cache) == 1
        assert cache.counters()["hits"] == 1
        assert cache.counters()["misses"] == 1

    def test_load_or_extract_extracts_exactly_once(self, tmp_path):
        trace, _ = _fixture_trace()
        cache = TraceCache(tmp_path)
        calls = []

        def extract():
            calls.append(1)
            return trace

        first = cache.load_or_extract("k", extract)
        second = cache.load_or_extract("k", extract)
        assert first == trace and second == trace
        assert len(calls) == 1
        assert cache.counters()["extractions"] == 1
        # A second cache instance (another process, a resume) loads the
        # persisted blob without re-extracting.
        other = TraceCache(tmp_path)
        assert other.load_or_extract("k", extract) == trace
        assert len(calls) == 1
        assert other.counters()["extractions"] == 0

    @pytest.mark.parametrize("defect", [
        "truncate", "bitflip", "stale_version", "empty", "garbage",
        "payload_tamper",
    ])
    def test_corrupt_blob_reads_as_miss_and_reextracts(self, tmp_path,
                                                       defect):
        trace, _ = _fixture_trace()
        cache = TraceCache(tmp_path)
        cache.put("k", trace)
        path = cache.blob_path("k")
        blob = path.read_bytes()
        if defect == "truncate":
            path.write_bytes(blob[: len(blob) // 2])
        elif defect == "bitflip":
            flipped = bytearray(blob)
            flipped[len(flipped) // 2] ^= 0x01
            path.write_bytes(bytes(flipped))
        elif defect == "stale_version":
            path.write_bytes(
                blob.replace(
                    f"REPRO-TRACE v{TRACE_FORMAT_VERSION} ".encode(),
                    f"REPRO-TRACE v{TRACE_FORMAT_VERSION + 1} ".encode(),
                )
            )
        elif defect == "empty":
            path.write_bytes(b"")
        elif defect == "garbage":
            path.write_bytes(b"\x00\xff" * 100)
        elif defect == "payload_tamper":
            # Valid header line over a payload whose JSON decodes but
            # whose shape the strict round-trip must reject.
            head, _, payload = blob.partition(b"\n")
            doc = json.loads(payload.decode("ascii"))
            doc.pop("workload")
            path.write_bytes(head + b"\n" + json.dumps(doc).encode())

        assert cache.get("k") is None, defect
        # ...and load_or_extract silently repairs the entry.
        fresh = cache.load_or_extract("k", lambda: trace)
        assert fresh == trace
        assert cache.counters()["extractions"] == 1
        assert cache.get("k") == trace

    def test_version_one_blob_reads_as_miss_and_reextracts(self, tmp_path):
        # A well-formed, checksummed blob in the identity-free version-1
        # layout (``miss_evict`` flags, no qubit ids) must never decode
        # as a current trace: it is a miss, re-extracted and replaced.
        from repro.perf.tracecache import _header

        trace, stack = _fixture_trace()
        doc = json.loads(trace.to_bytes().decode("ascii"))
        doc["miss_evict"] = [1 if v >= 0 else 0 for v in doc.pop("miss_victim")]
        for name in ("miss_qubit", "cascade_qubit", "touched"):
            doc.pop(name)
        payload = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
        cache = TraceCache(tmp_path)
        key = trace_key("tok", trace.depth, trace.capacities)
        for version in (1, TRACE_FORMAT_VERSION):
            # Under its own header and under a forged current one.
            cache.blob_path(key).write_bytes(_header(version, payload) + payload)
            assert cache.get(key) is None
        calls = []

        def extract():
            calls.append(1)
            return trace

        assert cache.load_or_extract(key, extract) == trace
        assert calls == [1]
        assert cache.get(key) == trace
        assert price_movement_trace_batch(cache.get(key), [stack]) == \
            price_movement_trace_batch(trace, [stack])

    def test_clear_drops_blobs_only(self, tmp_path):
        trace, _ = _fixture_trace()
        cache = TraceCache(tmp_path)
        cache.put("a", trace)
        cache.put("b", trace)
        cache.flush_stats()
        assert len(cache) == 2
        cache.clear()
        assert len(cache) == 0
        assert cache.stats_path.is_file()


class TestDurableStats:
    def test_stats_accumulate_across_instances(self, tmp_path):
        trace, _ = _fixture_trace()
        first = TraceCache(tmp_path)
        first.load_or_extract("k", lambda: trace)   # miss + extraction
        second = TraceCache(tmp_path)
        second.load_or_extract("k", lambda: trace)  # hit
        second.flush_stats()
        stats = second.read_stats()
        assert stats["extractions"] == 1
        assert stats["misses"] == 1
        assert stats["hits"] == 1
        assert stats["bytes_written"] > 0
        assert stats["bytes_read"] == stats["bytes_written"]

    def test_summary_reports_disk_entries(self, tmp_path):
        trace, _ = _fixture_trace()
        cache = TraceCache(tmp_path)
        cache.load_or_extract("k", lambda: trace)
        summary = cache.summary()
        assert summary["entries"] == 1
        assert summary["entry_bytes"] == cache.blob_path("k").stat().st_size
        assert summary["extractions"] == 1

    def test_corrupt_stats_file_reads_empty(self, tmp_path):
        cache = TraceCache(tmp_path)
        cache.directory.mkdir(exist_ok=True)
        cache.stats_path.write_text("{broken json")
        assert cache.read_stats() == {}
        cache.stats_path.write_text('["wrong shape"]')
        assert cache.read_stats() == {}


def _writer_proc(directory, key, n_bits, out_queue):
    trace, _ = _fixture_trace(n_bits=n_bits)
    cache = TraceCache(directory)
    for _ in range(5):
        cache.put(key, trace)
    loaded = cache.get(key)
    out_queue.put(loaded == trace)


class TestConcurrentWriters:
    def test_two_processes_same_key(self, tmp_path):
        # Deterministic extraction means both writers produce identical
        # bytes; the atomic-rename discipline means every interleaved
        # read sees a complete, verifiable blob.
        ctx = multiprocessing.get_context("spawn")
        queue = ctx.Queue()
        procs = [
            ctx.Process(target=_writer_proc,
                        args=(str(tmp_path), "shared", 16, queue))
            for _ in range(2)
        ]
        for proc in procs:
            proc.start()
        results = [queue.get(timeout=120) for _ in procs]
        for proc in procs:
            proc.join(timeout=120)
            assert proc.exitcode == 0
        assert all(results)
        cache = TraceCache(tmp_path)
        trace, _ = _fixture_trace(n_bits=16)
        assert cache.get("shared") == trace


class TestResolution:
    def test_resolve_semantics(self, tmp_path, monkeypatch):
        assert resolve_trace_cache(None) is None
        assert resolve_trace_cache(False) is None
        explicit = resolve_trace_cache(tmp_path)
        assert isinstance(explicit, TraceCache)
        assert explicit.directory == tmp_path
        assert resolve_trace_cache(explicit) is explicit
        with pytest.raises(TypeError):
            resolve_trace_cache(123)
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert resolve_trace_cache(True) is None
        assert default_trace_cache() is None

    def test_default_owns_traces_subdir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        cache = default_trace_cache()
        assert cache.directory == tmp_path / TRACE_SUBDIR
        assert resolve_trace_cache(True).directory == cache.directory

    def test_namespaces_are_disjoint(self, tmp_path, monkeypatch):
        # traces/ and (by convention) store/ never collide under one
        # REPRO_CACHE_DIR root.
        from repro.perf.store import ResultStore

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        trace_dir = default_trace_cache().directory
        store = ResultStore(tmp_path / "store")
        assert trace_dir != store.directory
        assert trace_dir.name == TRACE_SUBDIR


class TestSharedAcrossKernels:
    def test_fidelity_run_reuses_engine_traces(self, tmp_path, capsys):
        # Fidelity cells share the engine grid's traffic groups and
        # trace-cache blobs: after an engine run fills the cache, the
        # fidelity grid of the same axes simulates no traffic at all.
        from repro.sweep.cli import main as sweep_main

        axes = [
            "--workloads", "draper_adder", "--sizes", "16", "--depths", "2",
            "--policies", "lru", "belady", "--codes", "steane", "bacon_shor",
        ]
        cache_dir = str(tmp_path / "traces")
        assert sweep_main([
            "run", "--store", str(tmp_path / "engine"), "--trace-cache",
            cache_dir, *axes,
        ]) == 0
        engine_out = capsys.readouterr().out
        assert "(0 extractions)" not in engine_out
        assert sweep_main([
            "run", "--kernel", "fidelity_cell", "--prefetches", "none",
            "--store", str(tmp_path / "fidelity"), "--trace-cache",
            cache_dir, *axes,
        ]) == 0
        assert "(0 extractions)" in capsys.readouterr().out
