"""Operation statistics collection."""


import numpy as np
import pytest

from repro.core.api import run_cartesian
from repro.core.opstats import OpStats
from repro.core.stencils import moore_neighborhood

NBH = moore_neighborhood(2, 1, include_self=False)


class TestOpStatsUnit:
    def test_empty_summary(self):
        assert "no collective operations" in OpStats().summary()

    def test_record_and_totals(self):
        stats = OpStats()
        stats.record_raw("alltoall", "combining", rounds=4, blocks=12, nbytes=48)
        stats.record_raw("alltoall", "combining", rounds=4, blocks=12, nbytes=48)
        stats.record_raw("allgather", "trivial", rounds=8, blocks=8, nbytes=64)
        assert stats.total_calls == 3
        assert stats.total_rounds == 16
        assert stats.total_bytes == 160
        rec = stats.records[("alltoall", "combining", "threaded")]
        assert rec.calls == 2 and rec.volume_blocks == 24

    def test_by_operation(self):
        stats = OpStats()
        stats.record_raw("alltoall", "combining", 4, 12, 48)
        stats.record_raw("alltoall", "trivial", 8, 8, 32)
        by = stats.by_operation("alltoall")
        assert set(by) == {"combining", "trivial"}

    def test_by_operation_aggregates_backends(self):
        stats = OpStats()
        stats.record_raw("alltoall", "combining", 4, 12, 48, backend="threaded")
        stats.record_raw("alltoall", "combining", 4, 12, 48, backend="batched")
        by = stats.by_operation("alltoall")
        assert by["combining"].calls == 2
        assert len(stats.records) == 2  # backends keyed separately

    def test_by_backend(self):
        stats = OpStats()
        stats.record_raw("alltoall", "combining", 4, 12, 48, backend="threaded")
        stats.record_raw("allgather", "trivial", 8, 8, 64, backend="lockstep")
        by = stats.by_backend()
        assert set(by) == {"threaded", "lockstep"}
        assert by["lockstep"].rounds == 8

    def test_cache_counters_split_by_backend(self):
        stats = OpStats()
        stats.record_cache(True, backend="threaded")
        stats.record_cache(False, 0.5, backend="lockstep")
        assert stats.cache_hits == 1 and stats.cache_misses == 1
        assert stats.cache_by_backend == {
            "threaded": [1, 0],
            "lockstep": [0, 1],
        }

    def test_reset(self):
        stats = OpStats()
        stats.record_raw("x", "y", 1, 1, 1)
        stats.reset()
        assert stats.total_calls == 0

    def test_summary_lists_pairs(self):
        stats = OpStats()
        stats.record_raw("alltoall", "combining", 4, 12, 48)
        text = stats.summary()
        assert "alltoall" in text and "combining" in text


class TestCartCommIntegration:
    def test_info_flag_enables(self):
        def fn(cart):
            t = cart.nbh.t
            cart.alltoall(np.zeros(t), np.zeros(t), algorithm="combining")
            cart.alltoall(np.zeros(t), np.zeros(t), algorithm="trivial")
            cart.allgather(np.zeros(1), np.zeros(t), algorithm="combining")
            s = cart.stats
            b = cart.backend.name
            return (
                s.total_calls,
                s.records[("alltoall", "combining", b)].rounds,
                s.records[("alltoall", "trivial", b)].calls,
                ("allgather", "combining", b) in s.records,
            )

        res = run_cartesian(
            (3, 3), NBH, fn, info={"collect_stats": True}, timeout=60
        )
        calls, comb_rounds, triv_calls, has_ag = res[0]
        assert calls == 3
        assert comb_rounds == NBH.combining_rounds
        assert triv_calls == 1
        assert has_ag

    def test_disabled_by_default(self):
        def fn(cart):
            t = cart.nbh.t
            cart.alltoall(np.zeros(t), np.zeros(t))
            return cart.stats is None

        assert all(run_cartesian((2, 2), NBH, fn, timeout=60))

    def test_enable_late(self):
        def fn(cart):
            t = cart.nbh.t
            cart.alltoall(np.zeros(t), np.zeros(t))  # not recorded
            stats = cart.enable_stats()
            cart.alltoall(np.zeros(t), np.zeros(t))
            return stats.total_calls

        assert run_cartesian((2, 2), NBH, fn, timeout=60) == [1] * 4

    def test_w_and_v_variants_recorded(self):
        def fn(cart):
            cart.enable_stats()
            t = cart.nbh.t
            counts = [2] * t
            buf = np.zeros(2 * t)
            cart.alltoallv(buf, counts, buf.copy(), counts,
                           algorithm="trivial")
            cart.allgatherv(np.zeros(2), np.zeros(2 * t), [2] * t,
                            algorithm="trivial")
            ops = {k[0] for k in cart.stats.records}
            return ops

        res = run_cartesian((3, 3), NBH, fn, timeout=60)
        assert res[0] == {"alltoallv", "allgatherv"}

    def test_nonblocking_collectives_recorded(self):
        """``i*`` operations count under the blocking calls' keys, on
        the transport split-phase always runs on."""

        def fn(cart):
            t = cart.nbh.t
            a, b = np.zeros(t), np.zeros(t)
            req = cart.ialltoall(a, b, algorithm="trivial")
            started = cart.stats.total_calls
            req.wait()
            cart.iallgather(np.zeros(1), np.zeros(t), algorithm="trivial").wait()
            s = cart.stats
            return (
                started,
                s.total_calls,
                sorted(s.records),
                s.plan_hits + s.plan_misses,
                s.bytes_packed,
            )

        res = run_cartesian(
            (3, 3), NBH, fn, info={"collect_stats": True, "backend": "lockstep"},
            timeout=60,
        )
        started, calls, keys, plans, packed = res[0]
        assert started == 0  # recorded on completion, like the blocking calls
        assert calls == 2 and plans == 2
        assert keys == [
            ("allgather", "trivial", "threaded"),
            ("alltoall", "trivial", "threaded"),
        ]
        assert set(packed) == {"threaded"} and packed["threaded"] > 0

    @pytest.mark.parametrize("periods", [(True, True), (False, False)])
    def test_bytes_packed_agree_across_backends(self, periods):
        """Every backend charges each rank the wire bytes of its own
        plan view — on a mesh, edge ranks skip their missing neighbours
        whether the rank packs itself or another packs for it at the
        rendezvous."""
        from repro.apps import merge_stats
        from repro.core.backend import BACKENDS, LockstepBackend

        def fn(cart):
            t = cart.nbh.t
            cart.alltoall(
                np.zeros(2 * t, np.uint8), np.zeros(2 * t, np.uint8),
                algorithm="trivial",
            )
            return cart.stats

        backends = sorted(BACKENDS)
        # the alias is accounted under the executor that ran; the walk,
        # held as an instance, under its own name
        labels = dict(zip(backends, backends), lockstep="batched")
        labels[LockstepBackend()] = "lockstep"
        packed = {}
        for backend, label in labels.items():
            merged = merge_stats(
                run_cartesian(
                    (3, 3), NBH, fn, periods=periods,
                    info={"collect_stats": True, "backend": backend},
                    timeout=60,
                )
            )
            assert set(merged.bytes_packed) == {label}
            assert {key[2] for key in merged.records} == {label}
            packed[backend] = merged.bytes_packed[label]
        # 9 ranks x 8 neighbours x 2 B on the torus; 40 present
        # (rank, neighbour) pairs on the mesh
        expect = 144 if all(periods) else 80
        assert packed == dict.fromkeys(labels, expect), packed


class TestJsonRoundTrip:
    def _populated(self):
        stats = OpStats()
        stats.record_execution(
            "alltoall", "combining", "batched", (4, 8, 256, 64), False, 1024, 64
        )
        stats.record_execution(
            "alltoall", "combining", "threaded", (4, 8, 256, 0), True, 256, 0
        )
        stats.record_raw("reduce", "trivial", 1, 4, 32, backend="lockstep")
        stats.record_cache(False, 0.25, backend="serve")
        stats.record_cache(True, backend="serve")
        stats.record_cache(True)
        stats.record_fault("delay", 2)
        return stats

    def test_round_trip_exact(self):
        stats = self._populated()
        back = OpStats.from_json(stats.to_json())
        assert back.records.keys() == stats.records.keys()
        for key, rec in stats.records.items():
            other = back.records[key]
            assert (other.calls, other.rounds, other.volume_blocks,
                    other.volume_bytes) == (
                rec.calls, rec.rounds, rec.volume_blocks, rec.volume_bytes)
        assert back.cache_hits == stats.cache_hits
        assert back.cache_misses == stats.cache_misses
        assert back.cache_build_seconds == stats.cache_build_seconds
        assert back.cache_by_backend == stats.cache_by_backend
        assert back.plan_hits == stats.plan_hits
        assert back.plan_misses == stats.plan_misses
        assert back.plan_by_backend == stats.plan_by_backend
        assert back.bytes_packed == stats.bytes_packed
        assert back.bytes_copied == stats.bytes_copied
        assert back.faults == stats.faults
        # a second hop is byte-identical (fixed point)
        assert OpStats.from_json(back.to_json()).to_json() == back.to_json()

    def test_json_is_wire_safe(self):
        import json

        text = json.dumps(self._populated().to_json())
        back = OpStats.from_json(json.loads(text))
        assert back.total_calls == 3
        assert back.summary()

    def test_empty_round_trip(self):
        back = OpStats.from_json(OpStats().to_json())
        assert back.total_calls == 0
        assert back.records == {}

    def test_round_trip_then_merge(self):
        stats = self._populated()
        back = OpStats.from_json(stats.to_json())
        back.merge_from(stats)
        assert back.total_calls == 2 * stats.total_calls
        assert back.cache_hits == 2 * stats.cache_hits
