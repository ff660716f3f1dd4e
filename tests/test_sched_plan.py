"""Dataflow plans: stage identity, lowering, iteration, checkpoints."""

import pytest

from repro.cluster import Cluster
from repro.core import KVLayout, MimirConfig, pack_u64, unpack_u64
from repro.ft import ChaosPlan, run_with_recovery
from repro.mpi import COMET
from repro.sched import Plan, PlanRunner, StageCache

CFG = MimirConfig(page_size=2048, comm_buffer_size=2048,
                  input_chunk_size=512)
TEXT = b"oak elm ash fir oak elm oak yew ash oak " * 40


def wc_map(ctx, chunk):
    one = pack_u64(1)
    for word in chunk.split():
        ctx.emit(word, one)


def wc_reduce(ctx, key, values):
    ctx.emit(key, pack_u64(sum(unpack_u64(v) for v in values)))


def wc_combine(key, a, b):
    return pack_u64(unpack_u64(a) + unpack_u64(b))


def make_cluster(nprocs=3):
    cluster = Cluster(COMET, nprocs=nprocs, memory_limit=None)
    cluster.pfs.store("t.txt", TEXT)
    return cluster


def wc_plan(plan):
    return plan.read_text("t.txt", name="input") \
        .map(wc_map, name="count").reduce(wc_reduce, name="sum")


class TestStageIdentity:
    def test_same_structure_same_key(self):
        a = wc_plan(Plan("wc", CFG))
        b = wc_plan(Plan("wc", CFG))
        assert a.key == b.key
        assert a.key.startswith("sum-")

    def test_key_covers_fn_name_salt_and_lineage(self):
        base = wc_plan(Plan("wc", CFG))
        other_fn = Plan("wc", CFG).read_text("t.txt", name="input") \
            .map(wc_map, name="count").reduce(wc_combine, name="sum")
        other_name = Plan("wc", CFG).read_text("t.txt", name="input") \
            .map(wc_map, name="count").reduce(wc_reduce, name="sum2")
        salted = Plan("wc", CFG)
        salted.salt = "#i1"
        keys = {base.key, other_fn.key, other_name.key,
                wc_plan(salted).key}
        assert len(keys) == 4
        # A changed ancestor changes every descendant's key.
        other_input = Plan("wc", CFG).read_text("u.txt", name="input") \
            .map(wc_map, name="count").reduce(wc_reduce, name="sum")
        assert other_input.key != base.key

    def test_lineage_dependency_ordered(self):
        out = wc_plan(Plan("wc", CFG))
        ops = [s.op for s in out.stage.lineage()]
        assert ops == ["read_text", "map", "reduce"]

    def test_describe_marks_annotations(self):
        plan = Plan("wc", CFG)
        wc_plan(plan).cache().checkpoint()
        text = plan.describe()
        assert "sum" in text and "[cached]" in text and "[ckpt]" in text

    def test_join_requires_same_plan(self):
        a = Plan("a", CFG).source([1], name="a")
        b = Plan("b", CFG).source([2], name="b")
        with pytest.raises(ValueError, match="different plans"):
            a.join(b, lambda ctx, k, lv, rv: None)

    def test_unknown_op_rejected(self):
        with pytest.raises(ValueError, match="unknown stage op"):
            from repro.sched.plan import Stage

            Stage(Plan("p", CFG), 0, "scan", ())


class TestLowering:
    def expected_counts(self):
        from collections import Counter

        return Counter(TEXT.split())

    def run_plan(self, build):
        def job(env):
            plan = Plan("wc", CFG)
            runner = PlanRunner(env, plan)
            return dict(runner.collect(build(plan))), runner.stage_counts

        return make_cluster().run(job)

    def test_reduce_matches_direct_counts(self):
        result = self.run_plan(wc_plan)
        merged = {}
        for counts, _stages in result.returns:
            merged.update({k: unpack_u64(v) for k, v in counts.items()})
        assert merged == dict(self.expected_counts())

    def test_partial_reduce_and_combine(self):
        result = self.run_plan(
            lambda plan: plan.read_text("t.txt", name="input")
            .map(wc_map, combine_fn=wc_combine, name="count")
            .partial_reduce(wc_combine, out_layout=KVLayout(),
                            name="sum"))
        merged = {}
        for counts, _stages in result.returns:
            merged.update({k: unpack_u64(v) for k, v in counts.items()})
        assert merged == dict(self.expected_counts())

    def test_sort_local_orders_keys(self):
        def build(plan):
            return wc_plan(plan).sort_local(name="ordered")

        result = self.run_plan(build)
        for counts, stages in result.returns:
            keys = list(counts)
            assert keys == sorted(keys)
            assert stages == {"count": 1, "sum": 1, "ordered": 1}

    def test_join_cogroups_both_sides(self):
        def job(env):
            plan = Plan("join", CFG)
            left = plan.source([(b"a", b"1"), (b"b", b"2")], name="l") \
                .map(lambda ctx, kv: ctx.emit(*kv), name="lm")
            right = plan.source([(b"b", b"3"), (b"c", b"4")], name="r") \
                .map(lambda ctx, kv: ctx.emit(*kv), name="rm")

            def joined(ctx, key, lvals, rvals):
                ctx.emit(key, b",".join(lvals) + b"|" + b",".join(rvals))

            out = left.join(right, joined, name="merge")
            return dict(PlanRunner(env, plan).collect(out))

        # source() items are per-rank; one rank keeps the sides exact.
        result = make_cluster(nprocs=1).run(job)
        merged = {}
        for part in result.returns:
            merged.update(part)
        assert merged == {b"a": b"1|", b"b": b"2|3", b"c": b"|4"}

    def test_raw_input_needs_map(self):
        def job(env):
            plan = Plan("bad", CFG)
            ds = plan.read_text("t.txt", name="input").reduce(
                wc_reduce, name="sum")
            with pytest.raises(ValueError, match="map it first"):
                PlanRunner(env, plan).collect(ds)

        make_cluster(nprocs=1).run(job)


class TestIterate:
    def test_invariant_stage_cached_across_iterations(self):
        caches = [StageCache(rank) for rank in range(3)]

        def job(env):
            plan = Plan("loop", CFG)
            counts = wc_plan(plan).cache()
            runner = PlanRunner(env, plan, cache=caches[env.comm.rank])

            def body(r, i, state):
                # Loop-invariant stage: same key every pass.
                total = sum(unpack_u64(v) for _, v in r.stream(counts))
                # Per-iteration stage: salted key, runs every pass.
                fresh = r.plan.source([None], name="probe").map(
                    lambda ctx, _x, n=i: ctx.emit(b"i", pack_u64(n)),
                    name="stamp")
                list(r.stream(fresh))
                return state + total

            total, iters = runner.iterate(0, body, max_iters=3)
            assert plan.salt == ""  # restored after the loop
            return total, iters, dict(runner.stage_counts)

        result = make_cluster().run(job)
        for total, iters, stages in result.returns:
            assert iters == 3
            # The cached chain executed once; the salted stage 3 times.
            assert stages["count"] == 1 and stages["sum"] == 1
            assert stages["stamp"] == 3

    def test_until_stops_early(self):
        def job(env):
            runner = PlanRunner(env, Plan("loop", CFG))
            state, iters = runner.iterate(
                0, lambda r, i, s: s + 1, until=lambda s: s >= 2,
                max_iters=10)
            return state, iters

        result = make_cluster(nprocs=1).run(job)
        assert result.returns == [(2, 2)]


class TestStageCheckpoint:
    def test_recovery_skips_checkpointed_stage(self):
        attempts = []

        def job(env, ckpt, faults):
            plan = Plan("wc", CFG)
            counts = wc_plan(plan).checkpoint()
            runner = PlanRunner(env, plan, checkpoint=ckpt)
            out = {k: unpack_u64(v) for k, v in runner.stream(counts)}
            faults.check("after-sum", env.comm.rank)
            probe = plan.source([None], name="probe").map(
                lambda ctx, _x: ctx.emit(b"p", pack_u64(1)), name="tail")
            list(runner.stream(probe))
            attempts.append((env.comm.rank, dict(runner.stage_counts)))
            return out

        plan = ChaosPlan().fail_at("after-sum", 1)
        ft = run_with_recovery(make_cluster(), job, faults=plan,
                               job_id="sched-ckpt")
        assert ft.attempts == 2
        merged = {}
        for part in ft.result.returns:
            merged.update(part)
        from collections import Counter

        assert merged == dict(Counter(TEXT.split()))
        # The successful attempt restored "sum" from its checkpoint:
        # only the post-fault stage executed.
        final = [stages for _rank, stages in attempts[-3:]]
        assert all(stages == {"tail": 1} for stages in final)


class TestConsumeSemantics:
    def test_pinned_container_refuses_consume_and_free(self):
        def job(env):
            from repro.core import Mimir

            mimir = Mimir(env, CFG)
            kvs = mimir.map_text_file("t.txt", wc_map)
            kvs.pin()
            with pytest.raises(RuntimeError, match="pinned"):
                kvs.consume()
            with pytest.raises(RuntimeError, match="pinned"):
                kvs.free()
            kvs.unpin()
            assert len(list(kvs.consume())) > 0

        make_cluster(nprocs=1).run(job)

    def test_stream_drains_uncached_stage_and_preserves_cached(self):
        def job(env):
            plan = Plan("wc", CFG)
            words = plan.read_text("t.txt").map(wc_map, name="count")
            cache = StageCache(env.comm.rank)
            runner = PlanRunner(env, plan, cache=cache)
            drained = [env.tracker.current for _ in runner.stream(words)]
            words.cache()
            pinned = [env.tracker.current for _ in runner.stream(words)]
            return drained, pinned, len(cache.get(words.key))

        [(drained, pinned, kept)] = make_cluster(nprocs=1).run(job).returns
        assert drained[-1] <= drained[0] - 2 * CFG.page_size
        assert len(set(pinned)) == 1 and kept == len(pinned) == len(drained)
