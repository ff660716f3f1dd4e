"""Tenant quotas, fair-share aging, and lease lifecycles."""

import pytest

from repro.sched.scheduler import SchedJob
from repro.serve.leases import LeaseTable
from repro.serve.tenants import QuotaExceeded, TenantManager, TenantQuota


def job(name="j", tenant=None, priority=0):
    return SchedJob(name=name, fn=lambda env, ctx: None,
                    priority=priority, tenant=tenant)


class TestQuotas:
    def test_default_quota_for_unknown_tenants(self):
        manager = TenantManager()
        assert manager.quota("anyone").max_queued == 8

    def test_closed_mode_rejects_unknown_tenants(self):
        manager = TenantManager({"alice": TenantQuota()}, default=None)
        assert manager.quota("alice") is manager.quotas["alice"]
        with pytest.raises(QuotaExceeded) as exc:
            manager.quota("mallory")
        assert exc.value.quota == "unknown-tenant"

    def test_max_queued_rejection_is_structured(self):
        manager = TenantManager({"t": TenantQuota(max_queued=2)})
        manager.check_submit("t", queued=1, footprint=None)
        with pytest.raises(QuotaExceeded) as exc:
            manager.check_submit("t", queued=2, footprint=None)
        body = exc.value.to_json()
        assert body == {"error": "quota-exceeded", "tenant": "t",
                        "quota": "max_queued", "limit": 2, "current": 3}

    def test_memory_quota_compares_footprints(self):
        manager = TenantManager(
            {"t": TenantQuota(memory_per_rank="64K")})
        manager.check_submit("t", queued=0, footprint=64 << 10)
        with pytest.raises(QuotaExceeded) as exc:
            manager.check_submit("t", queued=0, footprint=(64 << 10) + 1)
        assert exc.value.quota == "memory_per_rank"

    def test_unknown_footprint_skips_memory_check(self):
        manager = TenantManager(
            {"t": TenantQuota(memory_per_rank="1K")})
        manager.check_submit("t", queued=0, footprint=None)

    def test_rejections_counted(self):
        class Shard:
            def __init__(self):
                self.counts = {}

            def inc(self, name, value=1):
                self.counts[name] = self.counts.get(name, 0) + value

        shard = Shard()
        manager = TenantManager({"t": TenantQuota(max_queued=0)},
                                metrics=shard)
        with pytest.raises(QuotaExceeded):
            manager.check_submit("t", queued=0, footprint=None)
        assert shard.counts["serve.rejections.quota"] == 1


    @pytest.mark.parametrize("kwargs", [
        dict(max_concurrent=0),     # admits none of its jobs, ever
        dict(max_concurrent=-1),
        dict(max_queued=-1),
    ])
    def test_quota_that_cannot_hold_a_job_rejected(self, kwargs):
        with pytest.raises(ValueError):
            TenantQuota(**kwargs)

    @pytest.mark.parametrize("rate", [float("nan"), float("inf"),
                                      float("-inf")])
    def test_non_finite_aging_rate_rejected(self, rate):
        with pytest.raises(ValueError, match="finite"):
            TenantManager(aging_rate=rate)


class TestSchedulerHooks:
    def test_admission_filter_caps_per_round_share(self):
        manager = TenantManager({"t": TenantQuota(max_concurrent=2)})
        batch = [job("a", "t"), job("b", "t")]
        assert manager.admission_filter(job("c", "t"), batch) is False
        assert manager.admission_filter(job("c", "other"), batch) is True
        assert manager.admission_filter(job("c", None), batch) is True

    def test_priority_aging_beats_fresh_priority_eventually(self):
        manager = TenantManager(aging_rate=1.0)
        old_low = manager.priority_fn(job(priority=0), queued_rounds=6)
        fresh_high = manager.priority_fn(job(priority=5), queued_rounds=0)
        assert old_low > fresh_high

    def test_install_wires_both_hooks(self):
        class FakeScheduler:
            admission_filter = None
            priority_fn = None

        manager = TenantManager()
        sched = FakeScheduler()
        manager.install(sched)
        assert sched.admission_filter == manager.admission_filter
        assert sched.priority_fn == manager.priority_fn


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestLeases:
    def test_grant_renew_expire_cycle(self):
        clock = FakeClock()
        table = LeaseTable(ttl=10.0, clock=clock)
        table.grant("job-1")
        assert table.alive("job-1")

        clock.now = 8.0
        assert table.renew("job-1") is not None
        clock.now = 17.0
        assert table.alive("job-1")  # renewed at t=8, good until 18

        clock.now = 18.0
        assert not table.alive("job-1")
        assert table.sweep() == ["job-1"]
        assert len(table) == 0

    def test_lapsed_lease_not_resurrected_by_renew(self):
        clock = FakeClock()
        table = LeaseTable(ttl=5.0, clock=clock)
        table.grant("job-1")
        clock.now = 20.0
        table.sweep()
        assert table.renew("job-1") is None

    def test_custom_ttl_per_grant_and_renew(self):
        clock = FakeClock()
        table = LeaseTable(ttl=5.0, clock=clock)
        table.grant("job-1", ttl=100.0)
        clock.now = 50.0
        assert table.alive("job-1")
        lease = table.renew("job-1", ttl=1.0)
        assert lease.ttl == 1.0
        clock.now = 51.5
        assert not table.alive("job-1")

    def test_remaining_reports_time_left(self):
        clock = FakeClock()
        table = LeaseTable(ttl=10.0, clock=clock)
        table.grant("job-1")
        clock.now = 4.0
        assert table.remaining("job-1") == pytest.approx(6.0)
        assert table.remaining("nope") is None

    def test_sweep_counts_expiries(self):
        class Shard:
            def __init__(self):
                self.counts = {}

            def inc(self, name, value=1):
                self.counts[name] = self.counts.get(name, 0) + value

        clock = FakeClock()
        shard = Shard()
        table = LeaseTable(ttl=1.0, clock=clock, metrics=shard)
        table.grant("a")
        table.grant("b")
        clock.now = 2.0
        assert sorted(table.sweep()) == ["a", "b"]
        assert shard.counts["serve.lease.expiries"] == 2

    def test_invalid_ttl_rejected(self):
        with pytest.raises(ValueError):
            LeaseTable(ttl=0)
