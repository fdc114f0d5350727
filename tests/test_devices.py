"""SSDModel, GPUModel, EnergyModel and ConcurrencyModel."""

import pytest

from repro.device import ConcurrencyModel, EnergyModel, GPUModel, SimClock, SSDModel
from repro.device.faults import FaultSchedule
from repro.device.ssd import PAGE_BYTES
from repro.serve import ChaosInjector, ServingTelemetry
from repro.train.dist import StragglerInjector


class TestSSDModel:
    def test_random_read_costs_latency_plus_transfer(self, clock, ssd):
        cost = ssd.random_read(100)
        expected = ssd.random_read_latency + PAGE_BYTES / ssd.read_bandwidth
        assert cost == pytest.approx(expected)
        assert clock.now == pytest.approx(expected)

    def test_reads_round_up_to_pages(self, ssd):
        small = ssd.random_read(1)
        assert ssd.bytes_read == PAGE_BYTES
        big = ssd.random_read(PAGE_BYTES + 1)
        assert ssd.bytes_read == PAGE_BYTES + 2 * PAGE_BYTES
        assert big > small

    def test_sequential_read_amortizes_latency(self, ssd):
        bulk = ssd.sequential_read(64 * PAGE_BYTES)
        per_record = sum(ssd.random_read(PAGE_BYTES) for _ in range(64))
        assert bulk < per_record / 4

    def test_sequential_write_is_bandwidth_bound(self, clock, ssd):
        cost = ssd.sequential_write(10 * PAGE_BYTES)
        assert cost == pytest.approx(10 * PAGE_BYTES / ssd.write_bandwidth)

    def test_non_blocking_charges_background(self, clock, ssd):
        ssd.sequential_write(PAGE_BYTES, blocking=False)
        assert clock.now == 0.0
        assert clock.busy_seconds("ssd") > 0.0

    def test_background_scope_makes_blocking_reads_overlapped(self, clock, ssd):
        with ssd.background():
            ssd.random_read(100, blocking=True)
        assert clock.now == 0.0
        assert clock.busy_seconds("ssd") > 0.0

    def test_background_scope_nests(self, clock, ssd):
        with ssd.background():
            with ssd.background():
                ssd.random_read(100)
            ssd.random_read(100)
        assert clock.now == 0.0
        ssd.random_read(100)
        assert clock.now > 0.0

    def test_stats_counters(self, ssd):
        ssd.random_read(10)
        ssd.sequential_write(10)
        stats = ssd.stats()
        assert stats["reads"] == 1 and stats["writes"] == 1

    @pytest.mark.parametrize("blocking", [True, False])
    @pytest.mark.parametrize("scope", [None, 4])
    def test_random_read_many_books_what_single_reads_book(self, blocking, scope):
        """Same clock, busy time, backlog and counters, bit for bit."""
        from contextlib import nullcontext

        looped, batched = SSDModel(SimClock()), SSDModel(SimClock())
        for ssd in (looped, batched):
            ssd.random_read(148)  # the clock does not start at zero
        with looped.background(parallelism=scope) if scope else nullcontext():
            costs = [looped.random_read(148, blocking=blocking) for _ in range(2309)]
        with batched.background(parallelism=scope) if scope else nullcontext():
            cost = batched.random_read_many(148, 2309, blocking=blocking)
        assert costs == [cost] * 2309
        assert batched.stats() == looped.stats()
        assert batched.clock.now == looped.clock.now
        assert batched.clock.busy_seconds("ssd") == looped.clock.busy_seconds("ssd")
        assert batched.clock.drain() == looped.clock.drain()
        assert batched.clock.now == looped.clock.now

    def test_random_read_many_of_nothing_books_nothing(self, clock, ssd):
        ssd.random_read_many(148, 0)
        assert clock.now == 0.0 and ssd.stats()["reads"] == 0

    def test_random_read_many_emits_one_span_per_read_when_traced(self, clock, ssd):
        from repro.obs.trace import install_tracer, uninstall_tracer

        install_tracer(clock=clock)
        try:
            ssd.random_read_many(148, 5)
        finally:
            tracer = uninstall_tracer()
        spans = [span for span in tracer.spans if span.name == "device.io"]
        assert len(spans) == 5
        cost = ssd.random_read_latency + PAGE_BYTES / ssd.read_bandwidth
        assert [span.sim_end for span in spans] == pytest.approx(
            [cost * (i + 1) for i in range(5)]
        )
        assert all(span.args["op"] == "random_read" and span.args["blocking"] for span in spans)

    def test_invalid_parameters_rejected(self, clock):
        with pytest.raises(ValueError):
            SSDModel(clock, random_read_latency=0)
        with pytest.raises(ValueError):
            SSDModel(clock, read_bandwidth=-1)


class TestGPUModel:
    def test_charge_advances_clock(self, clock, gpu):
        cost = gpu.charge(1e9)
        assert cost == pytest.approx(1e9 / gpu.flops_per_second + gpu.kernel_overhead)
        assert clock.now == pytest.approx(cost)

    def test_charge_accumulates_totals(self, gpu):
        gpu.charge(100.0, kernels=2)
        gpu.charge(50.0)
        assert gpu.total_flops == pytest.approx(150.0)
        assert gpu.launches == 3

    def test_negative_flops_rejected(self, gpu):
        with pytest.raises(ValueError):
            gpu.charge(-1.0)

    def test_invalid_rate_rejected(self, clock):
        with pytest.raises(ValueError):
            GPUModel(clock, flops_per_second=0)


class TestEnergyModel:
    def test_joules_sums_component_power(self):
        clock = SimClock()
        clock.advance(2.0, "gpu")
        clock.advance(1.0, "cpu")
        model = EnergyModel({"gpu": 300.0, "cpu": 100.0, "idle": 50.0})
        # 2*300 + 1*100 + 3*50 idle over total elapsed 3s
        assert model.joules(clock) == pytest.approx(600 + 100 + 150)

    def test_unknown_components_ignored(self):
        clock = SimClock()
        clock.advance(1.0, "fpga")
        assert EnergyModel({"idle": 0.0}).joules(clock) == 0.0

    def test_joules_per_batch(self):
        clock = SimClock()
        clock.advance(1.0, "gpu")
        model = EnergyModel({"gpu": 100.0, "idle": 0.0})
        assert model.joules_per_batch(clock, 10) == pytest.approx(10.0)

    def test_zero_batches_rejected(self):
        with pytest.raises(ValueError):
            EnergyModel().joules_per_batch(SimClock(), 0)

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            EnergyModel({"gpu": -1.0})


class TestConcurrencyModel:
    def test_throughput_scales_with_threads_before_saturation(self):
        model = ConcurrencyModel(cores=32)
        t1 = model.throughput(1, miss_probability=0.0)
        t8 = model.throughput(8, miss_probability=0.0)
        assert t8 == pytest.approx(8 * t1)

    def test_core_bound_caps_cpu_scaling(self):
        model = ConcurrencyModel(cores=4)
        assert model.throughput(64, 0.0) == pytest.approx(model.throughput(4, 0.0))

    def test_misses_reduce_throughput(self):
        model = ConcurrencyModel()
        assert model.throughput(8, 0.5) < model.throughput(8, 0.0)

    def test_device_iops_bound(self):
        model = ConcurrencyModel(cores=1024, queue_depth=8, io_latency=100e-6)
        ceiling = 8 / 100e-6 / 1.0
        assert model.throughput(1024, miss_probability=1.0) <= ceiling + 1e-6

    def test_clock_overhead_slows_mlkv_variant(self):
        plain = ConcurrencyModel()
        mlkv = ConcurrencyModel(clock_overhead_seconds=0.2e-6)
        assert mlkv.throughput(8, 0.0) < plain.throughput(8, 0.0)

    def test_contention_grows_with_threads_and_skew(self):
        model = ConcurrencyModel()
        assert model.expected_retries(1, 0.1) == 0.0
        assert model.expected_retries(16, 0.01) > 0.0
        assert model.expected_retries(32, 0.01) > model.expected_retries(16, 0.01)
        assert model.throughput(32, 0.0, hot_mass=0.05) < model.throughput(32, 0.0)

    def test_invalid_inputs_rejected(self):
        model = ConcurrencyModel()
        with pytest.raises(ValueError):
            model.throughput(0, 0.0)
        with pytest.raises(ValueError):
            model.throughput(1, 1.5)


class TestFaultSchedule:
    """The one schedule/fire core under both chaos injectors."""

    class Probe:
        """A store whose shards record the group verbs fired at them."""

        class Group:
            clock = None

            def __init__(self, calls, shard):
                self.calls, self.shard = calls, shard

            def fail(self, replica):
                self.calls.append(("fail", self.shard, replica))

            def revive(self, replica):
                self.calls.append(("revive", self.shard, replica))

        def __init__(self):
            self.calls = []
            self.shards = [self.Group(self.calls, shard) for shard in (0, 1)]

    def test_both_injectors_fire_through_it(self):
        assert issubclass(ChaosInjector, FaultSchedule)
        assert StragglerInjector.fire_due is FaultSchedule.fire_due
        for injector in (ChaosInjector, StragglerInjector):
            assert injector._schedule is FaultSchedule._schedule
            assert injector.pending is FaultSchedule.pending
            assert injector.peek_time is FaultSchedule.peek_time

    @pytest.mark.parametrize("injector", [ChaosInjector, StragglerInjector])
    def test_equal_times_fire_in_scheduling_order(self, injector):
        chaos = (
            injector()
            .revive_replica_at(2.0, 1, 0)
            .kill_replica_at(1.0, 0, 1)
            .revive_replica_at(1.0, 0, 1)
        )
        probe = self.Probe()
        assert (chaos.pending(), chaos.peek_time()) == (3, 1.0)
        assert chaos.fire_due(1.5, probe) == 2
        assert probe.calls == [("fail", 0, 1), ("revive", 0, 1)]
        assert [event["scheduled_at"] for event in chaos.fired] == [1.0, 1.0]
        assert [event["fired_at"] for event in chaos.fired] == [1.5, 1.5]
        assert (chaos.pending(), chaos.peek_time()) == (1, 2.0)

    def test_serving_injector_flips_one_phase_per_event_in_firing_order(self):
        chaos = ChaosInjector().kill_replica_at(1.0, 0, 1).revive_replica_at(1.0, 0, 1)
        chaos.kill_replica_at(9.0, 1, 0)
        telemetry = ServingTelemetry()
        assert chaos.fire_due(1.5, self.Probe(), telemetry) == 2
        assert telemetry.events == [
            {"phase": "after:kill:0/1", "at": 1.5},
            {"phase": "after:revive:0/1", "at": 1.5},
        ]
        assert chaos.fire_due(2.0, self.Probe(), telemetry) == 0
        assert telemetry.phase == "after:revive:0/1"
