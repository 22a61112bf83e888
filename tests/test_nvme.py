"""Unit tests for the NVMe device model, rings, qpairs and driver."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.backend import as_backend
from repro.errors import DeviceError, PageBoundsError, QueueFullError
from repro.nvme.command import NvmeCommand, OP_READ
from repro.nvme.device import NvmeDevice, fast_test_profile
from repro.nvme.driver import NvmeDriver
from repro.nvme.latency import ServiceTimeModel
from repro.nvme.queue import Ring
from repro.sim.clock import usec
from repro.sim.engine import Engine


class TestRing:
    def test_fifo_order(self):
        ring = Ring(4)
        for i in range(3):
            ring.push(i)
        assert [ring.pop() for _ in range(3)] == [0, 1, 2]
        assert ring.pop() is None

    def test_full_raises(self):
        ring = Ring(2)
        ring.push(1)
        ring.push(2)
        assert ring.is_full
        with pytest.raises(QueueFullError):
            ring.push(3)

    def test_wraparound(self):
        ring = Ring(2)
        for i in range(10):
            ring.push(i)
            assert ring.pop() == i
        assert ring.is_empty

    def test_peek(self):
        ring = Ring(4)
        assert ring.peek() is None
        ring.push("a")
        assert ring.peek() == "a"
        assert len(ring) == 1


class TestCommand:
    def test_validation(self):
        with pytest.raises(ValueError):
            NvmeCommand("erase", 0)
        with pytest.raises(ValueError):
            NvmeCommand(OP_READ, -1)

    def test_latency_none_until_complete(self):
        command = NvmeCommand(OP_READ, 1)
        assert command.latency_ns is None


class TestServiceTime:
    def test_deterministic_with_zero_sigma(self):
        model = ServiceTimeModel(1000, 3000, sigma=0.0)
        assert model.sample(False, None) == 1000
        assert model.sample(True, None) == 3000

    def test_mean_calibration(self):
        engine = Engine(seed=9)
        rng = engine.rng.stream("svc")
        model = ServiceTimeModel(usec(80), usec(240), sigma=0.25)
        samples = [model.sample(False, rng) for _ in range(4000)]
        mean = sum(samples) / len(samples)
        assert abs(mean - usec(80)) / usec(80) < 0.05

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            ServiceTimeModel(0, 10)
        with pytest.raises(ValueError):
            ServiceTimeModel(10, 10, sigma=-1)


def make_device(seed=1, **overrides):
    engine = Engine(seed=seed)
    device = NvmeDevice(engine, fast_test_profile(**overrides))
    return engine, device, NvmeDriver(device)


class TestDevice:
    def test_read_returns_written_data(self):
        engine, device, driver = make_device()
        qpair = driver.alloc_qpair()
        payload = bytes(range(256)) * 2
        done = []
        driver.write(qpair, 5, payload, callback=done.append)
        engine.run()
        driver.probe(qpair)
        assert len(done) == 1
        done2 = []
        driver.read(qpair, 5, callback=done2.append)
        engine.run()
        driver.probe(qpair)
        assert done2[0].data == payload

    def test_unwritten_page_reads_zeroes(self):
        engine, device, driver = make_device()
        qpair = driver.alloc_qpair()
        done = []
        driver.read(qpair, 9, callback=done.append)
        engine.run()
        driver.probe(qpair)
        assert done[0].data == bytes(512)

    def test_write_wrong_size_rejected(self):
        engine, device, driver = make_device()
        qpair = driver.alloc_qpair()
        with pytest.raises(DeviceError):
            driver.write(qpair, 1, b"short")

    def test_capacity_bounds(self):
        engine, device, driver = make_device()
        qpair = driver.alloc_qpair()
        with pytest.raises(PageBoundsError):
            driver.read(qpair, device.profile.capacity_pages)
        with pytest.raises(PageBoundsError):
            device.raw_read(device.profile.capacity_pages + 5)

    def test_completion_requires_probe(self):
        engine, device, driver = make_device()
        qpair = driver.alloc_qpair()
        done = []
        driver.read(qpair, 1, callback=done.append)
        engine.run()
        # device has completed the I/O but the callback only fires on probe
        assert done == []
        assert qpair.has_visible_completions
        driver.probe(qpair)
        assert len(done) == 1

    def test_parallelism_speedup(self):
        # 8 reads on 4 channels take ~2 service times, not 8
        engine, device, driver = make_device()
        qpair = driver.alloc_qpair()
        for lba in range(1, 9):
            driver.read(qpair, lba)
        engine.run()
        assert engine.now < usec(10) * 3
        assert device.reads_completed.value == 8

    def test_out_of_order_completion(self):
        engine, device, driver = make_device(seed=7)
        # force service-time variance
        device.substrate.service.__init__(usec(10), usec(30), 0.5)
        qpair = driver.alloc_qpair()
        order = []
        for lba in range(1, 17):
            driver.read(qpair, lba, callback=lambda c: order.append(c.lba))
        engine.run()
        driver.probe(qpair)
        assert sorted(order) == list(range(1, 17))
        assert order != list(range(1, 17))

    def test_outstanding_gauge(self):
        engine, device, driver = make_device()
        qpair = driver.alloc_qpair()
        for lba in range(1, 5):
            driver.read(qpair, lba)
        assert device.outstanding.value == 4
        engine.run()
        driver.probe(qpair)
        assert device.outstanding.value == 0

    def test_round_robin_across_qpairs(self):
        engine, device, driver = make_device(channels=1)
        q1 = driver.alloc_qpair()
        q2 = driver.alloc_qpair()
        for _ in range(3):
            driver.read(q1, 1)
            driver.read(q2, 2)
        engine.run()
        # both queues served despite one channel
        assert len(q1.cq) == 3
        assert len(q2.cq) == 3

    def test_probe_interface_backlog_capped(self):
        engine, device, driver = make_device()
        qpair = driver.alloc_qpair()
        for _ in range(1000):
            device.probe(qpair)
        cap = device.profile.iface_backlog_cap_ns
        assert device._iface_free_ns - engine.now <= cap + device.profile.probe_iface_ns

    @pytest.mark.parametrize("step_ns", [500, 2_000, 5_000])
    @pytest.mark.parametrize("backlog_ns", [0, 10_000, 23_000, 40_000])
    def test_a_run_of_empty_probes_booked_at_once_is_that_many_probes(
        self, backlog_ns, step_ns
    ):
        # probe_iface_ns is 2 us and the cap 24 us: the interface is
        # idle, behind but under the cap, about to cross it, or over it
        # (fetches queue without limit); probes come faster than, as
        # fast as, or slower than one occupies the interface
        def probed(count, at_once):
            engine, device, driver = make_device()
            qpair = driver.alloc_qpair()
            engine.run_for(1_000)
            device._iface_free_ns = engine.now + backlog_ns
            if at_once:
                engine.run_for(count * step_ns)
                as_backend(driver).probe_empty_repeat(count, step_ns)
            else:
                for _ in range(count):
                    engine.run_for(step_ns)
                    assert device.probe(qpair) == []
            return engine.now, device._iface_free_ns, device.probe_calls.value

        for count in (1, 2, 13, 60):
            assert probed(count, at_once=True) == probed(count, at_once=False)

    @settings(max_examples=300, deadline=None)
    @given(
        free_ns=st.integers(0, 200_000),
        now_ns=st.integers(0, 200_000),
        count=st.integers(1, 3_000),
        step_ns=st.integers(1, 6_000),
        duration_ns=st.sampled_from([0, 1, 499, 500, 2_000, 2_001, 5_000]),
        cap_ns=st.sampled_from([0, 1, 2_000, 24_000, 100_000]),
    )
    def test_a_run_of_empty_probes_skips_whole_periods_exactly(
        self, free_ns, now_ns, count, step_ns, duration_ns, cap_ns
    ):
        # the oracle: one droppable interface occupancy per probe instant
        at_ns = now_ns - (count - 1) * step_ns
        expected = free_ns
        for _ in range(count):
            start = max(expected, at_ns)
            if start - at_ns < cap_ns:
                expected = start + duration_ns
            at_ns += step_ns

        engine, device, driver = make_device(
            probe_iface_ns=duration_ns, iface_backlog_cap_ns=cap_ns
        )
        engine.clock.now = now_ns
        device._iface_free_ns = free_ns
        device.probe_empty_repeat(count, step_ns)
        assert device._iface_free_ns == expected
        assert device.probe_calls.value == count

    def test_latency_accounting(self):
        engine, device, driver = make_device()
        qpair = driver.alloc_qpair()
        driver.read(qpair, 1)
        driver.write(qpair, 2, bytes(512))
        engine.run()
        driver.probe(qpair)
        assert device.mean_read_latency_ns() > 0
        assert device.mean_write_latency_ns() > device.mean_read_latency_ns()


class TestDriverCosts:
    def test_probe_cost_scales_with_completions(self):
        engine, device, driver = make_device()
        assert driver.probe_cpu_ns(4) > driver.probe_cpu_ns(0)

    def test_submit_cost_positive(self):
        engine, device, driver = make_device()
        assert driver.submit_cpu_ns > 0
