"""Tests for the CPU and disk service models."""

import pytest

from repro.cluster import Cpu, Disk, IDE_DISK_4GB, SCSI_DISK_8GB
from repro.sim import Simulator


@pytest.fixture
def sim():
    return Simulator()


class TestCpu:
    def test_validation(self, sim):
        with pytest.raises(ValueError):
            Cpu(sim, 0)

    def test_reference_speed_unscaled(self, sim):
        cpu = Cpu(sim, 350)
        assert cpu.scaled(0.010) == pytest.approx(0.010)

    def test_slow_cpu_scales_up(self, sim):
        cpu = Cpu(sim, 150)
        assert cpu.scaled(0.010) == pytest.approx(0.010 * 350 / 150)

    def test_negative_work_rejected(self, sim):
        with pytest.raises(ValueError):
            Cpu(sim, 350).scaled(-1)

    def test_run_takes_scaled_time(self, sim):
        cpu = Cpu(sim, 175)  # half speed
        done = []

        def go():
            yield from cpu.run(0.010)
            done.append(sim.now)

        sim.process(go())
        sim.run()
        assert done[0] == pytest.approx(0.020)
        assert cpu.busy_seconds == pytest.approx(0.020)
        assert cpu.bursts == 1

    def test_bursts_serialize(self, sim):
        cpu = Cpu(sim, 350)
        done = []

        def go(name):
            yield from cpu.run(0.010)
            done.append((name, sim.now))

        sim.process(go("a"))
        sim.process(go("b"))
        sim.run()
        assert done == [("a", pytest.approx(0.010)),
                        ("b", pytest.approx(0.020))]

    def test_utilization(self, sim):
        cpu = Cpu(sim, 350)

        def go():
            yield from cpu.run(0.5)

        sim.process(go())
        sim.run(until=1.0)
        assert cpu.utilization() == pytest.approx(0.5)


class TestDisk:
    def test_read_time_includes_seek(self, sim):
        disk = Disk(sim, IDE_DISK_4GB)
        done = []

        def go():
            yield from disk.read(8 * 1024 * 1024)
            done.append(sim.now)

        sim.process(go())
        sim.run()
        expected = (IDE_DISK_4GB.per_file_accesses *
                    IDE_DISK_4GB.avg_access_s + 1.0)
        assert done[0] == pytest.approx(expected)
        assert disk.reads == 1
        assert disk.bytes_read == 8 * 1024 * 1024

    def test_reads_serialize_on_one_arm(self, sim):
        disk = Disk(sim, SCSI_DISK_8GB)
        done = []

        def go():
            yield from disk.read(0)
            done.append(sim.now)

        sim.process(go())
        sim.process(go())
        sim.run()
        assert done[1] == pytest.approx(
            2 * SCSI_DISK_8GB.per_file_accesses * SCSI_DISK_8GB.avg_access_s)

    def test_scsi_beats_ide_under_contention(self, sim):
        ide = Disk(sim, IDE_DISK_4GB)
        scsi = Disk(sim, SCSI_DISK_8GB)
        finish = {}

        def go(disk, name):
            for _ in range(10):
                yield from disk.read(64 * 1024)
            finish[name] = sim.now

        sim.process(go(ide, "ide"))
        sim.process(go(scsi, "scsi"))
        sim.run()
        assert finish["scsi"] < finish["ide"]


class TestInterruptedWait:
    """A burst or a read interrupted while it waits gives its unit up."""

    def test_cpu_burst_interrupted_after_its_grant_frees_the_core(self, sim):
        cpu = Cpu(sim, 350)
        done = []

        def burst(tag, delay=0.0):
            yield sim.timeout(delay)
            yield from cpu.run(0.010)
            done.append((tag, sim.now))

        sim.process(burst("first"))
        # queued behind the first burst; its grant-and-hold is granted at
        # 10 ms and would fire at 20 ms
        victim = sim.process(burst("victim"))

        def killer():
            yield sim.timeout(0.015)
            victim.interrupt("torn down")

        sim.process(killer())
        sim.process(burst("after", delay=0.016))
        sim.run()
        assert done == [("first", pytest.approx(0.010)),
                        ("after", pytest.approx(0.026))]
        assert cpu._core.users == [] and cpu._core.queue == []
        assert cpu.bursts == 2

    @pytest.mark.parametrize("slowdown", [1.0, 2.0])
    def test_queued_read_interrupted_leaves_the_arm_queue(self, sim,
                                                         slowdown):
        disk = Disk(sim, SCSI_DISK_8GB)
        disk.slowdown = slowdown
        done = []

        def read(tag, delay=0.0):
            yield sim.timeout(delay)
            yield from disk.read(1024 * 1024)
            done.append(tag)

        sim.process(read("first"))
        victim = sim.process(read("victim"))

        def killer():
            yield sim.timeout(0.001)
            victim.interrupt("torn down")

        sim.process(killer())
        sim.process(read("after", delay=0.002))
        sim.run()
        assert done == ["first", "after"]
        assert disk._arm.users == [] and disk._arm.queue == []
        assert disk.reads == 2
