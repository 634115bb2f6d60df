"""Regression test for the LEAK001 finding in Lan.transfer.

The slow path acquires the sender's TX channel, then waits -- possibly
queued -- for the receiver's RX channel.  A transfer torn down during
that wait (client RST, chaos interrupt) must not keep holding TX and
head-of-line-block unrelated traffic.
"""

from repro.net import Lan, Nic
from repro.sim import Simulator


def test_tx_released_when_interrupted_waiting_for_rx():
    sim = Simulator()
    lan = Lan(sim)
    src = Nic(sim, 100, name="src")
    dst = Nic(sim, 100, name="dst")
    # receiver busy: the transfer takes the slow path and queues for RX
    hold = dst.rx.try_acquire()
    assert hold is not None
    proc = sim.process(lan.transfer(src, dst, 8192))

    def killer():
        yield sim.timeout(0.01)
        proc.interrupt("client gone")

    sim.process(killer())
    sim.run()
    assert src.tx.can_acquire  # TX lease returned on the interrupt path


def test_normal_transfer_still_pairs_both_channels():
    sim = Simulator()
    lan = Lan(sim)
    src = Nic(sim, 100, name="src")
    dst = Nic(sim, 100, name="dst")
    sim.process(lan.transfer(src, dst, 8192))
    sim.run()
    assert src.tx.can_acquire and dst.rx.can_acquire
    assert lan.total_transfers == 1


def test_interrupted_queued_transfer_leaves_the_nic_queue():
    """A transfer interrupted while queued behind another for the same
    sender's TX channel withdraws its request: the channel goes to the
    next transfer instead of to the dead one, for ever."""
    sim = Simulator()
    lan = Lan(sim)
    src = Nic(sim, 100, name="src")
    a = Nic(sim, 100, name="a")
    b = Nic(sim, 100, name="b")
    sim.process(lan.transfer(src, a, 100_000))    # holds src.tx
    queued = sim.process(lan.transfer(src, b, 100_000))
    later = sim.process(lan.transfer(src, b, 8192))

    def killer():
        yield sim.timeout(0.001)
        queued.interrupt("client gone")

    sim.process(killer())
    sim.run()
    assert not later.is_alive
    assert src.tx.users == [] and src.tx.queue == []
    assert lan.total_transfers == 2
