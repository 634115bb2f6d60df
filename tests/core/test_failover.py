"""Tests for primary/backup distributor fault tolerance (§2.3)."""

import pytest

from repro.cluster import BackendServer, distributor_spec, paper_testbed_specs
from repro.content import ContentItem, ContentType
from repro.core import (ContentAwareDistributor, FrontendDown,
                        HaDistributorPair, UrlTable)
from repro.net import HttpRequest, Lan, Nic
from repro.sim import Simulator


def build_pair(heartbeat=0.25, misses=3, **pair_kwargs):
    sim = Simulator()
    lan = Lan(sim)
    specs = paper_testbed_specs()[:2]
    servers = {s.name: BackendServer(sim, lan, s) for s in specs}
    item = ContentItem("/site/page.html", 2048, ContentType.HTML)
    for s in servers.values():
        s.place(item)
    primary_table = UrlTable()
    primary_table.insert(item, set(servers))
    backup_table = UrlTable()
    primary = ContentAwareDistributor(sim, lan, distributor_spec(), servers,
                                      primary_table, name="dist-primary")
    backup = ContentAwareDistributor(sim, lan, distributor_spec(), servers,
                                     backup_table, name="dist-backup")
    pair = HaDistributorPair(sim, primary, backup,
                             heartbeat_interval=heartbeat,
                             misses_to_fail=misses, **pair_kwargs)
    client_nic = Nic(sim, 100, name="client")
    return sim, pair, primary, backup, servers, item, client_nic


def fetch(sim, pair, url, client_nic):
    out = {}

    def go():
        outcome = yield sim.process(pair.submit(HttpRequest(url),
                                                client_nic))
        out["outcome"] = outcome

    sim.process(go())
    # bounded run: the HA heartbeat loop never drains the event heap
    sim.run(until=sim.now + 30.0)
    return out.get("outcome")


class TestValidation:
    def test_bad_parameters(self):
        sim, pair, primary, backup, servers, item, nic = build_pair()
        with pytest.raises(ValueError):
            HaDistributorPair(sim, primary, backup, heartbeat_interval=0)
        with pytest.raises(ValueError):
            HaDistributorPair(sim, primary, backup, misses_to_fail=0)


class TestNormalOperation:
    def test_requests_go_through_primary(self):
        sim, pair, primary, backup, servers, item, nic = build_pair()
        outcome = fetch(sim, pair, item.path, nic)
        assert outcome.response.ok
        assert pair.active is primary
        assert primary.meter.completions == 1
        assert backup.meter.completions == 0

    def test_state_replicated_on_heartbeat(self):
        sim, pair, primary, backup, servers, item, nic = build_pair()
        sim.run(until=1.0)
        assert len(backup.url_table) == len(primary.url_table)
        assert pair.state_syncs >= 1
        # later mutations also flow
        new_item = ContentItem("/site/late.html", 100, ContentType.HTML)
        primary.url_table.insert(new_item, {sorted(servers)[0]})
        sim.run(until=2.0)
        assert "/site/late.html" in backup.url_table

    def test_no_failover_while_primary_healthy(self):
        sim, pair, primary, backup, servers, item, nic = build_pair()
        sim.run(until=5.0)
        assert not pair.failed_over
        assert pair.failover_at is None
        assert pair.heartbeats >= 19


class TestFailover:
    def test_backup_takes_over_after_detection_window(self):
        sim, pair, primary, backup, servers, item, nic = build_pair(
            heartbeat=0.25, misses=3)
        sim.run(until=1.0)
        primary.crash()
        sim.run(until=3.0)
        assert pair.failed_over
        assert pair.active is backup
        # detection took between misses*hb and misses*hb + one interval
        detection = pair.failover_at - 1.0
        assert 0.5 <= detection <= 1.1
        assert pair.outage_duration == pytest.approx(0.75)

    def test_requests_fail_during_outage_window(self):
        # retry_attempts=0 restores the raw fail-fast behaviour: without a
        # retry budget the outage window is immediately visible
        sim, pair, primary, backup, servers, item, nic = build_pair(
            retry_attempts=0)
        sim.run(until=1.0)
        primary.crash()
        errors = []

        def go():
            try:
                yield sim.process(pair.submit(HttpRequest(item.path), nic))
            except FrontendDown as exc:
                errors.append(exc)

        sim.process(go())
        sim.run(until=1.5)  # still inside the 0.75 s detection window
        assert len(errors) == 1

    def test_requests_succeed_after_takeover(self):
        sim, pair, primary, backup, servers, item, nic = build_pair()
        sim.run(until=1.0)
        primary.crash()
        sim.run(until=3.0)
        outcome = fetch(sim, pair, item.path, nic)
        assert outcome.response.ok
        assert backup.meter.completions == 1

    def test_backup_serves_content_registered_before_crash(self):
        sim, pair, primary, backup, servers, item, nic = build_pair()
        late = ContentItem("/site/critical.html", 512, ContentType.HTML)
        holder = sorted(servers)[0]
        servers[holder].place(late)
        primary.url_table.insert(late, {holder})
        sim.run(until=1.0)       # heartbeat replicates the state
        primary.crash()
        sim.run(until=3.0)
        outcome = fetch(sim, pair, late.path, nic)
        assert outcome.response.ok
        assert outcome.backend == holder

    def test_submit_retries_across_takeover_window(self):
        # regression: submit used to raise bare FrontendDown the instant
        # the primary died; with the default retry budget the request must
        # ride out the takeover and be answered by the backup
        sim, pair, primary, backup, servers, item, nic = build_pair()
        sim.run(until=1.0)
        primary.crash()
        outcome = fetch(sim, pair, item.path, nic)
        assert outcome is not None and outcome.response.ok
        assert backup.meter.completions == 1
        assert primary.meter.completions == 0
        assert pair.retries >= 1

    def test_retry_budget_exhausts_if_no_takeover(self):
        # both distributors dead: the bounded backoff must give up with
        # FrontendDown, not loop forever
        sim, pair, primary, backup, servers, item, nic = build_pair(
            retry_attempts=3, retry_backoff=0.05)
        sim.run(until=1.0)
        primary.crash()
        backup.crash()
        pair.stop()  # no takeover is coming
        errors = []

        def go():
            try:
                yield sim.process(pair.submit(HttpRequest(item.path), nic))
            except FrontendDown as exc:
                errors.append((sim.now, exc))

        sim.process(go())
        sim.run(until=5.0)
        assert len(errors) == 1
        # gave up after 0.05 + 0.1 + 0.2 seconds of backoff
        assert errors[0][0] == pytest.approx(1.35)
        assert pair.retries == 3

    def test_monitor_stops_after_failover(self):
        sim, pair, primary, backup, servers, item, nic = build_pair()
        sim.run(until=1.0)
        primary.crash()
        sim.run(until=3.0)
        beats_at_failover = pair.heartbeats
        sim.run(until=10.0)
        assert pair.heartbeats == beats_at_failover  # loop exited
