"""The suite's five workloads, each one seeded function of the inputs it
generates.

Every workload builds its system, marks *load start* (the first
``WebBenchRig.start_clients`` call, or just before the first scheduled
arrival of the open loop), drives the simulation, marks *load end*, and
returns what it observed:

``observables``
    every simulated result the run produced (summaries, a SHA-256 over
    the full completion timeline, WAL counters, ...), digested for the
    correctness gate;
``sim``
    the simulated end-to-end metrics (throughput, latency percentiles,
    success rate), deterministic for a seed;
``ops``
    client requests plus management writes attempted, and how many of
    them failed (errors, 503 sheds, timeouts, failed writes);
``checks``
    seed-independent correctness problems (invariant violations, wrong
    byte counts, ...); empty when the run is sound.

Only names exported from ``repro`` package ``__init__`` files are used,
plus ``run_overload_episode``.  Keyword arguments that a later refactor
may remove (``fast_path``) are passed only while the callee accepts them.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import inspect
import json
import math
import time
from collections import defaultdict

from repro.analysis import check_invariants
from repro.cluster import BackendServer, LruCache
from repro.content import ContentItem, ContentType
from repro.core import (AdmissionController, AutoReplicator, ConnectionPool,
                        LoadAccountant, SplicingDistributor, UrlTable,
                        UrlTableError)
from repro.experiments import ExperimentConfig, build_deployment
from repro.experiments.chaos import run_overload_episode
from repro.mgmt import (Broker, Controller, ControllerDurability,
                        ManagementError)
from repro.net import (Address, Host, HttpRequest, HttpResponse, Network,
                       TcpState)
from repro.sim import RngStream, Simulator, ZipfSampler
from repro.workload import WORKLOAD_A, WORKLOAD_B, WebBenchRig, WorkloadSpec

__all__ = ["WORKLOADS", "SCALES", "Probe", "fast_path_kwargs", "digest_of"]

#: simulated sizes per workload.  ``full`` is the measured configuration;
#: ``smoke`` runs each workload in about half a second of host time.
SCALES: dict[str, dict[str, dict]] = {
    "full": {
        "static_partition": dict(clients=120, duration=15.0, warmup=2.5),
        "dynamic_wlc": dict(clients=120, duration=22.5, warmup=2.5),
        "splice_openloop": dict(rate=600.0, duration=37.5, drain=1.0),
        "content_churn": dict(clients=60, duration=15.0, warmup=2.0,
                              settle=2.0),
        "overload_flash": dict(duration=30.0, clients=10, n_objects=300,
                               settle=2.5),
    },
    "smoke": {
        "static_partition": dict(clients=60, duration=4.0, warmup=1.0),
        "dynamic_wlc": dict(clients=60, duration=4.0, warmup=1.0),
        "splice_openloop": dict(rate=300.0, duration=4.0, drain=1.0),
        "content_churn": dict(clients=30, duration=4.0, warmup=1.0,
                              settle=2.0),
        "overload_flash": dict(duration=6.0, clients=10, n_objects=150,
                               settle=1.5),
    },
}

#: Workload A's request mix over a much hotter, smaller site: a few
#: documents dominate, so §3.3 auto-replication has load skew to act on
HOTSPOT = WorkloadSpec(name="hotspot", catalog_mix=WORKLOAD_A.catalog_mix,
                       request_mix=WORKLOAD_A.request_mix, zipf_alpha=1.30,
                       n_objects=3000)

#: the open-loop document mix: mostly small pages with a heavy tail of
#: large transfers (path, bytes, type, request share)
OPENLOOP_DOCS = (
    ("/index.html", 4 * 1024, ContentType.HTML, 0.60),
    ("/img/banner.gif", 30 * 1024, ContentType.IMAGE, 0.25),
    ("/doc/manual.html", 120 * 1024, ContentType.HTML, 0.10),
    ("/pub/release.avi", 1024 * 1024, ContentType.VIDEO, 0.05),
)

CHURN_WRITERS = 4
CHURN_TARGETS = 16
CHURN_PAUSE = 0.2


def fast_path_kwargs(factory) -> dict:
    """``{"fast_path": True}`` while ``factory`` still takes that keyword.

    The suite measures the fast-path configuration; once the simulator
    has a single mode the keyword goes away and this returns ``{}``.
    """
    params = inspect.signature(factory).parameters
    return {"fast_path": True} if "fast_path" in params else {}


def digest_of(observables: dict) -> str:
    return hashlib.sha256(json.dumps(observables, sort_keys=True,
                                     default=repr).encode()).hexdigest()


def _sha(rows) -> str:
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


class Probe:
    """What the suite sees of a run: constructed objects, client-side
    completions, and the load start/end marks.

    It patches constructors (to list instances) and the rig's accounting
    calls (to keep the completion timeline).  Both only record; neither
    changes what the simulation does.
    """

    CAPTURED = (Simulator, WebBenchRig, UrlTable, LruCache, ConnectionPool,
                AdmissionController, BackendServer, Network)

    def __init__(self, tracer=None, on_simulator=None):
        self.tracer = tracer
        self.instances: dict[str, list] = defaultdict(list)
        #: (t, url, latency, bytes, served_by) per client completion
        self.completions: list[tuple] = []
        #: (t, status) per client-observed error
        self.errors: list[tuple] = []
        self.t_entry = time.perf_counter()
        self.t_start: float | None = None
        self.t_end: float | None = None
        self.events_at_start = 0
        self.sim: Simulator | None = None
        self.on_start: list = []
        self.on_end: list = []
        self._on_simulator = on_simulator

    def install(self) -> None:
        for cls in self.CAPTURED:
            self._capture(cls)
        probe = self
        record_completion = WebBenchRig.record_completion
        record_error = WebBenchRig.record_error
        start_clients = WebBenchRig.start_clients

        @functools.wraps(record_completion)
        def completion(rig, request, outcome):
            record_completion(rig, request, outcome)
            resp = outcome.response
            probe.completions.append((rig.sim.now, request.url,
                                      outcome.latency, resp.content_length,
                                      resp.served_by))

        @functools.wraps(record_error)
        def error(rig, now, status=None):
            record_error(rig, now, status=status)
            probe.errors.append((now, status))

        @functools.wraps(start_clients)
        def start(rig, n_clients):
            probe.start(rig.sim)
            start_clients(rig, n_clients)

        WebBenchRig.record_completion = completion
        WebBenchRig.record_error = error
        WebBenchRig.start_clients = start

    def _capture(self, cls) -> None:
        init = cls.__init__
        registry = self.instances[cls.__name__]
        hook = self._on_simulator if cls is Simulator else None

        @functools.wraps(init)
        def captured(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            registry.append(obj)
            if hook is not None:
                hook(obj)

        cls.__init__ = captured

    def wrap(self, fn, name: str):
        """Trace the suite's own load-generating code as span ``name``."""
        return fn if self.tracer is None else self.tracer.wrap(fn, name)

    def start(self, sim: Simulator) -> None:
        if self.t_start is not None:
            return
        self.sim = sim
        self.events_at_start = sim.event_count
        for hook in self.on_start:
            hook()
        self.t_start = time.perf_counter()

    def end(self) -> None:
        self.t_end = time.perf_counter()
        for hook in self.on_end:
            hook()

    @property
    def events(self) -> int:
        return self.sim.event_count - self.events_at_start

    def url_size(self) -> dict:
        """Document sizes from the largest URL table built in the run."""
        tables = self.instances["UrlTable"]
        table = max(tables, key=len)
        return {rec.path: rec.size_bytes for rec in table.records()}


# -- shared result shaping ----------------------------------------------------

def _sim_metrics(latencies: list, window: float, attempted: int,
                 failed: int) -> dict:
    """Simulated metrics; latency percentiles are nearest-rank."""
    ordered = sorted(latencies)
    n = len(ordered)
    if not n:
        raise RuntimeError("no request completed inside the window")
    rank50, rank99 = (max(1, math.ceil(p * n)) for p in (0.50, 0.99))
    return {
        "sim_throughput_rps": n / window,
        "sim_latency_p50_ms": ordered[rank50 - 1] * 1e3,
        "sim_latency_p99_ms": ordered[rank99 - 1] * 1e3,
        "sim_success_rate": 1.0 - failed / attempted if attempted else 0.0,
        "window_samples": n,
        "p99_tail_samples": n - rank99,
    }


def _rig_outcome(probe: Probe, rig, warmup: float, horizon: float,
                 writes=(0, 0)) -> dict:
    """Metrics and observables common to the closed-loop workloads."""
    window = [c[2] for c in probe.completions if warmup <= c[0] <= horizon]
    attempted = len(probe.completions) + len(probe.errors) + writes[0]
    failed = len(probe.errors) + writes[1]
    sizes = probe.url_size()
    checks = []
    wrong = [c for c in probe.completions
             if sizes.get(c[1].split("?", 1)[0]) != c[3] or c[2] <= 0]
    if wrong:
        checks.append(f"{len(wrong)} completions with a wrong byte count "
                      f"or latency, first {wrong[0]}")
    servers = {s.name: [s.completed_requests, s.failed_requests,
                        s.cache.hits, s.cache.misses]
               for s in probe.instances["BackendServer"]}
    summary = rig.summary(horizon)
    return {
        "sim": _sim_metrics(window, horizon - warmup, attempted, failed),
        "ops": {"attempted": attempted, "failed": failed},
        "requests": len(probe.completions),
        "checks": checks,
        "observables": {
            "summary": summary,
            "error_statuses": sorted(
                [repr(k), v] for k, v in rig.error_statuses.items()),
            "completion_timeline_sha256": _sha(probe.completions),
            "error_timeline_sha256": _sha(probe.errors),
            "servers": dict(sorted(servers.items())),
        },
    }


def _deployment_checks(dep) -> list:
    return [f"{v.rule} {v.path}: {v.message}" for v in check_invariants(
        dep.url_table, servers=dep.servers, frontend=dep.frontend,
        catalog=dep.catalog)]


# -- the workloads ------------------------------------------------------------

def _closed_loop(probe: Probe, seed: int, scheme: str, spec, p: dict):
    config = ExperimentConfig(
        scheme=scheme, workload=spec, seed=seed, duration=p["duration"],
        warmup=p["warmup"], **fast_path_kwargs(ExperimentConfig))
    dep = build_deployment(config)
    dep.run(p["clients"])
    probe.end()
    out = _rig_outcome(probe, dep.rig, p["warmup"], p["duration"])
    out["checks"] += _deployment_checks(dep)
    return out


def static_partition(probe: Probe, seed: int, p: dict) -> dict:
    """Fig. 2 cell: Workload A on the content-aware partition, caches
    prewarmed.  The paper's headline path: submit, URL-table lookup,
    pool binding, cache-hit fast-forward and LAN transfer."""
    return _closed_loop(probe, seed, "partition-ca", WORKLOAD_A, p)


def dynamic_wlc(probe: Probe, seed: int, p: dict) -> dict:
    """Fig. 3 baseline: Workload B on full replication behind the L4 WLC
    router.  No URL table, no pools; CGI/ASP queueing on slow nodes keeps
    CPUs and disks contended, so fast-path sites fall back."""
    return _closed_loop(probe, seed, "replication-l4", WORKLOAD_B, p)


def _openloop_schedule(rate: float, duration: float,
                       seed: int) -> list[tuple[float, str]]:
    """Poisson arrivals over the document mix: (arrival time, url)."""
    rng = RngStream(seed, "suite/openloop")
    cumulative = []
    acc = 0.0
    for path, _, _, weight in OPENLOOP_DOCS:
        acc += weight
        cumulative.append((acc, path))
    schedule = []
    t = 0.0
    while True:
        t += rng.expovariate(rate)
        if t >= duration:
            break
        draw = rng.random()
        schedule.append((t, next(path for edge, path in cumulative
                                 if draw <= edge)))
    return schedule


def splice_openloop(probe: Probe, seed: int, p: dict) -> dict:
    """Packet-level splicing distributor, 2 backends, prefork 8, MSS
    1460, open-loop Poisson arrivals.  Latency counts from each request's
    scheduled arrival."""
    prefork, mss = 8, 1460
    sim = Simulator(**fast_path_kwargs(Simulator))
    net = Network(sim)
    table = UrlTable()
    sizes = {}
    backends = {}

    def echo_app(sock):
        while sock.state in (TcpState.ESTABLISHED, TcpState.CLOSE_WAIT):
            payload, _ = yield sock.recv()
            response = HttpResponse(request=payload,
                                    content_length=sizes[payload.url],
                                    served_by=sock.local.ip)
            sock.send_data(response, response.wire_bytes, mss=mss)

    echo_app = probe.wrap(echo_app, "cluster.echo")
    for i, name in enumerate(("s1", "s2")):
        ip = f"10.0.1.{i + 1}"
        backends[name] = Address(ip, 80)
        Host(net, ip).listen(80, lambda sock: sim.process(echo_app(sock)))
    for i, (path, nbytes, ctype, _) in enumerate(OPENLOOP_DOCS):
        sizes[path] = nbytes
        table.insert(ContentItem(path, nbytes, ctype), {("s1", "s2")[i % 2]})
    dist = SplicingDistributor(sim, net, table, backends, prefork=prefork)
    ready = []
    dist.prefork_all().add_callback(lambda ev: ready.append(True))
    sim.run(until=0.05)
    if not ready:
        raise RuntimeError("prefork legs did not establish")
    schedule = _openloop_schedule(p["rate"], p["duration"], seed)
    client = Host(net, "10.0.9.1")
    vip = Address("10.0.0.100", 80)
    done: list[tuple[float, float, int]] = []

    def one_request(due, url):
        sock = client.socket()
        yield sock.connect(vip)
        request = HttpRequest(url)
        sock.send(request, request.wire_bytes)
        received = 0
        payload = None
        while payload is None:          # the last fragment carries it
            payload, nbytes = yield sock.recv()
            received += nbytes
        done.append((due, sim.now, received))
        yield sock.close()

    one_request = probe.wrap(one_request, "workload.client")

    def driver(origin):
        now = origin
        for t, url in schedule:
            due = origin + t
            if due > now:
                yield sim.timeout(due - now)
                now = due
            sim.process(one_request(due, url))

    origin = sim.now
    probe.start(sim)
    sim.process(driver(origin))
    sim.run(until=origin + p["duration"] + p["drain"])
    probe.end()

    expected = {path: HttpResponse(request=None,
                                   content_length=nbytes).wire_bytes
                for path, nbytes, _, _ in OPENLOOP_DOCS}
    by_due = {due: url for due, url in
              ((origin + t, url) for t, url in schedule)}
    checks = []
    wrong = [d for d in done if d[2] != expected[by_due[d[0]]]]
    if wrong:
        checks.append(f"{len(wrong)} responses with a wrong byte count")
    if len(dist.mapping):
        checks.append(f"{len(dist.mapping)} mapping entries left open")
    idle = {b: dist.idle_legs(b) for b in sorted(backends)}
    if any(n != prefork for n in idle.values()):
        checks.append(f"pool legs not all returned: {idle}")
    attempted = len(schedule)
    failed = attempted - len(done)
    latencies = [t_done - due for due, t_done, _ in done]
    return {
        "sim": _sim_metrics(latencies, p["duration"], attempted, failed),
        "ops": {"attempted": attempted, "failed": failed},
        "requests": len(done),
        "checks": checks,
        "observables": {
            "completed": len(done),
            "bytes_received": sum(n for _, _, n in done),
            "segments_sent": net.segments_sent,
            "relayed_to_server": dist.relayed_to_server,
            "relayed_to_client": dist.relayed_to_client,
            "mapping_open": len(dist.mapping),
            "idle_legs": idle,
            "completion_timeline_sha256": _sha(done),
        },
    }


def _hottest_mutable(catalog, spec: WorkloadSpec, n: int) -> list[str]:
    """The ``n`` mutable static documents clients request most often.

    The sampler ranks each class smallest file first and draws ranks
    from a Zipf law, so a document's request share is its class share
    times the Zipf probability of its rank.
    """
    scored = []
    for ctype, share in spec.request_mix.items():
        if share == 0.0 or not ctype.is_static:
            continue
        items = sorted(catalog.by_type(ctype),
                       key=lambda i: (i.size_bytes, i.path))
        zipf = ZipfSampler(len(items), alpha=spec.zipf_alpha,
                           rng=RngStream(0, "suite/churn/popularity"))
        for rank, item in enumerate(items, start=1):
            if item.mutable:
                scored.append((-share * zipf.probability(rank), item.path))
    return [path for _, path in sorted(scored)[:n]]


def content_churn(probe: Probe, seed: int, p: dict) -> dict:
    """Hot-spot Workload A on the partition with the §3.3 auto-replicator,
    a WAL-backed controller and writers pushing new versions of the
    hottest mutable documents beside the reads."""
    config = ExperimentConfig(
        scheme="partition-ca", workload=HOTSPOT, seed=seed,
        duration=p["duration"], warmup=p["warmup"],
        **fast_path_kwargs(ExperimentConfig))
    dep = build_deployment(config)
    sim, frontend = dep.sim, dep.frontend
    accountant = LoadAccountant(
        {name: srv.spec.weight for name, srv in dep.servers.items()})
    frontend.on_response = accountant.record
    controller = Controller(sim, frontend.nic, dep.url_table, dep.doctree)
    registry: dict[str, Broker] = {}
    for name in sorted(dep.servers):
        controller.register_broker(Broker(sim, dep.lan, dep.servers[name],
                                          frontend.nic, registry))
    durability = ControllerDurability().attach(controller)
    replicator = AutoReplicator(sim, accountant, dep.url_table, controller,
                                interval=1.5, threshold=0.30,
                                max_actions_per_interval=3)
    replicator.start()

    targets = _hottest_mutable(dep.catalog, HOTSPOT, CHURN_TARGETS)
    writes: list[tuple[float, str, bool]] = []
    stopping = []

    def writer(order):
        i = 0
        while not stopping:
            path = order[i % len(order)]
            try:
                item = dataclasses.replace(dep.url_table.record(path).item)
                yield from controller.update_content(item)
                writes.append((sim.now, path, True))
            except (ManagementError, UrlTableError):
                writes.append((sim.now, path, False))
            i += 1
            yield sim.timeout(CHURN_PAUSE)

    for k in range(CHURN_WRITERS):
        order = list(targets)
        RngStream(seed, f"suite/churn/writer/{k}").shuffle(order)
        sim.process(writer(order), name=f"writer{k}")

    dep.rig.start_clients(p["clients"])
    sim.run(until=p["duration"])
    dep.rig.stop_clients()
    # drain: no new reads, writes or rebalancing rounds (the accountant
    # stops seeing responses, so it never reaches min_requests again);
    # in-flight management operations finish so the tables can be audited
    stopping.append(True)
    frontend.on_response = None
    accountant.reset()
    sim.run(until=p["duration"] + p["settle"])
    probe.end()

    failed_writes = sum(1 for w in writes if not w[2])
    out = _rig_outcome(probe, dep.rig, p["warmup"], p["duration"],
                       writes=(len(writes), failed_writes))
    out["checks"] += _deployment_checks(dep)
    out["checks"] += durability.verify_consistency()
    out["writes"] = {"attempted": len(writes), "failed": failed_writes}
    out["observables"].update({
        "wal": durability.counters(),
        "controller": [controller.dispatches, controller.failures,
                       controller.timeouts],
        "rebalance_actions": [[a.at, a.kind, a.path, a.node]
                              for a in replicator.history],
        "write_timeline_sha256": _sha(writes),
        "writes": out["writes"],
    })
    return out


def overload_flash(probe: Probe, seed: int, p: dict) -> dict:
    """The flash-crowd + slow-disk episode with overload control on, the
    HA pair and the cluster monitor; caches start cold by design."""
    result = run_overload_episode(
        seed=seed, duration=p["duration"], clients=p["clients"],
        n_objects=p["n_objects"], settle=p["settle"],
        **fast_path_kwargs(run_overload_episode))
    probe.end()
    rig = probe.instances["WebBenchRig"][-1]
    out = _rig_outcome(probe, rig, rig.warmup, p["duration"])
    # survival is a simulated outcome (some seeds end with a breaker still
    # open); it is pinned by the digest, not treated as a benchmark error
    out["observables"].update({
        "report": result.report(),
        "survived": result.survived,
    })
    return out


WORKLOADS = {
    "static_partition": static_partition,
    "dynamic_wlc": dynamic_wlc,
    "splice_openloop": splice_openloop,
    "content_churn": content_churn,
    "overload_flash": overload_flash,
}
