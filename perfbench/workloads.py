"""The benchmark's workloads: inputs, configuration and set-up.

Each workload is generated from its seed by the repository's own
simulators *before any timer starts*; the pipeline under test receives
only the generated traces (plus, for the cold chain, the sensor streams
and product catalog its monitors read). Simulation is the load
generator, not the system under test: ``sim.generate_s`` is reported so
that generator cost is never mistaken for a pipeline cost, and a change
under ``src/repro/sim/`` cannot claim a pipeline gain.
``VendorFeed.emit_until`` (``sim.feed_emit_s``) is the one generator
call that runs inside ``run_ingest``, because the feeds are what the
edges read; its time is reported separately for the same reason.

* ``supply-chain`` — the 4-site chain of single-case pallets of
  ``benchmarks/bench_throughput.py`` ``FED_CONFIGS[-1]``, scaled down
  (25 instead of 1400 items per pallet, a 15-epoch instead of 300-epoch
  interval) so that one pass of about 11k readings holds 100 boundaries
  and a run fits its time. Clean edges, non-overlapping windows, no
  continuous queries, in-process transport.
* ``cold-chain`` — the stable-heavy cold chain of
  ``benchmarks/bench_longstream.py`` (8 cases of 8 items, 3000 epochs,
  30-epoch interval) on two sites with one site move at epoch 700:
  overlapping windows, change detection, the stability gate and a memory
  budget, the four compiled monitors over sensor streams, one
  parent-resident replica per site and a two-frontend pool. The edges
  are flaky (feed noise, link chaos, one gateway restart).

Every pass of either workload holds 100 boundaries and about 4000
interactive reads, so even a one-pass run has ten samples beyond its p90
freshness and its p95 query latency.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any

from repro.core.online import MemoryBudget, OnlineConfig
from repro.core.service import ServiceConfig
from repro.edge import EdgePlan
from repro.queries.q1 import FreezerExposureQuery
from repro.queries.q2 import TemperatureExposureQuery
from repro.runtime import Cluster
from repro.runtime.faults import FaultPlan
from repro.serving import ArchiveReplica, FrontendPool, TenantPolicy, replica_site_id
from repro.sim.supplychain import SupplyChainParams, simulate
from repro.sim.vendor import FeedNoise
from repro.sim.warehouse import WarehouseParams
from repro.workloads.monitors import ColocationBreachQuery, DwellTimeQuery
from repro.workloads.scenarios import cold_chain_scenario

#: interactive "latest state" reads per boundary (one closed-loop client).
READS_PER_BOUNDARY = 40
#: cold-chain background audits: (batch size, every n-th boundary); the
#: batch stays within the audit tenant's quota of 16.
AUDITS = (8, 2)

#: exposure durations of the two exposure monitors (q1: out of the
#: freezer; q2: above the temperature limit).
Q1_DURATION = 300
Q2_DURATION = 400


@dataclass
class Inputs:
    """Everything the generator produced for one seed."""

    traces: list
    truth: Any
    readings: int
    generate_s: float
    catalog: Any = None
    #: (item, moved-out time, moved-back time or None) injected exposures.
    exposures: list = field(default_factory=list)
    sensors: dict = field(default_factory=dict)


@dataclass
class Deployment:
    """One set-up of the program: the cluster and what serves its reads."""

    cluster: Cluster
    pool: FrontendPool
    replicas: list


class _ReplicaRoutedPool:
    """Adapter handing a replica-routed pool to ``Cluster.attach_frontend``.

    ``attach_frontend`` binds a frontend with the site list only; the
    adapter adds the replica map and keeps the per-boundary append
    notifications flowing to the pool.
    """

    def __init__(self, pool: FrontendPool, replicas: dict) -> None:
        self.pool = pool
        self.replicas = replicas

    def bind(self, transport, sites) -> None:
        self.pool.bind(transport, sites, self.replicas, read_preference="replica")

    def note_append(self, site: int, boundary: int) -> None:
        self.pool.note_append(site, boundary)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str  # "supply" or "cold"
    horizon: int
    run_interval: int
    size: dict

    # -- generation (untimed) -----------------------------------------------

    def generate(self, seed: int) -> Inputs:
        started = time.perf_counter()
        if self.kind == "supply":
            result = simulate(
                SupplyChainParams(
                    n_warehouses=4,
                    horizon=self.horizon,
                    items_per_case=self.size["items"],
                    cases_per_pallet=1,
                    injection_period=100,
                    main_read_rate=0.4,
                    transit_time=10,
                    warehouse=WarehouseParams(
                        shelf_dwell_mean=10, shelf_dwell_jitter=3,
                        entry_dwell=5, exit_dwell=5,
                    ),
                    seed=seed,
                )
            )
            traces, truth, extra = result.traces, result.truth, {}
        else:
            scenario = cold_chain_scenario(
                n_sites=2,
                n_freezer_cases=self.size["cases"],
                n_room_cases=self.size["cases"],
                items_per_case=self.size["items"],
                horizon=self.horizon,
                # Early enough that the exposure runs span the move
                # (the scenario's continuity case); stable afterwards.
                site_leave_time=700,
                seed=seed,
            )
            traces, truth = scenario.traces, scenario.truth
            extra = dict(
                catalog=scenario.catalog,
                exposures=list(scenario.exposures),
                sensors={s: scenario.sensor_stream(s) for s in range(len(traces))},
            )
        return Inputs(
            traces=traces,
            truth=truth,
            readings=sum(len(trace) for trace in traces),
            generate_s=time.perf_counter() - started,
            **extra,
        )

    # -- configuration ---------------------------------------------------------

    def config(self) -> ServiceConfig:
        if self.kind == "supply":
            # Non-overlapping windows: each reading is processed once.
            return ServiceConfig(
                run_interval=self.run_interval,
                recent_history=self.run_interval,
                truncation="cr",
                emit_events=False,
            )
        return ServiceConfig(
            run_interval=self.run_interval,
            recent_history=2 * self.run_interval,
            truncation="cr",
            emit_events=True,
            event_period=30,
            change_detection=True,
            change_threshold=80.0,
            online=OnlineConfig(),
            budget=MemoryBudget(horizon=8 * self.run_interval),
        )

    def edge_plan(self, seed: int) -> EdgePlan | None:
        if self.kind == "supply":
            return None
        return EdgePlan(
            seed=seed,
            noise=FeedNoise(duplicate=0.1, junk=0.05, shuffle=0.3),
            link_faults=FaultPlan.chaos(
                seed, drop=0.2, duplicate=0.15, delay=0.2, max_delay=3
            ),
            gateway_restarts=(self.horizon // 2,),
        )

    def describe(self) -> dict:
        """The workload's parameters, as printed with every result."""
        return {
            "workload": self.name,
            "scenario": (
                "supply chain: 4-site chain, single-case pallets"
                if self.kind == "supply"
                else "cold chain: 2 sites, one site move"
            ),
            "size": dict(self.size),
            "horizon": self.horizon,
            "run_interval": self.run_interval,
            "transport": "InProcessTransport",
            "edges": "clean" if self.kind == "supply" else "flaky",
            "reads_per_boundary": READS_PER_BOUNDARY,
            "audits": AUDITS if self.kind == "cold" else None,
        }

    # -- set-up (timed as setup_s) ------------------------------------------

    def deploy(self, traces: list, inputs: Inputs) -> Deployment:
        cluster = Cluster(traces, self.config())
        sites = [node.site for node in cluster.nodes]
        replicas: list = []
        if self.kind == "cold":
            catalog = inputs.catalog
            cluster.add_query(
                "q1", lambda site: FreezerExposureQuery(catalog, exposure_duration=Q1_DURATION)
            )
            cluster.add_query(
                "q2",
                lambda site: TemperatureExposureQuery(catalog, exposure_duration=Q2_DURATION),
            )
            cluster.add_query("dwell", lambda site: DwellTimeQuery(max_dwell=500))
            cluster.add_query(
                "colocation",
                lambda site: ColocationBreachQuery(
                    catalog, conflicts=(("frozen", "dry"),), duration=100
                ),
            )
            cluster.set_sensor_streams(inputs.sensors)
            pool = FrontendPool(size=2, max_in_flight=64, cache_capacity=4096)
            pool.set_tenant_policy("batch", TenantPolicy(quota=16, priority=-1))
            replica_map = {}
            for site in sites:
                replica = ArchiveReplica(site, replica_site_id(site, 0, len(sites)))
                cluster.attach_replica(replica)
                replicas.append(replica)
                replica_map[site] = [replica.site_id]
            cluster.attach_frontend(_ReplicaRoutedPool(pool, replica_map))
        else:
            pool = FrontendPool(size=1, max_in_flight=64, cache_capacity=4096)
            cluster.attach_frontend(pool)
        return Deployment(cluster, pool, replicas)


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            name="supply-chain",
            why=(
                "clean edges, no gate, monitors or replicas: edge spooling, archive "
                "append, migration state compression and inference carry the wall"
            ),
            kind="supply",
            horizon=1500,
            run_interval=15,
            size={"items": 25},
        ),
        Workload(
            name="cold-chain",
            why=(
                "the only workload on the edge fault path; gated inference, four "
                "compiled monitors, replica catch-up and a frontend pool carry the wall"
            ),
            kind="cold",
            horizon=3000,
            run_interval=30,
            size={"cases": 4, "items": 8},
        ),
    )
}


def reduced(workload: Workload) -> Workload:
    """A small copy of ``workload`` for the benchmark's own tests."""
    from dataclasses import replace

    if workload.kind == "supply":
        return replace(workload, horizon=150, size={"items": 5})
    return replace(workload, horizon=900, size={"cases": 4, "items": 4})
