"""Cross-cutting property-based invariants.

These hypothesis tests exercise whole-subsystem invariants that unit tests
cannot reach with fixed cases: conservation laws, fairness feasibility and
no-oversubscription under randomly generated inputs.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.rng import RandomSource
from repro.federation.site import Site, SiteKind
from repro.hardware import default_catalog
from repro.interconnect.fabric import FabricSimulator, Flow
from repro.interconnect.topology import build_topology
from repro.market.agents import BrokerAgent, ConsumerAgent, ProviderAgent
from repro.market.exchange import ComputeExchange, MarketSimulation, ResourceClass
from repro.scheduling.cluster import ClusterSimulator
from repro.workloads.base import JobClass, make_single_kernel_job

_CATALOG = default_catalog()


class TestFabricInvariants:
    @given(
        flow_specs=st.lists(
            st.tuples(
                st.integers(0, 15),            # source terminal index
                st.integers(16, 31),           # destination terminal index
                st.floats(min_value=1e4, max_value=1e9),
                st.floats(min_value=0.0, max_value=0.01),
            ),
            min_size=1,
            max_size=12,
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_flow_rates_never_violate_link_capacity(self, flow_specs):
        """No link is ever allocated beyond its capacity by the max-min
        solver (fairness feasibility), and every flow finishes no earlier
        than its line-rate bound."""
        topology = build_topology("two-tier", leaves=4, spines=2, terminals=8)
        terminals = topology.terminals
        flows = [
            Flow(
                source=terminals[src],
                destination=terminals[dst],
                size=size,
                start_time=start,
            )
            for src, dst, size, start in flow_specs
        ]
        simulator = FabricSimulator(topology)
        # Feasibility check at the solver level for the initial flow set.
        links = {flow.flow_id: simulator._route(flow)[1] for flow in flows}
        rates, _ = simulator.solver.solve(links)
        link_totals = {}
        for flow_id, flow_links in links.items():
            for link in flow_links:
                link_totals[link] = link_totals.get(link, 0.0) + rates[flow_id]
        for link, total in link_totals.items():
            assert total <= simulator._capacities[link] * (1 + 1e-9)
        # End-to-end sanity: FCT bounded below by line rate.
        stats = simulator.run(flows)
        assert len(stats) == len(flows)
        for stat in stats:
            assert stat.completion_time >= stat.size / 25e9 * 0.999


class TestMarketInvariants:
    @given(
        provider_costs=st.lists(
            st.floats(min_value=0.2, max_value=3.0), min_size=1, max_size=6
        ),
        consumer_values=st.lists(
            st.floats(min_value=0.2, max_value=5.0), min_size=1, max_size=6
        ),
        rounds=st.integers(5, 25),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=20, deadline=None)
    def test_cash_conserved_and_inventory_balanced(
        self, provider_costs, consumer_values, rounds, seed
    ):
        """Under any market composition: total cash is conserved (zero-sum)
        and total inventory bought equals total sold."""
        exchange = ComputeExchange([ResourceClass("x")])
        for index, cost in enumerate(provider_costs):
            exchange.register(
                ProviderAgent(f"p{index}", marginal_cost=cost, capacity_per_round=10)
            )
        for index, value in enumerate(consumer_values):
            exchange.register(
                ConsumerAgent(f"c{index}", valuation=value, demand_per_round=7)
            )
        exchange.register(BrokerAgent("broker"))
        cash_before = exchange.total_cash()
        simulation = MarketSimulation(exchange, "x", rng=RandomSource(seed=seed))
        simulation.run(rounds)
        assert exchange.total_cash() == pytest.approx(cash_before)
        total_inventory = sum(a.inventory for a in exchange.agents.values())
        assert total_inventory == pytest.approx(0.0, abs=1e-6)

    @given(
        provider_costs=st.lists(
            st.floats(min_value=0.2, max_value=3.0), min_size=2, max_size=5
        ),
        seed=st.integers(0, 500),
    )
    @settings(max_examples=15, deadline=None)
    def test_no_trade_below_any_sellers_cost(self, provider_costs, seed):
        """No provider ever sells below its marginal cost floor."""
        exchange = ComputeExchange([ResourceClass("x")])
        for index, cost in enumerate(provider_costs):
            exchange.register(
                ProviderAgent(f"p{index}", marginal_cost=cost, capacity_per_round=10)
            )
        exchange.register(ConsumerAgent("c", valuation=10.0, demand_per_round=15))
        simulation = MarketSimulation(exchange, "x", rng=RandomSource(seed=seed))
        simulation.run(15)
        floor = min(provider_costs)
        for trade in exchange.book("x").trades:
            assert trade.price >= floor * 0.97  # 1% quote jitter tolerance


class TestTaskGraphInvariants:
    @given(
        task_specs=st.lists(
            st.tuples(
                st.floats(min_value=1e9, max_value=1e13),   # flops
                st.integers(0, 3),                          # region index read
                st.integers(0, 3),                          # region index written
            ),
            min_size=1,
            max_size=12,
        ),
        strategy=st.sampled_from(["data-aware", "compute-greedy", "round-robin"]),
    )
    @settings(max_examples=20, deadline=None)
    def test_dependencies_respected_and_makespan_bounded(self, task_specs, strategy):
        """Every task starts at or after all its dependencies finish, and
        the makespan lies between the longest single chain element and the
        fully-serialised total."""
        from repro.hardware.device import KernelProfile
        from repro.hardware.precision import Precision
        from repro.scheduling.taskgraph import (
            DataTask,
            Mapper,
            Region,
            TaskGraph,
            TaskGraphExecutor,
        )

        regions = [Region(f"r{i}", 1e8) for i in range(4)]
        graph = TaskGraph()
        for index, (flops, read_index, write_index) in enumerate(task_specs):
            graph.add(
                DataTask(
                    f"t{index}",
                    KernelProfile(
                        flops=flops, bytes_moved=flops / 10,
                        precision=Precision.FP32,
                    ),
                    reads=(regions[read_index],),
                    writes=(regions[write_index],),
                )
            )
        devices = [_CATALOG.get("epyc-class-cpu"), _CATALOG.get("hpc-gpu")]
        executor = TaskGraphExecutor(devices, mapper=Mapper(strategy))
        executions = executor.run(graph)
        finish_of = {e.task.task_id: e.finish for e in executions}
        for execution in executions:
            for dep in graph.dependencies(execution.task):
                assert execution.start >= finish_of[dep] - 1e-9
        makespan = executor.makespan(executions)
        per_task = [e.transfer_time + e.compute_time for e in executions]
        assert makespan >= max(per_task) - 1e-9
        assert makespan <= sum(per_task) + 1e-9


class TestAccountingInvariants:
    @given(
        records=st.lists(
            st.tuples(
                st.integers(0, 4),                         # provider index
                st.integers(0, 4),                         # consumer index
                st.floats(min_value=0.01, max_value=100.0),  # hours
                st.floats(min_value=0.1, max_value=10.0),    # price
            ),
            min_size=1,
            max_size=30,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_netting_conserves_and_never_exceeds_gross(self, records):
        """Net balances always sum to zero; settlement transfers settle
        every balance exactly and never move more than the gross volume."""
        from repro.federation.accounting import AccountingLedger, MeterRecord

        orgs = [f"org{i}" for i in range(5)]
        ledger = AccountingLedger()
        for provider_index, consumer_index, hours, price in records:
            ledger.meter(MeterRecord(
                job_name="j",
                consumer=orgs[consumer_index],
                provider=orgs[provider_index],
                device_name="cpu",
                device_hours=hours,
                price_per_device_hour=price,
            ))
        balances = ledger.net_balances()
        assert sum(balances.values()) == pytest.approx(0.0, abs=1e-6)
        transfers = ledger.settlement_transfers()
        settled = dict(balances)
        for debtor, creditor, amount in transfers:
            assert amount > 0
            settled[debtor] += amount
            settled[creditor] -= amount
        assert all(abs(value) < 1e-6 for value in settled.values())
        assert sum(a for _, _, a in transfers) <= ledger.gross_volume() + 1e-9
        assert 0.0 <= ledger.netting_efficiency() <= 1.0


class TestMemoryFabricInvariants:
    @given(
        pool_sizes=st.lists(
            st.floats(min_value=1.0, max_value=100.0), min_size=1, max_size=5
        ),
        request=st.floats(min_value=0.5, max_value=600.0),
    )
    @settings(max_examples=40)
    def test_compose_all_or_nothing(self, pool_sizes, request):
        """Composition either allocates exactly the request or rolls back
        to a pristine state."""
        from repro.core.errors import CapacityError
        from repro.interconnect.memfabric import MemoryPool, cxl_era_fabric

        fabric = cxl_era_fabric()
        pools = []
        for index, size in enumerate(pool_sizes):
            pool = MemoryPool(f"p{index}", size, fabric.tier("cxl-attached"))
            fabric.add_pool(pool)
            pools.append(pool)
        total = sum(pool_sizes)
        try:
            used = fabric.compose(request)
        except CapacityError:
            assert request > total - 1e-9
            assert all(pool.allocated == 0.0 for pool in pools)
        else:
            allocated = sum(pool.allocated for pool in pools)
            assert allocated == pytest.approx(min(request, total))
            assert used


class TestClusterInvariants:
    @given(
        job_specs=st.lists(
            st.tuples(
                st.floats(min_value=1e11, max_value=1e14),  # flops
                st.integers(1, 4),                          # ranks
                st.floats(min_value=0.0, max_value=100.0),  # arrival
            ),
            min_size=1,
            max_size=15,
        )
    )
    @settings(max_examples=20, deadline=None)
    def test_no_oversubscription_and_all_jobs_finish(self, job_specs):
        """At no point do running jobs exceed device capacity, every job
        finishes, and utilisation stays in [0, 1]."""
        cpu = _CATALOG.get("epyc-class-cpu")
        site = Site(name="s", kind=SiteKind.ON_PREMISE, devices={cpu: 4})
        cluster = ClusterSimulator(site=site, device=cpu)
        for index, (flops, ranks, arrival) in enumerate(job_specs):
            job = make_single_kernel_job(
                name=f"j{index}",
                job_class=JobClass.ANALYTICS,
                flops=flops,
                bytes_moved=flops / 10,
                ranks=ranks,
            )
            job.arrival_time = arrival
            cluster.submit(job)
        records = cluster.run()
        assert len(records) == len(job_specs)
        # Reconstruct concurrent usage at every start event.
        events = sorted(
            (record.start_time, record.finish_time, record.job.ranks)
            for record in records
        )
        for start, _, _ in events:
            concurrent = sum(
                ranks for s, f, ranks in events if s <= start < f
            )
            assert concurrent <= 4
        assert 0.0 <= cluster.utilization() <= 1.0
        for record in records:
            assert record.queue_wait >= 0.0
