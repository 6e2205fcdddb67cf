#!/usr/bin/env python3
"""Fleet operations: the Dispatcher + metrics + extended utility stack.

A day-in-the-life demo of the library's production-facing layer:

1. run a :class:`~repro.core.dispatch.Dispatcher` over six half-hour frames
   with a morning-rush demand profile;
2. mid-day, inject typed disruptions — a vehicle breakdown that strands
   its onboard riders and a rider cancellation — and watch the stranded
   riders recover end-to-end through the carry-over queue;
3. audit each frame with :mod:`repro.core.metrics` (detour distribution,
   sharing rate, fleet utilisation);
4. re-score one frame under an :class:`ExtendedUtilityModel` that adds the
   paper's suggested "empty vehicle distance" component (Section 2.4's
   extension point) and show how the extra component shifts the totals.

Run:
    python examples/fleet_operations.py
"""

from repro import nyc_like
from repro.core.dispatch import Dispatcher, RiderStatus
from repro.core.disruptions import RiderCancellation, VehicleBreakdown
from repro.core.metrics import compute_metrics, format_metrics
from repro.core.utility_ext import (
    ExtendedUtilityModel,
    UtilityComponent,
    empty_distance_component,
)
from repro.core.vehicles import Vehicle
from repro.roadnet.oracle import DistanceOracle
from repro.workload.taxi import TaxiTripSimulator
from repro.core.requests import Rider

FRAMES = 6
FLEET = 20
PROFILE = [0.6, 1.0, 1.6, 1.4, 0.9, 0.6]  # morning ramp


def requests_for_frame(network, oracle, sim, frame, start, length, id_base):
    # rider ids must be unique across the whole dispatch run — unserved
    # riders are retried in later frames, so per-frame ids would collide
    trips = sim.generate_frame(start, length, frame)
    riders = []
    for i, t in enumerate(trips):
        shortest = oracle.cost(t.pickup_node, t.dropoff_node)
        riders.append(
            Rider(
                rider_id=id_base + i,
                source=t.pickup_node,
                destination=t.dropoff_node,
                # deadlines outlive the frame: riders missed in this frame
                # stay live and re-enter the next frame's batch
                pickup_deadline=start + 45.0,
                dropoff_deadline=start + 45.0 + 1.5 * shortest,
            )
        )
    return riders


def main() -> None:
    network = nyc_like(seed=2)
    oracle = DistanceOracle(network)
    sim = TaxiTripSimulator(
        network, oracle=oracle, seed=5, trips_per_minute=1.6,
        demand_profile=PROFILE,
    )
    fleet = [
        Vehicle(vehicle_id=j, location=node, capacity=3)
        for j, node in enumerate(sorted(network.nodes())[:: network.num_nodes // FLEET][:FLEET])
    ]
    with Dispatcher(network, fleet, method="gbs+eg", oracle=oracle, seed=5) as dispatcher:

        print(f"{'frame':>5} {'req':>5} {'carry':>5} {'served':>7} {'util':>8} "
              f"{'detour':>7} {'shared':>7} {'t':>6}")
        last_assignment = None
        next_rider_id = 0
        stranded = set()
        for frame in range(FRAMES):
            start = dispatcher.clock
            requests = requests_for_frame(
                network, oracle, sim, frame, start,
                dispatcher.config.frame_length, next_rider_id,
            )
            next_rider_id += len(requests)
            report = dispatcher.dispatch_frame(requests)
            metrics = compute_metrics(report.assignment)
            last_assignment = report.assignment
            print(
                f"{frame:5d} {report.num_requests:5d} {report.num_carried:5d} "
                f"{report.num_served:4d}/{report.batch_size:<3d}"
                f"{report.utility:8.1f} {metrics.mean_detour_ratio:7.3f} "
                f"{metrics.sharing_rate:7.0%} {report.solver_seconds:5.2f}s"
            )

            if frame == 2:
                # mid-day faults: break the busiest-loaded vehicle (stranding
                # its onboard riders back into the carry-over queue) and
                # cancel one not-yet-picked-up committed rider
                events = []
                broken = max(
                    dispatcher.fleet, key=lambda v: len(dispatcher.fleet[v].onboard)
                )
                events.append(VehicleBreakdown(vehicle_id=broken))
                quitter = next(
                    (rid for fv in dispatcher.fleet.values()
                     if fv.vehicle_id != broken
                     for rid in sorted(fv.pending_pickup_ids())),
                    None,
                )
                if quitter is not None:
                    events.append(RiderCancellation(rider_id=quitter))
                for outcome in dispatcher.inject(events):
                    print(f"      ! {outcome}")
                stranded = {
                    rid for o in dispatcher.disruption_log for rid in o.stranded
                }

        print("\nstranded-rider recovery:")
        for rid in sorted(stranded):
            print(f"  rider {rid}: {dispatcher.ledger[rid].value}")
        recovered = sum(
            1 for rid in stranded if dispatcher.ledger[rid] is RiderStatus.DELIVERED
        )
        print(f"  {recovered}/{len(stranded)} stranded riders delivered by "
              f"another vehicle before close of day")

        print(f"\nday summary: {dispatcher.total_served}/{dispatcher.total_requests} "
              f"served ({dispatcher.service_rate:.0%}), "
              f"total utility {dispatcher.total_utility:.1f}")
        busiest = max(dispatcher.utilisation().items(), key=lambda kv: kv[1])
        print(f"busiest vehicle: {busiest[0]} "
              f"({busiest[1]:.1f} min travel per frame on average)")

    print("\nlast frame audit:")
    print(format_metrics(compute_metrics(last_assignment)))

    # rescore the last frame with the paper's suggested extra component
    instance = last_assignment.instance
    extended = ExtendedUtilityModel(
        alpha=0.25, beta=0.25,
        vehicle_utility=instance.vehicle_utility,
        similarity=instance.similarity,
        cost=instance.cost,
        components=[
            UtilityComponent(
                "empty-approach", 0.2, empty_distance_component(instance.cost)
            )
        ],
    )
    base_total = last_assignment.total_utility()
    extended_total = sum(
        extended.schedule_utility(instance.vehicle(vid), seq)
        for vid, seq in last_assignment.schedules.items()
    )
    print(f"\nEq. 1 total utility          : {base_total:.2f}")
    print(f"with empty-approach component: {extended_total:.2f}")
    print("(Section 2.4: extra factors 'can be easily embedded in this "
          "framework' — this is that hook.)")


if __name__ == "__main__":
    main()
