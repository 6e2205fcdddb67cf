"""Workload generation (Section 7.1).

Stands in for the NYC/Chicago taxi trip records and the Gowalla check-ins:

- :mod:`~repro.workload.taxi` — the Section 7.1.2 generative trip model
  (per-node Poisson arrivals per time frame, Eq. 11, with transition
  probabilities, Eq. 12) plus parameter fitting from trip records;
- :mod:`~repro.workload.instances` — builds :class:`URRInstance` objects
  from trips exactly as Section 7.1.2 prescribes (riders from pickups in
  the frame, vehicles seeded at recent drop-offs, uniform pickup deadlines,
  flexible-factor drop-off deadlines, nearest-check-in social mapping);
- :mod:`~repro.workload.small` — the Figure 1 worked example and the
  Table 4 small-scale instance.
"""

from repro.workload.io import read_trips_csv, write_trips_csv
from repro.workload.instances import (
    InstanceConfig,
    VehicleUtilityTable,
    build_instance,
    build_instance_from_trips,
    synthetic_vehicle_utilities,
)
from repro.workload.scenarios import (
    SCENARIOS,
    airport_run,
    commuter_corridor,
    stadium_event,
    uniform_city,
)
from repro.workload.serialize import load_instance, save_instance
from repro.workload.small import example1_instance, small_instance
from repro.workload.taxi import (
    PoissonTripModel,
    TripRecord,
    TaxiTripSimulator,
    fit_trip_model,
)

__all__ = [
    "InstanceConfig",
    "SCENARIOS",
    "PoissonTripModel",
    "read_trips_csv",
    "TaxiTripSimulator",
    "TripRecord",
    "airport_run",
    "build_instance",
    "commuter_corridor",
    "build_instance_from_trips",
    "example1_instance",
    "fit_trip_model",
    "load_instance",
    "save_instance",
    "small_instance",
    "stadium_event",
    "uniform_city",
    "synthetic_vehicle_utilities",
    "VehicleUtilityTable",
    "write_trips_csv",
]
