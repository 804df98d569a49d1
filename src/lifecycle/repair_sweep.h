// Repair-rate sweeps: "how fast must repair be for five nines?" — the operator-facing
// question the fleet model exists to answer. Each sweep point re-solves the fleet chain at a
// candidate repair rate and reports steady-state availability, MTTU, and downtime per year;
// the result also surfaces the first (slowest) swept rate meeting an availability target.
// The sweep loop polls the cancel token between points, on top of the polls inside each
// CTMC solve.

#ifndef PROBCON_SRC_LIFECYCLE_REPAIR_SWEEP_H_
#define PROBCON_SRC_LIFECYCLE_REPAIR_SWEEP_H_

#include <optional>
#include <vector>

#include "src/common/status.h"
#include "src/lifecycle/fleet_model.h"
#include "src/markov/ctmc.h"
#include "src/prob/probability.h"

namespace probcon {

struct RepairSweepPoint {
  double repair_rate = 0.0;  // Per-technician mu (per hour).
  Probability availability;  // Steady-state, current membership.
  double mttu_hours = 0.0;   // Mean time from all-up to the first liveness outage.
  double downtime_hours_per_year = 0.0;
};

struct RepairSweepResult {
  std::vector<RepairSweepPoint> points;  // In the order the rates were given.
  // Smallest swept rate whose availability meets the target, when one was requested and met.
  std::optional<double> first_rate_meeting_target;
};

// The grid's preconditions: finite 0 < min_rate <= max_rate and points >= 1.
Status ValidateGeometricRepairRates(double min_rate, double max_rate, int points);

// Geometric grid helper for the common "from mu_min to mu_max in N points" sweep. CHECKs
// ValidateGeometricRepairRates.
std::vector<double> GeometricRepairRates(double min_rate, double max_rate, int points);

// The sweep's preconditions: at least one rate, every rate positive and finite, and a
// `target_availability`, when set, in (0, 1).
Status ValidateRepairRateSweep(const std::vector<double>& repair_rates,
                               std::optional<double> target_availability);

// Solves `params`-with-each-rate under `protocol`. CHECKs ValidateRepairRateSweep.
Result<RepairSweepResult> TryRepairRateSweep(const FleetParams& params, FleetProtocol protocol,
                                             const std::vector<double>& repair_rates,
                                             std::optional<double> target_availability,
                                             const CtmcSolveOptions& options);

}  // namespace probcon

#endif  // PROBCON_SRC_LIFECYCLE_REPAIR_SWEEP_H_
