// Churn driver for the gossip simulator.
//
// The paper's model (Sec. III-C, after Bortnikov et al.): churn may occur
// until a time T0, after which the membership stabilises — that assumption
// makes "uniform over the population" well defined.  This driver exercises
// a gossip network through a pre-T0 phase with Poisson-like joins/leaves,
// then freezes membership, so experiments (and tests) can check two things:
//   * the weak-connectivity precondition survives the churn phase, and
//   * sampler outputs converge once churn stops (T0 semantics).
//
// Churn decisions depend only on the churn RNG and the activity trajectory
// (which churn itself determines), never on gossip state — so the phase is
// precomputed up front and scheduled on the SimDriver as timestamped
// join/leave events (EventKind::kChurn), which the queue orders before each
// tick's adversary hook and sends.  This works identically in rounds mode
// and event mode; the GossipNetwork overloads are compatibility shims that
// run a degenerate rounds-mode driver internally.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/driver.hpp"
#include "sim/gossip.hpp"
#include "util/rng.hpp"

namespace unisamp {

struct ChurnConfig {
  std::size_t pre_t0_rounds = 50;   ///< ticks of churn before T0
  double leave_probability = 0.05;  ///< per active node per tick
  double rejoin_probability = 0.25; ///< per inactive node per tick
  std::size_t min_active = 2;       ///< never drop below (keeps network alive)
  std::uint64_t seed = 1;
};

/// Fraction of ticks during which the ACTIVE CORRECT nodes stayed weakly
/// connected over the churn phase (diagnostic; recomputed alongside
/// run_churn_phase when requested).
struct ChurnReport {
  std::size_t events = 0;           ///< total join/leave toggles
  std::size_t rounds = 0;
  std::size_t connected_rounds = 0; ///< ticks with correct subgraph connected
  std::size_t min_active_seen = 0;
};

/// Schedules the churn phase on `driver` as timestamped join/leave events
/// starting at its current tick, runs `pre_t0_rounds` ticks, then
/// reactivates everyone (T0) and returns the number of join/leave events.
/// After this call the network is in its post-T0 stable state; callers
/// continue with driver.run_ticks(...).
std::size_t run_churn_phase(SimDriver& driver, const ChurnConfig& config);
ChurnReport run_churn_phase_with_report(SimDriver& driver,
                                        const ChurnConfig& config);

/// COMPATIBILITY SHIMS: run the churn phase through an internal
/// degenerate rounds-mode SimDriver — bit-identical to the historical
/// toggle-then-round loop.
std::size_t run_churn_phase(GossipNetwork& net, const ChurnConfig& config);
ChurnReport run_churn_phase_with_report(GossipNetwork& net,
                                        const ChurnConfig& config);

}  // namespace unisamp
