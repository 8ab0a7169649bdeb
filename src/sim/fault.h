// Dynamic fault injection (beyond the paper's static degradation study).
//
// A FaultSchedule is a list of timed link-down / link-up / router-down /
// router-up events executed mid-run by the event core. The diameter-two
// designs buy scale with minimal path diversity, so the interesting
// questions are dynamic: what happens to packets in flight on a link when
// it dies, how fast routing converges onto the surviving paths, and whether
// accepted throughput recovers. See docs/resilience.md for the full model.
//
// Semantics summary:
//  - A link cut destroys everything in flight on it (both directions,
//    packets and credits) and strands the packets queued for it.
//  - Recovery policy (FaultConfig::recovery): stranded/destroyed packets
//    are either dropped permanently (kNone), re-injected at the source
//    with bounded exponential backoff (kRetry), or salvage-rerouted at the
//    last healthy router over the rebuilt minimal table (kSalvage).
//  - With FaultConfig::reroute the per-run minimal/UGAL tables are
//    incrementally invalidated and recomputed on every fault event, so
//    packets injected after the fault avoid dead links.
//  - Every run is additionally wrapped in a no-progress watchdog: if no
//    packet, credit or grant moves for watchdog_interval of simulated time
//    while work is outstanding, the run ends gracefully with wedged=true
//    and a diagnostic snapshot instead of spinning forever.
//
// With an empty schedule the whole layer is inert: results are bit
// identical to a build without it (enforced by tests/test_faults.cpp, same
// discipline as the metrics layer).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/units.h"

namespace d2net {

class Topology;

enum class FaultKind : std::uint8_t {
  kLinkDown,    ///< cut the undirected link (a, b)
  kLinkUp,      ///< restore the undirected link (a, b), resyncing credits
  kRouterDown,  ///< all of router a's links die; queued packets are lost
  kRouterUp,    ///< restore router a and every incident link that is up
};

const char* to_string(FaultKind kind);

/// One timed fault. Link events use (a, b) as router endpoints; router
/// events use `a` only.
struct FaultEvent {
  TimePs time = 0;
  FaultKind kind = FaultKind::kLinkDown;
  int a = -1;
  int b = -1;
};

/// What happens to a packet that lost its path (destroyed on a cut wire,
/// stranded in a queue for a dead port, or routed onto a link that no
/// longer exists).
enum class FaultRecovery : std::uint8_t {
  kNone,     ///< drop permanently (static-routing baseline)
  kRetry,    ///< re-inject at the source NIC with exponential backoff
  kSalvage,  ///< recompute the rest of the route at the last healthy router
};

const char* to_string(FaultRecovery r);

struct FaultConfig {
  /// Executed in (time, list-order) order. Every entry is validated when a
  /// run starts: an entry timed after the run end or naming an out-of-range
  /// or non-adjacent link/router is an ArgumentError locating the entry
  /// (they used to vanish silently). Empty = layer fully inert.
  std::vector<FaultEvent> schedule;

  FaultRecovery recovery = FaultRecovery::kSalvage;

  /// Rebuild the routing tables on every fault event (fault-aware
  /// rerouting). Off = static tables: traffic keeps aiming at dead links,
  /// the paper-pessimal baseline.
  bool reroute = true;

  /// Source-retry policy (recovery == kRetry): per-packet attempt budget
  /// and the base delay, doubled on every attempt. Deliberately RNG-free so
  /// retries stay deterministic. A faulted run requires retry_backoff >= 0
  /// and max_retries >= 0 with retry_backoff << (max_retries - 1) fitting
  /// in TimePs.
  int max_retries = 8;
  TimePs retry_backoff = ns(500);

  /// Livelock guard: a packet whose traversed plus remaining hops would
  /// exceed this is dropped instead of salvaged. 0 = auto (4 * diameter + 4).
  int hop_limit = 0;

  /// No-progress watchdog period; 0 disables. Active on every run (even
  /// with an empty schedule) and perturbation-free by construction: the
  /// check reads one counter and never touches the RNG or event ordering.
  TimePs watchdog_interval = us(50);

  /// When > 0, delivered bytes are additionally accumulated into buckets of
  /// this width (FaultStats::delivered_bytes_buckets) — the degradation-
  /// and-recovery curve of campaigns/transient_faults.json.
  TimePs recovery_sample = 0;

  /// Modeled control plane (docs/resilience.md, "Detection and
  /// propagation"). Off (default): oracle faults — every router and the
  /// shared routing table learn about a fault the instant it happens,
  /// exactly the pre-propagation behavior, bit-identical by test. On: a
  /// fault is physical first and known later — each attached router
  /// detects it only after detection_delay (missed-credit heuristic), then
  /// floods a link-state update hop-by-hop over surviving wires, so
  /// routing state is transiently inconsistent across the network.
  bool propagation = false;

  /// How long an attached router takes to notice a dead (or restored)
  /// link: the modeled missed-credit timeout (propagation only).
  TimePs detection_delay = us(1);

  /// Per-hop processing delay of a flooded link-state update, added on top
  /// of the wire latency (propagation only).
  TimePs flood_process = ns(100);

  /// Per-packet budget of local-view detours while tables disagree: a
  /// packet whose salvage paths all cross links the router believes dead
  /// may be misrouted to a believed-live neighbor at most this many times
  /// before falling back to drop/retry. The hop_limit above acts as the
  /// TTL-style loop guard on top (propagation only). Must lie in [0, 255],
  /// the width of the per-packet counter.
  int misroute_limit = 4;

  bool enabled() const { return !schedule.empty(); }
  bool propagation_enabled() const { return propagation && enabled(); }
};

/// State captured when the watchdog declares a run wedged.
struct WatchdogSnapshot {
  TimePs time = -1;              ///< simulated time of the trigger, -1 = never fired
  std::int64_t in_flight = 0;    ///< packets inside the network or awaiting retry
  std::int64_t nic_backlog = 0;  ///< generated-but-not-injected packets
  int stalled_heads = 0;         ///< registered VOQ heads that cannot be granted
  int zero_credit_vcs = 0;       ///< (network out-port, VC) pairs without packet credit
};

/// Control-plane convergence accounting (FaultConfig::propagation only; all
/// zero otherwise, and the JSON/metrics block is omitted). Latencies are
/// measured from the physical fault time. "Consistency" for one update means
/// every router alive at the fault instant has learned it; means are
/// computed at serialization time from the sums kept here.
struct ConvergenceStats {
  std::int64_t updates = 0;       ///< link-state updates originated
  std::int64_t converged = 0;     ///< updates every eligible router learned
  std::int64_t detections = 0;    ///< local detections (missed-credit timeouts)
  std::int64_t flood_messages = 0;  ///< link-state messages put on the wire
  std::int64_t routers_reached = 0;  ///< sum over updates of flood span
  std::int64_t misroutes = 0;     ///< local-view detours taken on stale tables
  std::int64_t budget_drops = 0;  ///< packets that exhausted misroute_limit
  TimePs detection_latency_sum = 0;  ///< over `detections`
  TimePs detection_latency_max = 0;
  /// Per-(router, update) lag between the physical fault and the router
  /// learning it — the table-epoch lag; summed over `routers_reached`.
  TimePs epoch_lag_sum = 0;
  TimePs epoch_lag_max = 0;
  TimePs consistency_time_sum = 0;  ///< over `converged`
  TimePs consistency_time_max = 0;
};

/// Per-run fault accounting, attached by value to OpenLoopResult and
/// ExchangeResult and exported through bench_common --json.
struct FaultStats {
  bool enabled = false;               ///< schedule was non-empty
  std::int64_t faults_applied = 0;    ///< schedule events executed
  /// Drop events: wire destructions, stranded-queue drops, hop-limit and
  /// retry-budget exhaustions. A packet dropped and later re-injected
  /// counts here once per drop.
  std::int64_t packets_dropped = 0;
  std::int64_t packets_retried = 0;   ///< successful source re-injections
  std::int64_t packets_lost = 0;      ///< permanently gone (no retry left)
  std::int64_t reroutes = 0;          ///< salvage reroutes at a mid-path router
  /// Ordered router pairs with no surviving path, maximum over the run
  /// (0 when the network never disconnected or rerouting was off).
  std::int64_t unreachable_pairs = 0;
  bool wedged = false;                ///< the watchdog terminated the run
  WatchdogSnapshot watchdog;

  /// Delivered bytes per recovery_sample bucket (empty when sampling off).
  std::vector<std::int64_t> delivered_bytes_buckets;
  TimePs bucket_width = 0;

  ConvergenceStats convergence;  ///< propagation runs only, zero otherwise
};

/// Validates every schedule entry against the topology and the run window:
/// ids must be in range, link endpoints adjacent, and times within
/// [0, run_end] (run_until executes events at exactly run_end, so only
/// strictly-later times can never fire). Violations throw ArgumentError
/// naming the entry index and its rendering. Additionally warns once on
/// stderr when a non-empty schedule fires entirely before `warmup_end` —
/// legal, but the measured window then sees no fault at all.
void validate_fault_schedule(const Topology& topo, const std::vector<FaultEvent>& schedule,
                             TimePs run_end, TimePs warmup_end);

/// Random fault burst: `count` distinct router-to-router links of `topo` go
/// down at `at`; when `restore_after` > 0 each comes back up at
/// `at + restore_after`. Link choice is driven by its own SplitMix64/xoshiro
/// stream over `seed` (pass SimConfig::seed), independent of the run's RNG.
std::vector<FaultEvent> make_link_burst(const Topology& topo, TimePs at, int count,
                                        std::uint64_t seed, TimePs restore_after = 0);

/// Human-readable one-liner ("link 3-17 down @12.0us"), for bench logs.
std::string to_string(const FaultEvent& e);

}  // namespace d2net
