// Parallel load-sweep execution.
//
// A sweep is a set of series — one (topology, routing, traffic) combination
// each — evaluated over a grid of offered loads. Every (series, load) point
// is a fully independent simulation, so the runner fans the points out over
// a thread pool: one freshly constructed SimStack per in-flight point,
// sharing only the immutable Topology and (precomputed, per-system)
// MinimalTable.
//
// Determinism: each point derives its own seed from the base seed and its
// global point index via SplitMix64, and results land in a pre-sized table
// indexed by point position — so runs with jobs=1 and jobs=N produce
// byte-identical results, and so does re-running any single point alone.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/journal.h"
#include "routing/factory.h"
#include "sim/experiment.h"

namespace d2net {

/// Per-point seed: one SplitMix64 step over base_seed + (index + 1) * phi.
/// Distinct indices give decorrelated streams even for adjacent base seeds,
/// and a point's seed never depends on how many points ran before it.
std::uint64_t derive_point_seed(std::uint64_t base_seed, std::uint64_t point_index);

/// One series of a sweep. Pointers/references must outlive the run; all
/// referenced objects must be immutable during it (Topology, MinimalTable,
/// TrafficPattern and the routing configuration all are).
struct SweepSeriesSpec {
  std::string label;
  const Topology* topo = nullptr;
  /// Precomputed minimal table; leave null to have the runner build it
  /// (once per distinct topology, shared between series and points).
  std::shared_ptr<const MinimalTable> table;
  RoutingStrategy strategy = RoutingStrategy::kMinimal;
  std::optional<UgalParams> params;
  const TrafficPattern* pattern = nullptr;
  std::vector<double> loads;
  /// Per-series simulated duration override; 0 uses SweepRunOptions::
  /// duration. Lets one sweep mix short series with much longer ones (the
  /// deadline tests rely on this to build an unfinishable point next to
  /// quick ones).
  TimePs duration = 0;
  /// Per-series fault injection: a non-empty schedule replaces
  /// SweepRunOptions::config.fault for this series' points, so one sweep
  /// can contrast recovery policies over the same burst (the campaign
  /// runner's fault matrix; see docs/campaigns.md). Empty = inherit.
  FaultConfig fault;
  /// Fixed seed for every point of this series, replacing the per-point
  /// derive_point_seed(base, index) stream. Used by campaign sweeps ported
  /// from serial benches that ran all points on the invocation seed —
  /// reproduction must be bit-identical, so the seed policy is data.
  std::optional<std::uint64_t> seed_override;
};

struct SweepRunOptions {
  /// Worker threads; 1 runs inline on the caller (no pool). 0 auto-sizes
  /// to hardware concurrency.
  int jobs = 1;
  /// cfg.seed acts as the sweep's base seed; each point overrides it with
  /// derive_point_seed(cfg.seed, point_index).
  SimConfig config;
  TimePs duration = 0;
  TimePs warmup = 0;

  // --- durable execution (see docs/durable_sweeps.md) ---
  /// Optional crash-safe journal (non-owning; must outlive the run). Every
  /// finished point is appended and flushed; points already completed in
  /// the journal are restored instead of re-simulated. Null = volatile run.
  SweepJournal* journal = nullptr;
  /// Journal key prefix for this sweep ("<scope>#<point index>"); must be
  /// unique per journaled sweep within one journal.
  std::string scope;
  /// Wall-clock budget per point attempt in seconds (0 = unlimited);
  /// forwarded to SimConfig::wall_limit_seconds.
  double point_timeout_seconds = 0.0;
  /// Max attempts per point: attempt 0 uses derive_point_seed(seed, i),
  /// attempt k > 0 re-derives from that (fresh decorrelated stream), so a
  /// point that timed out by bad luck gets a genuinely different run.
  int point_attempts = 1;
  /// With a journal: record a point whose every attempt threw as
  /// failed (error text journaled, point re-run on resume) instead of
  /// propagating the exception and abandoning the remaining points.
  bool tolerate_failures = false;
  /// Renders a finished point's result JSON for the journal (the fragment
  /// restored points splice back verbatim). Null journals summaries only.
  std::function<std::string(const SweepPoint&)> serialize;
};

/// Aggregate execution metrics of the last run (for the benches' JSON
/// perf trajectory).
struct SweepRunStats {
  double wall_seconds = 0.0;
  /// Simulator events dispatched, all points. Restored points contribute
  /// their journaled counts, so a resumed sweep reports the same total as
  /// an uninterrupted one.
  std::int64_t events = 0;
  std::int64_t points = 0;
  std::int64_t restored_points = 0;   ///< replayed from the journal
  std::int64_t timed_out_points = 0;  ///< wall-clock budget exhausted
  std::int64_t failed_points = 0;     ///< every attempt threw (journaled runs)
  int jobs = 1;
  double events_per_second() const {
    return wall_seconds > 0.0 ? static_cast<double>(events) / wall_seconds : 0.0;
  }
};

class SweepRunner {
 public:
  explicit SweepRunner(SweepRunOptions opts);

  /// Runs all points of all series; out[s][l] corresponds to
  /// specs[s].loads[l] regardless of execution interleaving.
  std::vector<std::vector<SweepPoint>> run(const std::vector<SweepSeriesSpec>& specs);

  /// Metrics of the most recent run().
  const SweepRunStats& stats() const { return stats_; }

  int jobs() const { return jobs_; }

 private:
  SweepRunOptions opts_;
  int jobs_ = 1;
  SweepRunStats stats_;
};

/// Convenience: runs one series (the run_load_sweep shape) through the
/// runner. Unlike run_load_sweep — which reuses one SimStack and one seed
/// for every point — each point gets a fresh stack and a derived seed.
std::vector<SweepPoint> run_load_sweep_parallel(const SweepSeriesSpec& spec,
                                                const SweepRunOptions& opts);

}  // namespace d2net
