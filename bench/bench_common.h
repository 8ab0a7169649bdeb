// Shared plumbing for d2net_campaign and the bench binaries: standard
// flags, the paper's four topology configurations (scaled-down defaults +
// --full for the exact Section 4.1 systems), parallel sweep execution
// (--jobs), sweep table printing, and machine-readable perf/result JSON
// (--json).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/cli.h"
#include "common/journal.h"
#include "common/table.h"
#include "sim/campaign.h"
#include "sim/experiment.h"
#include "sim/sweep_runner.h"
#include "topology/topology.h"

namespace d2net::bench {

/// Run-scale parameters shared by all simulation benches.
struct BenchOptions {
  bool full = false;         ///< paper-exact configurations (much slower)
  TimePs duration = 0;       ///< per-point simulated time
  TimePs warmup = 0;
  std::uint64_t seed = 1;
  bool csv = false;          ///< additionally dump CSV after each table
  int jobs = 0;              ///< sweep-point parallelism; 0 = all cores
  std::string json_path;     ///< write timing/result JSON here ("" = off)
  bool metrics = false;      ///< collect per-port/VC detail (see docs/observability.md)
  TimePs metrics_sample = 0; ///< occupancy sampling period with --metrics

  // Engine selection (see docs/flow_engine.md). The packet engine is the
  // default and its journal manifests / --json output are byte-identical to
  // versions that predate the flow engine; flow-engine knobs enter the
  // manifest only when --engine flow is selected.
  SimEngine engine = SimEngine::kPacket;  ///< --engine packet|flow
  TimePs flow_interval = 0;               ///< --flow-interval-us: 0 = exact rates

  // Durable execution (see docs/durable_sweeps.md):
  std::string journal_dir;     ///< --journal: crash-safe journal directory
  bool resume = false;         ///< --resume: replay completed points from it
  double point_timeout_s = 0;  ///< --point-timeout: wall budget per point, s
  int point_retries = 1;       ///< --point-retries: extra attempts per point

  /// SweepRunner options carrying these settings (seed becomes the base
  /// seed for per-point derivation).
  SweepRunOptions sweep_options() const;
};

/// Registers the run-scale flags (--full, --duration-us, --warmup-us,
/// --seed, --csv) on a Cli: everything a serial, unjournaled bench honours.
void add_scale_flags(Cli& cli);

/// Reads them back (--full also scales the default duration/warmup up to
/// the paper's); every other BenchOptions field keeps its default.
BenchOptions read_scale_flags(const Cli& cli);

/// Registers the scale flags plus the execution, output, engine and
/// durability flags the campaign driver honours.
void add_standard_flags(Cli& cli);

/// Reads them back after parsing.
BenchOptions read_standard_flags(const Cli& cli);

/// One of the paper's four evaluated systems (Section 4.1).
struct SystemConfig {
  std::string label;  ///< e.g. "SF p=floor", "MLFM", "OFT"
  Topology topo;
};

/// The four evaluated configurations. Default scale: SF q=7 (p=5 and 6),
/// MLFM h=7, OFT k=6 (N ~ 370-590). --full: SF q=13 (p=9/10), MLFM h=15,
/// OFT k=12 (N ~ 3042-3600, the CORAL-Summit-like systems of the paper).
std::vector<SystemConfig> paper_systems(bool full);

/// Accumulates one record per executed sweep and (if --json was given)
/// writes a single JSON document on write():
///   {"bench": ..., "jobs": N, "seed": S, "full": bool,
///    "duration_us": ..., "warmup_us": ...,
///    "sweeps": [{"title": ..., "wall_seconds": ..., "events": ...,
///                "events_per_second": ..., "points": N,
///                "series": [{"label": ..., "points": [{"load": ...,
///                  "throughput": ..., "avg_latency_ns": ...,
///                  "p99_latency_ns": ..., "packets_measured": ...,
///                  "phases": {"injected_warmup": ..., "injected_measured": ...,
///                    "delivered_warmup": ..., "delivered_measured": ...,
///                    "delivered_carryover": ..., "in_flight_at_end": ...}}]}]}]}
///
/// Points run with a non-empty fault schedule additionally carry a "faults"
/// object: {"faults_applied", "packets_dropped", "packets_retried",
/// "packets_lost", "reroutes", "unreachable_pairs", "wedged", plus a
/// "watchdog" snapshot when wedged and "delivered_bytes_buckets" /
/// "bucket_width_us" when recovery sampling is on} (see docs/resilience.md).
///
/// Points cut short by --point-timeout carry "timed_out": true; points that
/// needed retries carry "attempts": N; journaled points whose every attempt
/// threw carry "failed": true and "error": "..." (absent on healthy runs,
/// keeping their output byte-stable across versions).
///
/// Exchange tables (run_exchange_table) land in a sibling "exchanges"
/// array: [{"title": ..., "wall_seconds": ..., "points": N, "rows":
/// [{"system", "routing", "completed", "eff_throughput", "completion_us",
///   "delivered_bytes", "total_bytes", "avg_latency_ns", plus optional
///   "timed_out"/"wedged"/"faults"/"metrics"}]}]. The array is emitted only
/// when at least one exchange ran, keeping sweep-only benches' output
/// byte-stable.
///
/// Non-finite doubles (a NaN throughput from an empty measurement window,
/// an infinite latency) are emitted as JSON null via write_json_double —
/// "nan"/"inf" are not valid JSON and would corrupt the document.
///
/// With --metrics each point additionally carries a "metrics" object:
/// {"sample_period_us": ..., "counters": {name: value, ...},
///  "histograms": {name: {"count", "mean", "p50", "p99", "underflow",
///                        "overflow"}, ...},
///  "vc_totals": [{"vc", "packets", "bytes", "minimal", "indirect"}, ...],
///  "occupancy": [{"t_us", "bytes"}, ...],
///  "ports": [{"router", "port", "peer_router", "peer_node", "packets",
///             "bytes", "credit_stall_ns", "occ_mean_bytes", "occ_max_bytes",
///             "vcs": [{"vc", "packets", "bytes", "minimal", "indirect"}]}]}
/// (only ports that forwarded traffic or stalled on credit are listed; see
/// docs/observability.md for semantics).
/// One row of an exchange table (Fig. 13 shape): one (system, routing)
/// combination's all-to-all result. Restored rows carry their journaled
/// JSON fragment, spliced back verbatim like sweep points.
struct ExchangeRow {
  std::string system;
  std::string routing;
  ExchangeResult result;
  bool restored = false;
  std::string restored_json;
};

class BenchReport {
 public:
  /// With opts.journal_dir set, opens (or resumes) the crash-safe sweep
  /// journal in durable mode (JournalOptions::durable) — manifest mismatch
  /// on resume is a hard error (see docs/durable_sweeps.md).
  /// `manifest_extra` is appended to the standard manifest text — the
  /// campaign runner records its spec hash there, so a journal cannot
  /// resume under an edited spec.
  BenchReport(std::string bench_name, const BenchOptions& opts,
              std::string manifest_extra = "");

  void add_sweep(const std::string& title, const std::vector<std::string>& labels,
                 const std::vector<std::vector<SweepPoint>>& series,
                 const SweepRunStats& stats);

  /// Records one executed exchange table for the "exchanges" JSON array.
  void add_exchange(const std::string& title, const std::vector<ExchangeRow>& rows,
                    const SweepRunStats& stats);

  /// Writes the document to opts.json_path; no-op when the flag was unset.
  void write() const;

  /// Prints a failure summary (failed / timed-out points with their errors),
  /// writes the report, and returns the process exit code: non-zero iff any
  /// point permanently failed. Mains end with `return report.finish();`.
  int finish() const;

  /// The journal opened from opts.journal_dir (null without --journal).
  SweepJournal* journal() const { return journal_.get(); }

 private:
  struct SweepRecord {
    std::string title;
    std::vector<std::string> labels;
    std::vector<std::vector<SweepPoint>> series;
    SweepRunStats stats;
  };
  struct ExchangeRecord {
    std::string title;
    std::vector<ExchangeRow> rows;
    SweepRunStats stats;
  };

  std::string bench_name_;
  BenchOptions opts_;
  std::vector<SweepRecord> sweeps_;
  std::vector<ExchangeRecord> exchanges_;
  std::unique_ptr<SweepJournal> journal_;
};

/// Renders one sweep point as the JSON object BenchReport emits (the
/// journal's payload format). Restored points return their journaled
/// fragment verbatim — the single-serializer design that makes resumed
/// --json output byte-identical to an uninterrupted run.
std::string render_point_json(const SweepPoint& pt);

/// Renders one exchange row as the JSON object BenchReport emits (and the
/// journal payload for exchange scopes). Restored rows return their
/// journaled fragment verbatim.
std::string render_exchange_row_json(const ExchangeRow& row);

/// The manifest text for a bench invocation (hashed into the journal; see
/// docs/durable_sweeps.md for the fields).
std::string bench_manifest(const std::string& bench_name, const BenchOptions& opts);

/// Prints a sweep as the paper's two panels: throughput and mean delay vs
/// offered load, one row per load, one series per label.
void print_sweep_table(const std::string& title,
                       const std::vector<std::string>& series_labels,
                       const std::vector<double>& loads,
                       const std::vector<std::vector<SweepPoint>>& series, bool csv);

/// Runs every (series, load) point of `specs` through a SweepRunner with
/// opts.jobs workers, prints the table (all specs must share one load
/// grid), logs wall-clock/events-per-second, and appends to `report` when
/// non-null. Results are deterministic and independent of opts.jobs.
std::vector<std::vector<SweepPoint>> run_and_print_sweep(
    const std::string& title, const std::vector<SweepSeriesSpec>& specs,
    const BenchOptions& opts, BenchReport* report);

/// Runs an exchange table (the Fig. 13/14 shape): for each row, one
/// make_exchange_plan(topo, ex.workload, opts.seed) exchange on a fresh
/// SimStack with cfg.seed = opts.seed, bounded by ex.time_limit simulated
/// time and opts.point_timeout_s wall clock. Rows run concurrently on
/// opts.jobs threads (0 = all cores) and land at their index, so the
/// results are identical for every --jobs value. Prints the table under
/// "== exchange_table_title(ex.title, ex.workload) ==" (aborted rows
/// marked WEDGED / DEADLINE / TIMEOUT), appends to `report` when
/// non-null, and — when the report carries a journal — journals every row
/// under that composed title as the scope, restoring completed rows on
/// --resume with byte-identical output.
std::vector<ExchangeRow> run_exchange_table(const CampaignExchangeSweep& ex,
                                            const BenchOptions& opts, BenchReport* report);

/// Cores this process may run on (its affinity mask); hardware_concurrency()
/// counts the machine's.
int usable_cores();

/// The first "model name" of /proc/cpuinfo, or "unknown". Together with
/// usable_cores() it fingerprints the host in a BENCH_*.json snapshot, so a
/// baseline's timings are compared only on the host it was recorded on.
std::string cpu_model();

}  // namespace d2net::bench
