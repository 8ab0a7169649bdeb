// Declarative experiment campaigns (see docs/campaigns.md).
//
// A campaign spec is a committed JSON file describing a matrix of
// {topology, routing, traffic, loads, fault schedule} combinations; the
// d2net_campaign driver expands it into concrete SweepSeriesSpec /
// exchange-table work and executes it through the SweepRunner
// journal/resume/deadline layer. The porting contract is a committed
// digest: each spec's normalised --json output at CI args must hash to
// its line in campaigns/ci_digests.txt (enforced by scripts/ci.sh stage
// 6), so the expansion order below is part of the output format:
//
//  - Load sweeps expand system-major, series-minor: for each selected
//    system, one SweepSeriesSpec per series entry, in spec order (labels
//    and point indices — and therefore derived seeds and journal keys —
//    depend on it).
//  - A sweep's optional `grid` axis multiplies each series entry by the
//    grid values, series-major grid-minor, substituting {grid} in labels
//    ("nI=4" / "c=0.25") — the adaptive panels of Figs. 7-12.
//  - Worst-case traffic builds its permutation from a fresh Rng seeded
//    with the invocation seed per system.
//  - seed_mode "base" pins every point of the sweep to the invocation
//    seed (SweepSeriesSpec::seed_override) — the policy of the serial
//    fault sweeps; "derived" (default) uses the per-point SplitMix64
//    stream.
//  - Fault bursts compute their times with integer arithmetic: burst at
//    warmup + (duration - warmup) / at_div, restored after
//    (duration - warmup) / restore_div (0 = permanent), recovery sampled
//    in duration / sample_div buckets.
//  - A system's fail_links removes int(frac * links) links with
//    Rng(seed + int(frac * 1000)) before anything else sees the topology.
//  - Exchange plans are built per row topology from the sweep's
//    ExchangeWorkload with the invocation seed (shuffle order, random
//    rank mapping).
//
// Parsing is strict (unknown keys, bad enums and empty matrices are
// ArgumentErrors naming the offending spec path): a silently ignored typo
// in a committed spec would quietly simulate the wrong experiment.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "routing/factory.h"
#include "routing/minimal_table.h"
#include "sim/exchange.h"
#include "sim/sweep_runner.h"
#include "sim/traffic.h"
#include "topology/topology.h"

namespace d2net {

/// One evaluated system: a display label plus the topology spec strings
/// (topology/spec.h grammar) for the default and --full scales.
struct CampaignSystem {
  std::string label;
  std::string topology;       ///< e.g. "sf:q=7"
  std::string topology_full;  ///< --full variant; "" = same as `topology`
  /// Fraction in [0, 1) of router-to-router links to fail permanently at
  /// expansion: remove_random_links(topo, frac * links, Rng(seed + frac *
  /// 1000)), keep_connected. Absent = the intact topology.
  std::optional<double> fail_links;
};

enum class CampaignTraffic {
  kUniform,    ///< UniformTraffic
  kWorstCase,  ///< make_worst_case (per-topology adversarial permutation)
  kShift,      ///< make_node_shift by `shift` nodes
};

const char* to_string(CampaignTraffic t);

/// Random link burst (make_link_burst), with times expressed as divisors of
/// the run window so one spec scales across --duration-us/--full.
struct CampaignFault {
  double frac = 0.0;    ///< fraction of links in the burst (count >= 1)
  int at_div = 4;       ///< burst at warmup + (duration - warmup) / at_div
  int restore_div = 0;  ///< restore after (duration - warmup) / restore_div; 0 = permanent
  int sample_div = 0;   ///< recovery buckets of duration / sample_div; 0 = off
};

/// One series of a sweep. `label` may contain the placeholders {system}
/// and {routing} — and, on grid sweeps, {grid} — substituted at expansion
/// time.
struct CampaignSeries {
  std::string label;
  RoutingStrategy strategy = RoutingStrategy::kMinimal;
  /// UGAL parameter overrides; absent fields keep the paper defaults for
  /// the topology (default_ugal_params).
  std::optional<int> ni;
  std::optional<double> c;
  /// Fault-mode contrast knobs (meaningful only when the sweep has a
  /// fault): what happens to packets that lost their path, and whether
  /// routing tables rebuild on fault events.
  FaultRecovery recovery = FaultRecovery::kSalvage;
  bool reroute = true;
  /// Modeled control plane (requires a sweep fault): presence of
  /// detection_us enables FaultConfig::propagation with that detection
  /// timeout; flood_hop_us overrides the per-hop flood processing delay.
  std::optional<double> detection_us;
  std::optional<double> flood_hop_us;
};

/// Parameter-grid axis of a load sweep: crosses every series entry with
/// each value of one UGAL knob — the "vary nI" / "vary c" panels of the
/// adaptive-routing figures (Figs. 7-12). Expansion is series-major,
/// grid-minor: for each series entry, one expanded series per grid value
/// in spec order, with the value substituted for {grid} in the label
/// ("nI=4", "c=0.25").
struct CampaignGrid {
  bool is_ni = true;           ///< grid over `ni` (else over `c`)
  std::vector<double> values;  ///< integers >= 1 when is_ni, > 0 otherwise
};

enum class CampaignSweepKind {
  kLoadSweep,  ///< open-loop load sweep (Fig. 6-12 shape)
  kExchange,   ///< all-to-all exchange table (Fig. 13 shape)
};

struct CampaignSweep {
  std::string title;  ///< must contain {system} when per_system
  CampaignSweepKind kind = CampaignSweepKind::kLoadSweep;
  /// System labels to include; empty = every campaign system, in order.
  std::vector<std::string> systems;
  /// One printed sweep (and journal scope) per system instead of one big
  /// sweep with all systems' series — the ablation benches' shape.
  bool per_system = false;
  /// "derived" (false): per-point SplitMix64 seeds. "base" (true): every
  /// point runs on the invocation seed, as the ported serial benches did.
  bool base_seed = false;
  std::vector<CampaignSeries> series;

  // --- load sweeps ---
  CampaignTraffic traffic = CampaignTraffic::kUniform;
  int shift = 0;  ///< node shift for traffic == kShift
  std::vector<double> loads;
  std::optional<CampaignFault> fault;
  std::optional<CampaignGrid> grid;

  // --- exchanges ---
  ExchangeWorkload exchange;
  /// --full payload; absent = exchange.bytes_per_pair at every scale.
  std::optional<std::int64_t> bytes_per_pair_full;
  double time_limit_us = 5'000'000.0;
};

struct CampaignSpec {
  std::string name;  ///< report/bench name (BenchReport "bench" field)
  /// Optional top-level "engine" key ("packet" | "flow"): pins the campaign
  /// to one simulation engine. When set it overrides the driver's --engine
  /// flag — the spec describes the experiment, the flags describe the
  /// invocation scale; absent = --engine (default packet). See
  /// resolve_engine.
  std::optional<SimEngine> engine;
  std::vector<CampaignSystem> systems;
  std::vector<CampaignSweep> sweeps;
};

/// Parses and validates a campaign spec document. Throws ArgumentError —
/// naming `where` and the offending spec path — on malformed JSON, unknown
/// keys, bad enum tokens, duplicate labels/titles, or an empty matrix.
CampaignSpec parse_campaign_spec(std::string_view text,
                                 const std::string& where = "campaign spec");

/// The engine the campaign runs on: the spec's "engine" key, else `flag`
/// (d2net_campaign's --engine). Throws ArgumentError naming `where` and the
/// sweep path (or `--metrics`) when that engine cannot run the campaign:
/// under the flow engine, flowsim::flow_engine_gap refuses an exchange
/// sweep, a fault schedule or `metrics` before anything is simulated.
SimEngine resolve_engine(const CampaignSpec& spec, SimEngine flag, bool metrics,
                         const std::string& where);

/// Invocation-scale parameters (the driver's standard flags).
struct CampaignParams {
  bool full = false;
  std::uint64_t seed = 1;
  TimePs duration = 0;
  TimePs warmup = 0;
};

/// One expanded load sweep: run through run_and_print_sweep under `title`
/// as the journal scope.
struct CampaignLoadSweep {
  std::string title;
  std::vector<SweepSeriesSpec> series;
};

/// One row of an expanded exchange table.
struct CampaignExchangeRow {
  std::string system;
  RoutingStrategy strategy = RoutingStrategy::kMinimal;
  const Topology* topo = nullptr;
};

/// One expanded exchange sweep: run through bench::run_exchange_table.
struct CampaignExchangeSweep {
  std::string title;          ///< base title (exchange_table_title composes the rest)
  ExchangeWorkload workload;  ///< bytes resolved for the invocation scale
  TimePs time_limit = 0;
  std::vector<CampaignExchangeRow> rows;
};

/// What a system's fail_links removed: removed < requested means
/// keep_connected vetoed some removals.
struct CampaignLinkFailures {
  int requested = 0;
  int removed = 0;
};

/// One executable step, in spec order. Exactly one member is engaged.
struct CampaignStep {
  std::optional<CampaignLoadSweep> load;
  std::optional<CampaignExchangeSweep> exchange;
};

/// The expanded campaign. Owns every object the steps reference
/// (topologies, minimal tables, traffic patterns, fault schedules), so it
/// must outlive their execution. Not copyable — steps hold pointers into
/// the owned storage.
struct ExpandedCampaign {
  ExpandedCampaign() = default;
  ExpandedCampaign(const ExpandedCampaign&) = delete;
  ExpandedCampaign& operator=(const ExpandedCampaign&) = delete;
  ExpandedCampaign(ExpandedCampaign&&) = default;
  ExpandedCampaign& operator=(ExpandedCampaign&&) = default;

  std::vector<CampaignStep> steps;

  /// Per spec system: the fail_links outcome (nullopt = intact topology).
  std::vector<std::optional<CampaignLinkFailures>> link_failures;

  /// Owned backing storage (deque: element addresses are stable across
  /// push_back, and SweepSeriesSpec/CampaignExchangeRow keep raw pointers
  /// into it).
  std::deque<Topology> topologies;
  std::vector<std::shared_ptr<const MinimalTable>> tables;
  std::deque<std::unique_ptr<TrafficPattern>> patterns;
};

/// Expands the matrix into concrete, executable steps (topologies built,
/// tables shared per system, patterns constructed, fault times resolved).
/// Throws ArgumentError on a spec that references an unknown system or
/// whose topology spec string does not parse.
ExpandedCampaign expand_campaign(const CampaignSpec& spec, const CampaignParams& params);

// ----------------------------------------------------------- journal scopes

/// The composed title an exchange table is printed and journaled under:
/// "<base> (<bytes> B/pair, shuffled+interleaved)" for the default
/// all-to-all ("staggered" for the staggered order, "<order>+sequential"
/// for the sequential schedule), "<base> (<bytes> B/neighbor,
/// nearest-neighbor, <contiguous|random> mapping)" for Fig. 14's exchange.
/// One function shared by the exchange runner (scope registration, row
/// keys) and campaign_scopes (the key space `--status` counts against).
std::string exchange_table_title(const std::string& title_base, const ExchangeWorkload& w);

/// Number of flattened points of one step: series x loads for a load
/// sweep (the SweepRunner flattening order), rows for an exchange table.
std::size_t step_point_count(const CampaignStep& step);

/// The journal scope (key prefix) of one step: the sweep title, or the
/// composed exchange table title.
std::string step_scope(const CampaignStep& step);

/// One journal scope with its point count, in campaign execution order.
/// Journal keys of the scope are "<scope>#0" .. "<scope>#<points-1>".
struct CampaignScope {
  std::string scope;
  std::size_t points = 0;
};

/// Every step's scope + point count, in spec order: the campaign's full
/// deterministic key space.
std::vector<CampaignScope> campaign_scopes(const ExpandedCampaign& plan);

}  // namespace d2net
