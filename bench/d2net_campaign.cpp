// Declarative campaign runner: one driver for the whole bench matrix.
//
// Reads a committed JSON spec (campaigns/*.json, schema in
// docs/campaigns.md), expands it into sweep/exchange work, and executes it
// through the shared machinery — SweepRunner and run_exchange_table on
// one --jobs thread pool, the crash-safe journal (--journal/--resume), per-point deadlines
// (--point-timeout) and BenchReport --json output. Each figure spec's
// normalised --json at CI args matches its committed sha256 in
// campaigns/ci_digests.txt (scripts/ci.sh stage 6 enforces this).
//
// The journal manifest additionally pins the spec text's FNV-1a hash:
// editing a spec invalidates its journals, so a resumed campaign can never
// silently mix results from two versions of the experiment. --status reads
// a journal directory back, per step, without writing to it.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>

#include "bench_common.h"
#include "common/error.h"
#include "common/journal.h"
#include "common/table.h"
#include "sim/campaign.h"
#include "topology/properties.h"

using namespace d2net;
using namespace d2net::bench;

namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) throw ArgumentError("cannot open --spec file: " + path);
  std::ostringstream os;
  os << in.rdbuf();
  if (!in.good() && !in.eof()) throw ArgumentError("failed reading --spec file: " + path);
  return os.str();
}

/// keep_connected can veto fail_links removals; the system then carries
/// less damage than its spec names.
void warn_link_failure_shortfalls(const CampaignSpec& spec, const ExpandedCampaign& plan) {
  for (std::size_t i = 0; i < spec.systems.size(); ++i) {
    const auto& f = plan.link_failures[i];
    if (f && f->removed < f->requested) {
      std::fprintf(stderr,
                   "warning: %s: keep_connected vetoed %d of %d requested link removals; "
                   "its fail_links overstates the damage\n",
                   spec.systems[i].label.c_str(), f->requested - f->removed, f->requested);
    }
  }
}

void print_dry_run(const CampaignSpec& spec, const ExpandedCampaign& plan, bool full) {
  std::printf("campaign %s: %zu system(s), %zu step(s)\n", spec.name.c_str(),
              spec.systems.size(), plan.steps.size());
  for (std::size_t i = 0; i < spec.systems.size(); ++i) {
    const CampaignSystem& sys = spec.systems[i];
    const Topology& t = plan.topologies[i];
    std::printf("  system %-12s %s (r=%d, n=%d, l=%d, ports/N=%.2f, links/N=%.2f)",
                sys.label.c_str(),
                (full && !sys.topology_full.empty() ? sys.topology_full : sys.topology).c_str(),
                t.num_routers(), t.num_nodes(), t.num_links(), t.ports_per_node(),
                t.links_per_node());
    if (const auto& f = plan.link_failures[i]) {
      std::printf(" failed links=%d, endpoint diameter=%d", f->removed,
                  node_diameter(t, all_pairs_distances(t)));
    }
    std::printf("\n");
  }
  for (const CampaignStep& step : plan.steps) {
    if (step.load) {
      std::size_t points = 0;
      for (const SweepSeriesSpec& s : step.load->series) points += s.loads.size();
      std::printf("  sweep    %-48s %zu series x %zu load(s) = %zu point(s)%s\n",
                  step.load->title.c_str(), step.load->series.size(),
                  step.load->series.front().loads.size(), points,
                  step.load->series.front().fault.enabled() ? " [faults]" : "");
    } else {
      const CampaignExchangeSweep& ex = *step.exchange;
      std::printf("  exchange %s: %zu row(s)\n", step_scope(step).c_str(), ex.rows.size());
      if (ex.workload.pattern != ExchangePattern::kNearestNeighbor) continue;
      const Topology* last = nullptr;
      for (const CampaignExchangeRow& row : ex.rows) {
        if (row.topo == last) continue;
        last = row.topo;
        const auto d = paper_torus_dims(*row.topo);
        std::printf("    torus %-12s %dx%dx%d\n", row.system.c_str(), d[0], d[1], d[2]);
      }
    }
  }
}

/// Executes every step through one BenchReport (table printing, --json,
/// journal/resume), prints the per-step summary, and returns the process
/// exit code.
int execute_campaign(const CampaignSpec& spec, const ExpandedCampaign& plan,
                     const BenchOptions& opts, const std::string& manifest_extra) {
  BenchReport report(spec.name, opts, manifest_extra);

  struct StepSummary {
    std::string title;
    const char* kind;
    std::int64_t points = 0;
    std::int64_t restored = 0;
    std::int64_t timed_out = 0;
    std::int64_t failed = 0;
  };
  std::vector<StepSummary> summaries;

  for (const CampaignStep& step : plan.steps) {
    if (step.load) {
      const auto series = run_and_print_sweep(step.load->title, step.load->series, opts,
                                              &report);
      StepSummary sum{step.load->title, "sweep"};
      for (const auto& s : series) {
        for (const SweepPoint& pt : s) {
          ++sum.points;
          sum.restored += pt.restored ? 1 : 0;
          sum.timed_out += pt.result.timed_out ? 1 : 0;
          sum.failed += pt.failed ? 1 : 0;
        }
      }
      summaries.push_back(std::move(sum));
    } else {
      const CampaignExchangeSweep& ex = *step.exchange;
      const auto done = run_exchange_table(ex, opts, &report);
      StepSummary sum{ex.title, "exchange"};
      for (const ExchangeRow& r : done) {
        ++sum.points;
        sum.restored += r.restored ? 1 : 0;
        sum.timed_out += (!r.result.completed) ? 1 : 0;
      }
      summaries.push_back(std::move(sum));
    }
  }

  std::printf("\n== campaign summary: %s ==\n", spec.name.c_str());
  Table summary({"step", "kind", "points", "restored", "timed out/aborted", "failed"});
  for (const StepSummary& s : summaries) {
    summary.add(s.title, s.kind, s.points, s.restored, s.timed_out, s.failed);
  }
  summary.print(std::cout);
  if (opts.csv) summary.print_csv(std::cout);

  return report.finish();
}

/// --status: per-step progress of the journal in `dir`, counted against
/// the spec's key space (campaign_scopes). Returns 1 when `dir` holds no
/// journal.
int print_status(const ExpandedCampaign& plan, const std::string& dir,
                 const std::string& manifest_text) {
  std::string journaled_text;
  std::uint64_t hash = 0;
  if (!read_journal_manifest(dir, journaled_text, hash)) {
    std::fprintf(stderr, "no campaign journal in '%s'\n", dir.c_str());
    return 1;
  }
  if (journaled_text != manifest_text) {
    std::fprintf(stderr,
                 "warning: '%s' was journaled under a different configuration; "
                 "--resume would refuse it\n",
                 dir.c_str());
  }
  // A later line for a key supersedes an earlier one, as on resume; torn
  // lines are skipped.
  std::map<std::string, std::string> status;
  std::ifstream in(std::filesystem::path(dir) / "journal.jsonl");
  for (std::string line; std::getline(in, line);) {
    JournalEntry e;
    if (SweepJournal::parse_line(line, e)) status[e.key] = e.status;
  }

  Table t({"step", "points", "ok", "timed out", "failed", "missing"});
  std::size_t points = 0, missing = 0;
  for (const CampaignScope& sc : campaign_scopes(plan)) {
    std::size_t ok = 0, timed_out = 0, failed = 0;
    for (std::size_t i = 0; i < sc.points; ++i) {
      const auto it = status.find(sc.scope + "#" + std::to_string(i));
      if (it == status.end()) continue;
      ok += it->second == "ok" ? 1 : 0;
      timed_out += it->second == "timed_out" ? 1 : 0;
      failed += it->second == "failed" ? 1 : 0;
    }
    const std::size_t step_missing = sc.points - ok - timed_out - failed;
    t.add(sc.scope, sc.points, ok, timed_out, failed, step_missing);
    points += sc.points;
    missing += step_missing;
  }
  t.print(std::cout);
  std::printf("%zu of %zu point(s) journaled, %zu missing\n", points - missing, points,
              missing);
  return 0;
}

int run(int argc, char** argv) {
  Cli cli("declarative campaign runner: expand and execute a campaigns/*.json spec "
          "(see docs/campaigns.md)");
  cli.flag("spec", std::string{}, "campaign spec file (JSON; required)")
      .flag("dry-run", false, "print the expanded matrix and exit without simulating")
      .flag("status", false,
            "print per-step ok/timed-out/failed/missing point counts of the "
            "--journal directory and exit");
  add_standard_flags(cli);
  if (!cli.parse(argc, argv)) return 0;

  BenchOptions opts = read_standard_flags(cli);
  const std::string spec_path = cli.get_string("spec");
  if (spec_path.empty()) throw ArgumentError("--spec=<file> is required");

  const std::string spec_text = read_file(spec_path);
  const CampaignSpec spec = parse_campaign_spec(spec_text, spec_path);
  // A spec-level "engine" key pins the experiment to one engine, overriding
  // --engine: the spec describes the experiment, the flags its scale. The
  // flow knob --flow-interval-us stays invocation-scale. The engine is
  // resolved and checked here, so --dry-run and --status refuse what a run
  // would.
  opts.engine = resolve_engine(spec, opts.engine, opts.metrics, spec_path);
  const CampaignParams params{opts.full, opts.seed, opts.duration, opts.warmup};
  const ExpandedCampaign plan = expand_campaign(spec, params);
  warn_link_failure_shortfalls(spec, plan);

  if (cli.get_bool("dry-run")) {
    print_dry_run(spec, plan, opts.full);
    return 0;
  }

  // The spec hash joins the manifest so a journal written under one spec
  // version refuses to resume under an edited one.
  std::ostringstream extra;
  extra << "spec=" << spec_path << "\n"
        << "spec_fnv1a64=" << std::hex << fnv1a64(spec_text) << "\n";

  if (cli.get_bool("status")) {
    if (opts.journal_dir.empty()) throw ArgumentError("--status requires --journal=<dir>");
    return print_status(plan, opts.journal_dir, bench_manifest(spec.name, opts) + extra.str());
  }
  return execute_campaign(spec, plan, opts, extra.str());
}

}  // namespace

int main(int argc, char** argv) { return d2net::run_cli(run, argc, argv); }
