// Declarative campaign runner: one driver for the whole bench matrix.
//
// Reads a committed JSON spec (campaigns/*.json, schema in
// docs/campaigns.md), expands it into sweep/exchange work, and executes it
// through the shared machinery — SweepRunner (--jobs/--shards), the
// crash-safe journal (--journal/--resume), per-point deadlines
// (--point-timeout) and BenchReport --json output. Each figure spec's
// normalised --json at CI args matches its committed sha256 in
// campaigns/ci_digests.txt (scripts/ci.sh stage 6 enforces this).
//
// The journal manifest additionally pins the spec text's FNV-1a hash:
// editing a spec invalidates its journals, so a resumed campaign can never
// silently mix results from two versions of the experiment.
//
// Beyond the solo path, the driver fans one campaign out across processes
// and hosts (see docs/campaigns.md, "Distributed campaigns"):
//   --workers/--worker-id   join as one cooperating worker (lease-based
//                           shard claiming; survives any worker dying)
//   --lease-ttl             staleness threshold for stealing a dead
//                           worker's shards
//   --merge                 merge worker journals and emit output
//                           byte-identical to a single-process run
//   --status                per-shard campaign state from the journal dir
#include <cstdio>
#include <fstream>
#include <sstream>

#include "bench_common.h"
#include "campaign_worker.h"
#include "common/error.h"
#include "sim/campaign.h"

using namespace d2net;
using namespace d2net::bench;

namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  D2NET_REQUIRE(in.good(), "cannot open --spec file: " + path);
  std::ostringstream os;
  os << in.rdbuf();
  D2NET_REQUIRE(in.good() || in.eof(), "failed reading --spec file: " + path);
  return os.str();
}

void print_dry_run(const CampaignSpec& spec, const ExpandedCampaign& plan) {
  std::printf("campaign %s: %zu system(s), %zu step(s)\n", spec.name.c_str(),
              spec.systems.size(), plan.steps.size());
  for (std::size_t i = 0; i < spec.systems.size(); ++i) {
    const Topology& t = plan.topologies[i];
    std::printf("  system %-12s %s (r=%d, n=%d, l=%d)\n", spec.systems[i].label.c_str(),
                spec.systems[i].topology.c_str(), t.num_routers(), t.num_nodes(),
                t.num_links());
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
      std::printf("  exchange %-48s %zu row(s), %lld B/pair\n",
                  step.exchange->title.c_str(), step.exchange->rows.size(),
                  static_cast<long long>(step.exchange->bytes_per_pair));
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli("declarative campaign runner: expand and execute a campaigns/*.json spec "
          "(see docs/campaigns.md)");
  cli.flag("spec", std::string{}, "campaign spec file (JSON; required)")
      .flag("dry-run", false, "print the expanded matrix and exit without simulating")
      .flag("workers", std::int64_t{1},
            "cooperating worker processes executing this campaign via "
            "lease-based shard claiming (see docs/campaigns.md); all must "
            "share --journal on one filesystem")
      .flag("worker-id", std::string{},
            "unique id of this worker (journals under <journal>/workers/<id>); "
            "setting it joins worker mode even with --workers=1")
      .flag("lease-ttl", 30.0,
            "seconds without heartbeat before a worker's shard lease is "
            "considered stale and stealable")
      .flag("shard-points", std::int64_t{0},
            "points per claimed shard (0 = auto, ~4 shards per worker); all "
            "workers of one campaign must agree")
      .flag("merge", false,
            "merge per-worker journals into <journal>/journal.jsonl and emit "
            "campaign output byte-identical to a single-process run")
      .flag("status", false,
            "print per-shard campaign state (unclaimed/leased/stale/done) "
            "from the journal directory and exit");
  add_standard_flags(cli);
  if (!cli.parse(argc, argv)) return 0;

  const int workers = static_cast<int>(cli.get_int("workers"));
  D2NET_REQUIRE(workers >= 1, "--workers must be >= 1");
  BenchOptions opts = read_standard_flags(cli, workers);
  // Campaign mode defaults durable journaling on: the claim protocol (and
  // any long study worth journaling) assumes an acked point survives a
  // host power loss, not just a process kill. Bytes of all output are
  // unaffected.
  opts.journal_durable = !opts.journal_dir.empty();
  const std::string spec_path = cli.get_string("spec");
  D2NET_REQUIRE(!spec_path.empty(), "--spec=<file> is required");

  const std::string spec_text = read_file(spec_path);
  const CampaignSpec spec = parse_campaign_spec(spec_text, spec_path);
  // A spec-level "engine" key pins the experiment to one engine, overriding
  // --engine: the spec describes the experiment, the flags its scale. The
  // flow knobs (--flow-bytes/--flow-interval-us) stay invocation-scale.
  if (spec.engine.has_value()) opts.engine = *spec.engine;
  const CampaignParams params{opts.full, opts.seed, opts.duration, opts.warmup};
  const ExpandedCampaign plan = expand_campaign(spec, params);

  if (cli.get_bool("dry-run")) {
    print_dry_run(spec, plan);
    return 0;
  }

  // The spec hash joins the manifest so a journal written under one spec
  // version refuses to resume under an edited one.
  std::ostringstream extra;
  extra << "spec=" << spec_path << "\n"
        << "spec_fnv1a64=" << std::hex << fnv1a64(spec_text) << "\n";

  if (cli.get_bool("status")) {
    return print_campaign_status(plan, opts, cli.get_double("lease-ttl"));
  }
  if (cli.get_bool("merge")) {
    return run_campaign_merge(spec, plan, opts, extra.str());
  }
  if (workers > 1 || !cli.get_string("worker-id").empty()) {
    CampaignWorkerOptions wopts;
    wopts.workers = workers;
    wopts.worker_id = cli.get_string("worker-id");
    if (wopts.worker_id.empty()) {
      wopts.worker_id = std::string("w") + std::to_string(::getpid());
    }
    wopts.lease_ttl = cli.get_double("lease-ttl");
    wopts.shard_points = static_cast<int>(cli.get_int("shard-points"));
    D2NET_REQUIRE(wopts.shard_points >= 0, "--shard-points must be >= 0");
    opts.journal_worker = wopts.worker_id;
    return run_campaign_worker(spec, plan, opts, extra.str(), wopts);
  }

  // Solo path: exactly the pre-distributed behavior (no protocol overhead,
  // byte-identical output).
  return execute_campaign(spec, plan, opts, extra.str());
}
