// Durable-sweep tests (see docs/durable_sweeps.md): JSON escaping, journal
// line round-trips, crash-and-resume byte-identity (including a torn final
// line, the signature of dying mid-write), manifest/entry mismatch
// rejection, per-point wall-clock deadlines with bounded retries, the
// paranoid self-audit, and the thread pool's fail-fast mode.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/error.h"
#include "common/journal.h"
#include "common/json.h"
#include "common/thread_pool.h"
#include "sim/fault.h"
#include "sim/sweep_runner.h"
#include "sim/traffic.h"
#include "topology/oft.h"
#include "topology/slim_fly.h"

namespace d2net {
namespace {

namespace fs = std::filesystem;

// Fresh per-test journal directory under the build tree.
std::string temp_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("d2net_" + name);
  fs::remove_all(dir);
  return dir.string();
}

// ----------------------------------------------------------- json_escape

TEST(JsonEscape, PassesPlainTextThrough) {
  EXPECT_EQ(json_escape("hello world 123"), "hello world 123");
  EXPECT_EQ(json_escape(""), "");
}

TEST(JsonEscape, EscapesQuotesBackslashesAndControls) {
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb\tc\rd"), "a\\nb\\tc\\rd");
  EXPECT_EQ(json_escape(std::string(1, '\x01')), "\\u0001");
  EXPECT_EQ(json_escape(std::string(1, '\x1f')), "\\u001f");
}

TEST(Fnv1a64, KnownVectorsAndSensitivity) {
  // Standard FNV-1a test vectors.
  EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_NE(fnv1a64("seed=1"), fnv1a64("seed=2"));
}

// ------------------------------------------------------ journal line codec

JournalEntry sample_entry() {
  JournalEntry e;
  e.key = "uniform#3";
  e.label = "SF MIN";
  e.topo = "r=50,n=250,l=350";
  e.load = 0.7;
  e.seed = 0x123456789abcdef0ULL;
  e.status = "ok";
  e.attempts = 2;
  e.events = 123456789;
  e.wall_seconds = 1.25;
  e.throughput = 0.6875;
  e.avg_latency_ns = 512.5;
  e.p99_latency_ns = 2048.0;
  e.packets_measured = 99999;
  e.payload = "{\"load\": 0.7, \"throughput\": 0.6875}";
  return e;
}

TEST(JournalLine, RoundTripsEveryField) {
  const JournalEntry e = sample_entry();
  JournalEntry r;
  ASSERT_TRUE(SweepJournal::parse_line(SweepJournal::render_line(e), r));
  EXPECT_EQ(r.key, e.key);
  EXPECT_EQ(r.label, e.label);
  EXPECT_EQ(r.topo, e.topo);
  EXPECT_EQ(r.load, e.load);  // exact: %.17g survives the double round-trip
  EXPECT_EQ(r.seed, e.seed);
  EXPECT_EQ(r.status, e.status);
  EXPECT_EQ(r.attempts, e.attempts);
  EXPECT_EQ(r.events, e.events);
  EXPECT_EQ(r.wall_seconds, e.wall_seconds);
  EXPECT_EQ(r.throughput, e.throughput);
  EXPECT_EQ(r.avg_latency_ns, e.avg_latency_ns);
  EXPECT_EQ(r.p99_latency_ns, e.p99_latency_ns);
  EXPECT_EQ(r.packets_measured, e.packets_measured);
  EXPECT_EQ(r.payload, e.payload);
}

TEST(JournalLine, RoundTripsFailureWithHostileErrorText) {
  JournalEntry e = sample_entry();
  e.status = "failed";
  e.payload.clear();
  e.error = "boom: \"quoted\", back\\slash,\nnewline and \x01 control";
  JournalEntry r;
  ASSERT_TRUE(SweepJournal::parse_line(SweepJournal::render_line(e), r));
  EXPECT_EQ(r.status, "failed");
  EXPECT_EQ(r.error, e.error);
  EXPECT_FALSE(r.completed());
}

TEST(JournalLine, NonFiniteDoublesRenderAsNullAndRoundTrip) {
  // A wedged exchange or a zero-sample point can produce NaN/inf metrics.
  // JSON has no representation for them — the line must stay machine-valid
  // (null, never a bare nan/inf token) and resume must read them back as
  // NaN rather than rejecting the entry.
  JournalEntry e = sample_entry();
  e.throughput = std::numeric_limits<double>::quiet_NaN();
  e.avg_latency_ns = std::numeric_limits<double>::infinity();
  e.p99_latency_ns = -std::numeric_limits<double>::infinity();
  e.exchange_completed = 0;  // emit the exchange fields too
  e.completion_us = std::numeric_limits<double>::quiet_NaN();
  const std::string line = SweepJournal::render_line(e);
  EXPECT_EQ(line.find("nan"), std::string::npos) << line;
  EXPECT_EQ(line.find("inf"), std::string::npos) << line;
  EXPECT_NE(line.find("\"throughput\": null"), std::string::npos) << line;
  JournalEntry r;
  ASSERT_TRUE(SweepJournal::parse_line(line, r));
  EXPECT_TRUE(std::isnan(r.throughput));
  EXPECT_TRUE(std::isnan(r.avg_latency_ns));
  EXPECT_TRUE(std::isnan(r.p99_latency_ns));
  EXPECT_TRUE(std::isnan(r.completion_us));
  // The finite fields still round-trip exactly alongside the nulls.
  EXPECT_EQ(r.load, e.load);
  EXPECT_EQ(r.payload, e.payload);
}

TEST(JournalLine, RoundTripsExchangeRowFields) {
  // Exchange rows (campaign fig13 scopes) ride the same line format with
  // the exchange_completed/completion_us/wedged extension.
  JournalEntry e = sample_entry();
  e.key = "Fig. 13#2";
  e.exchange_completed = 1;
  e.completion_us = 1234.5;
  e.wedged = true;
  JournalEntry r;
  ASSERT_TRUE(SweepJournal::parse_line(SweepJournal::render_line(e), r));
  EXPECT_EQ(r.exchange_completed, 1);
  EXPECT_EQ(r.completion_us, 1234.5);
  EXPECT_TRUE(r.wedged);
  // Sweep-point entries keep the sentinel: journals written before the
  // extension (no such keys on the line) parse unchanged.
  JournalEntry plain;
  ASSERT_TRUE(SweepJournal::parse_line(SweepJournal::render_line(sample_entry()), plain));
  EXPECT_EQ(plain.exchange_completed, -1);
  EXPECT_FALSE(plain.wedged);
}

TEST(WriteJsonDouble, FiniteValuesPrintNonFiniteBecomeNull) {
  std::ostringstream os;
  os.precision(10);
  write_json_double(os, 0.6875);
  os << " ";
  write_json_double(os, std::numeric_limits<double>::quiet_NaN());
  os << " ";
  write_json_double(os, std::numeric_limits<double>::infinity());
  os << " ";
  write_json_double(os, -std::numeric_limits<double>::infinity());
  EXPECT_EQ(os.str(), "0.6875 null null null");
}

TEST(JournalLine, RejectsTornAndCorruptLines) {
  const std::string full = SweepJournal::render_line(sample_entry());
  JournalEntry r;
  // Every strict prefix of a valid line is torn, never silently accepted.
  for (std::size_t cut : {std::size_t{1}, full.size() / 4, full.size() / 2,
                          full.size() - 2}) {
    EXPECT_FALSE(SweepJournal::parse_line(full.substr(0, cut), r)) << cut;
  }
  EXPECT_FALSE(SweepJournal::parse_line("", r));
  EXPECT_FALSE(SweepJournal::parse_line("not json at all", r));
  EXPECT_FALSE(SweepJournal::parse_line("{\"key\": \"\", \"status\": \"ok\"}", r));
  EXPECT_FALSE(SweepJournal::parse_line("{\"key\": \"a#0\", \"status\": \"bogus\"}", r));
}

// ------------------------------------------------------------ SweepJournal

TEST(SweepJournal, AppendFindAndSupersede) {
  const std::string dir = temp_dir("append");
  SweepJournal j(dir, "manifest v1", /*resume=*/false);
  EXPECT_EQ(j.find("uniform#3"), nullptr);
  JournalEntry e = sample_entry();
  e.status = "failed";
  j.append(e);
  e.status = "ok";
  e.attempts = 3;
  j.append(e);

  // Reopen in resume mode: the later line supersedes the earlier one.
  SweepJournal r(dir, "manifest v1", /*resume=*/true);
  ASSERT_EQ(r.loaded_points(), 1u);
  const JournalEntry* got = r.find("uniform#3");
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(got->status, "ok");
  EXPECT_EQ(got->attempts, 3);
}

TEST(SweepJournal, ResumeWithoutManifestIsFreshStart) {
  // `--journal=d --resume` must be a valid *first* command too, so one
  // restart-on-crash invocation works from the start.
  const std::string dir = temp_dir("fresh_resume");
  SweepJournal j(dir, "manifest v1", /*resume=*/true);
  EXPECT_EQ(j.loaded_points(), 0u);
}

TEST(SweepJournal, ResumeRejectsManifestMismatch) {
  const std::string dir = temp_dir("mismatch");
  { SweepJournal j(dir, "bench=x\nseed=1\n", /*resume=*/false); }
  EXPECT_THROW(SweepJournal(dir, "bench=x\nseed=2\n", /*resume=*/true), ArgumentError);
  // The matching manifest still opens.
  EXPECT_NO_THROW(SweepJournal(dir, "bench=x\nseed=1\n", /*resume=*/true));
}

TEST(SweepJournal, FreshOpenTruncatesOldResults) {
  const std::string dir = temp_dir("truncate");
  {
    SweepJournal j(dir, "m", /*resume=*/false);
    j.append(sample_entry());
  }
  // Without --resume an existing journal is discarded, not merged.
  SweepJournal j(dir, "m", /*resume=*/false);
  EXPECT_EQ(j.loaded_points(), 0u);
  SweepJournal r(dir, "m", /*resume=*/true);
  EXPECT_EQ(r.loaded_points(), 0u);
}

TEST(SweepJournal, RejectsDuplicateScopes) {
  SweepJournal j(temp_dir("scopes"), "m", false);
  j.register_scope("uniform");
  EXPECT_THROW(j.register_scope("uniform"), ArgumentError);
  EXPECT_NO_THROW(j.register_scope("adversarial"));
}

// ------------------------------------------- sweep-level resume round trip

SweepRunOptions journal_opts(SweepJournal* journal, std::uint64_t seed) {
  SweepRunOptions opts;
  opts.jobs = 2;
  opts.duration = us(4);
  opts.warmup = us(1);
  opts.config.seed = seed;
  opts.journal = journal;
  opts.scope = "sweep";
  opts.serialize = [](const SweepPoint& pt) { return bench::render_point_json(pt); };
  return opts;
}

std::vector<SweepSeriesSpec> two_series(const Topology& sf, const Topology& oft,
                                        const TrafficPattern& uni_sf,
                                        const TrafficPattern& uni_oft) {
  std::vector<SweepSeriesSpec> specs(2);
  specs[0].label = "SF MIN";
  specs[0].topo = &sf;
  specs[0].strategy = RoutingStrategy::kMinimal;
  specs[0].pattern = &uni_sf;
  specs[0].loads = {0.2, 0.5, 0.8};
  specs[1].label = "OFT UGAL";
  specs[1].topo = &oft;
  specs[1].strategy = RoutingStrategy::kUgal;
  specs[1].pattern = &uni_oft;
  specs[1].loads = {0.2, 0.5, 0.8};
  return specs;
}

TEST(SweepResume, KillMidSweepThenResumeIsByteIdentical) {
  const Topology sf = build_slim_fly(5);
  const Topology oft = build_oft(4);
  const UniformTraffic uni_sf(sf.num_nodes());
  const UniformTraffic uni_oft(oft.num_nodes());
  const auto specs = two_series(sf, oft, uni_sf, uni_oft);
  const std::string manifest = "bench=test\nseed=9\n";

  // Reference: one uninterrupted journaled run.
  const std::string dir_a = temp_dir("resume_a");
  SweepJournal ja(dir_a, manifest, false);
  SweepRunner full(journal_opts(&ja, 9));
  const auto ref = full.run(specs);
  EXPECT_EQ(full.stats().restored_points, 0);

  // "Crashed" run: same sweep journaled into dir B, then the journal is cut
  // to its first two lines plus a torn fragment — what a SIGKILL mid-append
  // leaves behind.
  const std::string dir_b = temp_dir("resume_b");
  {
    SweepJournal jb(dir_b, manifest, false);
    SweepRunner first(journal_opts(&jb, 9));
    first.run(specs);
  }
  const fs::path jpath = fs::path(dir_b) / "journal.jsonl";
  std::vector<std::string> lines;
  {
    std::ifstream in(jpath);
    std::string line;
    while (std::getline(in, line)) lines.push_back(line);
  }
  ASSERT_EQ(lines.size(), 6u);
  {
    std::ofstream out(jpath, std::ios::trunc);
    out << lines[0] << "\n" << lines[1] << "\n";
    out << "{\"key\": \"sweep#2\", \"lab";  // torn final line, no newline
  }

  SweepJournal jb(dir_b, manifest, true);
  EXPECT_EQ(jb.loaded_points(), 2u);  // the torn line was skipped
  SweepRunner resumed(journal_opts(&jb, 9));
  const auto res = resumed.run(specs);
  EXPECT_EQ(resumed.stats().restored_points, 2);

  // Byte-identity: every point of the resumed run renders exactly the JSON
  // of the uninterrupted run — restored points splice their journaled
  // fragment, re-run points reproduce the original bit-for-bit via their
  // derived seeds.
  ASSERT_EQ(res.size(), ref.size());
  for (std::size_t s = 0; s < ref.size(); ++s) {
    ASSERT_EQ(res[s].size(), ref[s].size());
    for (std::size_t l = 0; l < ref[s].size(); ++l) {
      EXPECT_EQ(bench::render_point_json(res[s][l]), bench::render_point_json(ref[s][l]))
          << "series " << s << " point " << l;
    }
  }
  // Restored points contribute their journaled event counts: the aggregate
  // perf trajectory of a resumed sweep matches the uninterrupted one.
  EXPECT_EQ(resumed.stats().events, full.stats().events);

  // A second resume restores everything and simulates nothing.
  SweepJournal jc(dir_b, manifest, true);
  EXPECT_EQ(jc.loaded_points(), 6u);
  SweepRunner all_restored(journal_opts(&jc, 9));
  const auto res2 = all_restored.run(specs);
  EXPECT_EQ(all_restored.stats().restored_points, 6);
  for (std::size_t s = 0; s < ref.size(); ++s) {
    for (std::size_t l = 0; l < ref[s].size(); ++l) {
      EXPECT_EQ(bench::render_point_json(res2[s][l]),
                bench::render_point_json(ref[s][l]));
    }
  }
}

TEST(SweepResume, RejectsEntriesFromADifferentSweep) {
  const Topology sf = build_slim_fly(5);
  const Topology oft = build_oft(4);
  const UniformTraffic uni_sf(sf.num_nodes());
  const UniformTraffic uni_oft(oft.num_nodes());
  const auto specs = two_series(sf, oft, uni_sf, uni_oft);
  const std::string dir = temp_dir("entry_mismatch");
  const std::string manifest = "bench=test\n";
  {
    SweepJournal j(dir, manifest, false);
    SweepRunner runner(journal_opts(&j, 9));
    runner.run(specs);
  }
  // Same manifest text (imagine one that failed to capture the seed), but a
  // different base seed: every derived per-point seed differs, and the
  // per-entry second lock must refuse to splice the stale results.
  SweepJournal j(dir, manifest, true);
  SweepRunner runner(journal_opts(&j, 10));
  EXPECT_THROW(runner.run(specs), ArgumentError);
}

// --------------------------------------------- per-point deadlines/retries

TEST(Deadline, UnfinishablePointTimesOutWithPartialStatsAndRetries) {
  const Topology sf = build_slim_fly(5);
  const UniformTraffic uni(sf.num_nodes());

  std::vector<SweepSeriesSpec> specs(2);
  specs[0].label = "fast";
  specs[0].topo = &sf;
  specs[0].pattern = &uni;
  specs[0].loads = {0.3};
  specs[1].label = "slow";
  specs[1].topo = &sf;
  specs[1].pattern = &uni;
  specs[1].loads = {0.9};
  // Deliberately unfinishable inside the budget: hours of simulated time
  // against a fraction-of-a-second wall clock.
  specs[1].duration = us(50'000'000);

  const std::string dir = temp_dir("deadline");
  SweepJournal j(dir, "m", false);
  SweepRunOptions opts = journal_opts(&j, 5);
  opts.jobs = 1;
  opts.point_timeout_seconds = 0.15;
  opts.point_attempts = 2;

  SweepRunner runner(opts);
  const auto t0 = std::chrono::steady_clock::now();
  const auto out = runner.run(specs);
  const double wall = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0).count();

  // The fast point finishes normally; the slow one hits the deadline on
  // both attempts (retry budget respected) yet carries real partial stats.
  EXPECT_FALSE(out[0][0].result.timed_out);
  EXPECT_EQ(out[0][0].attempts, 1);
  EXPECT_TRUE(out[1][0].result.timed_out);
  EXPECT_FALSE(out[1][0].failed);
  EXPECT_EQ(out[1][0].attempts, 2);
  EXPECT_GT(out[1][0].result.packets_injected, 0);
  EXPECT_GT(out[1][0].result.events_processed, 0);
  EXPECT_EQ(runner.stats().timed_out_points, 1);
  EXPECT_EQ(runner.stats().failed_points, 0);
  // Cooperative cancellation actually bounded the wall clock (2 attempts x
  // 0.15 s plus the fast point and slack).
  EXPECT_LT(wall, 10.0);

  // Both outcomes are durable and restorable: a resumed run re-simulates
  // nothing and reproduces the timed-out point's partial result verbatim.
  SweepJournal j2(dir, "m", true);
  EXPECT_EQ(j2.loaded_points(), 2u);
  SweepRunOptions ropts = journal_opts(&j2, 5);
  ropts.jobs = 1;
  ropts.point_timeout_seconds = 0.15;
  ropts.point_attempts = 2;
  SweepRunner resumed(ropts);
  const auto res = resumed.run(specs);
  EXPECT_EQ(resumed.stats().restored_points, 2);
  EXPECT_TRUE(res[1][0].result.timed_out);
  EXPECT_EQ(res[1][0].attempts, 2);
  EXPECT_EQ(bench::render_point_json(res[1][0]), bench::render_point_json(out[1][0]));
}

TEST(Deadline, UnhitBudgetLeavesResultsBitIdentical) {
  const Topology oft = build_oft(4);
  const UniformTraffic uni(oft.num_nodes());
  SimConfig cfg;
  cfg.seed = 21;
  SimStack plain(oft, RoutingStrategy::kMinimal, cfg);
  const auto a = plain.run_open_loop(uni, 0.5, us(4), us(1));
  cfg.wall_limit_seconds = 3600.0;  // armed but never reached
  SimStack budgeted(oft, RoutingStrategy::kMinimal, cfg);
  const auto b = budgeted.run_open_loop(uni, 0.5, us(4), us(1));
  EXPECT_FALSE(a.timed_out);
  EXPECT_FALSE(b.timed_out);
  EXPECT_EQ(a.events_processed, b.events_processed);
  EXPECT_EQ(a.packets_injected, b.packets_injected);
  EXPECT_EQ(a.accepted_throughput, b.accepted_throughput);
  EXPECT_EQ(a.avg_latency_ns, b.avg_latency_ns);
}

TEST(Deadline, TruncatedRunIsNormalizedByTheWindowItReached) {
  // A run the wall-clock deadline stops early measured only [warmup,
  // t_stop]. Normalized by that window, its throughput matches an
  // untruncated run of the same seed whose duration is t_stop.
  const Topology sf = build_slim_fly(5);
  const UniformTraffic uni(sf.num_nodes());
  const TimePs warmup = us(1);
  const TimePs endless = us(100'000);  // never reached within the budgets below
  for (const SimEngine engine : {SimEngine::kPacket, SimEngine::kFlow}) {
    SCOPED_TRACE(engine == SimEngine::kPacket ? "packet" : "flow");
    SimConfig cfg;
    cfg.seed = 5;
    cfg.engine = engine;

    // Grow the budget until the stop lands well past the warmup: hosts and
    // sanitizer builds differ by orders of magnitude in events per second.
    OpenLoopResult cut;
    for (double budget = 0.02; budget < 30.0; budget *= 2) {
      SimConfig budgeted = cfg;
      budgeted.wall_limit_seconds = budget;
      SimStack stack(sf, RoutingStrategy::kMinimal, budgeted);
      cut = stack.run_open_loop(uni, 0.6, endless, warmup);
      ASSERT_TRUE(cut.timed_out);
      if (cut.t_stop >= 4 * warmup) break;
    }
    ASSERT_GE(cut.t_stop, 4 * warmup);
    ASSERT_LT(cut.t_stop, endless);

    SimStack stack(sf, RoutingStrategy::kMinimal, cfg);
    const OpenLoopResult full = stack.run_open_loop(uni, 0.6, cut.t_stop, warmup);
    EXPECT_FALSE(full.timed_out);
    EXPECT_EQ(full.t_stop, cut.t_stop);
    EXPECT_GT(full.accepted_throughput, 0.3);
    EXPECT_NEAR(cut.accepted_throughput, full.accepted_throughput,
                0.02 * full.accepted_throughput);

    // A stop inside the warmup measured nothing.
    SimConfig instant = cfg;
    instant.wall_limit_seconds = 1e-9;
    SimStack early(sf, RoutingStrategy::kMinimal, instant);
    const OpenLoopResult none = early.run_open_loop(uni, 0.6, endless, us(50));
    EXPECT_TRUE(none.timed_out);
    EXPECT_LT(none.t_stop, us(50));
    EXPECT_EQ(none.accepted_throughput, 0.0);
  }
}

TEST(Deadline, TruncatedRunChannelUtilizationIsNormalizedByTheWindowItReached) {
  // channel_stats() of a run the deadline stopped early covers [warmup,
  // t_stop] like its throughput: the mean network-channel utilization
  // matches an untruncated run of the same seed whose duration is t_stop.
  const Topology sf = build_slim_fly(5);
  const UniformTraffic uni(sf.num_nodes());
  const TimePs warmup = us(1);
  const TimePs endless = us(100'000);
  SimConfig cfg;
  cfg.seed = 5;
  const auto mean_utilization = [](const std::vector<NetworkSim::ChannelStats>& cs) {
    double sum = 0.0;
    for (const auto& c : cs) sum += c.utilization;
    return cs.empty() ? 0.0 : sum / static_cast<double>(cs.size());
  };

  OpenLoopResult cut;
  double cut_util = 0.0;
  for (double budget = 0.02; budget < 30.0; budget *= 2) {
    SimConfig budgeted = cfg;
    budgeted.wall_limit_seconds = budget;
    SimStack stack(sf, RoutingStrategy::kMinimal, budgeted);
    cut = stack.run_open_loop(uni, 0.6, endless, warmup);
    ASSERT_TRUE(cut.timed_out);
    cut_util = mean_utilization(stack.sim().channel_stats());
    if (cut.t_stop >= 4 * warmup) break;
  }
  ASSERT_GE(cut.t_stop, 4 * warmup);

  SimStack stack(sf, RoutingStrategy::kMinimal, cfg);
  const OpenLoopResult full = stack.run_open_loop(uni, 0.6, cut.t_stop, warmup);
  ASSERT_FALSE(full.timed_out);
  const double full_util = mean_utilization(stack.sim().channel_stats());
  EXPECT_GT(full_util, 0.1);
  EXPECT_NEAR(cut_util, full_util, 0.02 * full_util);

  // A stop inside the warmup measured nothing.
  SimConfig instant = cfg;
  instant.wall_limit_seconds = 1e-9;
  SimStack early(sf, RoutingStrategy::kMinimal, instant);
  const OpenLoopResult none = early.run_open_loop(uni, 0.6, endless, us(50));
  ASSERT_TRUE(none.timed_out);
  ASSERT_LT(none.t_stop, us(50));
  EXPECT_EQ(mean_utilization(early.sim().channel_stats()), 0.0);
}

TEST(Deadline, FailedPointsAreJournaledAndRerunOnResume) {
  const Topology sf = build_slim_fly(5);
  const UniformTraffic good(sf.num_nodes());
  // A traffic pattern that throws: the simulation itself fails, not the
  // harness — exactly what tolerate_failures must survive and journal.
  struct Exploding : TrafficPattern {
    int dest(int /*src_node*/, Rng& /*rng*/) const override {
      throw std::runtime_error("injector exploded");
    }
    std::string name() const override { return "exploding"; }
  };
  const Exploding bad;

  std::vector<SweepSeriesSpec> specs(2);
  specs[0].label = "good";
  specs[0].topo = &sf;
  specs[0].pattern = &good;
  specs[0].loads = {0.3};
  specs[1].label = "bad";
  specs[1].topo = &sf;
  specs[1].pattern = &bad;
  specs[1].loads = {0.3};

  const std::string dir = temp_dir("failures");
  SweepJournal j(dir, "m", false);
  SweepRunOptions opts = journal_opts(&j, 3);
  opts.jobs = 1;
  opts.point_attempts = 3;
  opts.tolerate_failures = true;

  SweepRunner runner(opts);
  const auto out = runner.run(specs);
  EXPECT_FALSE(out[0][0].failed);
  EXPECT_TRUE(out[1][0].failed);
  EXPECT_EQ(out[1][0].attempts, 3);  // every retry consumed
  EXPECT_NE(out[1][0].error.find("injector exploded"), std::string::npos);
  EXPECT_NE(out[1][0].error.find("\"bad\""), std::string::npos);  // identity
  EXPECT_EQ(runner.stats().failed_points, 1);

  // The failure is on disk with its exception text, but it does NOT count
  // as completed: a resume restores the good point and re-runs the bad one.
  SweepJournal j2(dir, "m", true);
  const JournalEntry* e = j2.find("sweep#1");
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->status, "failed");
  EXPECT_FALSE(e->completed());
  EXPECT_NE(e->error.find("injector exploded"), std::string::npos);
  SweepRunOptions ropts = journal_opts(&j2, 3);
  ropts.jobs = 1;
  ropts.point_attempts = 1;
  ropts.tolerate_failures = true;
  SweepRunner resumed(ropts);
  const auto res = resumed.run(specs);
  EXPECT_EQ(resumed.stats().restored_points, 1);
  EXPECT_TRUE(res[1][0].failed);  // still failing, freshly re-attempted
  EXPECT_EQ(res[1][0].attempts, 1);

  // Without tolerate_failures the same failure propagates as an exception.
  SweepRunOptions strict;
  strict.jobs = 1;
  strict.duration = us(4);
  strict.warmup = us(1);
  strict.config.seed = 3;
  EXPECT_THROW(SweepRunner(strict).run({specs[1]}), std::runtime_error);
}

// ----------------------------------------------------- paranoid self-audit

TEST(ParanoidAudit, HealthyAndFaultedRunsPassAndMatchNonParanoid) {
  const Topology sf = build_slim_fly(5);
  const UniformTraffic uni(sf.num_nodes());

  SimConfig cfg;
  cfg.seed = 13;
  SimStack plain(sf, RoutingStrategy::kUgal, cfg);
  const auto a = plain.run_open_loop(uni, 0.6, us(4), us(1));

  cfg.paranoid = true;
  SimStack audited(sf, RoutingStrategy::kUgal, cfg);
  const auto b = audited.run_open_loop(uni, 0.6, us(4), us(1));
  // The audit only reads state: bit-identical results, no violations.
  EXPECT_EQ(a.events_processed, b.events_processed);
  EXPECT_EQ(a.accepted_throughput, b.accepted_throughput);
  EXPECT_EQ(a.avg_latency_ns, b.avg_latency_ns);
  EXPECT_EQ(a.packets_injected, b.packets_injected);

  // Fault churn (links dying and resyncing credits) is where conservation
  // bugs would hide; the audit re-checks after every applied fault.
  SimConfig fcfg;
  fcfg.seed = 13;
  fcfg.paranoid = true;
  fcfg.fault.schedule = make_link_burst(sf, us(1.5), 4, 13, us(1));
  fcfg.fault.recovery = FaultRecovery::kSalvage;
  fcfg.fault.reroute = true;
  SimStack faulted(sf, RoutingStrategy::kUgalThreshold, fcfg);
  EXPECT_NO_THROW(faulted.run_open_loop(uni, 0.6, us(4), us(1)));

  // The same links cut for good, with the run ending at the fault instant:
  // every same-time arrival dispatches before the fault (lower event type),
  // so each reroute counted here is a packet the drain of a dead port
  // salvaged into a sibling VOQ cell of its input VC — taken from the cell
  // pool while the drain still walks that input VC.
  SimConfig ccfg = fcfg;
  ccfg.fault.schedule = make_link_burst(sf, us(1.5), 4, 13);
  SimStack cut(sf, RoutingStrategy::kUgalThreshold, ccfg);
  OpenLoopResult at_fault;
  EXPECT_NO_THROW(at_fault = cut.run_open_loop(uni, 0.6, us(1.5), us(1)));
  EXPECT_GT(at_fault.faults.reroutes, 0);
}

// ------------------------------------------------- thread pool fail-fast

TEST(ThreadPool, StopOnFirstErrorSkipsRemainingWork) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  try {
    pool.parallel_for(
        256,
        [&](std::size_t i) {
          if (i == 0) throw std::runtime_error("early failure");
          // Slow bodies: without fail-fast all 255 would still run.
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
          ran.fetch_add(1);
        },
        /*stop_on_first_error=*/true);
    FAIL() << "parallel_for must rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "early failure");
  }
  // The workers drain at most what they claimed before seeing the flag.
  EXPECT_LT(ran.load(), 255);
}

}  // namespace
}  // namespace d2net
