// Multi-worker campaign claim-protocol tests (see docs/campaigns.md,
// "Distributed campaigns"): the lease codec, claim/steal/heartbeat state
// machine under an injected clock (no sleeping), shard planning over an
// expanded campaign, journal merging with deduplication, and — the
// crash-tolerance contract — an end-to-end two-worker campaign whose
// merged output matches a single-process run.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <regex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "campaign_worker.h"
#include "common/error.h"
#include "common/journal.h"
#include "common/units.h"
#include "sim/campaign.h"
#include "sim/claim.h"

namespace d2net {
namespace {

namespace fs = std::filesystem;

// Fresh per-test directory under the build tree.
std::string temp_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("d2net_claim_" + name);
  fs::remove_all(dir);
  return dir.string();
}

// Injected clock over a shared fake "now"; sleep advances it, so TTL
// expiry is driven synchronously.
struct FakeClock {
  double t = 0.0;
  ClaimClock clock() {
    return ClaimClock{[this] { return t; }, [this](double s) { t += s; }};
  }
};

ClaimOptions claim_opts(const std::string& dir, const std::string& worker,
                        FakeClock& fc, double ttl = 10.0) {
  ClaimOptions o;
  o.dir = dir;
  o.worker = worker;
  o.spec_hash = 0xfeedbeefull;
  o.lease_ttl = ttl;
  o.durable = false;  // tests don't need power-loss guarantees
  o.clock = fc.clock();
  return o;
}

// ------------------------------------------------------------ lease codec

TEST(LeaseCodec, RoundTripsAllFields) {
  LeaseRecord in;
  in.worker = "host-3:w\"7\"";  // id with JSON-hostile characters
  in.shard = 42;
  in.spec_hash = 0xdeadbeefcafef00dull;
  in.acquired_at = 1723180000.25;
  in.heartbeat_at = 1723180009.5;
  in.token = 0x123456789abcdef0ull;

  LeaseRecord out;
  ASSERT_TRUE(parse_lease(render_lease(in), out));
  EXPECT_EQ(out.worker, in.worker);
  EXPECT_EQ(out.shard, in.shard);
  EXPECT_EQ(out.spec_hash, in.spec_hash);
  EXPECT_DOUBLE_EQ(out.acquired_at, in.acquired_at);
  EXPECT_DOUBLE_EQ(out.heartbeat_at, in.heartbeat_at);
  EXPECT_EQ(out.token, in.token);
}

TEST(LeaseCodec, RejectsTornOrCorruptInput) {
  LeaseRecord rec;
  rec.worker = "w";
  rec.shard = 1;
  const std::string full = render_lease(rec);
  LeaseRecord out;
  // A worker dying mid-write leaves a prefix: must read as unparseable.
  EXPECT_FALSE(parse_lease(full.substr(0, full.size() / 2), out));
  EXPECT_FALSE(parse_lease("", out));
  EXPECT_FALSE(parse_lease("not json at all", out));
}

// --------------------------------------------------- claim state machine

TEST(ShardClaimerTest, ClaimCompleteLifecycle) {
  const std::string dir = temp_dir("lifecycle");
  FakeClock fc;
  ShardClaimer a(claim_opts(dir, "alpha", fc));

  EXPECT_EQ(a.inspect(0).state, ShardState::kUnclaimed);
  ASSERT_TRUE(a.try_claim(0));
  EXPECT_EQ(a.inspect(0).state, ShardState::kLeased);
  EXPECT_EQ(a.inspect(0).lease.worker, "alpha");
  EXPECT_FALSE(a.is_done(0));

  a.complete(0);
  EXPECT_TRUE(a.is_done(0));
  EXPECT_EQ(a.inspect(0).state, ShardState::kDone);
  // The lease is released with the done marker.
  EXPECT_FALSE(fs::exists(a.lease_path(0)));
  // Completing twice (double execution after a steal race) is harmless.
  a.complete(0);
  // A done shard is never claimed again.
  EXPECT_FALSE(a.try_claim(0));
}

TEST(ShardClaimerTest, SecondClaimerLosesTheRace) {
  const std::string dir = temp_dir("contend");
  FakeClock fc;
  ShardClaimer a(claim_opts(dir, "alpha", fc));
  ShardClaimer b(claim_opts(dir, "beta", fc));

  ASSERT_TRUE(a.try_claim(3));
  EXPECT_FALSE(b.try_claim(3));
  EXPECT_EQ(b.inspect(3).lease.worker, "alpha");
}

TEST(ShardClaimerTest, ConcurrentClaimersPartitionTheShards) {
  const std::string dir = temp_dir("threads");
  constexpr int kShards = 32;
  FakeClock fc;
  std::vector<int> won_a, won_b;
  // Two claimers racing over every shard from two threads: each shard must
  // be won exactly once.
  std::thread ta([&] {
    ShardClaimer a(claim_opts(dir, "alpha", fc));
    for (int s = 0; s < kShards; ++s)
      if (a.try_claim(s)) won_a.push_back(s);
  });
  std::thread tb([&] {
    ShardClaimer b(claim_opts(dir, "beta", fc));
    for (int s = 0; s < kShards; ++s)
      if (b.try_claim(s)) won_b.push_back(s);
  });
  ta.join();
  tb.join();

  std::vector<char> owner(kShards, 0);
  for (int s : won_a) ++owner[static_cast<std::size_t>(s)];
  for (int s : won_b) ++owner[static_cast<std::size_t>(s)];
  for (int s = 0; s < kShards; ++s)
    EXPECT_EQ(owner[static_cast<std::size_t>(s)], 1) << "shard " << s;
}

TEST(ShardClaimerTest, HeartbeatKeepsLeaseFreshAndBlocksSteal) {
  const std::string dir = temp_dir("heartbeat");
  FakeClock fc;
  ShardClaimer a(claim_opts(dir, "alpha", fc));
  ShardClaimer b(claim_opts(dir, "beta", fc));

  ASSERT_TRUE(a.try_claim(0));
  // Just short of the TTL the lease is live: no steal.
  fc.t += 9.0;
  EXPECT_EQ(b.inspect(0).state, ShardState::kLeased);
  bool evicted = true;
  EXPECT_FALSE(b.try_steal(0, &evicted));
  EXPECT_FALSE(evicted);
  ASSERT_TRUE(a.heartbeat(0));
  // The refresh restarts the staleness window.
  fc.t += 9.0;
  EXPECT_FALSE(b.try_steal(0));
  EXPECT_EQ(b.inspect(0).state, ShardState::kLeased);
}

TEST(ShardClaimerTest, StaleLeaseIsStolenAndOwnerNoticesOnHeartbeat) {
  const std::string dir = temp_dir("steal");
  FakeClock fc;
  ShardClaimer a(claim_opts(dir, "alpha", fc));
  ShardClaimer b(claim_opts(dir, "beta", fc));

  ASSERT_TRUE(a.try_claim(0));
  fc.t += 11.0;  // past the 10s TTL: alpha is presumed dead
  EXPECT_EQ(b.inspect(0).state, ShardState::kStale);
  ASSERT_TRUE(b.try_steal(0));
  EXPECT_EQ(b.inspect(0).state, ShardState::kLeased);
  EXPECT_EQ(b.inspect(0).lease.worker, "beta");
  // The resurrected original owner must learn it lost the shard.
  EXPECT_FALSE(a.heartbeat(0));
  // ... and the thief's lease survives the failed heartbeat untouched.
  EXPECT_EQ(b.inspect(0).lease.worker, "beta");
  ASSERT_TRUE(b.heartbeat(0));
}

TEST(ShardClaimerTest, OnlyOneOfManyStealersWins) {
  const std::string dir = temp_dir("steal_race");
  FakeClock fc;
  ShardClaimer dead(claim_opts(dir, "dead", fc));
  ASSERT_TRUE(dead.try_claim(0));
  fc.t += 20.0;

  int wins = 0;
  int evictions = 0;
  for (const char* id : {"s1", "s2", "s3"}) {
    ShardClaimer s(claim_opts(dir, id, fc));
    bool evicted = true;
    if (s.try_steal(0, &evicted)) ++wins;
    if (evicted) ++evictions;
  }
  EXPECT_EQ(wins, 1);
  // Exactly one stealer renamed the stale lease away, and it reports so.
  EXPECT_EQ(evictions, 1);
}

TEST(ShardClaimerTest, RestartedWorkerStealsItsOwnStaleLease) {
  // Same worker id, new process (new token): the restart must be able to
  // take over the lease its previous incarnation left behind.
  const std::string dir = temp_dir("restart");
  FakeClock fc;
  {
    ShardClaimer first(claim_opts(dir, "alpha", fc));
    ASSERT_TRUE(first.try_claim(0));
  }  // process "dies" without completing
  fc.t += 11.0;
  ShardClaimer second(claim_opts(dir, "alpha", fc));
  EXPECT_FALSE(second.try_claim(0));  // lease file still there
  EXPECT_TRUE(second.try_steal(0));
  ASSERT_TRUE(second.heartbeat(0));
}

TEST(ShardClaimerTest, LiveOwnLeaseIsNotStolen) {
  const std::string dir = temp_dir("own_live");
  FakeClock fc;
  ShardClaimer a(claim_opts(dir, "alpha", fc));
  ASSERT_TRUE(a.try_claim(0));
  // A worker scanning for work must never steal the shard it is itself
  // heartbeating, no matter the clock.
  EXPECT_FALSE(a.try_steal(0));
}

TEST(ShardClaimerTest, TornLeaseAgesByMtimeAndBecomesStealable) {
  const std::string dir = temp_dir("torn_lease");
  FakeClock fc;
  ShardClaimer b(claim_opts(dir, "beta", fc, /*ttl=*/0.01));
  {
    std::ofstream out(b.lease_path(0), std::ios::binary);
    out << "{\"worker\": \"al";  // writer died mid-write
  }
  // The file's mtime (real clock) must age the unparseable lease: wait out
  // the tiny TTL in wall time.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(b.inspect(0).state, ShardState::kStale);
  EXPECT_TRUE(b.try_steal(0));
  EXPECT_EQ(b.inspect(0).lease.worker, "beta");
}

TEST(ShardClaimerTest, CrashBetweenClaimAndFirstJournalEntryRecovers) {
  // The narrowest recovery window: a worker claims a shard, then dies
  // before writing a single journal entry. Another worker must steal the
  // lease, execute the shard from scratch and complete it.
  const std::string dir = temp_dir("claim_then_die");
  FakeClock fc;
  {
    ShardClaimer victim(claim_opts(dir, "victim", fc));
    ASSERT_TRUE(victim.try_claim(0));
  }  // SIGKILL: no journal entries, no heartbeats, lease left behind
  fc.t += 11.0;

  ShardClaimer survivor(claim_opts(dir, "survivor", fc));
  ASSERT_TRUE(survivor.try_steal(0));
  // "Execute" the shard: the survivor records the point in its own journal.
  {
    SweepJournal j(dir + "/workers/survivor", "manifest", /*resume=*/false);
    j.register_scope("s");
    JournalEntry e;
    e.key = "s#0";
    e.label = "L";
    e.topo = "r=1,n=1,l=1";
    e.seed = 7;
    e.status = "ok";
    e.payload = "{}";
    j.append(e);
  }
  survivor.complete(0);
  EXPECT_TRUE(survivor.is_done(0));

  // Merging sees the survivor's record; nothing is missing.
  SweepJournal top(dir, "manifest", /*resume=*/false);
  const CampaignMergeStats stats = merge_worker_journals(dir, {{"s", 1}});
  EXPECT_EQ(stats.expected, 1u);
  EXPECT_EQ(stats.merged, 1u);
  EXPECT_EQ(stats.missing, 0u);
}

TEST(ShardClaimerTest, PinPlanFirstWinsAndMismatchIsLoud) {
  const std::string dir = temp_dir("pin_plan");
  FakeClock fc;
  ShardClaimer a(claim_opts(dir, "alpha", fc));
  a.pin_plan(6, 2);
  // Same plan: fine (every later worker re-pins on startup).
  ShardClaimer b(claim_opts(dir, "beta", fc));
  b.pin_plan(6, 2);
  // Different shard geometry over one journal would corrupt the campaign.
  EXPECT_THROW(b.pin_plan(5, 2), ArgumentError);
  EXPECT_THROW(b.pin_plan(6, 3), ArgumentError);
  // A different campaign (spec hash) must not share the lease directory.
  ClaimOptions other = claim_opts(dir, "gamma", fc);
  other.spec_hash = 0x1234;
  ShardClaimer c(other);
  EXPECT_THROW(c.pin_plan(6, 2), ArgumentError);
}

TEST(ShardClaimerTest, BackoffIsBoundedExponential) {
  const std::string dir = temp_dir("backoff");
  FakeClock fc;
  ShardClaimer a(claim_opts(dir, "alpha", fc, /*ttl=*/30.0));
  EXPECT_DOUBLE_EQ(a.next_backoff(), 0.05);
  EXPECT_DOUBLE_EQ(a.next_backoff(), 0.1);
  EXPECT_DOUBLE_EQ(a.next_backoff(), 0.2);
  double last = 0.0;
  for (int i = 0; i < 20; ++i) last = a.next_backoff();
  EXPECT_DOUBLE_EQ(last, 2.0);  // capped at min(2, TTL)
  a.reset_backoff();
  EXPECT_DOUBLE_EQ(a.next_backoff(), 0.05);

  // With a TTL below the 2s cap, the TTL caps the backoff: waiting longer
  // than the staleness window would delay steals pointlessly.
  ShardClaimer b(claim_opts(dir, "beta", fc, /*ttl=*/0.5));
  double cap = 0.0;
  for (int i = 0; i < 20; ++i) cap = b.next_backoff();
  EXPECT_DOUBLE_EQ(cap, 0.5);
}

// --------------------------------------------------------- shard planning

CampaignSpec mini_spec() {
  const std::string text = R"({
    "name": "claim_mini",
    "systems": [{"label": "SF q=5", "topology": "sf:q=5"}],
    "sweeps": [
      {"title": "mini sweep", "traffic": "uniform", "loads": [0.3, 0.5],
       "series": [{"routing": "min"}]},
      {"title": "mini exchange", "kind": "exchange", "bytes_per_pair": 64,
       "order": "shuffled", "time_limit_us": 5000000,
       "series": [{"routing": "min"}]}
    ]
  })";
  return parse_campaign_spec(text, "<test>");
}

TEST(ShardPlanning, ShardsNeverSpanStepsAndCoverEveryPoint) {
  const CampaignSpec spec = mini_spec();
  const CampaignParams params{false, 1, us(4.0), us(1.0)};
  const ExpandedCampaign plan = expand_campaign(spec, params);

  ASSERT_EQ(plan.steps.size(), 2u);
  EXPECT_EQ(step_point_count(plan.steps[0]), 2u);  // 1 series x 2 loads
  EXPECT_EQ(step_point_count(plan.steps[1]), 1u);  // 1 exchange row

  const std::vector<CampaignScope> scopes = campaign_scopes(plan);
  ASSERT_EQ(scopes.size(), 2u);
  EXPECT_EQ(scopes[0].scope, "mini sweep");
  EXPECT_EQ(scopes[0].points, 2u);
  EXPECT_EQ(scopes[1].scope, "mini exchange (64 B/pair, shuffled+interleaved)");
  EXPECT_EQ(scopes[1].points, 1u);

  const std::vector<CampaignShard> shards = plan_campaign_shards(plan, 1);
  ASSERT_EQ(shards.size(), 3u);
  for (std::size_t i = 0; i < shards.size(); ++i)
    EXPECT_EQ(shards[i].id, static_cast<int>(i));
  EXPECT_EQ(shards[0].step, 0u);
  EXPECT_EQ(shards[1].step, 0u);
  EXPECT_EQ(shards[2].step, 1u);
  EXPECT_EQ(shards[0].begin, 0u);
  EXPECT_EQ(shards[0].end, 1u);
  EXPECT_EQ(shards[1].begin, 1u);
  EXPECT_EQ(shards[1].end, 2u);

  // A shard size that doesn't divide a step still never spans steps: the
  // sweep step's last shard is simply short.
  const std::vector<CampaignShard> wide = plan_campaign_shards(plan, 100);
  ASSERT_EQ(wide.size(), 2u);
  EXPECT_EQ(wide[0].step, 0u);
  EXPECT_EQ(wide[0].end, 2u);
  EXPECT_EQ(wide[1].step, 1u);
  EXPECT_EQ(wide[1].end, 1u);
}

// ----------------------------------------------------------------- merge

JournalEntry make_entry(const std::string& key, const std::string& status,
                        double throughput = 0.5) {
  JournalEntry e;
  e.key = key;
  e.label = "L";
  e.topo = "r=1,n=1,l=1";
  e.seed = 7;
  e.status = status;
  e.throughput = throughput;
  if (status == "failed")
    e.error = "boom";
  else
    e.payload = "{\"x\": 1}";
  return e;
}

void write_worker_journal(const std::string& dir, const std::string& worker,
                          const std::string& manifest,
                          const std::vector<JournalEntry>& entries) {
  SweepJournal j(dir + "/workers/" + worker, manifest, /*resume=*/false,
                 JournalOptions{false, worker});
  j.register_scope("s");
  for (const JournalEntry& e : entries) j.append(e);
}

TEST(MergeWorkerJournals, DeduplicatesWithCompletedWinning) {
  const std::string dir = temp_dir("merge_dedup");
  const std::string manifest = "m";
  { SweepJournal top(dir, manifest, /*resume=*/false); }

  // alpha ran s#0 ok and s#1 failed; beta double-executed s#0 (steal race)
  // and re-ran s#1 successfully, plus s#2.
  write_worker_journal(dir, "alpha", manifest,
                       {make_entry("s#0", "ok"), make_entry("s#1", "failed")});
  write_worker_journal(dir, "beta", manifest,
                       {make_entry("s#0", "ok"), make_entry("s#1", "ok"),
                        make_entry("s#2", "timed_out")});

  const CampaignMergeStats stats = merge_worker_journals(dir, {{"s", 3}});
  EXPECT_EQ(stats.workers, 2u);
  EXPECT_EQ(stats.expected, 3u);
  EXPECT_EQ(stats.merged, 3u);
  EXPECT_EQ(stats.missing, 0u);
  EXPECT_EQ(stats.duplicates, 2u);  // s#0 and s#1 each recorded twice
  EXPECT_EQ(stats.failed, 0u);

  // The merged journal holds every key once, in expansion order, with the
  // deterministic winner: completed beats failed, ties go to the
  // lexicographically-first worker.
  std::ifstream in(dir + "/journal.jsonl");
  std::string line;
  std::vector<JournalEntry> merged;
  while (std::getline(in, line)) {
    JournalEntry e;
    ASSERT_TRUE(SweepJournal::parse_line(line, e)) << line;
    merged.push_back(e);
  }
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_EQ(merged[0].key, "s#0");
  EXPECT_EQ(merged[0].worker, "alpha");  // tie between two "ok" copies
  EXPECT_EQ(merged[1].key, "s#1");
  EXPECT_EQ(merged[1].worker, "beta");  // "ok" beats alpha's "failed"
  EXPECT_EQ(merged[1].status, "ok");
  EXPECT_EQ(merged[2].key, "s#2");
  EXPECT_EQ(merged[2].status, "timed_out");
}

TEST(MergeWorkerJournals, KeepsFailedEntriesAndCountsMissing) {
  const std::string dir = temp_dir("merge_missing");
  const std::string manifest = "m";
  { SweepJournal top(dir, manifest, /*resume=*/false); }
  // Only 2 of 4 expected points recorded; one of them permanently failed.
  write_worker_journal(dir, "alpha", manifest,
                       {make_entry("s#1", "failed"), make_entry("s#3", "ok")});

  const CampaignMergeStats stats = merge_worker_journals(dir, {{"s", 4}});
  EXPECT_EQ(stats.expected, 4u);
  EXPECT_EQ(stats.merged, 2u);
  EXPECT_EQ(stats.missing, 2u);
  EXPECT_EQ(stats.duplicates, 0u);
  // Failed points are merged, not dropped: the post-merge resume run
  // re-executes them exactly as a solo --resume would.
  EXPECT_EQ(stats.failed, 1u);
}

TEST(MergeWorkerJournals, RejectsWorkerWithMismatchedManifest) {
  const std::string dir = temp_dir("merge_mismatch");
  { SweepJournal top(dir, "campaign config A", /*resume=*/false); }
  write_worker_journal(dir, "alpha", "campaign config A", {make_entry("s#0", "ok")});
  write_worker_journal(dir, "rogue", "campaign config B", {make_entry("s#1", "ok")});
  EXPECT_THROW(merge_worker_journals(dir, {{"s", 2}}), ArgumentError);
}

TEST(MergeWorkerJournals, RequiresTopManifestAndWorkers) {
  const std::string dir = temp_dir("merge_empty");
  fs::create_directories(dir);
  EXPECT_THROW(merge_worker_journals(dir, {{"s", 1}}), ArgumentError);
  { SweepJournal top(dir, "m", /*resume=*/false); }
  EXPECT_THROW(merge_worker_journals(dir, {{"s", 1}}), ArgumentError);
}

// ----------------------------------------------- end-to-end two workers

// Strips the fields that legitimately differ between two executions of the
// same deterministic campaign (wall-clock timing) before comparing output.
std::string normalize_json(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  static const std::regex kTiming(
      "\"(wall_seconds|events_per_second)\": [-0-9.e+]+");
  return std::regex_replace(os.str(), kTiming, "\"$1\": X");
}

TEST(DistributedCampaign, TwoWorkersMergeByteIdenticalToSolo) {
  const CampaignSpec spec = mini_spec();
  bench::BenchOptions opts;
  opts.duration = us(4.0);
  opts.warmup = us(1.0);
  opts.seed = 1;
  opts.jobs = 1;
  const CampaignParams params{opts.full, opts.seed, opts.duration, opts.warmup};
  const ExpandedCampaign plan = expand_campaign(spec, params);
  const std::string extra = "spec=<test>\n";

  // Reference: one process, one journal.
  const std::string solo_dir = temp_dir("e2e_solo");
  const std::string solo_json = solo_dir + ".json";
  bench::BenchOptions solo = opts;
  solo.journal_dir = solo_dir;
  solo.json_path = solo_json;
  ASSERT_EQ(bench::execute_campaign(spec, plan, solo, extra), 0);

  // Two cooperating workers over one shared journal directory.
  const std::string dist_dir = temp_dir("e2e_dist");
  auto worker = [&](const std::string& id) {
    bench::BenchOptions w = opts;
    w.journal_dir = dist_dir;
    w.journal_durable = true;
    w.journal_worker = id;
    bench::CampaignWorkerOptions wopts;
    wopts.workers = 2;
    wopts.worker_id = id;
    wopts.lease_ttl = 60.0;  // no steals expected in a healthy run
    wopts.shard_points = 1;
    EXPECT_EQ(bench::run_campaign_worker(spec, plan, w, extra, wopts), 0);
  };
  std::thread t1(worker, "alpha");
  std::thread t2(worker, "beta");
  t1.join();
  t2.join();

  const CampaignMergeStats stats =
      merge_worker_journals(dist_dir, campaign_scopes(plan));
  EXPECT_EQ(stats.expected, 3u);
  EXPECT_EQ(stats.merged, 3u);
  EXPECT_EQ(stats.missing, 0u);
  EXPECT_EQ(stats.failed, 0u);

  // Presenting the merged journal through the ordinary resume path must
  // reproduce the solo run's JSON byte-for-byte (modulo wall-clock
  // timing) — the determinism contract of the whole protocol.
  const std::string merged_json = dist_dir + ".json";
  bench::BenchOptions merged = opts;
  merged.journal_dir = dist_dir;
  merged.resume = true;
  merged.json_path = merged_json;
  ASSERT_EQ(bench::execute_campaign(spec, plan, merged, extra), 0);
  EXPECT_EQ(normalize_json(solo_json), normalize_json(merged_json));
}

}  // namespace
}  // namespace d2net
