#include "campaign_worker.h"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <mutex>
#include <set>
#include <sstream>
#include <thread>

#include "common/error.h"
#include "common/json.h"
#include "common/table.h"

namespace d2net::bench {

namespace fs = std::filesystem;

// ---------------------------------------------------------- solo executor

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
      std::vector<ExchangeRowSpec> rows;
      for (const CampaignExchangeRow& r : ex.rows) {
        rows.push_back({r.system, r.topo, r.strategy});
      }
      const auto done = run_exchange_table(ex.title, rows, ex.bytes_per_pair, ex.order,
                                           ex.time_limit, opts, &report);
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

// ------------------------------------------------------------- worker mode

namespace {

/// Installs `<dir>/manifest.json` atomically if absent (first worker wins,
/// via link(2) like a lease claim), then validates the installed text
/// against `text`. The top-level journal.jsonl is deliberately NOT touched
/// — it is the --merge step's output, and a worker opening it for write
/// would truncate merged results.
void ensure_top_manifest(const std::string& dir, const std::string& text) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  D2NET_REQUIRE(!ec, "cannot create journal directory '" + dir + "': " + ec.message());
  const fs::path manifest = fs::path(dir) / "manifest.json";
  for (int attempt = 0; attempt < 2; ++attempt) {
    std::string prev;
    std::uint64_t prev_hash = 0;
    if (read_journal_manifest(dir, prev, prev_hash)) {
      if (prev != text) {
        throw ArgumentError(
            "journal manifest mismatch in '" + dir +
            "': another worker started this campaign under a different "
            "configuration.\n--- journal manifest ---\n" + prev +
            "--- this worker ---\n" + text +
            "All workers of one campaign must share spec, seed, duration and "
            "scale flags.");
      }
      return;
    }
    // The exact document SweepJournal writes, so the --merge invocation's
    // resume validates against it unchanged.
    char hex[32];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(fnv1a64(text)));
    const fs::path tmp =
        fs::path(dir) / ("manifest.json.tmp." + std::to_string(::getpid()));
    {
      std::ofstream mf(tmp, std::ios::trunc);
      mf << "{\"hash\": \"" << hex << "\", \"manifest\": \"" << json_escape(text)
         << "\"}\n";
      mf.flush();
      D2NET_REQUIRE(mf.good(), "cannot write journal manifest in '" + dir + "'");
    }
    if (::link(tmp.c_str(), manifest.c_str()) == 0) {
      ::unlink(tmp.c_str());
      fsync_dir(dir);
      return;
    }
    ::unlink(tmp.c_str());  // lost the race: loop once to validate theirs
  }
  throw ArgumentError("cannot install journal manifest in '" + dir + "'");
}

std::size_t campaign_point_total(const ExpandedCampaign& plan) {
  std::size_t total = 0;
  for (const CampaignStep& step : plan.steps) total += step_point_count(step);
  return total;
}

/// Auto shard granularity: ~4 shards per worker, so a straggler costs at
/// most a quarter of one worker's share and steals stay coarse enough to
/// amortize claim traffic.
int effective_shard_points(const ExpandedCampaign& plan,
                           const CampaignWorkerOptions& wopts) {
  if (wopts.shard_points > 0) return wopts.shard_points;
  const std::size_t total = campaign_point_total(plan);
  const std::size_t target = static_cast<std::size_t>(wopts.workers) * 4;
  return static_cast<int>(std::max<std::size_t>(1, (total + target - 1) / target));
}

}  // namespace

int run_campaign_worker(const CampaignSpec& spec, const ExpandedCampaign& plan,
                        const BenchOptions& opts, const std::string& manifest_extra,
                        const CampaignWorkerOptions& wopts) {
  D2NET_REQUIRE(!opts.journal_dir.empty(), "--workers requires --journal=<dir>");
  D2NET_REQUIRE(!wopts.worker_id.empty(), "worker mode requires a worker id");
  D2NET_REQUIRE(wopts.lease_ttl > 0.0, "--lease-ttl must be > 0");
  const std::string& id = wopts.worker_id;
  auto logf = [&](const char* fmt, auto... args) {
    std::string f = "[worker %s] " + std::string(fmt) + "\n";
    std::fprintf(stderr, f.c_str(), id.c_str(), args...);
  };

  const std::string manifest_text = bench_manifest(spec.name, opts) + manifest_extra;
  ensure_top_manifest(opts.journal_dir, manifest_text);

  const int shard_points = effective_shard_points(plan, wopts);
  const std::vector<CampaignShard> shards = plan_campaign_shards(plan, shard_points);

  ClaimOptions copts;
  copts.dir = opts.journal_dir;
  copts.worker = id;
  copts.spec_hash = fnv1a64(manifest_text);
  copts.lease_ttl = wopts.lease_ttl;
  copts.durable = opts.journal_durable;
  copts.clock = wopts.clock;
  ShardClaimer claimer(std::move(copts));
  claimer.pin_plan(static_cast<int>(shards.size()), shard_points);

  // This worker's own crash-safe journal: resume on, so a restarted worker
  // skips its previously completed points even inside a re-claimed shard.
  JournalOptions jopts;
  jopts.durable = opts.journal_durable;
  jopts.worker = id;
  SweepJournal journal((fs::path(opts.journal_dir) / "workers" / id).string(),
                       manifest_text, /*resume=*/true, std::move(jopts));

  // Chaos-drill hook: hold the first claimed shard (heartbeating, not yet
  // journaling) for this many seconds. A kill -9 in the window is exactly
  // the claim-before-first-entry crash the steal path must absorb.
  double hold_seconds = 0.0;
  if (const char* hold = std::getenv("D2NET_CAMPAIGN_HOLD")) {
    hold_seconds = std::strtod(hold, nullptr);
  }
  bool held = false;

  std::set<std::string> registered_scopes;
  std::int64_t executed_points = 0, failed_points = 0;
  std::size_t executed_shards = 0, stolen_shards = 0;

  auto execute_shard = [&](const CampaignShard& sh) {
    // Heartbeat alongside execution: cadence well under the TTL, on the
    // wall clock (the injected clock only decides the timestamps and
    // staleness math). Stops refreshing — but never aborts the running
    // simulation — once the lease is lost; the duplicate work that can
    // follow is the documented at-least-once case merge dedup absorbs.
    std::mutex hb_mu;
    std::condition_variable hb_cv;
    bool hb_stop = false;
    const double period = std::min(5.0, std::max(0.05, wopts.lease_ttl / 3.0));
    std::thread hb([&] {
      std::unique_lock<std::mutex> lock(hb_mu);
      while (!hb_cv.wait_for(lock, std::chrono::duration<double>(period),
                             [&] { return hb_stop; })) {
        lock.unlock();
        const bool alive = claimer.heartbeat(sh.id);
        lock.lock();
        if (!alive) {
          logf("lost lease on shard %d (stolen after TTL); finishing anyway — "
               "merge dedups",
               sh.id);
          return;
        }
      }
    });
    struct HbGuard {
      std::mutex& mu;
      std::condition_variable& cv;
      bool& stop;
      std::thread& t;
      ~HbGuard() {
        {
          std::lock_guard<std::mutex> lock(mu);
          stop = true;
        }
        cv.notify_all();
        t.join();
      }
    } guard{hb_mu, hb_cv, hb_stop, hb};

    if (hold_seconds > 0.0 && !held) {
      held = true;
      logf("holding shard %d for %.1fs (D2NET_CAMPAIGN_HOLD)", sh.id, hold_seconds);
      claimer.options().clock.sleep(hold_seconds);
    }

    const CampaignStep& step = plan.steps[sh.step];
    const std::string scope = step_scope(step);
    const std::size_t total = step_point_count(step);
    std::vector<char> mask(total, 0);
    for (std::size_t i = sh.begin; i < sh.end; ++i) mask[i] = 1;
    const bool first_visit = registered_scopes.insert(scope).second;

    if (step.load) {
      SweepRunOptions ropts = opts.sweep_options();
      ropts.journal = &journal;
      ropts.scope = scope;
      ropts.register_scope = first_visit;
      ropts.tolerate_failures = true;
      ropts.serialize = [](const SweepPoint& pt) { return render_point_json(pt); };
      ropts.selected = &mask;
      SweepRunner runner(ropts);
      runner.run(step.load->series);
      executed_points += runner.stats().points - runner.stats().restored_points;
      failed_points += runner.stats().failed_points;
    } else {
      const CampaignExchangeSweep& ex = *step.exchange;
      std::vector<ExchangeRowSpec> rows;
      for (const CampaignExchangeRow& r : ex.rows) {
        rows.push_back({r.system, r.topo, r.strategy});
      }
      ExchangeRunControl ctl;
      ctl.selected = &mask;
      ctl.register_scope = first_visit;
      ctl.quiet = true;
      ctl.journal = &journal;
      run_exchange_table(ex.title, rows, ex.bytes_per_pair, ex.order, ex.time_limit,
                         opts, /*report=*/nullptr, &ctl);
      executed_points += static_cast<std::int64_t>(sh.end - sh.begin);
    }
  };

  logf("joining campaign '%s': %zu shard(s) of <= %d point(s), lease TTL %.1fs",
       spec.name.c_str(), shards.size(), shard_points, wopts.lease_ttl);

  while (true) {
    bool all_done = true;
    bool progress = false;
    for (const CampaignShard& sh : shards) {
      if (claimer.is_done(sh.id)) continue;
      all_done = false;
      if (!claimer.try_claim(sh.id)) {
        // Whoever renames the stale lease away logs it, even when another
        // worker then wins the re-claim.
        bool evicted = false;
        const bool stolen = claimer.try_steal(sh.id, &evicted);
        if (evicted) {
          logf("evicted stale lease on shard %d%s", sh.id,
               stolen ? "" : " (another worker re-claimed it)");
        }
        if (!stolen) continue;  // live lease or lost race
        ++stolen_shards;
      }
      claimer.reset_backoff();
      logf("executing shard %d: %s points [%zu, %zu)", sh.id,
           step_scope(plan.steps[sh.step]).c_str(), sh.begin, sh.end);
      execute_shard(sh);
      claimer.complete(sh.id);
      ++executed_shards;
      progress = true;
    }
    if (all_done) break;
    if (!progress) {
      // Everything unfinished is leased to live workers: back off (bounded
      // exponential) and rescan — either they complete, or their leases go
      // stale and the next pass steals.
      claimer.options().clock.sleep(claimer.next_backoff());
    }
  }

  logf("campaign complete: executed %zu shard(s) (%lld point(s), %zu stolen), "
       "%lld point(s) failed permanently%s",
       executed_shards, static_cast<long long>(executed_points), stolen_shards,
       static_cast<long long>(failed_points),
       failed_points > 0 ? " — failures aggregate at --merge" : "");
  return 0;
}

// -------------------------------------------------------------- merge mode

int run_campaign_merge(const CampaignSpec& spec, const ExpandedCampaign& plan,
                       BenchOptions opts, const std::string& manifest_extra) {
  D2NET_REQUIRE(!opts.journal_dir.empty(), "--merge requires --journal=<dir>");
  const CampaignMergeStats st =
      merge_worker_journals(opts.journal_dir, campaign_scopes(plan));
  std::printf("merged %zu worker journal(s): %zu/%zu point(s), %zu duplicate(s) "
              "deduplicated, %zu missing, %zu failed\n",
              st.workers, st.merged, st.expected, st.duplicates, st.missing,
              st.failed);
  if (st.missing > 0) {
    std::fprintf(stderr,
                 "warning: %zu point(s) missing from every worker journal; "
                 "executing them in this process\n",
                 st.missing);
  }
  // Present through the ordinary resume path: restored points splice their
  // journaled payloads back verbatim, so stdout/--json is byte-identical
  // to a single-process run of the same spec.
  opts.resume = true;
  return execute_campaign(spec, plan, opts, manifest_extra);
}

// ------------------------------------------------------------- status mode

int print_campaign_status(const ExpandedCampaign& plan, const BenchOptions& opts,
                          double lease_ttl) {
  D2NET_REQUIRE(!opts.journal_dir.empty(), "--status requires --journal=<dir>");
  const std::string& dir = opts.journal_dir;

  const fs::path plan_path = fs::path(dir) / "leases" / "plan.json";
  std::ifstream plan_in(plan_path);
  if (!plan_in) {
    std::printf("no shard plan in %s — no worker has started this campaign\n",
                plan_path.string().c_str());
    return 1;
  }
  std::ostringstream plan_buf;
  plan_buf << plan_in.rdbuf();
  int num_shards = 0, shard_points = 0;
  try {
    const JsonValue doc = parse_json(plan_buf.str(), plan_path.string());
    if (const JsonValue* v = doc.find("shards")) num_shards = static_cast<int>(v->integer);
    if (const JsonValue* v = doc.find("shard_points")) {
      shard_points = static_cast<int>(v->integer);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cannot parse %s: %s\n", plan_path.string().c_str(), e.what());
    return 1;
  }
  D2NET_REQUIRE(num_shards >= 1 && shard_points >= 1,
                "shard plan in '" + plan_path.string() + "' is malformed");

  const std::vector<CampaignShard> shards = plan_campaign_shards(plan, shard_points);
  if (static_cast<int>(shards.size()) != num_shards) {
    std::fprintf(stderr,
                 "warning: spec expands to %zu shard(s) but the journal plan "
                 "records %d — the spec or flags differ from the running "
                 "campaign\n",
                 shards.size(), num_shards);
  }

  // Per-shard executed/failed counts, from the worker journals alone.
  std::vector<std::int64_t> ok_counts(shards.size(), 0), failed_counts(shards.size(), 0);
  // scope -> (step index) for key attribution; keys are "<scope>#<index>".
  std::map<std::string, std::size_t> step_by_scope;
  for (std::size_t s = 0; s < plan.steps.size(); ++s) {
    step_by_scope[step_scope(plan.steps[s])] = s;
  }
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(fs::path(dir) / "workers", ec)) {
    if (!entry.is_directory()) continue;
    std::ifstream in(entry.path() / "journal.jsonl");
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty()) continue;
      JournalEntry e;
      if (!SweepJournal::parse_line(line, e)) continue;
      const std::size_t hash_pos = e.key.rfind('#');
      if (hash_pos == std::string::npos) continue;
      const auto it = step_by_scope.find(e.key.substr(0, hash_pos));
      if (it == step_by_scope.end()) continue;
      const std::size_t index = std::strtoull(e.key.c_str() + hash_pos + 1, nullptr, 10);
      for (std::size_t s = 0; s < shards.size(); ++s) {
        if (shards[s].step == it->second && index >= shards[s].begin &&
            index < shards[s].end) {
          (e.status == "failed" ? failed_counts : ok_counts)[s] += 1;
          break;
        }
      }
    }
  }

  ClaimOptions copts;
  copts.dir = dir;
  copts.worker = "status";  // inspect-only; never claims
  copts.lease_ttl = lease_ttl;
  copts.durable = false;
  ShardClaimer claimer(std::move(copts));

  std::printf("campaign shards in %s (%d shard(s) x <= %d point(s), lease TTL %.1fs):\n",
              dir.c_str(), num_shards, shard_points, lease_ttl);
  Table t({"shard", "scope", "points", "state", "worker", "hb age (s)", "ok", "failed"});
  std::size_t done = 0, leased = 0, stale = 0;
  for (const CampaignShard& sh : shards) {
    const ShardStatus st = claimer.inspect(sh.id);
    done += st.state == ShardState::kDone ? 1 : 0;
    leased += st.state == ShardState::kLeased ? 1 : 0;
    stale += st.state == ShardState::kStale ? 1 : 0;
    const bool has_lease =
        st.state == ShardState::kLeased || st.state == ShardState::kStale;
    t.add(sh.id, step_scope(plan.steps[sh.step]),
          std::to_string(sh.begin) + ".." + std::to_string(sh.end - 1),
          to_string(st.state),
          st.lease.worker.empty() ? "-" : st.lease.worker,
          has_lease ? fmt(st.age, 1) : "-", ok_counts[sh.id], failed_counts[sh.id]);
  }
  t.print(std::cout);
  std::printf("summary: %zu/%zu done, %zu leased, %zu stale, %zu unclaimed\n", done,
              shards.size(), leased, stale,
              shards.size() - done - leased - stale);
  return 0;
}

}  // namespace d2net::bench
