#include "sim/claim.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "common/error.h"

namespace d2net {

namespace fs = std::filesystem;

ClaimClock system_claim_clock() {
  ClaimClock c;
  c.now = [] {
    return std::chrono::duration<double>(
               std::chrono::system_clock::now().time_since_epoch())
        .count();
  };
  c.sleep = [](double seconds) {
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  };
  return c;
}

const char* to_string(ShardState s) {
  switch (s) {
    case ShardState::kUnclaimed: return "unclaimed";
    case ShardState::kLeased: return "leased";
    case ShardState::kStale: return "stale";
    case ShardState::kDone: return "done";
  }
  return "?";
}

namespace {

std::string read_whole_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return {};
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// Writes `content` to `path` (O_TRUNC), optionally fsyncing the file fd.
/// Returns false on any I/O failure.
bool write_file(const std::string& path, const std::string& content, bool durable) {
  const int fd = ::open(path.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
  if (fd < 0) return false;
  std::size_t off = 0;
  bool ok = true;
  while (ok && off < content.size()) {
    const ssize_t n = ::write(fd, content.data() + off, content.size() - off);
    if (n <= 0) ok = false;
    else off += static_cast<std::size_t>(n);
  }
  if (ok && durable) ok = ::fsync(fd) == 0;
  ::close(fd);
  if (!ok) ::unlink(path.c_str());
  return ok;
}

/// Seconds since the last sign of life in a lease: heartbeat_at when the
/// record parses, file mtime as the fallback for a lease torn by a dying
/// writer (it must eventually be stealable, not wedge the campaign).
double lease_age(const std::string& path, const std::string& content,
                 const ClaimClock& clock, LeaseRecord& rec, bool& parsed) {
  parsed = parse_lease(content, rec);
  if (parsed) {
    return clock.now() - std::max(rec.heartbeat_at, rec.acquired_at);
  }
  std::error_code ec;
  const auto mtime = fs::last_write_time(path, ec);
  if (ec) return 0.0;  // vanished between read and stat: treat as fresh
  const double mtime_s = std::chrono::duration<double>(
                             mtime.time_since_epoch() -
                             fs::file_time_type::clock::now().time_since_epoch())
                             .count();
  return -mtime_s;  // age = now - mtime, expressed via the file clock
}

}  // namespace

ShardClaimer::ShardClaimer(ClaimOptions opts) : opts_(std::move(opts)) {
  D2NET_REQUIRE(!opts_.dir.empty(), "claim: journal directory must not be empty");
  D2NET_REQUIRE(!opts_.worker.empty(), "claim: worker id must not be empty");
  D2NET_REQUIRE(opts_.lease_ttl > 0.0, "claim: lease TTL must be > 0");
  if (!opts_.clock.now) opts_.clock = system_claim_clock();
  std::error_code ec;
  fs::create_directories(fs::path(opts_.dir) / "leases", ec);
  D2NET_REQUIRE(!ec, "claim: cannot create lease directory under '" + opts_.dir +
                         "': " + ec.message());
  // Token: unique per (worker, process, claim) so a stealer can tell its
  // own rename-away files apart and heartbeat can detect lease loss even
  // against a same-named worker restarted after a crash.
  token_ = fnv1a64(opts_.worker) ^
           (static_cast<std::uint64_t>(::getpid()) << 32) ^
           static_cast<std::uint64_t>(
               std::chrono::steady_clock::now().time_since_epoch().count());
}

std::string ShardClaimer::lease_path(int shard) const {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "shard-%04d.lease", shard);
  return (fs::path(opts_.dir) / "leases" / buf).string();
}

std::string ShardClaimer::done_path(int shard) const {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "shard-%04d.done", shard);
  return (fs::path(opts_.dir) / "leases" / buf).string();
}

LeaseRecord ShardClaimer::make_record(int shard, double acquired_at) const {
  LeaseRecord rec;
  rec.worker = opts_.worker;
  rec.shard = shard;
  rec.spec_hash = opts_.spec_hash;
  rec.acquired_at = acquired_at;
  rec.heartbeat_at = acquired_at;
  rec.token = token_;
  return rec;
}

bool ShardClaimer::publish(const std::string& tmp_name, const LeaseRecord& rec,
                           const std::string& dest, bool exclusive) {
  const std::string tmp =
      (fs::path(opts_.dir) / "leases" / tmp_name).string();
  if (!write_file(tmp, render_lease(rec), opts_.durable)) return false;
  bool ok;
  if (exclusive) {
    // link(2): atomic publish that fails with EEXIST when the shard is
    // already claimed — the O_CREAT|O_EXCL idiom, but the lease appears
    // fully written (a reader never sees an empty claim).
    ok = ::link(tmp.c_str(), dest.c_str()) == 0;
    ::unlink(tmp.c_str());
  } else {
    ok = ::rename(tmp.c_str(), dest.c_str()) == 0;
    if (!ok) ::unlink(tmp.c_str());
  }
  if (ok && opts_.durable) {
    fsync_dir((fs::path(opts_.dir) / "leases").string());
  }
  return ok;
}

void ShardClaimer::pin_plan(int num_shards, int shard_points) {
  D2NET_REQUIRE(num_shards >= 1 && shard_points >= 1,
                "claim: shard plan must have >= 1 shard of >= 1 point");
  char hex[32];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(opts_.spec_hash));
  std::ostringstream os;
  os << "{\"shards\": " << num_shards << ", \"shard_points\": " << shard_points
     << ", \"spec_hash\": \"" << hex << "\"}\n";
  const std::string want = os.str();
  const std::string path = (fs::path(opts_.dir) / "leases" / "plan.json").string();
  const std::string tmp =
      (fs::path(opts_.dir) / "leases" /
       (".plan.tmp." + opts_.worker + "." + std::to_string(token_ & 0xffff)))
          .string();
  if (write_file(tmp, want, opts_.durable) && ::link(tmp.c_str(), path.c_str()) == 0) {
    ::unlink(tmp.c_str());
    if (opts_.durable) fsync_dir((fs::path(opts_.dir) / "leases").string());
    return;  // this worker pinned the plan
  }
  ::unlink(tmp.c_str());
  const std::string have = read_whole_file(path);
  D2NET_REQUIRE(!have.empty(), "claim: cannot pin shard plan in '" + opts_.dir + "'");
  if (have != want) {
    throw ArgumentError(
        "claim: shard plan mismatch in '" + path + "':\n  on disk: " + have +
        "  this worker: " + want +
        "all workers of one campaign must agree on --shard-points and the spec");
  }
}

bool ShardClaimer::try_claim(int shard) {
  if (is_done(shard)) return false;
  const LeaseRecord rec = make_record(shard, opts_.clock.now());
  const std::string tmp_name =
      ".claim.tmp." + opts_.worker + "." + std::to_string(shard);
  if (!publish(tmp_name, rec, lease_path(shard), /*exclusive=*/true)) return false;
  std::lock_guard<std::mutex> lock(mu_);
  owned_[shard] = rec;
  return true;
}

bool ShardClaimer::try_steal(int shard, bool* evicted) {
  if (evicted != nullptr) *evicted = false;
  if (is_done(shard)) return false;
  const std::string path = lease_path(shard);
  const std::string content = read_whole_file(path);
  if (content.empty()) return false;  // vanished (completed or being stolen)
  LeaseRecord rec;
  bool parsed = false;
  const double age = lease_age(path, content, opts_.clock, rec, parsed);
  if (parsed && rec.worker == opts_.worker && rec.token == token_) {
    return false;  // our own live lease; nothing to steal
  }
  if (age <= opts_.lease_ttl) return false;  // live (or torn but recent)
  // Rename the stale lease to a private name: exactly one stealer's rename
  // succeeds (a second gets ENOENT), so the follow-up claim race has at
  // most one ex-lease in flight.
  const std::string moved =
      (fs::path(opts_.dir) / "leases" /
       (".stale." + std::to_string(shard) + "." + opts_.worker + "." +
        std::to_string(token_ & 0xffffff)))
          .string();
  if (::rename(path.c_str(), moved.c_str()) != 0) return false;
  if (evicted != nullptr) *evicted = true;
  ::unlink(moved.c_str());
  if (opts_.durable) fsync_dir((fs::path(opts_.dir) / "leases").string());
  // The shard is now unclaimed; claim it like anyone else (a third worker
  // may still win the link race — that is a clean loss, not a protocol
  // violation).
  return try_claim(shard);
}

bool ShardClaimer::heartbeat(int shard) {
  LeaseRecord rec;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = owned_.find(shard);
    if (it == owned_.end()) return false;
    rec = it->second;
  }
  // Verify the lease on disk is still ours before refreshing: if a stealer
  // took it (TTL expired while a point ran long), renaming over their
  // lease would silently re-acquire the shard. The verify-then-rename
  // window is not atomic — the residual race is exactly the at-least-once
  // case the merge dedup absorbs — but it keeps double execution rare.
  LeaseRecord on_disk;
  if (!parse_lease(read_whole_file(lease_path(shard)), on_disk) ||
      on_disk.worker != rec.worker || on_disk.token != rec.token) {
    std::lock_guard<std::mutex> lock(mu_);
    owned_.erase(shard);
    return false;
  }
  rec.heartbeat_at = opts_.clock.now();
  const std::string tmp_name =
      ".hb.tmp." + opts_.worker + "." + std::to_string(shard);
  if (!publish(tmp_name, rec, lease_path(shard), /*exclusive=*/false)) return false;
  std::lock_guard<std::mutex> lock(mu_);
  owned_[shard] = rec;
  return true;
}

void ShardClaimer::complete(int shard) {
  // Done marker first (the durable fact), lease release second: a crash
  // between the two leaves a lease that every scanner ignores because the
  // done marker wins.
  const LeaseRecord rec = make_record(shard, opts_.clock.now());
  const std::string tmp =
      (fs::path(opts_.dir) / "leases" /
       (".done.tmp." + opts_.worker + "." + std::to_string(shard)))
          .string();
  const bool ok = write_file(tmp, render_lease(rec), opts_.durable) &&
                  ::rename(tmp.c_str(), done_path(shard).c_str()) == 0;
  D2NET_REQUIRE(ok, "claim: cannot write done marker for shard " +
                        std::to_string(shard) + " in '" + opts_.dir + "'");
  if (opts_.durable) fsync_dir((fs::path(opts_.dir) / "leases").string());
  ::unlink(lease_path(shard).c_str());
  std::lock_guard<std::mutex> lock(mu_);
  owned_.erase(shard);
}

bool ShardClaimer::is_done(int shard) const {
  std::error_code ec;
  return fs::exists(done_path(shard), ec);
}

ShardStatus ShardClaimer::inspect(int shard) const {
  ShardStatus st;
  if (is_done(shard)) {
    st.state = ShardState::kDone;
    parse_lease(read_whole_file(done_path(shard)), st.lease);
    return st;
  }
  const std::string path = lease_path(shard);
  const std::string content = read_whole_file(path);
  if (content.empty()) {
    st.state = ShardState::kUnclaimed;
    return st;
  }
  bool parsed = false;
  st.age = lease_age(path, content, opts_.clock, st.lease, parsed);
  st.state = st.age > opts_.lease_ttl ? ShardState::kStale : ShardState::kLeased;
  return st;
}

double ShardClaimer::next_backoff() {
  const double cap = std::min(2.0, opts_.lease_ttl);
  backoff_ = backoff_ <= 0.0 ? 0.05 : std::min(cap, backoff_ * 2.0);
  return backoff_;
}

}  // namespace d2net
