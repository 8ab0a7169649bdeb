// Lease-based shard claiming for multi-worker campaigns (see
// docs/campaigns.md, "Distributed campaigns").
//
// N independent d2net_campaign processes — on one host or many sharing a
// filesystem — cooperatively execute one campaign by claiming *shards*
// (contiguous slices of the deterministic expanded point list) through
// lease files in `<journal>/leases/`. The protocol is built entirely from
// atomic filesystem primitives, so it needs no coordinator and survives
// any worker dying at any moment:
//
//  - **Claim** — `link(tmp, shard-<id>.lease)` publishes a fully written
//    lease atomically; link(2) fails with EEXIST when the shard is already
//    claimed, so exactly one contender wins and no reader ever sees a
//    half-written lease.
//  - **Heartbeat** — the owner periodically rewrites its lease (tmp +
//    atomic rename) with a fresh `heartbeat_at`. A lease whose heartbeat
//    is older than the TTL is *stale*: its worker is presumed dead or
//    wedged.
//  - **Steal** — a stale lease is taken over by first renaming it away to
//    a private name (exactly one stealer's rename succeeds; rename of a
//    missing path fails with ENOENT) and then claiming the shard afresh.
//  - **Complete** — an atomic `shard-<id>.done` marker; done shards are
//    never claimed again.
//
// The protocol guarantees *at-least-once* execution, not exactly-once: in
// the narrow race where an owner's heartbeat resurrects a lease that was
// just stolen, two workers can run the same shard. That is safe by
// design — every executed point lands in the executing worker's own
// journal, and the merge step deduplicates by point key, picking a
// deterministic winner (results are deterministic functions of the seed,
// so duplicates carry identical payloads). Leases exist to make double
// work rare, not to make it impossible.
//
// Staleness compares wall-clock timestamps written by (possibly) another
// host, so multi-host deployments need clocks synchronized to well under
// the TTL — the same assumption every lease system on a shared filesystem
// makes. The clock is injected (ClaimClock) so TTL logic is unit-testable
// without sleeping.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>

#include "common/journal.h"

namespace d2net {

/// Injected time source. `now` returns seconds since the Unix epoch (the
/// shared wall clock — leases are compared across processes and hosts);
/// `sleep` blocks for the given seconds. Tests substitute both to drive
/// TTL expiry synchronously.
struct ClaimClock {
  std::function<double()> now;
  std::function<void(double)> sleep;
};

/// The real wall clock (std::chrono::system_clock + sleep_for).
ClaimClock system_claim_clock();

struct ClaimOptions {
  std::string dir;     ///< campaign journal directory (leases live in dir/leases)
  std::string worker;  ///< this worker's id; must be non-empty
  /// Manifest hash pinned in every lease and in the shard-plan file: two
  /// workers disagreeing about the campaign must fail loudly, not share a
  /// lease directory.
  std::uint64_t spec_hash = 0;
  /// A lease whose heartbeat is older than this is stale and stealable.
  double lease_ttl = 60.0;
  /// fsync the lease directory after create/rename, so a claim acked to
  /// the protocol survives host power loss (JournalOptions::durable's
  /// sibling).
  bool durable = true;
  /// Time source; defaults to system_claim_clock() when `now` is empty.
  ClaimClock clock;
};

enum class ShardState {
  kUnclaimed,  ///< no lease, no done marker
  kLeased,     ///< live lease (heartbeat within TTL)
  kStale,      ///< lease present but heartbeat older than TTL
  kDone,       ///< completion marker present
};

const char* to_string(ShardState s);

/// Point-in-time view of one shard (for --status and the steal scan).
struct ShardStatus {
  ShardState state = ShardState::kUnclaimed;
  LeaseRecord lease;  ///< valid when state is kLeased/kStale (best effort)
  double age = 0.0;   ///< seconds since last heartbeat (kLeased/kStale)
};

/// One worker's handle on the lease directory: claim → heartbeat →
/// complete (or lose the lease and move on). Methods are safe to call
/// from a heartbeat thread concurrently with the claim loop as long as
/// each shard is driven by one thread at a time per process.
class ShardClaimer {
 public:
  explicit ShardClaimer(ClaimOptions opts);

  /// Pins the shard plan (shard count + points per shard + spec hash) in
  /// the lease directory: the first worker writes it atomically, every
  /// later worker must match — two workers planning different shard
  /// boundaries over one journal would corrupt the campaign. Throws
  /// ArgumentError on mismatch.
  void pin_plan(int num_shards, int shard_points);

  /// Attempts to claim an unclaimed shard. True = this worker now owns it
  /// (lease published, heartbeat fresh). False = already claimed, done, or
  /// lost the creation race.
  bool try_claim(int shard);

  /// Attempts to take over a stale lease: rename it away (one stealer
  /// wins), then claim afresh. False when the lease is live, missing, or
  /// another stealer won. `evicted` (optional) is set to whether this
  /// worker's rename removed the stale lease — true also when another
  /// worker then won the re-claim, which leaves this call false.
  bool try_steal(int shard, bool* evicted = nullptr);

  /// Refreshes this worker's lease on `shard`. False when the lease was
  /// stolen or removed — the caller should treat the shard as lost (any
  /// duplicate execution is resolved at merge).
  bool heartbeat(int shard);

  /// Marks the shard complete (atomic done marker; fsync'd when durable)
  /// and releases the lease. Idempotent — two workers completing the same
  /// shard after a double execution is harmless.
  void complete(int shard);

  bool is_done(int shard) const;

  /// Reads the shard's current state (done marker, lease freshness).
  ShardStatus inspect(int shard) const;

  /// Bounded exponential backoff for the contention loop: returns the next
  /// sleep in seconds (0.05 → 2× → min(2, TTL)), reset by reset_backoff().
  double next_backoff();
  void reset_backoff() { backoff_ = 0.0; }

  const ClaimOptions& options() const { return opts_; }
  std::string lease_path(int shard) const;
  std::string done_path(int shard) const;

 private:
  LeaseRecord make_record(int shard, double acquired_at) const;
  bool publish(const std::string& tmp_name, const LeaseRecord& rec,
               const std::string& dest, bool exclusive);

  ClaimOptions opts_;
  std::uint64_t token_ = 0;  ///< unique per claim attempt (steal dedup)
  double backoff_ = 0.0;
  /// Shards currently owned by this claimer: lease record as last written.
  std::map<int, LeaseRecord> owned_;
  mutable std::mutex mu_;
};

}  // namespace d2net
