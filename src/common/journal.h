// Crash-safe sweep journaling (see docs/durable_sweeps.md).
//
// A paper-scale sweep is hours of compute; a single OOM kill, pre-empted CI
// job or hung point must cost one point, not the campaign. The journal makes
// a sweep a restartable job:
//
//  - `manifest.json` pins the invocation: a human-readable config text plus
//    its FNV-1a hash (topology/routing/seeds/loads/build describe/options).
//    Resuming under a different configuration is a hard error — silently
//    mixing results from two configurations would be far worse than a
//    rerun.
//  - `journal.jsonl` is append-only, one line per *completed* point (ok,
//    timed out, or failed with its exception text), flushed immediately so
//    a SIGKILL loses at most the in-flight points. A torn final line — the
//    signature of dying mid-write — is skipped with a warning on replay.
//
// Replay loads completed entries keyed by "<sweep scope>#<point index>";
// the sweep runner skips those points and re-executes only missing/failed
// ones. Because every point derives its seed from (base seed, index), a
// resumed sweep is bit-identical to an uninterrupted one, and each entry
// carries the rendered result JSON so report output can be spliced back
// byte-for-byte.
#pragma once

#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <string_view>

namespace d2net {

/// Escapes a string for embedding inside a JSON string literal: quotes,
/// backslashes and control characters (the latter as \uXXXX). Shared by
/// every place the project emits JSON — exception texts and spec strings
/// must never corrupt a report or a journal line.
std::string json_escape(std::string_view s);

/// FNV-1a 64-bit over the bytes of `s`; the manifest hash.
std::uint64_t fnv1a64(std::string_view s);

/// `git describe --always --dirty` captured at configure time ("unknown"
/// without git). Part of the sweep manifest: resuming a journal produced by
/// a different build of the simulator is a configuration mismatch.
const char* build_describe();

/// Reads `<dir>/manifest.json` back (text + recorded hash); false when the
/// file is missing or unparseable. `d2net_campaign --status` inspects a
/// journal through it without opening the journal for write.
bool read_journal_manifest(const std::string& dir, std::string& text_out,
                           std::uint64_t& hash_out);

/// One journal line: the durable record of one finished sweep point (or,
/// for campaign exchange scopes, one finished exchange row).
struct JournalEntry {
  std::string key;    ///< "<scope>#<global point index>"
  std::string label;  ///< series label, validated on resume
  std::string topo;   ///< topology fingerprint ("r=..,n=..,l=.."), validated
  double load = 0.0;
  std::uint64_t seed = 0;  ///< first-attempt derived seed, validated
  std::string status;      ///< "ok" | "timed_out" | "failed"
  int attempts = 1;
  std::int64_t events = 0;
  double wall_seconds = 0.0;
  // Result summary for table printing on resume (full detail in payload):
  double throughput = 0.0;
  double avg_latency_ns = 0.0;
  double p99_latency_ns = 0.0;
  std::int64_t packets_measured = 0;
  // Exchange-row scope extension (see docs/campaigns.md): >= 0 marks the
  // entry as one row of an exchange table; 1 = the exchange completed,
  // 0 = it was cut short. Stays -1 on sweep-point entries, so journals
  // written before this extension parse unchanged.
  int exchange_completed = -1;
  double completion_us = 0.0;
  bool wedged = false;
  std::string error;    ///< exception text when status == "failed"
  std::string payload;  ///< rendered result JSON object ("" when failed)

  bool completed() const { return status == "ok" || status == "timed_out"; }
};

/// Journal behavior knobs.
struct JournalOptions {
  /// fsync the journal fd after every appended entry (and the directory
  /// after the manifest write), so an acked point survives host power loss
  /// — not just a process kill. Off for a bare SweepJournal (flush-only);
  /// BenchReport turns it on whenever it opens a journal.
  bool durable = false;
};

/// Manifest + JSONL journal in one directory. Thread-safe appends (sweep
/// points complete on pool workers); each line is flushed before append()
/// returns, so a crash costs only in-flight points.
class SweepJournal {
 public:
  /// Opens `dir` (created if missing). With `resume` false any existing
  /// journal is truncated and a fresh manifest written. With `resume` true
  /// an existing manifest must hash-match `manifest_text` (ArgumentError
  /// otherwise — never silently mix configurations) and completed entries
  /// are loaded; a missing manifest degrades to a fresh start so one
  /// `--journal=d --resume` command works for both the first run and every
  /// restart after a crash.
  SweepJournal(std::string dir, std::string manifest_text, bool resume,
               JournalOptions options = {});
  ~SweepJournal();
  SweepJournal(const SweepJournal&) = delete;
  SweepJournal& operator=(const SweepJournal&) = delete;

  /// Entry for `key`, or nullptr if the journal has none. A later line for
  /// the same key supersedes an earlier one (a resumed run re-recording a
  /// previously failed point).
  const JournalEntry* find(const std::string& key) const;

  /// Appends one line and flushes it to disk. Thread-safe.
  void append(const JournalEntry& e);

  /// Registers a sweep scope (key prefix) and rejects duplicates: two
  /// sweeps sharing a title would silently collide in the key space.
  void register_scope(const std::string& scope);

  std::size_t loaded_points() const { return entries_.size(); }
  std::uint64_t manifest_hash() const { return hash_; }
  const std::string& dir() const { return dir_; }
  const JournalOptions& options() const { return options_; }

  /// Parses one journal line; nullopt on torn/corrupt input (the caller
  /// skips it). Exposed for tests.
  static bool parse_line(std::string_view line, JournalEntry& out);
  /// Serializes one entry as a single JSONL line (no trailing newline).
  static std::string render_line(const JournalEntry& e);

 private:
  std::string dir_;
  std::string manifest_text_;
  JournalOptions options_;
  std::uint64_t hash_ = 0;
  std::map<std::string, JournalEntry> entries_;
  std::map<std::string, bool> scopes_;
  /// stdio stream (not ofstream): durable mode needs the underlying fd for
  /// fdatasync after each appended line.
  std::FILE* out_ = nullptr;
  mutable std::mutex mu_;
};

}  // namespace d2net
