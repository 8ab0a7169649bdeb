#include "common/journal.h"

#include <fcntl.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>

#include "common/error.h"

#ifndef D2NET_BUILD_DESCRIBE
#define D2NET_BUILD_DESCRIBE "unknown"
#endif

namespace d2net {

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (unsigned char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  return out;
}

std::uint64_t fnv1a64(std::string_view s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

const char* build_describe() { return D2NET_BUILD_DESCRIBE; }

namespace {

// Makes durable whatever `dir` records about its entries: fsyncs the
// directory fd so a freshly renamed file inside it survives a host power
// loss. Best-effort: false when the platform/filesystem refuses (the write
// itself already succeeded).
bool fsync_dir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return false;
  const bool ok = ::fsync(fd) == 0;
  ::close(fd);
  return ok;
}

// Minimal tolerant scanner for the flat JSON objects the journal itself
// writes. Any malformation flips `ok` and the caller discards the line —
// a torn tail from a crash mid-write must never abort a resume.
struct JsonScanner {
  std::string_view s;
  std::size_t i = 0;
  bool ok = true;

  void skip_ws() {
    while (i < s.size() && (s[i] == ' ' || s[i] == '\t' || s[i] == '\n' || s[i] == '\r')) ++i;
  }

  bool consume(char c) {
    skip_ws();
    if (i < s.size() && s[i] == c) {
      ++i;
      return true;
    }
    return false;
  }

  char peek() {
    skip_ws();
    return i < s.size() ? s[i] : '\0';
  }

  // Parses a string literal, returning the unescaped value.
  std::string parse_string() {
    std::string out;
    if (!consume('"')) {
      ok = false;
      return out;
    }
    while (i < s.size()) {
      char c = s[i++];
      if (c == '"') return out;
      if (c == '\\') {
        if (i >= s.size()) break;
        char e = s[i++];
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            if (i + 4 > s.size()) {
              ok = false;
              return out;
            }
            unsigned code = 0;
            for (int k = 0; k < 4; ++k) {
              char h = s[i++];
              code <<= 4;
              if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
              else {
                ok = false;
                return out;
              }
            }
            // The journal only emits \u for ASCII control characters.
            out += code < 0x80 ? static_cast<char>(code) : '?';
            break;
          }
          default:
            ok = false;
            return out;
        }
      } else {
        out += c;
      }
    }
    ok = false;  // ran off the end inside the literal: torn line
    return out;
  }

  // Consumes any value, returning its raw text (nested objects/arrays are
  // brace-matched with string awareness).
  std::string_view parse_raw_value() {
    skip_ws();
    const std::size_t start = i;
    if (i >= s.size()) {
      ok = false;
      return {};
    }
    char c = s[i];
    if (c == '"') {
      parse_string();
    } else if (c == '{' || c == '[') {
      int depth = 0;
      bool in_str = false;
      while (i < s.size()) {
        char d = s[i++];
        if (in_str) {
          if (d == '\\' && i < s.size()) ++i;
          else if (d == '"') in_str = false;
        } else if (d == '"') {
          in_str = true;
        } else if (d == '{' || d == '[') {
          ++depth;
        } else if (d == '}' || d == ']') {
          if (--depth == 0) break;
        }
      }
      if (depth != 0) ok = false;
    } else {
      while (i < s.size() && s[i] != ',' && s[i] != '}' && s[i] != ']' && s[i] != ' ' &&
             s[i] != '\t' && s[i] != '\n' && s[i] != '\r')
        ++i;
      if (i == start) ok = false;
    }
    return s.substr(start, i - start);
  }

  double parse_double() {
    std::string raw(parse_raw_value());
    if (!ok) return 0.0;
    // Non-finite values are journaled as null (JSON has no NaN/inf
    // literal); read them back as NaN so resume can splice the entry.
    if (raw == "null") return std::numeric_limits<double>::quiet_NaN();
    char* end = nullptr;
    double v = std::strtod(raw.c_str(), &end);
    if (end != raw.c_str() + raw.size()) ok = false;
    return v;
  }

  std::int64_t parse_int() {
    std::string raw(parse_raw_value());
    if (!ok) return 0;
    char* end = nullptr;
    long long v = std::strtoll(raw.c_str(), &end, 10);
    if (end != raw.c_str() + raw.size()) ok = false;
    return v;
  }

  std::uint64_t parse_uint() {
    std::string raw(parse_raw_value());
    if (!ok) return 0;
    char* end = nullptr;
    unsigned long long v = std::strtoull(raw.c_str(), &end, 10);
    if (end != raw.c_str() + raw.size()) ok = false;
    return v;
  }
};

// %.17g round-trips any finite double exactly through strtod, so loads and
// result summaries survive journal replay bit-for-bit. NaN/±inf (a wedged
// or timed-out point's latency average) have no JSON literal — %.17g would
// emit bare `nan`/`inf` and corrupt the line for every downstream parser —
// so non-finite values are journaled as null (read back as NaN).
std::string fmt_double(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::filesystem::path manifest_path(const std::string& dir) {
  return std::filesystem::path(dir) / "manifest.json";
}

std::filesystem::path journal_path(const std::string& dir) {
  return std::filesystem::path(dir) / "journal.jsonl";
}

// Reads manifest.json; returns false if missing/unparseable.
bool read_manifest(const std::string& dir, std::string& text_out, std::uint64_t& hash_out) {
  std::ifstream in(manifest_path(dir));
  if (!in) return false;
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string doc = buf.str();
  JsonScanner sc{doc};
  if (!sc.consume('{')) return false;
  bool have_hash = false, have_text = false;
  while (sc.ok) {
    if (sc.peek() == '}') break;
    std::string key = sc.parse_string();
    if (!sc.ok || !sc.consume(':')) return false;
    if (key == "hash") {
      std::string hex = sc.parse_string();
      if (!sc.ok) return false;
      char* end = nullptr;
      hash_out = std::strtoull(hex.c_str(), &end, 16);
      have_hash = end == hex.c_str() + hex.size() && !hex.empty();
    } else if (key == "manifest") {
      text_out = sc.parse_string();
      have_text = sc.ok;
    } else {
      sc.parse_raw_value();
    }
    if (!sc.consume(',')) break;
  }
  return sc.ok && have_hash && have_text;
}

}  // namespace

bool read_journal_manifest(const std::string& dir, std::string& text_out,
                           std::uint64_t& hash_out) {
  return read_manifest(dir, text_out, hash_out);
}

std::string SweepJournal::render_line(const JournalEntry& e) {
  std::ostringstream os;
  os << "{\"key\": \"" << json_escape(e.key) << "\""
     << ", \"label\": \"" << json_escape(e.label) << "\""
     << ", \"topo\": \"" << json_escape(e.topo) << "\""
     << ", \"load\": " << fmt_double(e.load)
     << ", \"seed\": " << e.seed
     << ", \"status\": \"" << json_escape(e.status) << "\""
     << ", \"attempts\": " << e.attempts
     << ", \"events\": " << e.events
     << ", \"wall_seconds\": " << fmt_double(e.wall_seconds)
     << ", \"throughput\": " << fmt_double(e.throughput)
     << ", \"avg_latency_ns\": " << fmt_double(e.avg_latency_ns)
     << ", \"p99_latency_ns\": " << fmt_double(e.p99_latency_ns)
     << ", \"packets_measured\": " << e.packets_measured;
  if (e.exchange_completed >= 0) {
    os << ", \"exchange_completed\": " << e.exchange_completed
       << ", \"completion_us\": " << fmt_double(e.completion_us)
       << ", \"wedged\": " << (e.wedged ? "true" : "false");
  }
  if (!e.error.empty()) os << ", \"error\": \"" << json_escape(e.error) << "\"";
  os << ", \"result\": " << (e.payload.empty() ? "null" : e.payload) << "}";
  return os.str();
}

bool SweepJournal::parse_line(std::string_view line, JournalEntry& out) {
  JsonScanner sc{line};
  if (!sc.consume('{')) return false;
  out = JournalEntry{};
  out.attempts = 1;
  while (sc.ok) {
    if (sc.peek() == '}') break;
    std::string key = sc.parse_string();
    if (!sc.ok || !sc.consume(':')) return false;
    if (key == "key") out.key = sc.parse_string();
    else if (key == "label") out.label = sc.parse_string();
    else if (key == "topo") out.topo = sc.parse_string();
    else if (key == "load") out.load = sc.parse_double();
    else if (key == "seed") out.seed = sc.parse_uint();
    else if (key == "status") out.status = sc.parse_string();
    else if (key == "attempts") out.attempts = static_cast<int>(sc.parse_int());
    else if (key == "events") out.events = sc.parse_int();
    else if (key == "wall_seconds") out.wall_seconds = sc.parse_double();
    else if (key == "throughput") out.throughput = sc.parse_double();
    else if (key == "avg_latency_ns") out.avg_latency_ns = sc.parse_double();
    else if (key == "p99_latency_ns") out.p99_latency_ns = sc.parse_double();
    else if (key == "packets_measured") out.packets_measured = sc.parse_int();
    else if (key == "exchange_completed") out.exchange_completed = static_cast<int>(sc.parse_int());
    else if (key == "completion_us") out.completion_us = sc.parse_double();
    else if (key == "wedged") out.wedged = sc.parse_raw_value() == "true";
    else if (key == "error") out.error = sc.parse_string();
    else if (key == "result") {
      std::string_view raw = sc.parse_raw_value();
      out.payload = raw == "null" ? std::string{} : std::string(raw);
    } else {
      sc.parse_raw_value();  // unknown field: tolerate for forward compat
    }
    if (!sc.consume(',')) break;
  }
  if (!sc.ok || !sc.consume('}')) return false;
  if (out.key.empty()) return false;
  if (out.status != "ok" && out.status != "timed_out" && out.status != "failed") return false;
  return true;
}

SweepJournal::SweepJournal(std::string dir, std::string manifest_text, bool resume,
                           JournalOptions options)
    : dir_(std::move(dir)), manifest_text_(std::move(manifest_text)),
      options_(std::move(options)) {
  D2NET_REQUIRE(!dir_.empty(), "journal directory must not be empty");
  hash_ = fnv1a64(manifest_text_);
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  D2NET_REQUIRE(!ec, "cannot create journal directory '" + dir_ + "': " + ec.message());

  std::string prev_text;
  std::uint64_t prev_hash = 0;
  const bool have_prev = read_manifest(dir_, prev_text, prev_hash);

  if (resume && have_prev) {
    if (prev_hash != hash_ || prev_text != manifest_text_) {
      throw ArgumentError(
          "journal manifest mismatch in '" + dir_ +
          "': the journal was written by a different configuration.\n"
          "--- journal manifest ---\n" + prev_text +
          "--- current invocation ---\n" + manifest_text_ +
          "Re-run without --resume (or with a fresh --journal dir) to start over.");
    }
    // Replay completed entries; later lines supersede earlier ones.
    std::ifstream in(journal_path(dir_));
    std::string line;
    std::size_t lineno = 0, skipped = 0;
    while (std::getline(in, line)) {
      ++lineno;
      if (line.empty()) continue;
      JournalEntry e;
      if (!parse_line(line, e)) {
        ++skipped;
        std::fprintf(stderr,
                     "warning: skipping torn/corrupt journal line %zu in %s\n", lineno,
                     journal_path(dir_).string().c_str());
        continue;
      }
      entries_[e.key] = std::move(e);
    }
    (void)skipped;
    // A crash mid-append leaves a torn final line with no newline; heal it
    // before appending, or the next entry would concatenate onto the
    // fragment and corrupt itself too.
    bool torn_tail = false;
    {
      std::ifstream tail(journal_path(dir_), std::ios::binary | std::ios::ate);
      if (tail.is_open() && tail.tellg() > 0) {
        tail.seekg(-1, std::ios::end);
        char last = '\n';
        tail.get(last);
        torn_tail = last != '\n';
      }
    }
    out_ = std::fopen(journal_path(dir_).string().c_str(), "ab");
    if (out_ != nullptr && torn_tail) std::fputc('\n', out_);
  } else {
    // Fresh start (also: --resume with no prior manifest, so the same
    // command line works for the first run and every restart). The
    // manifest is written to a temp name and renamed into place: a reader
    // (`d2net_campaign --status`) never sees a half-written manifest, and a
    // crash mid-write leaves the old one intact.
    char hex[32];
    std::snprintf(hex, sizeof(hex), "%016llx", static_cast<unsigned long long>(hash_));
    const std::filesystem::path tmp =
        std::filesystem::path(dir_) / ("manifest.json.tmp." + std::to_string(::getpid()));
    {
      std::ofstream mf(tmp, std::ios::trunc);
      mf << "{\"hash\": \"" << hex << "\", \"manifest\": \"" << json_escape(manifest_text_)
         << "\"}\n";
      mf.flush();
      D2NET_REQUIRE(mf.good(), "cannot write journal manifest in '" + dir_ + "'");
    }
    std::filesystem::rename(tmp, manifest_path(dir_), ec);
    D2NET_REQUIRE(!ec, "cannot install journal manifest in '" + dir_ + "': " + ec.message());
    if (options_.durable) fsync_dir(dir_);
    out_ = std::fopen(journal_path(dir_).string().c_str(), "wb");
  }
  D2NET_REQUIRE(out_ != nullptr, "cannot open journal file in '" + dir_ + "'");
}

SweepJournal::~SweepJournal() {
  if (out_ != nullptr) std::fclose(out_);
}

const JournalEntry* SweepJournal::find(const std::string& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key);
  return it == entries_.end() ? nullptr : &it->second;
}

void SweepJournal::append(const JournalEntry& e) {
  const std::string line = render_line(e);
  std::lock_guard<std::mutex> lock(mu_);
  bool ok = std::fwrite(line.data(), 1, line.size(), out_) == line.size() &&
            std::fputc('\n', out_) != EOF && std::fflush(out_) == 0;
  // Durable mode: the entry must survive a host power loss, not just a
  // process kill.
  if (ok && options_.durable) ok = ::fdatasync(::fileno(out_)) == 0;
  D2NET_REQUIRE(ok, "journal append failed in '" + dir_ + "'");
}

void SweepJournal::register_scope(const std::string& scope) {
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = scopes_.emplace(scope, true);
  (void)it;
  D2NET_REQUIRE(inserted,
                "duplicate sweep scope '" + scope + "' — journaled sweeps need unique titles");
}

}  // namespace d2net
