// Tiny command-line flag parser for benches and examples.
//
// Flags are declared with defaults, parsed from `--name=value` or
// `--name value` arguments; `--help` prints the registry. No external
// dependencies, deterministic errors on unknown flags and malformed
// values: numeric flags require the whole token to parse (no trailing
// junk), bool flags accept only true/false/1/0 (or no value, meaning
// true).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <variant>
#include <vector>

namespace d2net {

/// Declarative flag registry + parser.
class Cli {
 public:
  explicit Cli(std::string program_description);

  /// Declares a flag; returns *this for chaining.
  Cli& flag(const std::string& name, std::int64_t default_value, const std::string& help);
  Cli& flag(const std::string& name, double default_value, const std::string& help);
  Cli& flag(const std::string& name, bool default_value, const std::string& help);
  Cli& flag(const std::string& name, const std::string& default_value, const std::string& help);

  /// Parses argv. On `--help` prints usage and returns false (caller should
  /// exit 0). Throws ArgumentError on unknown flags or malformed values.
  bool parse(int argc, char** argv);

  std::int64_t get_int(const std::string& name) const;
  double get_double(const std::string& name) const;
  bool get_bool(const std::string& name) const;
  const std::string& get_string(const std::string& name) const;

 private:
  using Value = std::variant<std::int64_t, double, bool, std::string>;

  struct Entry {
    Value value;
    std::string help;
  };

  const Entry& lookup(const std::string& name) const;
  void print_help() const;

  std::string description_;
  std::map<std::string, Entry> entries_;
  std::vector<std::string> order_;  ///< Declaration order, for --help.
};

/// Runs a command-line program's body and turns an ArgumentError — a bad
/// flag, value or spec, the caller's mistake rather than a crash — into
/// one "error: ..." line on stderr and exit status 2, never
/// std::terminate's abort. Any other std::exception (a failed simulation,
/// an I/O error) becomes one "error: ..." line and exit status 1. Every
/// bench and example `main` goes through it.
int run_cli(int (*body)(int, char**), int argc, char** argv);

}  // namespace d2net
