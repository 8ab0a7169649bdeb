#include "common/cli.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <exception>

#include "common/error.h"

namespace d2net {
namespace {

/// Splits "--name=value" / "--name" into (name, value, has_value).
struct ParsedArg {
  std::string name;
  std::string value;
  bool has_value = false;
};

ParsedArg split_arg(const std::string& arg) {
  if (arg.size() <= 2 || arg[0] != '-' || arg[1] != '-') {
    throw ArgumentError("arguments must look like --name[=value]: " + arg);
  }
  ParsedArg out;
  const auto eq = arg.find('=');
  if (eq == std::string::npos) {
    out.name = arg.substr(2);
  } else {
    out.name = arg.substr(2, eq - 2);
    out.value = arg.substr(eq + 1);
    out.has_value = true;
  }
  return out;
}

// Argument errors are the caller's mistake, not a violated requirement of
// the code, so they throw plain ArgumentError text ("unknown flag --bogus")
// rather than D2NET_REQUIRE's file:line form.
//
// Strict numeric parsing: the *entire* token must parse, so "--load=0.9o"
// or "--duration=10us" fail loudly instead of silently truncating (or, for
// strtod with a bad prefix, silently becoming 0).

std::int64_t parse_int_value(const std::string& name, const std::string& s) {
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(s.c_str(), &end, 10);
  if (s.empty() || end != s.c_str() + s.size() || errno == ERANGE) {
    throw ArgumentError("flag --" + name + " expects an integer, got '" + s + "'");
  }
  return static_cast<std::int64_t>(v);
}

double parse_double_value(const std::string& name, const std::string& s) {
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (s.empty() || end != s.c_str() + s.size() || errno == ERANGE) {
    throw ArgumentError("flag --" + name + " expects a number, got '" + s + "'");
  }
  return v;
}

bool parse_bool_value(const std::string& name, const std::string& s) {
  if (s == "true" || s == "1") return true;
  if (s == "false" || s == "0") return false;
  throw ArgumentError("flag --" + name + " expects true/false/1/0, got '" + s + "'");
}

}  // namespace

int run_cli(int (*body)(int, char**), int argc, char** argv) {
  try {
    return body(argc, argv);
  } catch (const ArgumentError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}

Cli::Cli(std::string program_description) : description_(std::move(program_description)) {}

Cli& Cli::flag(const std::string& name, std::int64_t v, const std::string& help) {
  D2NET_REQUIRE(entries_.emplace(name, Entry{v, help}).second, "duplicate flag " + name);
  order_.push_back(name);
  return *this;
}
Cli& Cli::flag(const std::string& name, double v, const std::string& help) {
  D2NET_REQUIRE(entries_.emplace(name, Entry{v, help}).second, "duplicate flag " + name);
  order_.push_back(name);
  return *this;
}
Cli& Cli::flag(const std::string& name, bool v, const std::string& help) {
  D2NET_REQUIRE(entries_.emplace(name, Entry{v, help}).second, "duplicate flag " + name);
  order_.push_back(name);
  return *this;
}
Cli& Cli::flag(const std::string& name, const std::string& v, const std::string& help) {
  D2NET_REQUIRE(entries_.emplace(name, Entry{v, help}).second, "duplicate flag " + name);
  order_.push_back(name);
  return *this;
}

bool Cli::parse(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      print_help();
      return false;
    }
    ParsedArg pa = split_arg(arg);
    auto it = entries_.find(pa.name);
    if (it == entries_.end()) throw ArgumentError("unknown flag --" + pa.name);
    Entry& entry = it->second;
    // Bool flags may omit the value ("--full" means true).
    if (!pa.has_value && !std::holds_alternative<bool>(entry.value)) {
      if (i + 1 >= argc) throw ArgumentError("flag --" + pa.name + " expects a value");
      pa.value = argv[++i];
      pa.has_value = true;
    }
    if (std::holds_alternative<std::int64_t>(entry.value)) {
      entry.value = parse_int_value(pa.name, pa.value);
    } else if (std::holds_alternative<double>(entry.value)) {
      entry.value = parse_double_value(pa.name, pa.value);
    } else if (std::holds_alternative<bool>(entry.value)) {
      entry.value = !pa.has_value || parse_bool_value(pa.name, pa.value);
    } else {
      entry.value = pa.value;
    }
  }
  return true;
}

const Cli::Entry& Cli::lookup(const std::string& name) const {
  auto it = entries_.find(name);
  D2NET_REQUIRE(it != entries_.end(), "flag not declared: " + name);
  return it->second;
}

std::int64_t Cli::get_int(const std::string& name) const {
  return std::get<std::int64_t>(lookup(name).value);
}
double Cli::get_double(const std::string& name) const {
  return std::get<double>(lookup(name).value);
}
bool Cli::get_bool(const std::string& name) const {
  return std::get<bool>(lookup(name).value);
}
const std::string& Cli::get_string(const std::string& name) const {
  return std::get<std::string>(lookup(name).value);
}

void Cli::print_help() const {
  std::printf("%s\n\nFlags:\n", description_.c_str());
  for (const auto& name : order_) {
    const Entry& e = entries_.at(name);
    std::string def;
    if (std::holds_alternative<std::int64_t>(e.value)) {
      def = std::to_string(std::get<std::int64_t>(e.value));
    } else if (std::holds_alternative<double>(e.value)) {
      def = std::to_string(std::get<double>(e.value));
    } else if (std::holds_alternative<bool>(e.value)) {
      def = std::get<bool>(e.value) ? "true" : "false";
    } else {
      def = std::get<std::string>(e.value);
    }
    std::printf("  --%-24s %s (default: %s)\n", name.c_str(), e.help.c_str(), def.c_str());
  }
}

}  // namespace d2net
