#include "topology/spec.h"

#include <map>
#include <sstream>

#include "common/error.h"
#include "topology/dragonfly.h"
#include "topology/fat_tree.h"
#include "topology/hyperx.h"
#include "topology/mlfm.h"
#include "topology/oft.h"
#include "topology/slim_fly.h"
#include "topology/sspt.h"

namespace d2net {
namespace {

struct ParsedSpec {
  std::string family;
  std::map<std::string, std::string> kv;
};

ParsedSpec parse(const std::string& spec) {
  ParsedSpec out;
  const auto colon = spec.find(':');
  out.family = spec.substr(0, colon);
  if (colon == std::string::npos) return out;
  std::stringstream rest(spec.substr(colon + 1));
  std::string item;
  while (std::getline(rest, item, ',')) {
    const auto eq = item.find('=');
    if (eq == std::string::npos) {
      throw ArgumentError("expected key=value in topology spec: " + item);
    }
    out.kv[item.substr(0, eq)] = item.substr(eq + 1);
  }
  return out;
}

int to_int(const std::string& key, const std::string& value) {
  std::size_t used = 0;
  try {
    const int v = std::stoi(value, &used);
    if (used == value.size()) return v;
  } catch (const std::exception&) {
  }
  throw ArgumentError("topology spec " + key + "=" + value + " is not an integer");
}

int get_int(const ParsedSpec& s, const std::string& key) {
  auto it = s.kv.find(key);
  if (it == s.kv.end()) throw ArgumentError("topology spec needs " + key + "=<int>");
  return to_int(key, it->second);
}

int get_int_or(const ParsedSpec& s, const std::string& key, int fallback) {
  auto it = s.kv.find(key);
  return it == s.kv.end() ? fallback : to_int(key, it->second);
}

}  // namespace

Topology build_topology_from_spec(const std::string& spec) {
  const ParsedSpec s = parse(spec);
  if (s.family == "sf" || s.family == "slimfly") {
    const int q = get_int(s, "q");
    auto it = s.kv.find("p");
    if (it == s.kv.end() || it->second == "floor") return build_slim_fly(q, SlimFlyP::kFloor);
    if (it->second == "ceil") return build_slim_fly(q, SlimFlyP::kCeil);
    return build_slim_fly(q, SlimFlyP::kFloor, to_int("p", it->second));
  }
  if (s.family == "mlfm") {
    const int h = get_int(s, "h");
    return build_mlfm(h, get_int_or(s, "l", h), get_int_or(s, "p", h));
  }
  if (s.family == "oft") return build_oft(get_int(s, "k"));
  if (s.family == "sspt") {
    const int r1 = get_int(s, "r1");
    const int r2 = get_int(s, "r2");
    if (r2 != 2 && r2 != r1) {
      throw ArgumentError("known SPT interconnection patterns exist for r2 = 2 and r2 = r1");
    }
    const SptPattern pattern =
        r2 == 2 ? make_spt_pattern_mesh(r1) : make_spt_pattern_ml3b(r1);
    return build_sspt(pattern, get_int_or(s, "s", -1), get_int_or(s, "p", -1));
  }
  if (s.family == "hyperx") {
    if (s.kv.count("r")) return build_hyperx2d_balanced(get_int(s, "r"));
    return build_hyperx2d(get_int(s, "s1"), get_int(s, "s2"), get_int(s, "p"));
  }
  if (s.family == "dragonfly" || s.family == "df") {
    if (s.kv.count("r")) return build_dragonfly_balanced(get_int(s, "r"));
    return build_dragonfly(get_int(s, "a"), get_int(s, "h"), get_int(s, "p"));
  }
  if (s.family == "ft2") return build_fat_tree2(get_int(s, "r"));
  if (s.family == "ft3") return build_fat_tree3(get_int(s, "r"));
  throw ArgumentError("unknown topology family '" + s.family + "'; " + topology_spec_help());
}

const char* topology_spec_help() {
  return "specs: sf:q=<q>[,p=floor|ceil|<int>] | mlfm:h=<h>[,l=..,p=..] | oft:k=<k> | "
         "sspt:r1=<r1>,r2=<2|r1>[,s=..,p=..] | hyperx:r=<r> | hyperx:s1=..,s2=..,p=.. | "
         "dragonfly:a=..,h=..,p=.. | dragonfly:r=<r> | ft2:r=<r> | ft3:r=<r>";
}

}  // namespace d2net
