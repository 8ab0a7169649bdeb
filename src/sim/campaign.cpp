#include "sim/campaign.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>
#include <tuple>

#include "common/error.h"
#include "common/json.h"
#include "common/rng.h"
#include "common/units.h"
#include "flowsim/flow_sim.h"
#include "sim/fault.h"
#include "topology/degrade.h"
#include "topology/spec.h"

namespace d2net {

const char* to_string(CampaignTraffic t) {
  switch (t) {
    case CampaignTraffic::kUniform: return "uniform";
    case CampaignTraffic::kWorstCase: return "worst_case";
    case CampaignTraffic::kShift: return "shift";
  }
  return "?";
}

namespace {

std::string replace_all(std::string s, std::string_view token, const std::string& value) {
  std::size_t pos = 0;
  while ((pos = s.find(token, pos)) != std::string::npos) {
    s.replace(pos, token.size(), value);
    pos += value.size();
  }
  return s;
}

std::string substitute(const std::string& s, const std::string& system,
                       const std::string& routing) {
  return replace_all(replace_all(s, "{system}", system), "{routing}", routing);
}

/// A series label with {routing} resolved ({system} is sweep-wide, so this
/// is the per-sweep uniqueness key).
std::string expanded_series_label(const std::string& tmpl, RoutingStrategy s) {
  return replace_all(tmpl, "{routing}", to_string(s));
}

/// The label fragment one grid value substitutes for {grid}: the adaptive
/// benches' convention ("nI=4", "c=0.25" — c with two decimals, fmt(v, 2)).
std::string grid_value_label(const CampaignGrid& g, double v) {
  char buf[32];
  if (g.is_ni) {
    std::snprintf(buf, sizeof buf, "nI=%d", static_cast<int>(v));
  } else {
    std::snprintf(buf, sizeof buf, "c=%.2f", v);
  }
  return buf;
}

// ------------------------------------------------------------ spec parsing
//
// Every helper threads the spec path ("sweeps[2].series[0]") through to the
// error text, so a typo in a committed spec is reported where it sits, not
// as a generic failure.

struct Parse {
  const std::string& where;

  [[noreturn]] void fail(const std::string& path, const std::string& msg) const {
    throw ArgumentError(where + ": " + path + ": " + msg);
  }

  const JsonValue* opt(const JsonValue& obj, const std::string& path, const char* key,
                       JsonValue::Kind kind) const {
    const JsonValue* v = obj.find(key);
    if (v == nullptr) return nullptr;
    if (v->kind != kind) {
      fail(path + "." + key, std::string("expected ") + to_string(kind) + ", got " +
                                 to_string(v->kind));
    }
    return v;
  }

  const JsonValue& req(const JsonValue& obj, const std::string& path, const char* key,
                       JsonValue::Kind kind) const {
    const JsonValue* v = opt(obj, path, key, kind);
    if (v == nullptr) fail(path, std::string("missing required key '") + key + "'");
    return *v;
  }

  std::int64_t req_int(const JsonValue& obj, const std::string& path,
                       const char* key) const {
    const JsonValue& v = req(obj, path, key, JsonValue::Kind::kNumber);
    if (!v.number_is_int) fail(path + "." + key, "expected an integer");
    return v.integer;
  }

  std::int64_t opt_int(const JsonValue& obj, const std::string& path, const char* key,
                       std::int64_t dflt) const {
    const JsonValue* v = opt(obj, path, key, JsonValue::Kind::kNumber);
    if (v == nullptr) return dflt;
    if (!v->number_is_int) fail(path + "." + key, "expected an integer");
    return v->integer;
  }

  bool opt_bool(const JsonValue& obj, const std::string& path, const char* key,
                bool dflt) const {
    const JsonValue* v = opt(obj, path, key, JsonValue::Kind::kBool);
    return v == nullptr ? dflt : v->boolean;
  }

  /// Rejects members outside `allowed`. Keys in `misplaced` get a targeted
  /// message (a load-sweep key on an exchange sweep and vice versa) instead
  /// of a generic "unknown key".
  void check_keys(const JsonValue& obj, const std::string& path,
                  std::initializer_list<const char*> allowed,
                  std::initializer_list<const char*> misplaced = {},
                  const char* misplaced_hint = "") const {
    for (const auto& [key, value] : obj.object) {
      (void)value;
      bool ok = false;
      for (const char* a : allowed) ok = ok || key == a;
      if (ok) continue;
      for (const char* m : misplaced) {
        if (key == m) fail(path, "key '" + key + "' is " + misplaced_hint);
      }
      fail(path, "unknown key '" + key + "'");
    }
  }

  template <typename T>
  T parse_enum(const std::string& path, const std::string& token,
               std::initializer_list<std::pair<const char*, T>> table,
               const char* what) const {
    for (const auto& [name, value] : table) {
      if (token == name) return value;
    }
    std::string valid;
    for (const auto& [name, value] : table) {
      (void)value;
      valid += valid.empty() ? "" : "|";
      valid += name;
    }
    fail(path, std::string("unknown ") + what + " '" + token + "' (expected " + valid + ")");
  }
};

RoutingStrategy parse_routing(const Parse& p, const std::string& path,
                              const std::string& s) {
  return p.parse_enum<RoutingStrategy>(
      path, s,
      {{"min", RoutingStrategy::kMinimal},
       {"valiant", RoutingStrategy::kValiant},
       {"ugal", RoutingStrategy::kUgal},
       {"ugal_th", RoutingStrategy::kUgalThreshold},
       {"ugal_g", RoutingStrategy::kUgalGlobal}},
      "routing");
}

CampaignSeries parse_series(const Parse& p, const std::string& path, const JsonValue& v,
                            const CampaignSweep& sweep) {
  if (!v.is_object()) p.fail(path, "expected an object");
  CampaignSeries out;
  if (sweep.kind == CampaignSweepKind::kExchange) {
    p.check_keys(v, path, {"label", "routing"},
                 {"recovery", "reroute", "ni", "c", "detection_us", "flood_hop_us"},
                 "only valid for load_sweep series");
  } else {
    p.check_keys(v, path,
                 {"label", "routing", "recovery", "reroute", "ni", "c", "detection_us",
                  "flood_hop_us"});
  }
  out.strategy =
      parse_routing(p, path + ".routing", p.req(v, path, "routing", JsonValue::Kind::kString).str);
  if (const JsonValue* l = p.opt(v, path, "label", JsonValue::Kind::kString)) {
    if (l->str.empty()) p.fail(path + ".label", "label must be non-empty");
    out.label = l->str;
  } else if (sweep.grid) {
    // Grid sweeps label their expanded series by the grid value alone, the
    // adaptive benches' convention ("nI=1", "nI=4", ...).
    out.label = "{grid}";
  } else {
    // The fig6 convention: "SF p=fl MIN", "MLFM INR", ...
    out.label = "{system} {routing}";
  }
  if (sweep.grid && out.label.find("{grid}") == std::string::npos) {
    p.fail(path + ".label",
           "series labels of a grid sweep must contain '{grid}' (the expanded "
           "series would otherwise collide)");
  }
  if (const JsonValue* r = p.opt(v, path, "recovery", JsonValue::Kind::kString)) {
    if (!sweep.fault) p.fail(path + ".recovery", "series 'recovery' requires a sweep 'fault'");
    out.recovery = p.parse_enum<FaultRecovery>(path + ".recovery", r->str,
                                               {{"none", FaultRecovery::kNone},
                                                {"retry", FaultRecovery::kRetry},
                                                {"salvage", FaultRecovery::kSalvage}},
                                               "recovery");
  }
  if (v.find("reroute") != nullptr) {
    if (!sweep.fault) p.fail(path + ".reroute", "series 'reroute' requires a sweep 'fault'");
    out.reroute = p.opt_bool(v, path, "reroute", true);
  }
  if (const JsonValue* ni = p.opt(v, path, "ni", JsonValue::Kind::kNumber)) {
    if (!ni->number_is_int || ni->integer < 1) p.fail(path + ".ni", "expected an integer >= 1");
    if (sweep.grid && sweep.grid->is_ni) {
      p.fail(path + ".ni", "the sweep grid already varies 'ni'");
    }
    out.ni = static_cast<int>(ni->integer);
  }
  if (const JsonValue* c = p.opt(v, path, "c", JsonValue::Kind::kNumber)) {
    if (c->number <= 0.0) p.fail(path + ".c", "expected a number > 0");
    if (sweep.grid && !sweep.grid->is_ni) {
      p.fail(path + ".c", "the sweep grid already varies 'c'");
    }
    out.c = c->number;
  }
  if (const JsonValue* d = p.opt(v, path, "detection_us", JsonValue::Kind::kNumber)) {
    if (!sweep.fault) {
      p.fail(path + ".detection_us", "series 'detection_us' requires a sweep 'fault'");
    }
    if (d->number <= 0.0) p.fail(path + ".detection_us", "expected a number > 0");
    out.detection_us = d->number;
  }
  if (const JsonValue* fh = p.opt(v, path, "flood_hop_us", JsonValue::Kind::kNumber)) {
    if (!out.detection_us) {
      p.fail(path + ".flood_hop_us", "series 'flood_hop_us' requires 'detection_us'");
    }
    if (fh->number < 0.0) p.fail(path + ".flood_hop_us", "expected a number >= 0");
    out.flood_hop_us = fh->number;
  }
  return out;
}

CampaignFault parse_fault(const Parse& p, const std::string& path, const JsonValue& v) {
  if (!v.is_object()) p.fail(path, "expected an object");
  p.check_keys(v, path, {"kind", "frac", "at_div", "restore_div", "sample_div"});
  if (const JsonValue* k = p.opt(v, path, "kind", JsonValue::Kind::kString)) {
    if (k->str != "link_burst") {
      p.fail(path + ".kind", "unknown fault kind '" + k->str + "' (expected link_burst)");
    }
  }
  CampaignFault out;
  out.frac = p.req(v, path, "frac", JsonValue::Kind::kNumber).number;
  if (out.frac <= 0.0 || out.frac > 1.0) p.fail(path + ".frac", "expected a fraction in (0, 1]");
  out.at_div = static_cast<int>(p.opt_int(v, path, "at_div", 4));
  if (out.at_div < 1) p.fail(path + ".at_div", "expected an integer >= 1");
  out.restore_div = static_cast<int>(p.opt_int(v, path, "restore_div", 0));
  if (out.restore_div < 0) p.fail(path + ".restore_div", "expected an integer >= 0");
  out.sample_div = static_cast<int>(p.opt_int(v, path, "sample_div", 0));
  if (out.sample_div < 0) p.fail(path + ".sample_div", "expected an integer >= 0");
  return out;
}

CampaignGrid parse_grid(const Parse& p, const std::string& path, const JsonValue& v) {
  if (!v.is_object()) p.fail(path, "expected an object");
  p.check_keys(v, path, {"param", "values"});
  CampaignGrid out;
  out.is_ni = p.parse_enum<bool>(path + ".param",
                                 p.req(v, path, "param", JsonValue::Kind::kString).str,
                                 {{"ni", true}, {"c", false}}, "grid param");
  const JsonValue& values = p.req(v, path, "values", JsonValue::Kind::kArray);
  if (values.array.empty()) p.fail(path + ".values", "grid values must be non-empty");
  for (std::size_t i = 0; i < values.array.size(); ++i) {
    const std::string ipath = path + ".values[" + std::to_string(i) + "]";
    const JsonValue& e = values.array[i];
    if (out.is_ni) {
      if (!e.is_number() || !e.number_is_int || e.integer < 1) {
        p.fail(ipath, "expected an integer >= 1");
      }
    } else if (!e.is_number() || e.number <= 0.0) {
      p.fail(ipath, "expected a number > 0");
    }
    out.values.push_back(e.number);
  }
  return out;
}

CampaignSweep parse_sweep(const Parse& p, const std::string& path, const JsonValue& v,
                          const CampaignSpec& spec) {
  if (!v.is_object()) p.fail(path, "expected an object");
  CampaignSweep out;
  if (const JsonValue* k = p.opt(v, path, "kind", JsonValue::Kind::kString)) {
    out.kind = p.parse_enum<CampaignSweepKind>(path + ".kind", k->str,
                                               {{"load_sweep", CampaignSweepKind::kLoadSweep},
                                                {"exchange", CampaignSweepKind::kExchange}},
                                               "sweep kind");
  }
  if (out.kind == CampaignSweepKind::kLoadSweep) {
    p.check_keys(v, path,
                 {"title", "kind", "systems", "per_system", "seed_mode", "series", "traffic",
                  "shift", "loads", "fault", "grid"},
                 {"pattern", "bytes_per_pair", "bytes_per_pair_full", "order", "schedule",
                  "mapping", "time_limit_us"},
                 "only valid for exchange sweeps");
  } else {
    p.check_keys(v, path,
                 {"title", "kind", "systems", "series", "pattern", "bytes_per_pair",
                  "bytes_per_pair_full", "order", "schedule", "mapping", "time_limit_us"},
                 {"traffic", "shift", "loads", "fault", "per_system", "seed_mode", "grid"},
                 "only valid for load_sweep sweeps");
  }

  out.title = p.req(v, path, "title", JsonValue::Kind::kString).str;
  if (out.title.empty()) p.fail(path + ".title", "title must be non-empty");

  if (const JsonValue* sys = p.opt(v, path, "systems", JsonValue::Kind::kArray)) {
    if (sys->array.empty()) p.fail(path + ".systems", "system filter must be non-empty");
    for (std::size_t i = 0; i < sys->array.size(); ++i) {
      const std::string ipath = path + ".systems[" + std::to_string(i) + "]";
      if (!sys->array[i].is_string()) p.fail(ipath, "expected a system label string");
      const std::string& label = sys->array[i].str;
      const bool known = std::any_of(spec.systems.begin(), spec.systems.end(),
                                     [&](const CampaignSystem& s) { return s.label == label; });
      if (!known) p.fail(ipath, "unknown system '" + label + "'");
      if (std::count(out.systems.begin(), out.systems.end(), label) > 0) {
        p.fail(ipath, "duplicate system '" + label + "'");
      }
      out.systems.push_back(label);
    }
  }

  if (out.kind == CampaignSweepKind::kLoadSweep) {
    out.per_system = p.opt_bool(v, path, "per_system", false);
    const bool templated = out.title.find("{system}") != std::string::npos;
    if (out.per_system && !templated) {
      p.fail(path + ".title", "per_system sweeps need '{system}' in the title");
    }
    if (!out.per_system && templated) {
      p.fail(path + ".title", "'{system}' in the title requires per_system");
    }
    if (const JsonValue* sm = p.opt(v, path, "seed_mode", JsonValue::Kind::kString)) {
      out.base_seed = p.parse_enum<bool>(path + ".seed_mode", sm->str,
                                         {{"derived", false}, {"base", true}}, "seed_mode");
    }
    if (const JsonValue* t = p.opt(v, path, "traffic", JsonValue::Kind::kString)) {
      out.traffic = p.parse_enum<CampaignTraffic>(path + ".traffic", t->str,
                                                  {{"uniform", CampaignTraffic::kUniform},
                                                   {"worst_case", CampaignTraffic::kWorstCase},
                                                   {"shift", CampaignTraffic::kShift}},
                                                  "traffic");
    }
    if (out.traffic == CampaignTraffic::kShift) {
      out.shift = static_cast<int>(p.req_int(v, path, "shift"));
      if (out.shift < 1) p.fail(path + ".shift", "expected an integer >= 1");
    } else if (v.find("shift") != nullptr) {
      p.fail(path + ".shift", "'shift' requires traffic = shift");
    }
    const JsonValue& loads = p.req(v, path, "loads", JsonValue::Kind::kArray);
    if (loads.array.empty()) p.fail(path + ".loads", "load grid must be non-empty");
    for (std::size_t i = 0; i < loads.array.size(); ++i) {
      const std::string ipath = path + ".loads[" + std::to_string(i) + "]";
      if (!loads.array[i].is_number() || loads.array[i].number <= 0.0) {
        p.fail(ipath, "expected a load > 0");
      }
      out.loads.push_back(loads.array[i].number);
    }
    if (const JsonValue* f = v.find("fault")) {
      out.fault = parse_fault(p, path + ".fault", *f);
    }
    if (const JsonValue* g = v.find("grid")) {
      out.grid = parse_grid(p, path + ".grid", *g);
    }
  } else {
    ExchangeWorkload& w = out.exchange;
    if (const JsonValue* pt = p.opt(v, path, "pattern", JsonValue::Kind::kString)) {
      w.pattern = p.parse_enum<ExchangePattern>(
          path + ".pattern", pt->str,
          {{"all_to_all", ExchangePattern::kAllToAll},
           {"nearest_neighbor", ExchangePattern::kNearestNeighbor}},
          "exchange pattern");
    }
    const bool a2a = w.pattern == ExchangePattern::kAllToAll;
    // Each knob shapes one pattern only; on the other it would be silently
    // meaningless.
    for (const char* key : {"order", "schedule", "mapping"}) {
      const bool a2a_key = std::string_view(key) != "mapping";
      if (v.find(key) != nullptr && a2a_key != a2a) {
        p.fail(path + "." + key, std::string("'") + key + "' requires pattern = " +
                                     (a2a_key ? "all_to_all" : "nearest_neighbor"));
      }
    }
    w.bytes_per_pair = p.opt_int(v, path, "bytes_per_pair", 7680);
    if (w.bytes_per_pair < 1) p.fail(path + ".bytes_per_pair", "expected an integer >= 1");
    if (v.find("bytes_per_pair_full") != nullptr) {
      out.bytes_per_pair_full = p.req_int(v, path, "bytes_per_pair_full");
      if (*out.bytes_per_pair_full < 1) {
        p.fail(path + ".bytes_per_pair_full", "expected an integer >= 1");
      }
    }
    if (const JsonValue* o = p.opt(v, path, "order", JsonValue::Kind::kString)) {
      w.order = p.parse_enum<A2aOrder>(path + ".order", o->str,
                                       {{"staggered", A2aOrder::kStaggered},
                                        {"shuffled", A2aOrder::kShuffled}},
                                       "order");
    }
    if (const JsonValue* sc = p.opt(v, path, "schedule", JsonValue::Kind::kString)) {
      w.schedule = p.parse_enum<MessageOrder>(path + ".schedule", sc->str,
                                              {{"interleaved", MessageOrder::kRoundRobin},
                                               {"sequential", MessageOrder::kSequential}},
                                              "schedule");
    }
    if (const JsonValue* m = p.opt(v, path, "mapping", JsonValue::Kind::kString)) {
      w.mapping = p.parse_enum<RankMapping>(path + ".mapping", m->str,
                                            {{"contiguous", RankMapping::kContiguous},
                                             {"random", RankMapping::kRandom}},
                                            "mapping");
    }
    if (const JsonValue* tl = p.opt(v, path, "time_limit_us", JsonValue::Kind::kNumber)) {
      if (tl->number <= 0.0) p.fail(path + ".time_limit_us", "expected a number > 0");
      out.time_limit_us = tl->number;
    }
  }

  const JsonValue& series = p.req(v, path, "series", JsonValue::Kind::kArray);
  if (series.array.empty()) p.fail(path + ".series", "series list must be non-empty");
  std::set<std::string> labels;
  for (std::size_t i = 0; i < series.array.size(); ++i) {
    const std::string ipath = path + ".series[" + std::to_string(i) + "]";
    CampaignSeries s = parse_series(p, ipath, series.array[i], out);
    // Uniqueness is judged with {routing} resolved: every series of a sweep
    // shares the same {system} substitution, so two series collide exactly
    // when their routing-resolved labels match (e.g. two default-labelled
    // "min" entries).
    const std::string resolved = expanded_series_label(s.label, s.strategy);
    if (!labels.insert(resolved).second) {
      p.fail(ipath + ".label", "duplicate series label '" + resolved + "'");
    }
    out.series.push_back(std::move(s));
  }
  return out;
}

}  // namespace

CampaignSpec parse_campaign_spec(std::string_view text, const std::string& where) {
  const JsonValue doc = parse_json(text, where);
  const Parse p{where};
  if (!doc.is_object()) p.fail("$", "campaign spec must be a JSON object");
  p.check_keys(doc, "$", {"name", "engine", "systems", "sweeps"});

  CampaignSpec out;
  out.name = p.req(doc, "$", "name", JsonValue::Kind::kString).str;
  if (out.name.empty()) p.fail("$.name", "name must be non-empty");

  if (const JsonValue* e = p.opt(doc, "$", "engine", JsonValue::Kind::kString)) {
    out.engine = p.parse_enum<SimEngine>("$.engine", e->str,
                                         {{"packet", SimEngine::kPacket},
                                          {"flow", SimEngine::kFlow}},
                                         "engine");
  }

  const JsonValue& systems = p.req(doc, "$", "systems", JsonValue::Kind::kArray);
  if (systems.array.empty()) p.fail("$.systems", "campaign needs at least one system");
  std::set<std::string> labels;
  for (std::size_t i = 0; i < systems.array.size(); ++i) {
    const std::string path = "$.systems[" + std::to_string(i) + "]";
    const JsonValue& v = systems.array[i];
    if (!v.is_object()) p.fail(path, "expected an object");
    p.check_keys(v, path, {"label", "topology", "topology_full", "fail_links"});
    CampaignSystem sys;
    sys.label = p.req(v, path, "label", JsonValue::Kind::kString).str;
    if (sys.label.empty()) p.fail(path + ".label", "label must be non-empty");
    if (!labels.insert(sys.label).second) {
      p.fail(path + ".label", "duplicate system label '" + sys.label + "'");
    }
    sys.topology = p.req(v, path, "topology", JsonValue::Kind::kString).str;
    if (sys.topology.empty()) p.fail(path + ".topology", "topology spec must be non-empty");
    if (const JsonValue* f = p.opt(v, path, "topology_full", JsonValue::Kind::kString)) {
      sys.topology_full = f->str;
    }
    if (const JsonValue* fl = p.opt(v, path, "fail_links", JsonValue::Kind::kNumber)) {
      if (fl->number < 0.0 || fl->number >= 1.0) {
        p.fail(path + ".fail_links", "expected a fraction in [0, 1)");
      }
      sys.fail_links = fl->number;
    }
    out.systems.push_back(std::move(sys));
  }

  const JsonValue& sweeps = p.req(doc, "$", "sweeps", JsonValue::Kind::kArray);
  if (sweeps.array.empty()) p.fail("$.sweeps", "campaign needs at least one sweep");
  std::set<std::string> titles;
  for (std::size_t i = 0; i < sweeps.array.size(); ++i) {
    const std::string path = "$.sweeps[" + std::to_string(i) + "]";
    CampaignSweep sw = parse_sweep(p, path, sweeps.array[i], out);
    // Raw-title uniqueness guarantees unique journal scopes: per_system
    // titles expand with distinct (unique) system labels substituted.
    if (!titles.insert(sw.title).second) {
      p.fail(path + ".title", "duplicate sweep title '" + sw.title + "'");
    }
    out.sweeps.push_back(std::move(sw));
  }
  return out;
}

SimEngine resolve_engine(const CampaignSpec& spec, SimEngine flag, bool metrics,
                         const std::string& where) {
  const SimEngine engine = spec.engine.value_or(flag);
  if (engine != SimEngine::kFlow) return engine;
  const Parse p{where};
  for (std::size_t i = 0; i < spec.sweeps.size(); ++i) {
    const CampaignSweep& sw = spec.sweeps[i];
    const flowsim::FlowGap gap = flowsim::flow_engine_gap(
        {.exchange = sw.kind == CampaignSweepKind::kExchange,
         .faults = sw.fault.has_value(),
         .metrics = metrics});
    const std::string path = "$.sweeps[" + std::to_string(i) + "]";
    switch (gap) {
      case flowsim::FlowGap::kNone: break;
      case flowsim::FlowGap::kExchange: p.fail(path, flowsim::to_string(gap));
      case flowsim::FlowGap::kFaults: p.fail(path + ".fault", flowsim::to_string(gap));
      case flowsim::FlowGap::kMetrics: p.fail("--metrics", flowsim::to_string(gap));
    }
  }
  return engine;
}

// -------------------------------------------------------------- expansion

ExpandedCampaign expand_campaign(const CampaignSpec& spec, const CampaignParams& params) {
  ExpandedCampaign out;

  // Build every system's topology up front (cheap, and validates all spec
  // strings before any simulation); minimal tables are built lazily — an
  // exchange-only campaign leaves SimStack to build its own per run.
  std::vector<const Topology*> topos;
  out.tables.assign(spec.systems.size(), nullptr);
  for (const CampaignSystem& sys : spec.systems) {
    const std::string& ts =
        params.full && !sys.topology_full.empty() ? sys.topology_full : sys.topology;
    Topology topo = [&] {
      try {
        return build_topology_from_spec(ts);
      } catch (const std::exception& e) {
        throw ArgumentError("campaign system '" + sys.label + "': " + e.what());
      }
    }();
    std::optional<CampaignLinkFailures> failures;
    if (sys.fail_links) {
      // The resilience ablation's seed rule: one stream per failure level.
      Rng rng(params.seed + static_cast<std::uint64_t>(*sys.fail_links * 1000));
      const int count = static_cast<int>(*sys.fail_links * topo.num_links());
      DegradeResult deg = remove_random_links(topo, count, rng);
      failures = CampaignLinkFailures{deg.requested, static_cast<int>(deg.removed.size())};
      topo = std::move(deg.topo);
    }
    out.topologies.push_back(std::move(topo));
    out.link_failures.push_back(failures);
    topos.push_back(&out.topologies.back());
  }
  auto ensure_table = [&](std::size_t i) {
    if (out.tables[i] == nullptr) {
      out.tables[i] = std::make_shared<const MinimalTable>(*topos[i]);
    }
    return out.tables[i];
  };

  // Traffic patterns, one per (system, traffic, shift): worst-case builds
  // its permutation from a fresh Rng seeded with the invocation seed, the
  // fig6 convention — so caching across sweeps is behavior-identical to
  // rebuilding.
  std::map<std::tuple<std::size_t, CampaignTraffic, int>, const TrafficPattern*> patterns;
  auto ensure_pattern = [&](std::size_t i, CampaignTraffic traffic, int shift) {
    const auto key = std::make_tuple(i, traffic, shift);
    auto it = patterns.find(key);
    if (it != patterns.end()) return it->second;
    std::unique_ptr<TrafficPattern> pat;
    switch (traffic) {
      case CampaignTraffic::kUniform:
        pat = std::make_unique<UniformTraffic>(topos[i]->num_nodes());
        break;
      case CampaignTraffic::kWorstCase: {
        Rng rng(params.seed);
        pat = make_worst_case(*topos[i], *ensure_table(i), rng);
        break;
      }
      case CampaignTraffic::kShift:
        pat = make_node_shift(topos[i]->num_nodes(), shift);
        break;
    }
    out.patterns.push_back(std::move(pat));
    return patterns.emplace(key, out.patterns.back().get()).first->second;
  };

  auto selected = [&](const CampaignSweep& sw) {
    std::vector<std::size_t> sel;
    if (sw.systems.empty()) {
      for (std::size_t i = 0; i < spec.systems.size(); ++i) sel.push_back(i);
      return sel;
    }
    for (const std::string& label : sw.systems) {
      for (std::size_t i = 0; i < spec.systems.size(); ++i) {
        if (spec.systems[i].label == label) sel.push_back(i);
      }
    }
    return sel;
  };

  auto make_series = [&](const CampaignSweep& sw, const CampaignSeries& s, std::size_t i) {
    SweepSeriesSpec spec_;
    spec_.label = substitute(s.label, spec.systems[i].label, to_string(s.strategy));
    spec_.topo = topos[i];
    spec_.table = ensure_table(i);
    spec_.strategy = s.strategy;
    if (s.ni || s.c) {
      UgalParams up = default_ugal_params(topos[i]->kind(),
                                          s.strategy == RoutingStrategy::kUgalThreshold);
      if (s.ni) up.num_indirect = *s.ni;
      if (s.c) up.c = *s.c;
      spec_.params = up;
    }
    spec_.pattern = ensure_pattern(i, sw.traffic, sw.shift);
    spec_.loads = sw.loads;
    if (sw.fault) {
      // Integer TimePs division (the times are part of the digested
      // output): burst a quarter into the measurement window, restored
      // halfway, sampled into duration/sample_div buckets.
      const TimePs window = params.duration - params.warmup;
      const TimePs at = params.warmup + window / sw.fault->at_div;
      const TimePs restore_after =
          sw.fault->restore_div > 0 ? window / sw.fault->restore_div : 0;
      const int count =
          std::max(1, static_cast<int>(sw.fault->frac *
                                       static_cast<double>(topos[i]->num_links())));
      spec_.fault.schedule = make_link_burst(*topos[i], at, count, params.seed, restore_after);
      spec_.fault.recovery = s.recovery;
      spec_.fault.reroute = s.reroute;
      if (sw.fault->sample_div > 0) {
        spec_.fault.recovery_sample = params.duration / sw.fault->sample_div;
      }
      if (s.detection_us) {
        spec_.fault.propagation = true;
        spec_.fault.detection_delay = us(*s.detection_us);
        if (s.flood_hop_us) spec_.fault.flood_process = us(*s.flood_hop_us);
      }
    }
    if (sw.base_seed) spec_.seed_override = params.seed;
    return spec_;
  };

  // One system's series block: each spec entry, multiplied by the grid
  // values when the sweep has a grid axis (series-major, grid-minor — the
  // adaptive benches' panel order), with {grid} resolved in the label.
  auto push_series = [&](const CampaignSweep& sw, std::size_t i,
                         std::vector<SweepSeriesSpec>& dst) {
    for (const CampaignSeries& s : sw.series) {
      if (!sw.grid) {
        dst.push_back(make_series(sw, s, i));
        continue;
      }
      for (const double v : sw.grid->values) {
        CampaignSeries g = s;
        if (sw.grid->is_ni) {
          g.ni = static_cast<int>(v);
        } else {
          g.c = v;
        }
        g.label = replace_all(g.label, "{grid}", grid_value_label(*sw.grid, v));
        dst.push_back(make_series(sw, g, i));
      }
    }
  };

  for (const CampaignSweep& sw : spec.sweeps) {
    const std::vector<std::size_t> sel = selected(sw);
    if (sw.kind == CampaignSweepKind::kExchange) {
      CampaignStep step;
      CampaignExchangeSweep ex;
      ex.title = sw.title;
      ex.workload = sw.exchange;
      if (params.full && sw.bytes_per_pair_full) {
        ex.workload.bytes_per_pair = *sw.bytes_per_pair_full;
      }
      ex.time_limit = us(sw.time_limit_us);
      for (std::size_t i : sel) {
        for (const CampaignSeries& s : sw.series) {
          ex.rows.push_back({spec.systems[i].label, s.strategy, topos[i]});
        }
      }
      step.exchange = std::move(ex);
      out.steps.push_back(std::move(step));
      continue;
    }
    if (sw.per_system) {
      for (std::size_t i : sel) {
        CampaignStep step;
        CampaignLoadSweep ls;
        ls.title = substitute(sw.title, spec.systems[i].label, "");
        push_series(sw, i, ls.series);
        step.load = std::move(ls);
        out.steps.push_back(std::move(step));
      }
    } else {
      CampaignStep step;
      CampaignLoadSweep ls;
      ls.title = sw.title;
      // System-major, series-minor: the benches' loop order, which the
      // per-point seed stream and journal keys depend on.
      for (std::size_t i : sel) push_series(sw, i, ls.series);
      step.load = std::move(ls);
      out.steps.push_back(std::move(step));
    }
  }
  return out;
}

// ----------------------------------------------------------- journal scopes

std::string exchange_table_title(const std::string& title_base, const ExchangeWorkload& w) {
  const std::string bytes = std::to_string(w.bytes_per_pair);
  if (w.pattern == ExchangePattern::kNearestNeighbor) {
    return title_base + " (" + bytes + " B/neighbor, nearest-neighbor, " +
           (w.mapping == RankMapping::kRandom ? "random" : "contiguous") + " mapping)";
  }
  const bool staggered = w.order == A2aOrder::kStaggered;
  // The default schedule keeps its historical wording: Fig. 13's title is
  // its journal scope and part of its digested output.
  const char* schedule = w.schedule == MessageOrder::kSequential
                             ? (staggered ? "staggered+sequential" : "shuffled+sequential")
                             : (staggered ? "staggered" : "shuffled+interleaved");
  return title_base + " (" + bytes + " B/pair, " + schedule + ")";
}

std::size_t step_point_count(const CampaignStep& step) {
  if (step.load) {
    std::size_t n = 0;
    for (const SweepSeriesSpec& s : step.load->series) n += s.loads.size();
    return n;
  }
  return step.exchange->rows.size();
}

std::string step_scope(const CampaignStep& step) {
  if (step.load) return step.load->title;
  return exchange_table_title(step.exchange->title, step.exchange->workload);
}

std::vector<CampaignScope> campaign_scopes(const ExpandedCampaign& plan) {
  std::vector<CampaignScope> out;
  for (const CampaignStep& step : plan.steps) {
    out.push_back({step_scope(step), step_point_count(step)});
  }
  return out;
}

}  // namespace d2net
