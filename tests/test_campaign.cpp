// Campaign-runner tests (see docs/campaigns.md): the strict JSON parser,
// spec validation (unknown keys, bad enums, empty matrices are loud
// errors), matrix expansion (labels/titles/order/table sharing/fault
// arithmetic/seed policy; every committed campaigns/*.json expands), and
// — the porting contract — executor equivalence: an expanded campaign run
// through SweepRunner must render every point byte-identically to the
// hand-written construction it ports. Exchange tables on the --jobs pool
// must match a serial run row for row and journal entry for entry, and
// resume from rows journaled by pool threads.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/error.h"
#include "common/journal.h"
#include "common/json.h"
#include "sim/campaign.h"
#include "sim/fault.h"
#include "sim/sweep_runner.h"
#include "sim/traffic.h"
#include "topology/degrade.h"
#include "topology/slim_fly.h"

namespace d2net {
namespace {

using bench::render_point_json;

// ------------------------------------------------------------- parse_json

TEST(ParseJson, ParsesScalarsArraysObjects) {
  const JsonValue v = parse_json(R"({"a": 1, "b": [2.5, "x", true, null], "c": {}})");
  ASSERT_TRUE(v.is_object());
  const JsonValue* a = v.find("a");
  ASSERT_NE(a, nullptr);
  EXPECT_TRUE(a->number_is_int);
  EXPECT_EQ(a->integer, 1);
  const JsonValue* b = v.find("b");
  ASSERT_NE(b, nullptr);
  ASSERT_EQ(b->array.size(), 4u);
  EXPECT_FALSE(b->array[0].number_is_int);
  EXPECT_DOUBLE_EQ(b->array[0].number, 2.5);
  EXPECT_EQ(b->array[1].str, "x");
  EXPECT_TRUE(b->array[2].boolean);
  EXPECT_TRUE(b->array[3].is_null());
  EXPECT_TRUE(v.find("c")->is_object());
  EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(ParseJson, DecodesEscapes) {
  const JsonValue v = parse_json(R"(["a\"b\\c\nA"])");
  EXPECT_EQ(v.array[0].str, "a\"b\\c\nA");
}

TEST(ParseJson, RejectsMalformedDocuments) {
  for (const char* bad : {
           "{",                    // unterminated object
           "[1, ]",                // trailing comma
           "{} trailing",          // junk after the document
           R"({"a": 1, "a": 2})",  // duplicate key
           R"(["unterminated)",    // unterminated string
           "[nan]",                // not a JSON literal
           "[01]",                 // leading zero
           "",                     // empty input
       }) {
    EXPECT_THROW(parse_json(bad), ArgumentError) << bad;
  }
}

TEST(ParseJson, ErrorsCarrySourceNameAndLocation) {
  try {
    parse_json("{\n  \"a\": }\n}", "my.json");
    FAIL() << "expected ArgumentError";
  } catch (const ArgumentError& e) {
    EXPECT_NE(std::string(e.what()).find("my.json"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("2:"), std::string::npos);  // line 2
  }
}

// ----------------------------------------------------- spec parse/validate

std::string parse_error(const std::string& text) {
  try {
    parse_campaign_spec(text, "spec");
  } catch (const ArgumentError& e) {
    return e.what();
  }
  return "";
}

const char* kTinySpec = R"({
  "name": "t",
  "systems": [{"label": "S", "topology": "sf:q=5"}],
  "sweeps": [{"title": "u", "loads": [0.5], "series": [{"routing": "min"}]}]
})";

TEST(CampaignSpec, ParsesMinimalSpec) {
  const CampaignSpec spec = parse_campaign_spec(kTinySpec);
  EXPECT_EQ(spec.name, "t");
  ASSERT_EQ(spec.systems.size(), 1u);
  EXPECT_EQ(spec.systems[0].topology, "sf:q=5");
  ASSERT_EQ(spec.sweeps.size(), 1u);
  EXPECT_EQ(spec.sweeps[0].kind, CampaignSweepKind::kLoadSweep);
  EXPECT_EQ(spec.sweeps[0].traffic, CampaignTraffic::kUniform);
  ASSERT_EQ(spec.sweeps[0].series.size(), 1u);
  // Default label is the fig6 convention.
  EXPECT_EQ(spec.sweeps[0].series[0].label, "{system} {routing}");
}

TEST(CampaignSpec, RejectsUnknownKeysAtEveryLevel) {
  EXPECT_NE(parse_error(R"({"name": "t", "bogus": 1, "systems": [{"label": "S",
      "topology": "sf:q=5"}], "sweeps": [{"title": "u", "loads": [0.5],
      "series": [{"routing": "min"}]}]})")
                .find("unknown key 'bogus'"),
            std::string::npos);
  EXPECT_NE(parse_error(R"({"name": "t", "systems": [{"label": "S",
      "topology": "sf:q=5", "typo": true}], "sweeps": [{"title": "u", "loads": [0.5],
      "series": [{"routing": "min"}]}]})")
                .find("$.systems[0]: unknown key 'typo'"),
            std::string::npos);
  EXPECT_NE(parse_error(R"({"name": "t", "systems": [{"label": "S",
      "topology": "sf:q=5"}], "sweeps": [{"title": "u", "loads": [0.5], "warmup": 1,
      "series": [{"routing": "min"}]}]})")
                .find("$.sweeps[0]: unknown key 'warmup'"),
            std::string::npos);
  EXPECT_NE(parse_error(R"({"name": "t", "systems": [{"label": "S",
      "topology": "sf:q=5"}], "sweeps": [{"title": "u", "loads": [0.5],
      "series": [{"routing": "min", "speed": 9}]}]})")
                .find("series[0]: unknown key 'speed'"),
            std::string::npos);
  EXPECT_NE(parse_error(R"({"name": "t", "systems": [{"label": "S",
      "topology": "sf:q=5"}], "sweeps": [{"title": "u", "loads": [0.5],
      "fault": {"frac": 0.1, "when": 2}, "series": [{"routing": "min"}]}]})")
                .find("fault: unknown key 'when'"),
            std::string::npos);
}

TEST(CampaignSpec, RejectsBadEnums) {
  EXPECT_NE(parse_error(R"({"name": "t", "systems": [{"label": "S",
      "topology": "sf:q=5"}], "sweeps": [{"title": "u", "loads": [0.5],
      "series": [{"routing": "fastest"}]}]})")
                .find("unknown routing 'fastest'"),
            std::string::npos);
  EXPECT_NE(parse_error(R"({"name": "t", "systems": [{"label": "S",
      "topology": "sf:q=5"}], "sweeps": [{"title": "u", "traffic": "bursty",
      "loads": [0.5], "series": [{"routing": "min"}]}]})")
                .find("unknown traffic 'bursty'"),
            std::string::npos);
}

TEST(CampaignSpec, RejectsEmptyMatrices) {
  EXPECT_NE(parse_error(R"({"name": "t", "systems": [],
      "sweeps": [{"title": "u", "loads": [0.5], "series": [{"routing": "min"}]}]})")
                .find("at least one system"),
            std::string::npos);
  EXPECT_NE(parse_error(R"({"name": "t", "systems": [{"label": "S",
      "topology": "sf:q=5"}], "sweeps": []})")
                .find("at least one sweep"),
            std::string::npos);
  EXPECT_NE(parse_error(R"({"name": "t", "systems": [{"label": "S",
      "topology": "sf:q=5"}], "sweeps": [{"title": "u", "loads": [],
      "series": [{"routing": "min"}]}]})")
                .find("load grid must be non-empty"),
            std::string::npos);
  EXPECT_NE(parse_error(R"({"name": "t", "systems": [{"label": "S",
      "topology": "sf:q=5"}], "sweeps": [{"title": "u", "loads": [0.5],
      "series": []}]})")
                .find("series list must be non-empty"),
            std::string::npos);
}

TEST(CampaignSpec, RejectsCrossKindKeysWithTargetedMessage) {
  // A load-sweep key on an exchange sweep names the misplacement, not just
  // "unknown key".
  EXPECT_NE(parse_error(R"({"name": "t", "systems": [{"label": "S",
      "topology": "sf:q=5"}], "sweeps": [{"title": "u", "kind": "exchange",
      "loads": [0.5], "series": [{"routing": "min"}]}]})")
                .find("only valid for load_sweep sweeps"),
            std::string::npos);
  EXPECT_NE(parse_error(R"({"name": "t", "systems": [{"label": "S",
      "topology": "sf:q=5"}], "sweeps": [{"title": "u", "bytes_per_pair": 64,
      "loads": [0.5], "series": [{"routing": "min"}]}]})")
                .find("only valid for exchange sweeps"),
            std::string::npos);
}

TEST(CampaignSpec, ValidatesTemplatesFiltersAndDuplicates) {
  // per_system needs {system} in the title, and vice versa.
  EXPECT_NE(parse_error(R"({"name": "t", "systems": [{"label": "S",
      "topology": "sf:q=5"}], "sweeps": [{"title": "u", "per_system": true,
      "loads": [0.5], "series": [{"routing": "min"}]}]})")
                .find("need '{system}' in the title"),
            std::string::npos);
  EXPECT_NE(parse_error(R"({"name": "t", "systems": [{"label": "S",
      "topology": "sf:q=5"}], "sweeps": [{"title": "u {system}", "loads": [0.5],
      "series": [{"routing": "min"}]}]})")
                .find("requires per_system"),
            std::string::npos);
  EXPECT_NE(parse_error(R"({"name": "t", "systems": [{"label": "S",
      "topology": "sf:q=5"}], "sweeps": [{"title": "u", "systems": ["Nope"],
      "loads": [0.5], "series": [{"routing": "min"}]}]})")
                .find("unknown system 'Nope'"),
            std::string::npos);
  EXPECT_NE(parse_error(R"({"name": "t", "systems": [{"label": "S",
      "topology": "sf:q=5"}, {"label": "S", "topology": "oft:k=4"}],
      "sweeps": [{"title": "u", "loads": [0.5], "series": [{"routing": "min"}]}]})")
                .find("duplicate system label"),
            std::string::npos);
  EXPECT_NE(parse_error(R"({"name": "t", "systems": [{"label": "S",
      "topology": "sf:q=5"}], "sweeps": [
      {"title": "u", "loads": [0.5], "series": [{"routing": "min"}]},
      {"title": "u", "loads": [0.5], "series": [{"routing": "min"}]}]})")
                .find("duplicate sweep title"),
            std::string::npos);
  // Two default-labelled series with the same routing collide; with
  // different routings the resolved labels differ and parse fine.
  EXPECT_NE(parse_error(R"({"name": "t", "systems": [{"label": "S",
      "topology": "sf:q=5"}], "sweeps": [{"title": "u", "loads": [0.5],
      "series": [{"routing": "min"}, {"routing": "min"}]}]})")
                .find("duplicate series label"),
            std::string::npos);
  EXPECT_EQ(parse_error(R"({"name": "t", "systems": [{"label": "S",
      "topology": "sf:q=5"}], "sweeps": [{"title": "u", "loads": [0.5],
      "series": [{"routing": "min"}, {"routing": "valiant"}]}]})"),
            "");
}

TEST(CampaignSpec, ValidatesFaultAndSeriesKnobs) {
  // recovery/reroute on a series require the sweep to schedule faults.
  EXPECT_NE(parse_error(R"({"name": "t", "systems": [{"label": "S",
      "topology": "sf:q=5"}], "sweeps": [{"title": "u", "loads": [0.5],
      "series": [{"routing": "min", "recovery": "none"}]}]})")
                .find("requires a sweep 'fault'"),
            std::string::npos);
  EXPECT_NE(parse_error(R"({"name": "t", "systems": [{"label": "S",
      "topology": "sf:q=5"}], "sweeps": [{"title": "u", "loads": [0.5],
      "fault": {"frac": 1.5}, "series": [{"routing": "min"}]}]})")
                .find("fraction in (0, 1]"),
            std::string::npos);
  // shift is tied to traffic = shift.
  EXPECT_NE(parse_error(R"({"name": "t", "systems": [{"label": "S",
      "topology": "sf:q=5"}], "sweeps": [{"title": "u", "shift": 3,
      "loads": [0.5], "series": [{"routing": "min"}]}]})")
                .find("'shift' requires traffic = shift"),
            std::string::npos);
  EXPECT_NE(parse_error(R"({"name": "t", "systems": [{"label": "S",
      "topology": "sf:q=5"}], "sweeps": [{"title": "u", "traffic": "shift",
      "loads": [0.5], "series": [{"routing": "min"}]}]})")
                .find("missing required key 'shift'"),
            std::string::npos);
}

TEST(CampaignSpec, ValidatesGridAxis) {
  // grid is a load-sweep axis.
  EXPECT_NE(parse_error(R"({"name": "t", "systems": [{"label": "S",
      "topology": "sf:q=5"}], "sweeps": [{"title": "u", "kind": "exchange",
      "grid": {"param": "ni", "values": [1]}, "series": [{"routing": "min"}]}]})")
                .find("only valid for load_sweep sweeps"),
            std::string::npos);
  EXPECT_NE(parse_error(R"({"name": "t", "systems": [{"label": "S",
      "topology": "sf:q=5"}], "sweeps": [{"title": "u", "loads": [0.5],
      "grid": {"param": "speed", "values": [1]}, "series": [{"routing": "ugal"}]}]})")
                .find("unknown grid param 'speed'"),
            std::string::npos);
  EXPECT_NE(parse_error(R"({"name": "t", "systems": [{"label": "S",
      "topology": "sf:q=5"}], "sweeps": [{"title": "u", "loads": [0.5],
      "grid": {"param": "ni", "values": []}, "series": [{"routing": "ugal"}]}]})")
                .find("grid values must be non-empty"),
            std::string::npos);
  // ni values must be integers >= 1; c values numbers > 0.
  EXPECT_NE(parse_error(R"({"name": "t", "systems": [{"label": "S",
      "topology": "sf:q=5"}], "sweeps": [{"title": "u", "loads": [0.5],
      "grid": {"param": "ni", "values": [2.5]}, "series": [{"routing": "ugal"}]}]})")
                .find("expected an integer >= 1"),
            std::string::npos);
  EXPECT_NE(parse_error(R"({"name": "t", "systems": [{"label": "S",
      "topology": "sf:q=5"}], "sweeps": [{"title": "u", "loads": [0.5],
      "grid": {"param": "c", "values": [0.0]}, "series": [{"routing": "ugal"}]}]})")
                .find("expected a number > 0"),
            std::string::npos);
  // A series cannot pin the knob the grid varies.
  EXPECT_NE(parse_error(R"({"name": "t", "systems": [{"label": "S",
      "topology": "sf:q=5"}], "sweeps": [{"title": "u", "loads": [0.5],
      "grid": {"param": "ni", "values": [1, 4]},
      "series": [{"routing": "ugal", "ni": 2}]}]})")
                .find("already varies 'ni'"),
            std::string::npos);
  EXPECT_NE(parse_error(R"({"name": "t", "systems": [{"label": "S",
      "topology": "sf:q=5"}], "sweeps": [{"title": "u", "loads": [0.5],
      "grid": {"param": "c", "values": [0.25]},
      "series": [{"routing": "ugal", "c": 1.0}]}]})")
                .find("already varies 'c'"),
            std::string::npos);
  // Custom labels on a grid sweep must carry the {grid} placeholder, or the
  // expanded series would collide.
  EXPECT_NE(parse_error(R"({"name": "t", "systems": [{"label": "S",
      "topology": "sf:q=5"}], "sweeps": [{"title": "u", "loads": [0.5],
      "grid": {"param": "ni", "values": [1, 4]},
      "series": [{"label": "ugal", "routing": "ugal"}]}]})")
                .find("must contain '{grid}'"),
            std::string::npos);
  // Default label under a grid is the bare placeholder.
  const CampaignSpec ok = parse_campaign_spec(R"({"name": "t",
      "systems": [{"label": "S", "topology": "sf:q=5"}],
      "sweeps": [{"title": "u", "loads": [0.5],
      "grid": {"param": "ni", "values": [1, 4]},
      "series": [{"routing": "ugal"}]}]})");
  ASSERT_TRUE(ok.sweeps[0].grid.has_value());
  EXPECT_TRUE(ok.sweeps[0].grid->is_ni);
  EXPECT_EQ(ok.sweeps[0].series[0].label, "{grid}");
}

TEST(CampaignSpec, ValidatesPropagationKnobs) {
  EXPECT_NE(parse_error(R"({"name": "t", "systems": [{"label": "S",
      "topology": "sf:q=5"}], "sweeps": [{"title": "u", "loads": [0.5],
      "series": [{"routing": "ugal_th", "detection_us": 0.5}]}]})")
                .find("requires a sweep 'fault'"),
            std::string::npos);
  EXPECT_NE(parse_error(R"({"name": "t", "systems": [{"label": "S",
      "topology": "sf:q=5"}], "sweeps": [{"title": "u", "loads": [0.5],
      "fault": {"frac": 0.05},
      "series": [{"routing": "ugal_th", "flood_hop_us": 0.1}]}]})")
                .find("requires 'detection_us'"),
            std::string::npos);
  EXPECT_NE(parse_error(R"({"name": "t", "systems": [{"label": "S",
      "topology": "sf:q=5"}], "sweeps": [{"title": "u", "loads": [0.5],
      "fault": {"frac": 0.05},
      "series": [{"routing": "ugal_th", "detection_us": 0}]}]})")
                .find("expected a number > 0"),
            std::string::npos);
}

TEST(CampaignSpec, ValidatesExchangeWorkloadAndFailLinks) {
  auto exchange = [](const std::string& keys) {
    return parse_error(R"({"name": "t", "systems": [{"label": "S",
        "topology": "sf:q=5"}], "sweeps": [{"title": "x", "kind": "exchange", )" +
                       keys + R"(, "series": [{"routing": "min"}]}]})");
  };
  // Each knob belongs to one pattern.
  EXPECT_NE(exchange(R"("mapping": "random")").find("'mapping' requires pattern = "
                                                    "nearest_neighbor"),
            std::string::npos);
  EXPECT_NE(exchange(R"("pattern": "nearest_neighbor", "order": "staggered")")
                .find("'order' requires pattern = all_to_all"),
            std::string::npos);
  EXPECT_NE(exchange(R"("pattern": "nearest_neighbor", "schedule": "sequential")")
                .find("'schedule' requires pattern = all_to_all"),
            std::string::npos);
  EXPECT_NE(exchange(R"("pattern": "ring")").find("unknown exchange pattern 'ring'"),
            std::string::npos);
  EXPECT_NE(exchange(R"("schedule": "bursty")").find("unknown schedule 'bursty'"),
            std::string::npos);
  EXPECT_NE(exchange(R"("bytes_per_pair_full": 0)").find("expected an integer >= 1"),
            std::string::npos);
  EXPECT_EQ(exchange(R"("pattern": "nearest_neighbor", "mapping": "random")"), "");
  EXPECT_EQ(exchange(R"("schedule": "sequential", "order": "staggered")"), "");

  // fail_links is a fraction in [0, 1).
  auto system = [](const std::string& fail) {
    return parse_error(R"({"name": "t", "systems": [{"label": "S", "topology": "sf:q=5",
        "fail_links": )" + fail + R"(}], "sweeps": [{"title": "u", "loads": [0.5],
        "series": [{"routing": "min"}]}]})");
  };
  EXPECT_NE(system("-0.01").find("fail_links: expected a fraction in [0, 1)"),
            std::string::npos);
  EXPECT_NE(system("1.0").find("fail_links: expected a fraction in [0, 1)"),
            std::string::npos);
  EXPECT_EQ(system("0"), "");
  EXPECT_EQ(system("0.1"), "");
}

// --------------------------------------------------------------- expansion

const char* kMatrixSpec = R"({
  "name": "m",
  "systems": [
    {"label": "A", "topology": "sf:q=5", "topology_full": "sf:q=7"},
    {"label": "B", "topology": "oft:k=4"}
  ],
  "sweeps": [
    {"title": "uni", "traffic": "uniform", "loads": [0.2, 0.4],
     "series": [{"routing": "min"}, {"routing": "valiant"}]},
    {"title": "faults — {system}", "per_system": true, "seed_mode": "base",
     "systems": ["A"], "loads": [0.7],
     "fault": {"frac": 0.05, "at_div": 4, "restore_div": 4, "sample_div": 12},
     "series": [
       {"label": "MIN static", "routing": "min", "recovery": "none", "reroute": false},
       {"label": "UGAL-Th reroute", "routing": "ugal_th"}]},
    {"title": "a2a", "kind": "exchange", "bytes_per_pair": 64,
     "series": [{"routing": "min"}, {"routing": "ugal_th"}]}
  ]
})";

TEST(CampaignExpansion, ExpandsTheMatrixInBenchOrder) {
  const CampaignSpec spec = parse_campaign_spec(kMatrixSpec);
  CampaignParams params;
  params.seed = 3;
  params.duration = us(16);
  params.warmup = us(4);
  const ExpandedCampaign plan = expand_campaign(spec, params);
  ASSERT_EQ(plan.steps.size(), 3u);

  // Sweep 1: system-major, series-minor; default labels resolve.
  const CampaignLoadSweep& uni = *plan.steps[0].load;
  EXPECT_EQ(uni.title, "uni");
  ASSERT_EQ(uni.series.size(), 4u);
  EXPECT_EQ(uni.series[0].label, "A MIN");
  EXPECT_EQ(uni.series[1].label, "A INR");
  EXPECT_EQ(uni.series[2].label, "B MIN");
  EXPECT_EQ(uni.series[3].label, "B INR");
  // One shared table and pattern per system; derived per-point seeds.
  EXPECT_EQ(uni.series[0].table.get(), uni.series[1].table.get());
  EXPECT_NE(uni.series[0].table.get(), uni.series[2].table.get());
  EXPECT_EQ(uni.series[0].pattern, uni.series[1].pattern);
  EXPECT_FALSE(uni.series[0].seed_override.has_value());
  EXPECT_FALSE(uni.series[0].fault.enabled());
  EXPECT_EQ(uni.series[0].loads, (std::vector<double>{0.2, 0.4}));

  // Sweep 2: per-system fault sweep, filtered to A, pinned to the base seed.
  const CampaignLoadSweep& faults = *plan.steps[1].load;
  EXPECT_EQ(faults.title, "faults — A");
  ASSERT_EQ(faults.series.size(), 2u);
  EXPECT_EQ(faults.series[0].label, "MIN static");
  EXPECT_EQ(faults.series[1].label, "UGAL-Th reroute");
  ASSERT_TRUE(faults.series[0].seed_override.has_value());
  EXPECT_EQ(*faults.series[0].seed_override, 3u);
  EXPECT_EQ(faults.series[0].fault.recovery, FaultRecovery::kNone);
  EXPECT_FALSE(faults.series[0].fault.reroute);
  EXPECT_EQ(faults.series[1].fault.recovery, FaultRecovery::kSalvage);
  EXPECT_TRUE(faults.series[1].fault.reroute);
  // The transient-faults bench's arithmetic, reproduced exactly.
  const Topology& topo_a = plan.topologies[0];
  const TimePs t_burst = params.warmup + (params.duration - params.warmup) / 4;
  const int count = std::max(1, static_cast<int>(0.05 * topo_a.num_links()));
  const auto expected =
      make_link_burst(topo_a, t_burst, count, params.seed,
                      (params.duration - params.warmup) / 4);
  ASSERT_EQ(faults.series[0].fault.schedule.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(faults.series[0].fault.schedule[i].time, expected[i].time);
    EXPECT_EQ(faults.series[0].fault.schedule[i].a, expected[i].a);
    EXPECT_EQ(faults.series[0].fault.schedule[i].b, expected[i].b);
  }
  EXPECT_EQ(faults.series[0].fault.recovery_sample, params.duration / 12);
  // Both fault series share the burst (the contrast is recovery policy).
  ASSERT_EQ(faults.series[1].fault.schedule.size(), expected.size());
  EXPECT_EQ(faults.series[1].fault.schedule[0].time, expected[0].time);

  // Sweep 3: exchange rows, system-major x series-minor.
  const CampaignExchangeSweep& ex = *plan.steps[2].exchange;
  EXPECT_EQ(ex.workload.bytes_per_pair, 64);
  // The default workload keeps Fig. 13's composed title (its journal scope).
  EXPECT_EQ(step_scope(plan.steps[2]), "a2a (64 B/pair, shuffled+interleaved)");
  ASSERT_EQ(ex.rows.size(), 4u);
  EXPECT_EQ(ex.rows[0].system, "A");
  EXPECT_EQ(ex.rows[1].system, "A");
  EXPECT_EQ(ex.rows[1].strategy, RoutingStrategy::kUgalThreshold);
  EXPECT_EQ(ex.rows[2].system, "B");
  EXPECT_EQ(ex.rows[0].topo, &plan.topologies[0]);
  EXPECT_EQ(ex.rows[2].topo, &plan.topologies[1]);

  // The journal key space --status counts against: one scope per step,
  // series x loads points for a sweep, one per row for an exchange.
  const std::vector<CampaignScope> scopes = campaign_scopes(plan);
  ASSERT_EQ(scopes.size(), 3u);
  EXPECT_EQ(scopes[0].scope, "uni");
  EXPECT_EQ(scopes[0].points, 8u);
  EXPECT_EQ(scopes[1].scope, "faults — A");
  EXPECT_EQ(scopes[1].points, 2u);
  EXPECT_EQ(scopes[2].scope, "a2a (64 B/pair, shuffled+interleaved)");
  EXPECT_EQ(scopes[2].points, 4u);
}

TEST(CampaignExpansion, GridExpandsSeriesMajorGridMinor) {
  // The adaptive-panel shape (fig8): one spec series crossed with the grid
  // values, labels resolved the benches' way ("nI=4", "c=0.25").
  const CampaignSpec spec = parse_campaign_spec(R"({
    "name": "g",
    "systems": [{"label": "SF", "topology": "sf:q=5"}],
    "sweeps": [
      {"title": "vary nI", "loads": [0.5],
       "grid": {"param": "ni", "values": [1, 4, 8]},
       "series": [{"routing": "ugal_th", "c": 1.0}]},
      {"title": "vary c", "loads": [0.5],
       "grid": {"param": "c", "values": [0.25, 1.0, 4.0]},
       "series": [{"routing": "ugal_th", "ni": 4}]}
    ]
  })");
  const ExpandedCampaign plan = expand_campaign(spec, CampaignParams{});
  ASSERT_EQ(plan.steps.size(), 2u);

  const CampaignLoadSweep& ni = *plan.steps[0].load;
  ASSERT_EQ(ni.series.size(), 3u);
  EXPECT_EQ(ni.series[0].label, "nI=1");
  EXPECT_EQ(ni.series[1].label, "nI=4");
  EXPECT_EQ(ni.series[2].label, "nI=8");
  for (std::size_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(ni.series[i].params.has_value()) << i;
    EXPECT_DOUBLE_EQ(ni.series[i].params->c, 1.0) << i;
  }
  EXPECT_EQ(ni.series[0].params->num_indirect, 1);
  EXPECT_EQ(ni.series[2].params->num_indirect, 8);

  const CampaignLoadSweep& c = *plan.steps[1].load;
  ASSERT_EQ(c.series.size(), 3u);
  EXPECT_EQ(c.series[0].label, "c=0.25");
  EXPECT_EQ(c.series[1].label, "c=1.00");
  EXPECT_EQ(c.series[2].label, "c=4.00");
  ASSERT_TRUE(c.series[0].params.has_value());
  EXPECT_EQ(c.series[0].params->num_indirect, 4);
  EXPECT_DOUBLE_EQ(c.series[0].params->c, 0.25);
  EXPECT_DOUBLE_EQ(c.series[2].params->c, 4.0);
}

TEST(CampaignExpansion, PropagationKnobsReachTheFaultConfig) {
  const CampaignSpec spec = parse_campaign_spec(R"({
    "name": "p",
    "systems": [{"label": "SF", "topology": "sf:q=5"}],
    "sweeps": [{"title": "prop", "loads": [0.5],
                "fault": {"frac": 0.05},
                "series": [
                  {"label": "oracle", "routing": "ugal_th"},
                  {"label": "modeled", "routing": "ugal_th",
                   "detection_us": 0.5, "flood_hop_us": 0.2}]}]
  })");
  CampaignParams params;
  params.duration = us(8);
  params.warmup = us(2);
  const ExpandedCampaign plan = expand_campaign(spec, params);
  const CampaignLoadSweep& ls = *plan.steps[0].load;
  ASSERT_EQ(ls.series.size(), 2u);
  EXPECT_FALSE(ls.series[0].fault.propagation);
  EXPECT_TRUE(ls.series[1].fault.propagation);
  EXPECT_EQ(ls.series[1].fault.detection_delay, us(0.5));
  EXPECT_EQ(ls.series[1].fault.flood_process, us(0.2));
  // Both series still share the sweep burst.
  ASSERT_FALSE(ls.series[1].fault.schedule.empty());
  EXPECT_EQ(ls.series[0].fault.schedule.size(), ls.series[1].fault.schedule.size());
}

TEST(CampaignExpansion, FullSelectsTheFullTopologyWhenPresent) {
  const CampaignSpec spec = parse_campaign_spec(kMatrixSpec);
  CampaignParams dflt;
  CampaignParams full;
  full.full = true;
  const ExpandedCampaign a = expand_campaign(spec, dflt);
  const ExpandedCampaign b = expand_campaign(spec, full);
  // A has a topology_full (sf:q=7 is bigger); B falls back to its default.
  EXPECT_GT(b.topologies[0].num_nodes(), a.topologies[0].num_nodes());
  EXPECT_EQ(b.topologies[1].num_nodes(), a.topologies[1].num_nodes());
}

TEST(CampaignExpansion, FailLinksRemovesTheDocumentedLinkSet) {
  const CampaignSpec spec = parse_campaign_spec(R"({"name": "t",
    "systems": [{"label": "intact", "topology": "sf:q=5"},
                {"label": "5%", "topology": "sf:q=5", "fail_links": 0.05}],
    "sweeps": [{"title": "u", "loads": [0.5], "series": [{"routing": "min"}]}]})");
  CampaignParams params;
  params.seed = 9;
  const ExpandedCampaign plan = expand_campaign(spec, params);

  const Topology base = build_slim_fly(5);
  Rng rng(9 + 50);  // seed + frac * 1000
  const DegradeResult want =
      remove_random_links(base, static_cast<int>(0.05 * base.num_links()), rng);
  const Topology& got = plan.topologies[1];
  ASSERT_EQ(got.num_links(), want.topo.num_links());
  for (int i = 0; i < got.num_links(); ++i) {
    EXPECT_EQ(got.links()[i].r1, want.topo.links()[i].r1) << "link " << i;
    EXPECT_EQ(got.links()[i].r2, want.topo.links()[i].r2) << "link " << i;
  }
  EXPECT_EQ(plan.topologies[0].num_links(), base.num_links());
  EXPECT_FALSE(plan.link_failures[0].has_value());
  ASSERT_TRUE(plan.link_failures[1].has_value());
  EXPECT_EQ(plan.link_failures[1]->requested, want.requested);
  EXPECT_EQ(plan.link_failures[1]->removed, static_cast<int>(want.removed.size()));
}

TEST(CampaignExpansion, FullSelectsTheFullExchangePayload) {
  const CampaignSpec spec = parse_campaign_spec(R"({"name": "t",
    "systems": [{"label": "S", "topology": "sf:q=5"}],
    "sweeps": [{"title": "nn", "kind": "exchange", "pattern": "nearest_neighbor",
                "bytes_per_pair": 64, "bytes_per_pair_full": 4096,
                "series": [{"routing": "min"}]}]})");
  CampaignParams full;
  full.full = true;
  EXPECT_EQ(step_scope(expand_campaign(spec, CampaignParams{}).steps[0]),
            "nn (64 B/neighbor, nearest-neighbor, contiguous mapping)");
  EXPECT_EQ(step_scope(expand_campaign(spec, full).steps[0]),
            "nn (4096 B/neighbor, nearest-neighbor, contiguous mapping)");
}

TEST(CampaignExpansion, RejectsBadTopologySpecWithSystemContext) {
  const CampaignSpec spec = parse_campaign_spec(R"({"name": "t",
    "systems": [{"label": "S", "topology": "sf:q=6"}],
    "sweeps": [{"title": "u", "loads": [0.5], "series": [{"routing": "min"}]}]})");
  try {
    expand_campaign(spec, CampaignParams{});
    FAIL() << "expected ArgumentError";
  } catch (const ArgumentError& e) {
    EXPECT_NE(std::string(e.what()).find("campaign system 'S'"), std::string::npos);
  }
}

TEST(CampaignExpansion, BadTopologyParametersReadAsPlainSpecErrors) {
  // A bad parameter in a spec string is a usage error: the message names
  // the system and the rule, never a source path or a stringified
  // condition.
  auto error_for = [](const std::string& topology) {
    const CampaignSpec spec = parse_campaign_spec(R"({"name": "t",
      "systems": [{"label": "D", "topology": ")" + topology + R"("}],
      "sweeps": [{"title": "u", "loads": [0.5], "series": [{"routing": "min"}]}]})");
    try {
      expand_campaign(spec, CampaignParams{});
    } catch (const ArgumentError& e) {
      return std::string(e.what());
    }
    return std::string("no error");
  };
  EXPECT_EQ(error_for("dragonfly:r=16"),
            "campaign system 'D': balanced Dragonfly needs radix with (r+1) % 4 == 0, "
            "got r = 16");
  for (const char* bad : {"sf:q=6", "sf:q=2", "sf:q=abc", "mlfm:h=1", "oft:k=7",
                          "hyperx:r=4", "hyperx:s1=1,s2=3,p=1", "ft2:r=3", "ft3:r=5",
                          "dragonfly:a=1,h=1,p=1", "sspt:r1=1,r2=2", "sspt:r1=4,r2=3",
                          "sf:q", "bogus:k=3"}) {
    const std::string msg = error_for(bad);
    SCOPED_TRACE(std::string(bad) + " -> " + msg);
    EXPECT_EQ(msg.rfind("campaign system 'D': ", 0), 0u);
    EXPECT_EQ(msg.find("requirement failed"), std::string::npos);
    EXPECT_EQ(msg.find(".cpp"), std::string::npos);
  }
}

TEST(CampaignSpec, EveryCommittedSpecParsesAndExpands) {
  std::vector<std::filesystem::path> specs;
  for (const auto& entry : std::filesystem::directory_iterator(D2NET_CAMPAIGNS_DIR)) {
    if (entry.path().extension() == ".json") specs.push_back(entry.path());
  }
  ASSERT_FALSE(specs.empty()) << "no specs under " << D2NET_CAMPAIGNS_DIR;
  CampaignParams params;
  params.duration = us(16.0);
  params.warmup = us(4.0);
  for (const auto& path : specs) {
    SCOPED_TRACE(path.string());
    std::ifstream in(path, std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    const CampaignSpec spec = parse_campaign_spec(text.str(), path.string());
    const ExpandedCampaign plan = expand_campaign(spec, params);
    std::size_t points = 0;
    for (const CampaignStep& step : plan.steps) points += step_point_count(step);
    EXPECT_GT(points, 0u);
  }
}

// ---------------------------------------------------- executor equivalence
//
// The porting contract, at unit scale: running an expanded campaign sweep
// through SweepRunner renders every point byte-identically to the
// hand-written SweepSeriesSpec construction it replaces.

TEST(CampaignEquivalence, ExpandedSweepMatchesHandWrittenConstruction) {
  const CampaignSpec spec = parse_campaign_spec(R"({
    "name": "e",
    "systems": [{"label": "SF", "topology": "sf:q=5"}],
    "sweeps": [{"title": "uni", "loads": [0.3, 0.6],
                "series": [{"routing": "min"}, {"routing": "valiant"}]}]
  })");
  CampaignParams params;
  params.seed = 7;
  params.duration = us(2);
  params.warmup = us(0.5);
  const ExpandedCampaign plan = expand_campaign(spec, params);
  ASSERT_EQ(plan.steps.size(), 1u);

  SweepRunOptions opts;
  opts.jobs = 1;
  opts.config.seed = params.seed;
  opts.duration = params.duration;
  opts.warmup = params.warmup;
  SweepRunner campaign_runner(opts);
  const auto campaign = campaign_runner.run(plan.steps[0].load->series);

  // The fig6-style hand-written construction of the same sweep.
  const Topology topo = build_slim_fly(5);
  const auto table = std::make_shared<const MinimalTable>(topo);
  const UniformTraffic uni(topo.num_nodes());
  std::vector<SweepSeriesSpec> hand;
  for (RoutingStrategy s : {RoutingStrategy::kMinimal, RoutingStrategy::kValiant}) {
    SweepSeriesSpec sp;
    sp.label = std::string("SF ") + to_string(s);
    sp.topo = &topo;
    sp.table = table;
    sp.strategy = s;
    sp.pattern = &uni;
    sp.loads = {0.3, 0.6};
    hand.push_back(std::move(sp));
  }
  SweepRunner hand_runner(opts);
  const auto expected = hand_runner.run(hand);

  ASSERT_EQ(campaign.size(), expected.size());
  for (std::size_t s = 0; s < expected.size(); ++s) {
    EXPECT_EQ(plan.steps[0].load->series[s].label, hand[s].label);
    ASSERT_EQ(campaign[s].size(), expected[s].size());
    for (std::size_t i = 0; i < expected[s].size(); ++i) {
      EXPECT_EQ(render_point_json(campaign[s][i]), render_point_json(expected[s][i]))
          << "series " << s << " point " << i;
    }
  }
}

TEST(CampaignEquivalence, BaseSeedFaultSeriesMatchesDirectSimStack) {
  // The transient-faults port: seed_mode = base + a per-series fault config
  // must reproduce the serial bench's direct SimStack run bit-for-bit.
  const CampaignSpec spec = parse_campaign_spec(R"({
    "name": "e",
    "systems": [{"label": "SF", "topology": "sf:q=5"}],
    "sweeps": [{"title": "tf — {system}", "per_system": true, "seed_mode": "base",
                "loads": [0.7],
                "fault": {"frac": 0.05, "at_div": 4, "restore_div": 4, "sample_div": 12},
                "series": [{"label": "MIN static", "routing": "min",
                            "recovery": "none", "reroute": false}]}]
  })");
  CampaignParams params;
  params.seed = 11;
  params.duration = us(4);
  params.warmup = us(1);
  const ExpandedCampaign plan = expand_campaign(spec, params);

  SweepRunOptions opts;
  opts.jobs = 1;
  opts.config.seed = params.seed;
  opts.duration = params.duration;
  opts.warmup = params.warmup;
  SweepRunner runner(opts);
  const auto campaign = runner.run(plan.steps[0].load->series);

  // The bench's construction: default SimConfig + seed + fault schedule.
  const Topology topo = build_slim_fly(5);
  SimConfig cfg;
  cfg.seed = params.seed;
  const TimePs t_burst = params.warmup + (params.duration - params.warmup) / 4;
  const int count = std::max(1, static_cast<int>(0.05 * topo.num_links()));
  cfg.fault.schedule = make_link_burst(topo, t_burst, count, params.seed,
                                       (params.duration - params.warmup) / 4);
  cfg.fault.recovery = FaultRecovery::kNone;
  cfg.fault.reroute = false;
  cfg.fault.recovery_sample = params.duration / 12;
  const UniformTraffic uni(topo.num_nodes());
  SimStack stack(topo, RoutingStrategy::kMinimal, cfg);
  SweepPoint direct;
  direct.offered = 0.7;
  direct.result = stack.run_open_loop(uni, 0.7, params.duration, params.warmup);

  ASSERT_EQ(campaign.size(), 1u);
  ASSERT_EQ(campaign[0].size(), 1u);
  EXPECT_EQ(render_point_json(campaign[0][0]), render_point_json(direct));
}

TEST(CampaignEquivalence, ExchangeWorkloadRowsMatchHandBuiltPlans) {
  // The Fig. 14 mapping and A2A schedule ports: an expanded exchange row
  // must render exactly like SimStack::run_exchange on the plan the
  // ablation benches built by hand. Messages span several packets, so the
  // sequential schedule differs from the interleaved one.
  const CampaignSpec spec = parse_campaign_spec(R"({
    "name": "e",
    "systems": [{"label": "SF", "topology": "sf:q=5"}],
    "sweeps": [
      {"title": "nn", "kind": "exchange", "pattern": "nearest_neighbor",
       "mapping": "random", "bytes_per_pair": 512, "time_limit_us": 20000000,
       "series": [{"routing": "ugal_th"}]},
      {"title": "a2a", "kind": "exchange", "schedule": "sequential",
       "order": "staggered", "bytes_per_pair": 1024, "time_limit_us": 10000000,
       "series": [{"routing": "min"}]}]
  })");
  CampaignParams params;
  params.seed = 5;
  const ExpandedCampaign plan = expand_campaign(spec, params);
  ASSERT_EQ(plan.steps.size(), 2u);

  bench::BenchOptions opts;
  opts.seed = params.seed;
  const auto nn = bench::run_exchange_table(*plan.steps[0].exchange, opts, nullptr);
  const auto a2a = bench::run_exchange_table(*plan.steps[1].exchange, opts, nullptr);
  ASSERT_EQ(nn.size(), 1u);
  ASSERT_EQ(a2a.size(), 1u);

  const Topology topo = build_slim_fly(5);
  SimConfig cfg;
  cfg.seed = params.seed;

  const auto dims = paper_torus_dims(topo);
  Rng rng(params.seed);
  const auto map = random_rank_mapping(topo.num_nodes(), dims[0] * dims[1] * dims[2], rng);
  const ExchangePlan nn_plan = make_nearest_neighbor_plan(topo.num_nodes(), dims, 512, map);
  bench::ExchangeRow nn_row{"SF", "UGAL-Th", {}, false, ""};
  nn_row.result = SimStack(topo, RoutingStrategy::kUgalThreshold, cfg)
                      .run_exchange(nn_plan, us(20'000'000));
  EXPECT_TRUE(nn_row.result.completed);
  EXPECT_EQ(bench::render_exchange_row_json(nn[0]), bench::render_exchange_row_json(nn_row));

  ExchangePlan seq =
      make_all_to_all_plan(topo.num_nodes(), 1024, A2aOrder::kStaggered, params.seed);
  seq.order = MessageOrder::kSequential;
  bench::ExchangeRow a2a_row{"SF", "MIN", {}, false, ""};
  a2a_row.result =
      SimStack(topo, RoutingStrategy::kMinimal, cfg).run_exchange(seq, us(10'000'000));
  EXPECT_TRUE(a2a_row.result.completed);
  EXPECT_EQ(bench::render_exchange_row_json(a2a[0]), bench::render_exchange_row_json(a2a_row));
}

// ------------------------------------------------ pooled exchange rows

// Two topologies x two routings: rows of different sizes finish out of
// order on the pool.
ExpandedCampaign two_topology_exchange() {
  const CampaignSpec spec = parse_campaign_spec(R"({
    "name": "pool",
    "systems": [{"label": "SF", "topology": "sf:q=5"},
                {"label": "OFT", "topology": "oft:k=4"}],
    "sweeps": [{"title": "a2a", "kind": "exchange", "bytes_per_pair": 64,
                "series": [{"routing": "min"}, {"routing": "ugal_th"}]}]
  })");
  CampaignParams params;
  params.seed = 7;
  return expand_campaign(spec, params);
}

bench::BenchOptions exchange_opts(int jobs, const std::string& journal, bool resume) {
  bench::BenchOptions opts;
  opts.seed = 7;
  opts.jobs = jobs;
  opts.journal_dir = journal;
  opts.resume = resume;
  return opts;
}

std::string fresh_dir(const std::string& name) {
  const auto dir = std::filesystem::path(::testing::TempDir()) / ("d2net_" + name);
  std::filesystem::remove_all(dir);
  return dir.string();
}

std::vector<std::string> journal_lines(const std::string& dir) {
  std::ifstream in(std::filesystem::path(dir) / "journal.jsonl");
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

/// Journal entries by key, with the per-run wall time zeroed.
std::map<std::string, std::string> journal_by_key(const std::string& dir) {
  std::map<std::string, std::string> out;
  for (const std::string& line : journal_lines(dir)) {
    JournalEntry e;
    EXPECT_TRUE(SweepJournal::parse_line(line, e)) << line;
    e.wall_seconds = 0.0;
    out[e.key] = SweepJournal::render_line(e);
  }
  return out;
}

std::vector<std::string> rendered(const std::vector<bench::ExchangeRow>& rows) {
  std::vector<std::string> out;
  for (const bench::ExchangeRow& r : rows) out.push_back(bench::render_exchange_row_json(r));
  return out;
}

TEST(CampaignExchange, PooledRowsMatchSerialRowsAndJournalPayloads) {
  const ExpandedCampaign plan = two_topology_exchange();
  const CampaignExchangeSweep& ex = *plan.steps[0].exchange;
  ASSERT_EQ(ex.rows.size(), 4u);

  const std::string serial_dir = fresh_dir("pool_serial");
  const std::string pooled_dir = fresh_dir("pool_jobs4");
  std::vector<bench::ExchangeRow> serial, pooled;
  {
    bench::BenchReport report("pool", exchange_opts(1, serial_dir, false));
    serial = bench::run_exchange_table(ex, exchange_opts(1, serial_dir, false), &report);
  }
  {
    bench::BenchReport report("pool", exchange_opts(4, pooled_dir, false));
    pooled = bench::run_exchange_table(ex, exchange_opts(4, pooled_dir, false), &report);
  }
  EXPECT_EQ(rendered(pooled), rendered(serial));
  for (const bench::ExchangeRow& r : pooled) EXPECT_TRUE(r.result.completed);
  EXPECT_EQ(pooled[0].system, "SF");
  EXPECT_EQ(pooled[3].system, "OFT");

  const auto serial_entries = journal_by_key(serial_dir);
  EXPECT_EQ(serial_entries.size(), 4u);
  EXPECT_EQ(journal_by_key(pooled_dir), serial_entries);
}

TEST(CampaignExchange, ResumeRestoresRowsJournaledFromPoolThreads) {
  const ExpandedCampaign plan = two_topology_exchange();
  const CampaignExchangeSweep& ex = *plan.steps[0].exchange;
  const std::string dir = fresh_dir("pool_resume");
  std::vector<bench::ExchangeRow> reference;
  {
    bench::BenchReport report("pool", exchange_opts(4, dir, false));
    reference = bench::run_exchange_table(ex, exchange_opts(4, dir, false), &report);
  }

  // Keep the first two lines the pool wrote (completion order, not row
  // order) plus a torn fragment: what a kill mid-table leaves behind.
  const std::vector<std::string> lines = journal_lines(dir);
  ASSERT_EQ(lines.size(), 4u);
  {
    std::ofstream out(std::filesystem::path(dir) / "journal.jsonl", std::ios::trunc);
    out << lines[0] << "\n" << lines[1] << "\n{\"key\": \"torn";
  }
  std::vector<bench::ExchangeRow> resumed;
  {
    bench::BenchReport report("pool", exchange_opts(4, dir, true));
    resumed = bench::run_exchange_table(ex, exchange_opts(4, dir, true), &report);
  }
  int restored = 0;
  for (const bench::ExchangeRow& r : resumed) restored += r.restored ? 1 : 0;
  EXPECT_EQ(restored, 2);
  EXPECT_EQ(rendered(resumed), rendered(reference));

  // Every row is on record now: a second resume simulates nothing.
  {
    bench::BenchReport report("pool", exchange_opts(4, dir, true));
    resumed = bench::run_exchange_table(ex, exchange_opts(4, dir, true), &report);
  }
  for (const bench::ExchangeRow& r : resumed) EXPECT_TRUE(r.restored);
  EXPECT_EQ(rendered(resumed), rendered(reference));
}

}  // namespace
}  // namespace d2net
