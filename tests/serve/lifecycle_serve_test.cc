// The fleet-lifecycle kinds (availability, mission_reliability, repair_sweep) through the
// serve stack: edge validation (no client input reaches an engine CHECK), canonical-key
// collisions for semantically equal spellings, engine execution, and server-level
// memoization over the loopback transport.

#include <cmath>
#include <string>

#include <gtest/gtest.h>

#include "src/common/json.h"
#include "src/markov/ctmc.h"
#include "src/serve/client.h"
#include "src/serve/engine.h"
#include "src/serve/server.h"
#include "src/serve/spec.h"

namespace probcon::serve {
namespace {

Json Params(const std::string& text) {
  auto parsed = ParseJson(text, "test params");
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  return *std::move(parsed);
}

Result<ServeRequest> Parse(const std::string& kind, const std::string& params_text) {
  auto kind_value = RequestKindFromName(kind);
  EXPECT_TRUE(kind_value.ok()) << kind_value.status().ToString();
  return ServeRequest::FromParams(*kind_value, Params(params_text));
}

std::string KeyFor(const std::string& kind, const std::string& params_text) {
  auto request = Parse(kind, params_text);
  EXPECT_TRUE(request.ok()) << request.status().ToString();
  return request->CanonicalKey();
}

constexpr char kBasicFleet[] =
    R"({"protocol": "raft",
        "fleet": {"classes": [{"count": 3, "failure_rate": 0.001}], "repair_rate": 0.1}})";

// ---------------------------------------------------------------------------------------
// Edge validation: INVALID_ARGUMENT at FromParams, never a CHECK later.

TEST(LifecycleSpec, RejectsStructurallyInvalidFleets) {
  for (const char* bad : {
           R"({"protocol": "raft"})",                                          // No fleet.
           R"({"protocol": "raft", "fleet": {"classes": []}})",                // Empty.
           R"({"protocol": "raft", "fleet": {"classes": [{"count": 0, "failure_rate": 1}]}})",
           R"({"protocol": "raft", "fleet": {"classes": [{"count": 3, "failure_rate": -1}]}})",
           R"({"protocol": "raft", "fleet": {"classes": [{"count": 3}]}})",    // No rate.
           R"({"protocol": "raft",
               "fleet": {"classes": [{"count": 3, "failure_rate": 1e-3, "curve":
                         {"kind": "constant", "rate": 1e-3}, "age": 0}]}})",   // Both.
           R"({"protocol": "raft",
               "fleet": {"classes": [{"count": 500, "failure_rate": 1e-3}]}})",  // Cap.
           R"({"protocol": "bogus",
               "fleet": {"classes": [{"count": 3, "failure_rate": 1e-3}]}})",
       }) {
    const auto request = Parse("availability", bad);
    ASSERT_FALSE(request.ok()) << bad;
    EXPECT_EQ(request.status().code(), StatusCode::kInvalidArgument) << bad;
  }
}

TEST(LifecycleSpec, RejectsOversizedClassProducts) {
  // Each class is under the per-class cap but the state product exceeds the serve cap.
  const auto request = Parse(
      "availability",
      R"({"protocol": "raft",
          "fleet": {"classes": [{"count": 40, "failure_rate": 1e-3},
                                {"count": 40, "failure_rate": 1e-3}], "repair_rate": 0.1}})");
  ASSERT_FALSE(request.ok());
  EXPECT_EQ(request.status().code(), StatusCode::kInvalidArgument);
}

TEST(LifecycleSpec, MissionReliabilityNeedsExactlyOneOfScheduleOrFleet) {
  EXPECT_EQ(Parse("mission_reliability", R"({"protocol": "raft"})").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(Parse("mission_reliability",
                  R"({"protocol": "raft",
                      "fleet": {"classes": [{"count": 3, "failure_rate": 1e-3}]},
                      "schedule": {"round_probabilities": [[0.01, 0.01, 0.01]],
                                   "round_hours": 24}})")
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(LifecycleSpec, ScheduleValidationSurfacesAsInvalidArgument) {
  for (const char* bad : {
           // Ragged matrix.
           R"({"protocol": "raft", "schedule": {"round_probabilities": [[0.1, 0.1, 0.1],
               [0.1]], "round_hours": 24}})",
           // Probability of exactly 1.
           R"({"protocol": "raft", "schedule": {"round_probabilities": [[1.0, 0.1, 0.1]],
               "round_hours": 24}})",
           // Below the protocol's minimum n.
           R"({"protocol": "raft", "schedule": {"round_probabilities": [[0.1]],
               "round_hours": 24}})",
           // Non-positive round length.
           R"({"protocol": "raft", "schedule": {"round_probabilities": [[0.1, 0.1, 0.1]],
               "round_hours": 0}})",
       }) {
    const auto request = Parse("mission_reliability", bad);
    ASSERT_FALSE(request.ok()) << bad;
    EXPECT_EQ(request.status().code(), StatusCode::kInvalidArgument) << bad;
  }
}

TEST(LifecycleSpec, RepairSweepValidatesTheGrid) {
  const char* base =
      R"({"protocol": "raft", "fleet": {"classes": [{"count": 3, "failure_rate": 1e-3}]}})";
  EXPECT_EQ(Parse("repair_sweep", base).status().code(), StatusCode::kInvalidArgument);
  for (const char* bad : {
           R"("repair_rates": [])",
           R"("repair_rates": [-0.5])",
           R"("repair_rates": [0.1], "min_rate": 0.1, "max_rate": 1, "points": 4)",
           R"("min_rate": 1, "max_rate": 0.1, "points": 4)",
           R"("min_rate": 0.1, "max_rate": 1, "points": 0)",
           R"("min_rate": 0.1, "max_rate": 1, "points": 1000)",
           R"("repair_rates": [0.5], "target_availability": 1.5)",
       }) {
    // Append the extra fields before the closing brace.
    std::string text = base;
    text.insert(text.size() - 1, std::string(", ") + bad);
    const auto request = Parse("repair_sweep", text);
    ASSERT_FALSE(request.ok()) << text;
    EXPECT_EQ(request.status().code(), StatusCode::kInvalidArgument) << text;
  }
}

TEST(LifecycleSpec, AstronomicalMissionHorizonIsRejectedAtTheEdge) {
  const auto request = Parse(
      "mission_reliability",
      R"({"protocol": "raft",
          "fleet": {"classes": [{"count": 3, "failure_rate": 1e-3}], "repair_rate": 100.0},
          "mission_hours": 9e6})");
  // Either accepted (within budget) or INVALID_ARGUMENT — never a crash deeper in. This
  // particular rate * horizon blows the uniformization flop budget.
  ASSERT_FALSE(request.ok());
  EXPECT_EQ(request.status().code(), StatusCode::kInvalidArgument);
}

TEST(LifecycleSpec, UniformizationBudgetAdmitsUpToItsBoundaryAndNotOnePast) {
  // The edge prices a mission with ctmc.h's slack and term bound, the expressions the
  // solver itself loops to, against the 2e9 flop budget: terms * states^2. This fleet has
  // 4 lumped states and an exit-rate bound of 3 * 1e-3 + 1 * 100 per hour.
  const Json fleet = Params(R"({"protocol": "raft",
      "fleet": {"classes": [{"count": 3, "failure_rate": 1e-3}], "repair_rate": 100.0}})");
  const double exit_rate = 3 * 1e-3 + 100.0;
  const auto within_budget = [&](double hours) {
    return UniformizationTermBound(kUniformizationSlack * exit_rate * hours) * 4.0 * 4.0 <=
           2e9;
  };
  // The cost is monotone in the horizon, so bisect to the last admitted double.
  double inside = 1.0;
  double outside = 1e7;
  ASSERT_TRUE(within_budget(inside));
  ASSERT_FALSE(within_budget(outside));
  for (int step = 0; step < 200 && std::nextafter(inside, outside) < outside; ++step) {
    const double mid = inside + (outside - inside) / 2;
    (within_budget(mid) ? inside : outside) = mid;
  }
  ASSERT_EQ(std::nextafter(inside, outside), outside);
  const auto parse = [&](double hours) {
    Json params = fleet;
    params.Set("mission_hours", Json::Number(hours));
    return ServeRequest::FromParams(RequestKind::kMissionReliability, params);
  };
  const auto admitted = parse(inside);
  EXPECT_TRUE(admitted.ok()) << admitted.status().ToString();
  const auto rejected = parse(outside);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------------------
// Canonicalization.

TEST(LifecycleCanonical, FieldOrderAndNumberSpellingDoNotMatter) {
  EXPECT_EQ(KeyFor("availability", kBasicFleet),
            KeyFor("availability",
                   R"({"fleet": {"repair_rate": 1e-1,
                                 "classes": [{"failure_rate": 1e-3, "count": 3}]},
                       "protocol": "raft"})"));
}

TEST(LifecycleCanonical, CurveClassEqualsItsFrozenHazardRate) {
  // A constant curve's hazard at any age IS its rate, so the curve spelling and the
  // resolved-rate spelling must collide in the cache.
  EXPECT_EQ(KeyFor("availability", kBasicFleet),
            KeyFor("availability",
                   R"({"protocol": "raft",
                       "fleet": {"classes": [{"count": 3,
                                              "curve": {"kind": "constant", "rate": 0.001},
                                              "age": 8766}],
                                 "repair_rate": 0.1}})"));
}

TEST(LifecycleCanonical, ExplicitGridEqualsItsGeneratedRates) {
  // Grid endpoints are pinned exactly, so a 2-point grid and its explicit spelling collide.
  // (Interior grid points go through log/exp and are NOT guaranteed to match an explicit
  // decimal spelling — only the resolved rates define the key.)
  const std::string explicit_key = KeyFor(
      "repair_sweep",
      R"({"protocol": "raft", "fleet": {"classes": [{"count": 3, "failure_rate": 1e-3}]},
          "min_rate": 0.1, "max_rate": 10.0, "points": 2})");
  EXPECT_EQ(explicit_key,
            KeyFor("repair_sweep",
                   R"({"protocol": "raft",
                       "fleet": {"classes": [{"count": 3, "failure_rate": 1e-3}]},
                       "repair_rates": [0.1, 10.0]})"));
}

TEST(LifecycleCanonical, BaseRepairRateIsInertForSweeps) {
  // The sweep replaces repair_rate point by point, so a stray base value must not split
  // the cache.
  EXPECT_EQ(KeyFor("repair_sweep",
                   R"({"protocol": "raft",
                       "fleet": {"classes": [{"count": 3, "failure_rate": 1e-3}],
                                 "repair_rate": 7.0},
                       "repair_rates": [0.5]})"),
            KeyFor("repair_sweep",
                   R"({"protocol": "raft",
                       "fleet": {"classes": [{"count": 3, "failure_rate": 1e-3}]},
                       "repair_rates": [0.5]})"));
}

TEST(LifecycleCanonical, DifferentRequestsGetDifferentKeys) {
  // Four nodes: the smallest fleet PBFT admits.
  EXPECT_NE(KeyFor("availability",
                   R"({"protocol": "raft",
                       "fleet": {"classes": [{"count": 4, "failure_rate": 0.001}],
                                 "repair_rate": 0.1}})"),
            KeyFor("availability",
                   R"({"protocol": "pbft",
                       "fleet": {"classes": [{"count": 4, "failure_rate": 0.001}],
                                 "repair_rate": 0.1}})"));
  EXPECT_NE(KeyFor("availability", kBasicFleet),
            KeyFor("availability",
                   R"({"protocol": "raft",
                       "fleet": {"classes": [{"count": 3, "failure_rate": 0.001}],
                                 "repair_rate": 0.1},
                       "reconfiguration": true})"));
}

// ---------------------------------------------------------------------------------------
// End to end over the loopback transport: execution, memoization, metrics.

TEST(LifecycleServe, AvailabilityAnswersAndMemoizes) {
  QueryServer server(ServerOptions{});
  ServeClient client(std::make_unique<LoopbackChannel>(server));

  auto first = client.Query(
      "availability",
      Params(R"({"protocol": "raft",
                 "fleet": {"classes": [{"count": 3, "failure_rate": 0.02}],
                           "repair_rate": 0.5, "repair_servers": 3},
                 "loss_threshold": 3})"));
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_TRUE(first->status.ok()) << first->status.ToString();
  EXPECT_FALSE(first->cached);
  // Independent M/M/1 nodes: availability = P(Binomial(3, mu/(l+mu)) >= 2).
  const double up = 0.5 / 0.52;
  const double expected = 3 * up * up * (1 - up) + up * up * up;
  const Json* unavailability = first->result.Find("unavailability");
  ASSERT_NE(unavailability, nullptr);
  EXPECT_NEAR(unavailability->NumberValue(), 1.0 - expected, 1e-9);
  ASSERT_NE(first->result.Find("mttu_hours"), nullptr);
  ASSERT_NE(first->result.Find("mttql_hours"), nullptr);
  ASSERT_NE(first->result.Find("downtime_hours_per_year"), nullptr);

  auto second = client.Query(
      "availability",
      Params(R"({"protocol": "raft",
                 "fleet": {"classes": [{"count": 3, "failure_rate": 2e-2}],
                           "repair_servers": 3, "repair_rate": 0.5},
                 "loss_threshold": 3})"));
  ASSERT_TRUE(second.ok());
  ASSERT_TRUE(second->status.ok());
  EXPECT_TRUE(second->cached);  // Canonically equal respelling hits the memo.
  EXPECT_EQ(WriteJson(first->result), WriteJson(second->result));
}

TEST(LifecycleServe, ReconfigurationWindowReportsJointQuorum) {
  QueryServer server(ServerOptions{});
  ServeClient client(std::make_unique<LoopbackChannel>(server));
  auto response = client.Query(
      "availability",
      Params(R"({"protocol": "raft",
                 "fleet": {"classes": [{"count": 3, "failure_rate": 0.001,
                                        "old": true, "new": true},
                                       {"count": 2, "failure_rate": 0.001,
                                        "old": false, "new": true}],
                           "repair_rate": 0.1},
                 "reconfiguration": true})"));
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  ASSERT_TRUE(response->status.ok()) << response->status.ToString();
  const Json* reconfig = response->result.Find("reconfiguration");
  ASSERT_NE(reconfig, nullptr);
  const Json* joint = reconfig->Find("unavailability");
  const Json* steady = response->result.Find("unavailability");
  ASSERT_NE(joint, nullptr);
  ASSERT_NE(steady, nullptr);
  EXPECT_GT(joint->NumberValue(), steady->NumberValue());
}

TEST(LifecycleServe, MissionReliabilityScheduleMode) {
  QueryServer server(ServerOptions{});
  ServeClient client(std::make_unique<LoopbackChannel>(server));
  auto response = client.Query(
      "mission_reliability",
      Params(R"({"protocol": "raft",
                 "schedule": {"curve": {"kind": "constant", "rate": 1e-4}, "n": 5,
                              "round_hours": 24, "rounds": 10}})"));
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  ASSERT_TRUE(response->status.ok()) << response->status.ToString();
  const Json* mode = response->result.Find("mode");
  ASSERT_NE(mode, nullptr);
  EXPECT_EQ(mode->text, "schedule");
  const Json* mission = response->result.Find("mission");
  ASSERT_NE(mission, nullptr);
  ASSERT_NE(mission->Find("live"), nullptr);
  ASSERT_NE(response->result.Find("final_cumulative"), nullptr);
}

TEST(LifecycleServe, ScheduleCumulativeKeepsItsSmallComplement) {
  // PBFT n = 4 over 512 rounds of p = 1e-12: each node's cumulative failure probability is
  // about 5.1e-10 and the unsafe probability (2 or more failed) about 1.6e-18. The reference
  // is exact, from Python's fractions module:
  //   q = 1 - (1 - Fraction(1e-12))**512
  //   float(sum(comb(4, k) * q**k * (1 - q)**(4 - k) for k in range(2, 5)))
  std::string rounds;
  for (int r = 0; r < 512; ++r) {
    rounds += std::string(r == 0 ? "" : ", ") + "[1e-12, 1e-12, 1e-12, 1e-12]";
  }
  const auto request = Parse("mission_reliability",
                             R"({"protocol": "pbft", "schedule": {"round_hours": 1, )"
                             R"("round_probabilities": [)" + rounds + "]}}");
  ASSERT_TRUE(request.ok()) << request.status().ToString();
  const Result<Json> result = ExecuteRequest(*request, nullptr);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const Json* cumulative = result->Find("final_cumulative");
  ASSERT_NE(cumulative, nullptr);
  const Json* unsafe = cumulative->Find("unsafe_probability");
  ASSERT_NE(unsafe, nullptr);
  constexpr double kExact = 1.5728639981225247e-18;
  EXPECT_NEAR(unsafe->NumberValue(), kExact, 1e-12 * kExact);
}

TEST(LifecycleServe, MissionReliabilityFleetMode) {
  QueryServer server(ServerOptions{});
  ServeClient client(std::make_unique<LoopbackChannel>(server));
  auto response = client.Query(
      "mission_reliability",
      Params(R"({"protocol": "raft",
                 "fleet": {"classes": [{"count": 3, "failure_rate": 0.01}],
                           "repair_rate": 0.2, "repair_servers": 3},
                 "mission_hours": 1000})"));
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  ASSERT_TRUE(response->status.ok()) << response->status.ToString();
  const Json* outage = response->result.Find("outage_probability");
  ASSERT_NE(outage, nullptr);
  EXPECT_GT(outage->NumberValue(), 0.0);
  EXPECT_LT(outage->NumberValue(), 1.0);
}

TEST(LifecycleServe, RepairSweepFindsTheFiveNinesRate) {
  QueryServer server(ServerOptions{});
  ServeClient client(std::make_unique<LoopbackChannel>(server));
  auto response = client.Query(
      "repair_sweep",
      Params(R"({"protocol": "raft",
                 "fleet": {"classes": [{"count": 5, "failure_rate": 0.001}]},
                 "min_rate": 0.001, "max_rate": 10.0, "points": 12,
                 "target_availability": 0.99999})"));
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  ASSERT_TRUE(response->status.ok()) << response->status.ToString();
  const Json* points = response->result.Find("points");
  ASSERT_NE(points, nullptr);
  EXPECT_EQ(points->items.size(), 12u);
  const Json* winner = response->result.Find("first_rate_meeting_target");
  ASSERT_NE(winner, nullptr);
  EXPECT_GT(winner->NumberValue(), 0.0);
}

TEST(LifecycleServe, EngineNeverSeesStatsOrHealth) {
  // Guard on the ExecuteRequest contract the new cases extend: lifecycle kinds run in the
  // engine; stats/health stay inline.
  ServeRequest request;
  request.kind = RequestKind::kStats;
  EXPECT_FALSE(ExecuteRequest(request, nullptr).ok());
}

}  // namespace
}  // namespace probcon::serve
