// ftl::serve — protocol round-trips for every op, admission control
// (overloaded / shutting_down), deadline propagation, graceful drain,
// response caching, the stats registry, concurrent-vs-serial byte equality,
// and the TCP server/client pair. Everything runs in-process on ephemeral
// ports; no external daemon is involved.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "ftl/jobs/telemetry.hpp"
#include "ftl/lattice/paths.hpp"
#include "ftl/serve/client.hpp"
#include "ftl/serve/json.hpp"
#include "ftl/serve/server.hpp"
#include "ftl/serve/service.hpp"
#include "ftl/serve/stats.hpp"

namespace {

using ftl::serve::Client;
using ftl::serve::JsonValue;
using ftl::serve::Server;
using ftl::serve::ServerOptions;
using ftl::serve::Service;
using ftl::serve::ServiceOptions;
using ftl::serve::StatsRegistry;

JsonValue reply(Service& service, const std::string& line) {
  return JsonValue::parse(service.handle_now(line));
}

void expect_error(const JsonValue& r, const std::string& code) {
  EXPECT_FALSE(r.bool_or("ok", true)) << r.dump();
  const JsonValue* error = r.find("error");
  ASSERT_NE(error, nullptr) << r.dump();
  EXPECT_EQ(error->as_string(), code) << r.dump();
  ASSERT_NE(r.find("message"), nullptr) << r.dump();
}

// --- stats registry -------------------------------------------------------

TEST(ServeStats, HistogramPercentilesBracketTheData) {
  ftl::serve::LatencyHistogram h;
  EXPECT_DOUBLE_EQ(h.percentile(99.0), 0.0);
  for (int i = 1; i <= 1000; ++i) h.record(static_cast<double>(i));
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_DOUBLE_EQ(h.min_us(), 1.0);
  EXPECT_DOUBLE_EQ(h.max_us(), 1000.0);
  EXPECT_NEAR(h.mean_us(), 500.5, 1e-9);
  // Log buckets have ~14% resolution; accept that band around the truth.
  EXPECT_NEAR(h.percentile(50.0), 500.0, 500.0 * 0.2);
  EXPECT_NEAR(h.percentile(95.0), 950.0, 950.0 * 0.2);
  EXPECT_NEAR(h.percentile(99.0), 990.0, 990.0 * 0.2);
  EXPECT_LE(h.percentile(50.0), h.percentile(95.0));
  EXPECT_LE(h.percentile(95.0), h.percentile(99.0));
}

TEST(ServeStats, RegistryRollsUpPerOpAndTotal) {
  StatsRegistry reg;
  reg.record("eval", "ok", 100.0, false);
  reg.record("eval", "ok", 200.0, true);
  reg.record("synth", "bad_request", 50.0, false);
  EXPECT_EQ(reg.total_requests(), 3u);

  const JsonValue snap = reg.snapshot();
  const JsonValue* total = snap.find("total");
  ASSERT_NE(total, nullptr);
  EXPECT_DOUBLE_EQ(total->find("requests")->as_number(), 3.0);
  EXPECT_DOUBLE_EQ(total->find("cache_hits")->as_number(), 1.0);

  const JsonValue* ops = snap.find("ops");
  ASSERT_NE(ops, nullptr);
  const JsonValue* eval = ops->find("eval");
  ASSERT_NE(eval, nullptr);
  EXPECT_DOUBLE_EQ(eval->find("requests")->as_number(), 2.0);
  EXPECT_DOUBLE_EQ(eval->find("outcomes")->find("ok")->as_number(), 2.0);
  EXPECT_DOUBLE_EQ(
      ops->find("synth")->find("outcomes")->find("bad_request")->as_number(),
      1.0);
  const JsonValue* latency = eval->find("latency");
  ASSERT_NE(latency, nullptr);
  EXPECT_DOUBLE_EQ(latency->find("mean_us")->as_number(), 150.0);
}

// --- protocol round-trips, one per op -------------------------------------

TEST(ServeProtocol, PingEchoesIdVerbatim) {
  Service service({.workers = 1});
  const JsonValue r =
      reply(service, R"({"op":"ping","id":{"seq":7,"tag":"x"}})");
  EXPECT_TRUE(r.bool_or("ok", false));
  EXPECT_TRUE(r.find("pong")->as_bool());
  ASSERT_NE(r.find("id"), nullptr);
  EXPECT_EQ(r.find("id")->dump(), R"({"seq":7,"tag":"x"})");
}

TEST(ServeProtocol, SynthAltunRealizesTheTarget) {
  Service service({.workers = 1});
  const JsonValue r =
      reply(service, R"({"op":"synth","expr":"a b + b c + a c"})");
  EXPECT_TRUE(r.bool_or("ok", false)) << r.dump();
  EXPECT_TRUE(r.find("found")->as_bool());
  EXPECT_TRUE(r.find("realizes")->as_bool());
  const JsonValue* lat = r.find("lattice");
  ASSERT_NE(lat, nullptr);
  EXPECT_DOUBLE_EQ(lat->find("rows")->as_number(), 3.0);
  EXPECT_DOUBLE_EQ(lat->find("cols")->as_number(), 3.0);
  EXPECT_EQ(lat->find("cells")->items().size(), 9u);
}

TEST(ServeProtocol, SynthSatFindsMinimalAnd) {
  Service service({.workers = 1});
  // A 2x1 series pair is the minimal AND lattice.
  const JsonValue r = reply(
      service, R"({"op":"synth_sat","expr":"a b","rows":2,"cols":1})");
  EXPECT_TRUE(r.bool_or("ok", false)) << r.dump();
  EXPECT_TRUE(r.find("found")->as_bool());
  EXPECT_DOUBLE_EQ(r.find("switch_count")->as_number(), 2.0);
}

TEST(ServeProtocol, SynthSearchEchoesTheDecisionSeed) {
  Service service({.workers = 1});
  const JsonValue r = reply(
      service,
      R"({"op":"synth_sat","expr":"a b","rows":2,"cols":1,"seed":9})");
  EXPECT_TRUE(r.bool_or("ok", false)) << r.dump();
  ASSERT_NE(r.find("seed"), nullptr) << r.dump();
  EXPECT_DOUBLE_EQ(r.find("seed")->as_number(), 9.0);
  // The closed-form method takes no seed and reports none.
  const JsonValue altun = reply(service, R"({"op":"synth","expr":"a b"})");
  EXPECT_EQ(altun.find("seed"), nullptr) << altun.dump();
}

TEST(ServeProtocol, SynthRetiredSearchMethodsPointToSynthSat) {
  Service service({.workers = 1});
  for (const char* method : {"exhaustive", "search"}) {
    const JsonValue r = reply(
        service, std::string(R"({"op":"synth","expr":"a b","method":")") +
                     method + R"(","rows":2,"cols":1})");
    expect_error(r, "bad_request");
    EXPECT_NE(r.find("message")->as_string().find("synth_sat"),
              std::string::npos)
        << r.dump();
  }
}

TEST(ServeProtocol, SeedsMustBeExactNonNegativeIntegers) {
  // -1 and 1e300 would overflow the cast to uint64_t; 1.5 would silently
  // run as seed 1. All three ops that take a seed refuse them.
  Service service({.workers = 1});
  const std::string ops[] = {
      R"({"op":"synth_sat","expr":"a b","rows":2,"cols":1,"seed":)",
      R"({"op":"sweep_batch","expr":"a b","trials":2,"seed":)",
      R"({"op":"explore","expr":"a b","seed":)",
  };
  for (const std::string& prefix : ops) {
    for (const char* seed : {"-1", "1e300", "1.5"}) {
      expect_error(reply(service, prefix + seed + "}"), "bad_request");
    }
  }
  // 2^53 is the largest seed every JSON number holds exactly.
  const JsonValue top = reply(
      service, std::string(ops[0]) + "9007199254740992}");
  EXPECT_TRUE(top.bool_or("ok", false)) << top.dump();
  EXPECT_DOUBLE_EQ(top.find("seed")->as_number(), 9007199254740992.0);
}

TEST(ServeProtocol, SynthSatSolvesAndReportsSolverWork) {
  Service service({.workers = 1});
  const JsonValue r = reply(
      service,
      R"({"op":"synth_sat","expr":"a b + c d","rows":3,"cols":3,"seed":5})");
  EXPECT_TRUE(r.bool_or("ok", false)) << r.dump();
  EXPECT_TRUE(r.find("found")->as_bool()) << r.dump();
  EXPECT_FALSE(r.find("proven_infeasible")->as_bool());
  EXPECT_FALSE(r.find("budget_exhausted")->as_bool());
  EXPECT_DOUBLE_EQ(r.find("seed")->as_number(), 5.0);
  EXPECT_GE(r.find("cegar_rounds")->as_number(), 1.0);
  EXPECT_GE(r.find("care_minterms")->as_number(), 1.0);
  const JsonValue* lat = r.find("lattice");
  ASSERT_NE(lat, nullptr) << r.dump();
  EXPECT_EQ(lat->find("cells")->items().size(), 9u);
  const JsonValue* solver = r.find("solver");
  ASSERT_NE(solver, nullptr) << r.dump();
  EXPECT_GE(solver->find("solves")->as_number(), 1.0);
  EXPECT_GE(solver->find("propagations")->as_number(), 1.0);
}

TEST(ServeProtocol, SynthSatReportsInfeasibilityAsAResult) {
  Service service({.workers = 1});
  // XOR3 needs 3x3; on 2x2 the SAT core proves there is no mapping.
  const JsonValue r = reply(
      service,
      R"({"op":"synth_sat","expr":"a' b' c + a' b c' + a b' c' + a b c","rows":2,"cols":2})");
  EXPECT_TRUE(r.bool_or("ok", false)) << r.dump();
  EXPECT_FALSE(r.find("found")->as_bool());
  EXPECT_TRUE(r.find("proven_infeasible")->as_bool()) << r.dump();
  EXPECT_EQ(r.find("lattice"), nullptr);
}

TEST(ServeProtocol, SynthSatCertifyChecksTheInfeasibilityProof) {
  Service service({.workers = 1});
  const JsonValue r = reply(
      service,
      R"({"op":"synth_sat","expr":"a' b' c + a' b c' + a b' c' + a b c",)"
      R"("rows":2,"cols":2,"certify":true})");
  EXPECT_TRUE(r.bool_or("ok", false)) << r.dump();
  EXPECT_TRUE(r.find("proven_infeasible")->as_bool()) << r.dump();
  ASSERT_NE(r.find("proof"), nullptr) << r.dump();
  EXPECT_EQ(r.find("proof")->as_string(), "checked");

  // Feasible and uncertified runs carry no proof field at all.
  const JsonValue feasible = reply(
      service,
      R"({"op":"synth_sat","expr":"a b","rows":2,"cols":1,"certify":true})");
  EXPECT_TRUE(feasible.find("found")->as_bool()) << feasible.dump();
  EXPECT_EQ(feasible.find("proof"), nullptr) << feasible.dump();
}

TEST(ServeProtocol, SynthSatBudgetExhaustionIsExplicit) {
  Service service({.workers = 1});
  const JsonValue r = reply(
      service,
      R"({"op":"synth_sat","expr":"a b + c d","rows":3,"cols":3,"max_conflicts":0})");
  EXPECT_TRUE(r.bool_or("ok", false)) << r.dump();
  EXPECT_FALSE(r.find("found")->as_bool());
  EXPECT_TRUE(r.find("budget_exhausted")->as_bool()) << r.dump();
}

TEST(ServeCache, SynthSatIsPureAndCached) {
  Service service({.workers = 1});
  const std::string line =
      R"({"op":"synth_sat","expr":"a b + a c","rows":2,"cols":2})";
  const std::string first = service.handle_now(line);
  EXPECT_EQ(service.handle_now(line), first);
  const JsonValue snap = service.stats().snapshot();
  EXPECT_DOUBLE_EQ(
      snap.find("ops")->find("synth_sat")->find("cache_hits")->as_number(),
      1.0);
}

// --- NPN lattice library ---------------------------------------------------

TEST(ServeLibrary, PermutedSynthSatAnswersFromTheLibraryWithZeroSolverWork) {
  Service service({.workers = 1});
  // Cold: the SAT engine runs and the result populates the library.
  const JsonValue cold = reply(
      service,
      R"({"op":"synth_sat","expr":"a b + c d","rows":2,"cols":2,"vars":["a","b","c","d"]})");
  EXPECT_TRUE(cold.find("found")->as_bool()) << cold.dump();
  EXPECT_EQ(cold.find("source")->as_string(), "engine") << cold.dump();

  const JsonValue before = reply(service, R"({"op":"stats"})");
  const double conflicts_before =
      before.find("sat_core")->find("conflicts")->as_number();
  const double solves_before =
      before.find("sat_core")->find("solves")->as_number();

  // Warm: the variable permutation (a b c d) -> (c d a b) is a different
  // request line AND a different truth table, so neither response cache can
  // help — only NPN canonicalization maps it to the stored class.
  const JsonValue warm = reply(
      service,
      R"({"op":"synth_sat","expr":"c d + a b","rows":2,"cols":2,"vars":["a","b","c","d"]})");
  EXPECT_TRUE(warm.find("found")->as_bool()) << warm.dump();
  EXPECT_EQ(warm.find("source")->as_string(), "library") << warm.dump();
  EXPECT_DOUBLE_EQ(warm.find("cegar_rounds")->as_number(), 0.0);
  EXPECT_DOUBLE_EQ(warm.find("solver")->find("solves")->as_number(), 0.0);
  EXPECT_DOUBLE_EQ(warm.find("solver")->find("conflicts")->as_number(), 0.0);
  // Same NPN class either way.
  ASSERT_NE(cold.find("npn_class"), nullptr) << cold.dump();
  ASSERT_NE(warm.find("npn_class"), nullptr) << warm.dump();
  EXPECT_EQ(cold.find("npn_class")->as_string(),
            warm.find("npn_class")->as_string());

  // The process-wide SAT core did not move: the hit really ran no solver.
  const JsonValue after = reply(service, R"({"op":"stats"})");
  EXPECT_DOUBLE_EQ(after.find("sat_core")->find("conflicts")->as_number(),
                   conflicts_before);
  EXPECT_DOUBLE_EQ(after.find("sat_core")->find("solves")->as_number(),
                   solves_before);
  const JsonValue* lib = after.find("library_core");
  ASSERT_NE(lib, nullptr);
  EXPECT_TRUE(lib->find("enabled")->as_bool());
  EXPECT_GE(lib->find("class_hits")->as_number(), 1.0);
  EXPECT_GE(lib->find("populates")->as_number(), 1.0);
  EXPECT_DOUBLE_EQ(lib->find("verify_rejects")->as_number(), 0.0);
}

TEST(ServeLibrary, SynthDefaultsToAutoAndReusesTheClassAcrossNegations) {
  Service service({.workers = 1});
  const JsonValue cold = reply(
      service, R"({"op":"synth","expr":"a b + b c","vars":["a","b","c"]})");
  EXPECT_TRUE(cold.bool_or("ok", false)) << cold.dump();
  EXPECT_EQ(cold.find("method")->as_string(), "auto");
  EXPECT_EQ(cold.find("source")->as_string(), "engine");
  EXPECT_TRUE(cold.find("realizes")->as_bool());
  // No seed for the closed-form/auto route (same contract as altun).
  EXPECT_EQ(cold.find("seed"), nullptr) << cold.dump();

  // Input negation of the same class: b(a + c) vs b'(a + c') etc.
  const JsonValue warm = reply(
      service, R"({"op":"synth","expr":"a b' + b' c","vars":["a","b","c"]})");
  EXPECT_TRUE(warm.bool_or("ok", false)) << warm.dump();
  EXPECT_EQ(warm.find("source")->as_string(), "library") << warm.dump();
  EXPECT_TRUE(warm.find("realizes")->as_bool()) << warm.dump();
  EXPECT_EQ(cold.find("npn_class")->as_string(),
            warm.find("npn_class")->as_string());
}

TEST(ServeLibrary, DisabledLibraryStillServesSynthFromTheEngines) {
  ServiceOptions opts;
  opts.workers = 1;
  opts.library = false;
  Service service(opts);
  const JsonValue r = reply(
      service, R"({"op":"synth","expr":"a b + b c","vars":["a","b","c"]})");
  EXPECT_TRUE(r.bool_or("ok", false)) << r.dump();
  EXPECT_EQ(r.find("source")->as_string(), "engine");
  EXPECT_EQ(r.find("npn_class"), nullptr) << r.dump();
  const JsonValue stats = reply(service, R"({"op":"stats"})");
  EXPECT_FALSE(stats.find("library_core")->find("enabled")->as_bool());
}

TEST(ServeLibrary, ExploreIncludesTheLibraryCandidateOnceWarm) {
  Service service({.workers = 1});
  // Warm the class with a SAT 2x2 mapping (4 cells) — strictly smaller
  // than anything the baseline would propose for this function.
  const JsonValue synth = reply(
      service,
      R"({"op":"synth_sat","expr":"a b + c d","rows":2,"cols":2,"vars":["a","b","c","d"]})");
  ASSERT_TRUE(synth.find("found")->as_bool()) << synth.dump();
  const JsonValue r = reply(
      service,
      R"({"op":"explore","expr":"c d + a b","vars":["a","b","c","d"],"try_smaller":false})");
  EXPECT_TRUE(r.bool_or("ok", false)) << r.dump();
  bool has_library_candidate = false;
  for (const JsonValue& cand : r.find("candidates")->items()) {
    if (cand.find("method")->as_string() == "library") {
      has_library_candidate = true;
      EXPECT_DOUBLE_EQ(cand.find("rows")->as_number() *
                           cand.find("cols")->as_number(),
                       4.0);
    }
  }
  EXPECT_TRUE(has_library_candidate) << r.dump();
}

TEST(ServeProtocol, EvalFromExpressionReportsOnSet) {
  Service service({.workers = 1});
  const JsonValue r = reply(service, R"({"op":"eval","expr":"a b + b c + a c"})");
  EXPECT_TRUE(r.bool_or("ok", false)) << r.dump();
  EXPECT_DOUBLE_EQ(r.find("ones")->as_number(), 4.0);  // majority-of-3
  const JsonValue* on_set = r.find("on_set");
  ASSERT_NE(on_set, nullptr);
  EXPECT_EQ(on_set->dump(), "[3,5,6,7]");
}

TEST(ServeProtocol, EvalExplicitCellsWithAssignments) {
  Service service({.workers = 1});
  // 2x1 series lattice [a; b] realizes AND(a,b).
  const JsonValue r = reply(service,
                            R"({"op":"eval","rows":2,"cols":1,)"
                            R"("vars":["a","b"],"cells":["a","b"],)"
                            R"("assignments":[0,1,2,3],"sop":true})");
  EXPECT_TRUE(r.bool_or("ok", false)) << r.dump();
  EXPECT_EQ(r.find("outputs")->dump(), "[0,0,0,1]");
  ASSERT_NE(r.find("sop"), nullptr);
  EXPECT_NE(r.find("sop")->as_string().find("a"), std::string::npos);
}

TEST(ServeProtocol, PathsCountsAndLists) {
  Service service({.workers = 1});
  const JsonValue r =
      reply(service, R"({"op":"paths","rows":2,"cols":2,"list_limit":10})");
  EXPECT_TRUE(r.bool_or("ok", false)) << r.dump();
  const double count =
      static_cast<double>(ftl::lattice::count_products(2, 2));
  EXPECT_DOUBLE_EQ(r.find("count")->as_number(), count);
  EXPECT_EQ(r.find("paths")->items().size(), static_cast<std::size_t>(count));
}

TEST(ServeProtocol, MetricsCharacterizesAndGate) {
  Service service({.workers = 1});
  const JsonValue r = reply(
      service, R"({"op":"metrics","expr":"a b","phase_ns":20,"dt_ns":0.5})");
  EXPECT_TRUE(r.bool_or("ok", false)) << r.dump();
  const JsonValue* metrics = r.find("metrics");
  ASSERT_NE(metrics, nullptr);
  EXPECT_TRUE(metrics->find("functional")->as_bool());
  EXPECT_GT(metrics->find("propagation_delay_s")->as_number(), 0.0);
  EXPECT_GT(metrics->find("max_frequency_hz")->as_number(), 0.0);
}

TEST(ServeProtocol, ExploreRanksCandidates) {
  Service service({.workers = 1});
  const JsonValue r = reply(service,
                            R"({"op":"explore","expr":"a b","max_cells":4,)"
                            R"("complementary":false,"phase_ns":20,"dt_ns":0.5})");
  EXPECT_TRUE(r.bool_or("ok", false)) << r.dump();
  const JsonValue* candidates = r.find("candidates");
  ASSERT_NE(candidates, nullptr);
  ASSERT_FALSE(candidates->items().empty());
  const double best = r.find("best")->as_number();
  ASSERT_GE(best, 0.0);
  EXPECT_TRUE(candidates->items()[static_cast<std::size_t>(best)]
                  .find("metrics")
                  ->find("functional")
                  ->as_bool());
}

TEST(ServeProtocol, MeasureRejectsUnboundedStepCounts) {
  // phase_ns/dt_ns is the transient step count per input code; past 10000
  // one line could demand unbounded work, so it is refused up front.
  Service service({.workers = 1});
  expect_error(reply(service, R"({"op":"metrics","expr":"a",)"
                              R"("phase_ns":2001,"dt_ns":0.2})"),
               "bad_request");
  expect_error(reply(service, R"({"op":"explore","expr":"a",)"
                              R"("phase_ns":2001,"dt_ns":0.2})"),
               "bad_request");
}

TEST(ServeProtocol, StatsReportsServiceGauges) {
  Service service({.workers = 2, .queue_depth = 8});
  reply(service, R"({"op":"ping"})");
  const JsonValue r = reply(service, R"({"op":"stats"})");
  EXPECT_TRUE(r.bool_or("ok", false)) << r.dump();
  const JsonValue* svc = r.find("service");
  ASSERT_NE(svc, nullptr);
  EXPECT_DOUBLE_EQ(svc->find("workers")->as_number(), 2.0);
  EXPECT_DOUBLE_EQ(svc->find("queue_depth_limit")->as_number(), 8.0);
  EXPECT_FALSE(svc->find("draining")->as_bool());
  const JsonValue* ops = r.find("stats")->find("ops");
  ASSERT_NE(ops, nullptr);
  ASSERT_NE(ops->find("ping"), nullptr);
  EXPECT_DOUBLE_EQ(ops->find("ping")->find("requests")->as_number(), 1.0);
}

TEST(ServeProtocol, StatsReportsEvalCoreCounters) {
  Service service({.workers = 1});
  const auto counters = [&service]() {
    const JsonValue r = reply(service, R"({"op":"stats"})");
    const JsonValue* ec = r.find("eval_core");
    EXPECT_NE(ec, nullptr) << r.dump();
    struct Snapshot {
      double assignments, blocks, lut_hits, lut_builds;
    };
    return Snapshot{ec->find("assignments")->as_number(),
                    ec->find("blocks")->as_number(),
                    ec->find("lut_hits")->as_number(),
                    ec->find("lut_builds")->as_number()};
  };
  const auto before = counters();
  EXPECT_GE(before.assignments, 0.0);
  // A full truth-table eval runs through the bitsliced kernel, so the
  // process-wide counters must advance (>= one 64-assignment block).
  const JsonValue r = reply(service, R"({"op":"eval","expr":"a b + b c + a c"})");
  EXPECT_TRUE(r.bool_or("ok", false)) << r.dump();
  const auto after = counters();
  EXPECT_GE(after.blocks, before.blocks + 1.0);
  EXPECT_GE(after.assignments, before.assignments + 64.0);
  EXPECT_GE(after.lut_hits, before.lut_hits);
  EXPECT_GE(after.lut_builds, before.lut_builds);
}

TEST(ServeProtocol, StatsReportsSatCoreCounters) {
  Service service({.workers = 1});
  const auto sat_core = [&service]() {
    const JsonValue r = reply(service, R"({"op":"stats"})");
    const JsonValue* sc = r.find("sat_core");
    EXPECT_NE(sc, nullptr) << r.dump();
    struct Snapshot {
      double solves, sat, cegar_rounds, propagations;
    };
    return Snapshot{sc->find("solves")->as_number(),
                    sc->find("sat")->as_number(),
                    sc->find("cegar_rounds")->as_number(),
                    sc->find("propagations")->as_number()};
  };
  const auto before = sat_core();
  const JsonValue r = reply(
      service, R"({"op":"synth_sat","expr":"a b + a c","rows":2,"cols":2})");
  EXPECT_TRUE(r.bool_or("ok", false)) << r.dump();
  const auto after = sat_core();
  EXPECT_GE(after.solves, before.solves + 1.0);
  EXPECT_GE(after.sat, before.sat + 1.0);
  EXPECT_GE(after.cegar_rounds, before.cegar_rounds + 1.0);
  EXPECT_GE(after.propagations, before.propagations + 1.0);
}

TEST(ServeProtocol, SweepBatchRunsTheBatchedYieldSweep) {
  Service service({.workers = 1});
  const JsonValue r = reply(
      service, R"({"op":"sweep_batch","expr":"a b","trials":6,"seed":5})");
  EXPECT_TRUE(r.bool_or("ok", false)) << r.dump();
  EXPECT_DOUBLE_EQ(r.find("trials")->as_number(), 6.0);
  const double passing = r.find("passing")->as_number();
  EXPECT_GE(passing, 0.0);
  EXPECT_LE(passing, 6.0);
  const double yield = r.find("yield")->as_number();
  EXPECT_GE(yield, 0.0);
  EXPECT_LE(yield, 1.0);
  ASSERT_NE(r.find("worst_low"), nullptr);
  ASSERT_NE(r.find("worst_high"), nullptr);
}

TEST(ServeProtocol, SweepBatchRejectsBadParameters) {
  Service service({.workers = 1});
  expect_error(reply(service, R"({"op":"sweep_batch","expr":"a b",)"
                              R"("trials":0})"),
               "bad_request");
  expect_error(reply(service, R"({"op":"sweep_batch","expr":"a b",)"
                              R"("sigma_vth":-1})"),
               "bad_request");
}

TEST(ServeProtocol, StatsReportsSpiceAndBatchCoreCounters) {
  Service service({.workers = 1});
  const auto counters = [&service]() {
    const JsonValue r = reply(service, R"({"op":"stats"})");
    const JsonValue* spc = r.find("spice_core");
    const JsonValue* bc = r.find("batch_core");
    EXPECT_NE(spc, nullptr) << r.dump();
    EXPECT_NE(bc, nullptr) << r.dump();
    EXPECT_NE(spc->find("factors"), nullptr);
    EXPECT_NE(spc->find("dense_solves"), nullptr);
    EXPECT_NE(bc->find("symbolic_factors"), nullptr);
    EXPECT_NE(bc->find("lane_fallbacks"), nullptr);
    // The learnt-clause minimizer's counter rides in sat_core.
    EXPECT_NE(r.find("sat_core")->find("minimized_literals"), nullptr);
    struct Snapshot {
      double batches, lanes, newton;
    };
    return Snapshot{bc->find("batches")->as_number(),
                    bc->find("lanes")->as_number(),
                    bc->find("newton_iterations")->as_number()};
  };
  const auto before = counters();
  const JsonValue r = reply(
      service, R"({"op":"sweep_batch","expr":"a b","trials":5,"seed":2})");
  EXPECT_TRUE(r.bool_or("ok", false)) << r.dump();
  const auto after = counters();
  // One batch per worker chunk, one lane per Monte-Carlo trial.
  EXPECT_GE(after.batches, before.batches + 1.0);
  EXPECT_GE(after.lanes, before.lanes + 5.0);
  EXPECT_GT(after.newton, before.newton);
}

// The stats reply is a contract read by clients and bench_e2e: every
// section and every key, in order, present from the first request on.
TEST(ServeProtocol, StatsKeepsEverySectionAndKey) {
  using Keys = std::vector<std::string>;
  const auto keys_of = [](const JsonValue& object) {
    Keys keys;
    for (const auto& [key, value] : object.members()) keys.push_back(key);
    return keys;
  };
  const Keys library_counters = {
      "lookups",        "class_hits",        "misses",
      "unapplies",      "output_inversions", "verify_rejects",
      "populates",      "improvements",      "disk_loads",
      "disk_stores"};
  for (const bool library : {true, false}) {
    SCOPED_TRACE(library ? "library on" : "library off");
    Service service({.workers = 1, .library = library});
    const JsonValue r = reply(service, R"({"op":"stats"})");
    EXPECT_EQ(keys_of(r),
              (Keys{"op", "ok", "stats", "service", "eval_core", "cache_core",
                    "sat_core", "spice_core", "batch_core", "library_core"}));
    EXPECT_EQ(keys_of(*r.find("eval_core")),
              (Keys{"assignments", "blocks", "lut_hits", "lut_builds"}));
    EXPECT_EQ(keys_of(*r.find("cache_core")),
              (Keys{"memory_hits", "memory_misses", "line_hits", "disk_hits",
                    "stores", "shard_contention", "shards"}));
    EXPECT_EQ(keys_of(*r.find("sat_core")),
              (Keys{"solves", "sat", "unsat", "conflicts", "decisions",
                    "propagations", "restarts", "learned_clauses",
                    "minimized_literals", "cegar_rounds", "proof_clauses",
                    "proof_checks", "proof_failures", "proof_check_us"}));
    EXPECT_EQ(keys_of(*r.find("spice_core")),
              (Keys{"newton_iterations", "factors", "refactors",
                    "dense_fallbacks", "dense_solves"}));
    EXPECT_EQ(keys_of(*r.find("batch_core")),
              (Keys{"batches", "lanes", "symbolic_factors", "symbolic_reuses",
                    "numeric_refactors", "lane_fallbacks",
                    "newton_iterations"}));
    Keys library_keys = {"enabled"};
    if (library) {
      library_keys.insert(library_keys.end(), {"classes", "entries"});
      library_keys.insert(library_keys.end(), library_counters.begin(),
                          library_counters.end());
    }
    EXPECT_EQ(keys_of(*r.find("library_core")), library_keys);
  }
}

TEST(ServeProtocol, SleepRunsAndReportsDuration) {
  Service service({.workers = 1});
  const JsonValue r = reply(service, R"({"op":"sleep","ms":5})");
  EXPECT_TRUE(r.bool_or("ok", false)) << r.dump();
  EXPECT_DOUBLE_EQ(r.find("slept_ms")->as_number(), 5.0);
}

TEST(ServeProtocol, ShutdownFlagsTheService) {
  Service service({.workers = 1});
  EXPECT_FALSE(service.shutdown_requested());
  const JsonValue r = reply(service, R"({"op":"shutdown"})");
  EXPECT_TRUE(r.bool_or("ok", false)) << r.dump();
  EXPECT_TRUE(service.shutdown_requested());
}

// --- protocol errors ------------------------------------------------------

TEST(ServeProtocol, MalformedRequestsAreBadRequests) {
  Service service({.workers = 1});
  expect_error(reply(service, "this is not json"), "bad_request");
  expect_error(reply(service, "[1,2,3]"), "bad_request");  // not an object
  const JsonValue unknown = reply(service, R"({"op":"no_such_op"})");
  expect_error(unknown, "bad_request");
  EXPECT_EQ(unknown.find("message")->as_string(),
            "unknown op 'no_such_op' (expected ping, synth, synth_sat, eval, "
            "paths, metrics, sweep_batch, explore, lint, stats, sleep, or "
            "shutdown)");
  expect_error(reply(service, R"({"op":"synth"})"), "bad_request");  // no expr
  expect_error(reply(service, R"({"op":"paths","rows":99,"cols":2})"),
               "bad_request");
  expect_error(reply(service, R"({"op":"eval","expr":"a b","assignments":[9]})"),
               "bad_request");
  // The id still comes back on errors so clients can correlate.
  const JsonValue r = reply(service, R"({"op":"nope","id":42})");
  EXPECT_DOUBLE_EQ(r.find("id")->as_number(), 42.0);
}

TEST(ServeProtocol, LintNetlistReportsFindings) {
  Service service({.workers = 1});
  // "ok" means the lint ran; the findings live inside "report".
  const JsonValue r = reply(
      service,
      R"({"op":"lint","netlist":"* t\nV1 in 0 1.2\nR1 in out 1k\nC1 out mid 1p\nC2 mid 0 1p\n.end\n"})");
  EXPECT_TRUE(r.bool_or("ok", false)) << r.dump();
  const JsonValue* report = r.find("report");
  ASSERT_NE(report, nullptr) << r.dump();
  EXPECT_FALSE(report->find("clean")->as_bool());
  EXPECT_DOUBLE_EQ(report->find("errors")->as_number(), 1.0);
  const auto& diags = report->find("diagnostics")->items();
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].find("rule")->as_string(), "FTL-N002");
  EXPECT_EQ(diags[0].find("object")->as_string(), "mid");
  EXPECT_DOUBLE_EQ(diags[0].find("line")->as_number(), 4.0);
}

TEST(ServeProtocol, LintLatticeWithTargetRunsEquivalence) {
  Service service({.workers = 1});
  // The paper's 3x3 XOR3 mapping with the centre cell broken: the lattice
  // passes stay quiet but equivalence must produce FTL-E001.
  const JsonValue r = reply(
      service,
      R"({"op":"lint","rows":3,"cols":3,"vars":["a","b","c"],)"
      R"("cells":["a","b'","a'","c","0","c'","a'","b","a"],)"
      R"("target":"a' b' c + a' b c' + a b' c' + a b c"})");
  EXPECT_TRUE(r.bool_or("ok", false)) << r.dump();
  const JsonValue* report = r.find("report");
  ASSERT_NE(report, nullptr) << r.dump();
  EXPECT_FALSE(report->find("clean")->as_bool());
  bool saw_e001 = false;
  for (const JsonValue& d : report->find("diagnostics")->items()) {
    if (d.find("rule")->as_string() == "FTL-E001") saw_e001 = true;
  }
  EXPECT_TRUE(saw_e001) << r.dump();
}

TEST(ServeProtocol, LintEquivBackendIsSelectable) {
  Service service({.workers = 1});
  // The same broken mapping as above must be caught by the SAT miter too,
  // and a bogus backend name is a bad request, not a silent default.
  const std::string broken =
      R"({"op":"lint","rows":3,"cols":3,"vars":["a","b","c"],)"
      R"("cells":["a","b'","a'","c","0","c'","a'","b","a"],)"
      R"("target":"a' b' c + a' b c' + a b' c' + a b c")";
  const JsonValue r = reply(service, broken + R"(,"equiv":"sat"})");
  EXPECT_TRUE(r.bool_or("ok", false)) << r.dump();
  bool saw_e001 = false;
  for (const JsonValue& d : r.find("report")->find("diagnostics")->items()) {
    if (d.find("rule")->as_string() == "FTL-E001") saw_e001 = true;
  }
  EXPECT_TRUE(saw_e001) << r.dump();
  expect_error(reply(service, broken + R"(,"equiv":"nope"})"), "bad_request");
}

TEST(ServeProtocol, LintLatticeCleanMapping) {
  Service service({.workers = 1});
  const JsonValue r = reply(
      service,
      R"({"op":"lint","rows":3,"cols":3,"vars":["a","b","c"],)"
      R"("cells":["a","b'","a'","c","1","c'","a'","b","a"],)"
      R"("target":"a' b' c + a' b c' + a b' c' + a b c"})");
  EXPECT_TRUE(r.bool_or("ok", false)) << r.dump();
  EXPECT_TRUE(r.find("report")->find("clean")->as_bool()) << r.dump();
}

TEST(ServeProtocol, LintCertifyAuditsTheLatticeAndReportsProofStatus) {
  Service service({.workers = 1});
  // A 2x1 column [a; a]: row 1 is certifiably removable (FTL-L006) and the
  // 1x1 lattice realizing the same function is found (FTL-L008). Every
  // UNSAT behind those findings passes the LRAT checker -> "checked".
  const JsonValue r = reply(
      service,
      R"({"op":"lint","rows":2,"cols":1,"vars":["a"],"cells":["a","a"],)"
      R"("certify":true})");
  EXPECT_TRUE(r.bool_or("ok", false)) << r.dump();
  ASSERT_NE(r.find("proof"), nullptr) << r.dump();
  EXPECT_EQ(r.find("proof")->as_string(), "checked");
  bool saw_l006 = false;
  bool saw_e003 = false;
  for (const JsonValue& d : r.find("report")->find("diagnostics")->items()) {
    if (d.find("rule")->as_string() == "FTL-L006") saw_l006 = true;
    if (d.find("rule")->as_string() == "FTL-E003") saw_e003 = true;
  }
  EXPECT_TRUE(saw_l006) << r.dump();
  EXPECT_FALSE(saw_e003) << r.dump();

  // Without certify the audits stay off and there is no proof field.
  const JsonValue plain = reply(
      service,
      R"({"op":"lint","rows":2,"cols":1,"vars":["a"],"cells":["a","a"]})");
  EXPECT_EQ(plain.find("proof"), nullptr) << plain.dump();
}

TEST(ServeStats, SatCoreExposesProofCounters) {
  Service service({.workers = 1});
  const JsonValue before = reply(service, R"({"op":"stats"})");
  const double checks_before =
      before.find("sat_core")->find("proof_checks")->as_number();
  const JsonValue r = reply(
      service,
      R"({"op":"synth_sat","expr":"a' b' c + a' b c' + a b' c' + a b c",)"
      R"("rows":2,"cols":2,"certify":true})");
  EXPECT_TRUE(r.find("proven_infeasible")->as_bool()) << r.dump();
  const JsonValue after = reply(service, R"({"op":"stats"})");
  const JsonValue* sc = after.find("sat_core");
  ASSERT_NE(sc, nullptr);
  EXPECT_GT(sc->find("proof_checks")->as_number(), checks_before);
  EXPECT_GE(sc->find("proof_clauses")->as_number(), 1.0);
  EXPECT_DOUBLE_EQ(sc->find("proof_failures")->as_number(), 0.0);
  EXPECT_GE(sc->find("proof_check_us")->as_number(), 0.0);
}

TEST(ServeCache, LintIsPureAndCached) {
  Service service({.workers = 1});
  const std::string line = R"({"op":"lint","netlist":"* t\nR1 a 0 0\n.end\n"})";
  const std::string first = service.handle_now(line);
  EXPECT_EQ(service.handle_now(line), first);
  const JsonValue snap = service.stats().snapshot();
  EXPECT_DOUBLE_EQ(
      snap.find("ops")->find("lint")->find("cache_hits")->as_number(), 1.0);
}

TEST(ServeProtocol, DeadlineExpiresMidRequest) {
  Service service({.workers = 1});
  const auto start = std::chrono::steady_clock::now();
  const JsonValue r =
      reply(service, R"({"op":"sleep","ms":2000,"deadline_ms":30})");
  const double elapsed_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start)
          .count();
  expect_error(r, "deadline_exceeded");
  EXPECT_LT(elapsed_ms, 1000.0);  // aborted long before the full sleep
}

// --- admission control ----------------------------------------------------

// Polls the stats op until the pool reports an executing task, so tests can
// tell "worker busy" apart from "request still queued".
void wait_for_active(Service& service, double want) {
  for (int i = 0; i < 2000; ++i) {
    const JsonValue r = reply(service, R"({"op":"stats"})");
    if (r.find("service")->find("pool_active")->as_number() >= want) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  FAIL() << "worker never started executing";
}

TEST(ServeAdmission, QueuePastHighWaterMarkIsRejectedOverloaded) {
  Service service({.workers = 1, .queue_depth = 2});
  auto blocker = service.submit(R"({"op":"sleep","ms":400})");
  wait_for_active(service, 1.0);

  // The single worker is busy: these two occupy the whole admission queue.
  auto q1 = service.submit(R"({"op":"sleep","ms":0})");
  auto q2 = service.submit(R"({"op":"sleep","ms":0})");

  auto rejected = service.submit(R"({"op":"ping","id":"over"})");
  ASSERT_EQ(rejected.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);  // rejected synchronously
  const JsonValue r = JsonValue::parse(rejected.get());
  expect_error(r, "overloaded");
  EXPECT_EQ(r.find("id")->as_string(), "over");

  EXPECT_TRUE(JsonValue::parse(blocker.get()).bool_or("ok", false));
  EXPECT_TRUE(JsonValue::parse(q1.get()).bool_or("ok", false));
  EXPECT_TRUE(JsonValue::parse(q2.get()).bool_or("ok", false));
}

TEST(ServeAdmission, DeadlineCheckedAtDequeue) {
  Service service({.workers = 1, .queue_depth = 8});
  auto blocker = service.submit(R"({"op":"sleep","ms":300})");
  wait_for_active(service, 1.0);

  // Queued behind a 300 ms blocker with a 20 ms budget: by the time a worker
  // picks it up the deadline is gone, and it must not run at all.
  auto doomed = service.submit(R"({"op":"sleep","ms":0,"deadline_ms":20})");
  expect_error(JsonValue::parse(doomed.get()), "deadline_exceeded");
  EXPECT_TRUE(JsonValue::parse(blocker.get()).bool_or("ok", false));
}

TEST(ServeAdmission, DrainCompletesInFlightThenRejects) {
  Service service({.workers = 2, .queue_depth = 8});
  auto slow = service.submit(R"({"op":"sleep","ms":200,"id":"slow"})");
  wait_for_active(service, 1.0);

  service.drain();  // blocks until the in-flight sleep finishes
  EXPECT_TRUE(service.draining());
  EXPECT_EQ(service.in_flight(), 0u);
  const JsonValue done = JsonValue::parse(slow.get());
  EXPECT_TRUE(done.bool_or("ok", false)) << done.dump();
  EXPECT_DOUBLE_EQ(done.find("slept_ms")->as_number(), 200.0);

  auto late = service.submit(R"({"op":"ping"})");
  expect_error(JsonValue::parse(late.get()), "shutting_down");
  service.drain();  // idempotent
}

// --- caching and determinism ----------------------------------------------

TEST(ServeCache, RepeatedPureOpsHitTheCache) {
  Service service({.workers = 1});
  const std::string line = R"({"op":"eval","expr":"a b + b c + a c"})";
  const std::string first = service.handle_now(line);
  const std::string second = service.handle_now(line);
  EXPECT_EQ(first, second);  // byte-identical, no cache markers in the body

  const JsonValue snap = service.stats().snapshot();
  EXPECT_DOUBLE_EQ(
      snap.find("ops")->find("eval")->find("cache_hits")->as_number(), 1.0);
}

TEST(ServeCache, DiskCacheSurvivesServiceRestart) {
  const std::string dir = ::testing::TempDir() + "/ftl_serve_cache_test";
  const std::string line = R"({"op":"synth","expr":"a b + c d"})";
  std::string first;
  {
    Service service({.workers = 1, .cache_dir = dir});
    first = service.handle_now(line);
  }
  {
    Service service({.workers = 1, .cache_dir = dir});
    EXPECT_EQ(service.handle_now(line), first);
    EXPECT_DOUBLE_EQ(service.stats()
                         .snapshot()
                         .find("ops")
                         ->find("synth")
                         ->find("cache_hits")
                         ->as_number(),
                     1.0);
  }
}

namespace {

// The NPN library warms up as requests complete, so when the same class
// appears twice in a concurrent mix, which submission seeds the library
// (source:"engine") and which hits it (source:"library") is a benign
// scheduling race. The realized lattice is identical either way; mask the
// provenance tag so the determinism gate binds to the payload.
std::string mask_synth_source(std::string line) {
  for (const char* tag : {"\"source\":\"library\",", "\"source\":\"engine\","}) {
    const std::size_t pos = line.find(tag);
    if (pos != std::string::npos) {
      line.erase(pos, std::string(tag).size());
      break;
    }
  }
  return line;
}

}  // namespace

TEST(ServeDeterminism, ConcurrentSubmissionsMatchSerialByteForByte) {
  // The acceptance gate: the same request list must produce byte-identical
  // responses whether handled one at a time or racing across the pool.
  std::vector<std::string> requests;
  const char* exprs[] = {"a b + b c + a c", "a b", "a + b", "a b' + a' b",
                         "a b c + a' b' c'"};
  for (int i = 0; i < 40; ++i) {
    JsonValue req = JsonValue::object();
    switch (i % 4) {
      case 0:
        req.set("op", JsonValue::str("eval"));
        req.set("expr", JsonValue::str(exprs[i % 5]));
        break;
      case 1:
        req.set("op", JsonValue::str("synth"));
        req.set("expr", JsonValue::str(exprs[i % 5]));
        break;
      case 2:
        req.set("op", JsonValue::str("paths"));
        req.set("rows", JsonValue::number(1 + i % 4));
        req.set("cols", JsonValue::number(1 + (i / 4) % 4));
        break;
      case 3:  // deliberate bad_request in the mix
        req.set("op", JsonValue::str("synth"));
        break;
    }
    req.set("id", JsonValue::number(i));
    requests.push_back(req.dump());
  }

  Service serial({.workers = 1, .cache = false});
  std::vector<std::string> expected;
  for (const std::string& line : requests) {
    expected.push_back(serial.handle_now(line));
  }

  Service concurrent({.workers = 8, .queue_depth = 64, .cache = false});
  std::vector<std::future<std::string>> futures;
  for (const std::string& line : requests) {
    futures.push_back(concurrent.submit(line));
  }
  for (std::size_t i = 0; i < futures.size(); ++i) {
    EXPECT_EQ(mask_synth_source(futures[i].get()),
              mask_synth_source(expected[i]))
        << requests[i];
  }
}

// --- access log and the JSONL sink under contention -----------------------

TEST(ServeAccessLog, EmitsOneWellFormedEventPerRequest) {
  const std::string path = ::testing::TempDir() + "/ftl_serve_access.jsonl";
  std::remove(path.c_str());
  {
    ftl::jobs::JsonlSink sink(path);
    ServiceOptions options{.workers = 2};
    options.access_log = &sink;
    Service service(options);
    service.handle_now(R"({"op":"ping"})");
    service.handle_now(R"({"op":"eval","expr":"a b"})");
    service.handle_now(R"({"op":"eval","expr":"a b"})");  // cache hit
    service.handle_now(R"({"op":"nope"})");
    service.drain();
  }
  std::ifstream in(path);
  std::vector<JsonValue> events;
  std::string line;
  while (std::getline(in, line)) events.push_back(JsonValue::parse(line));
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[0].find("job")->as_string(), "ping");
  EXPECT_EQ(events[1].find("job")->as_string(), "eval");
  EXPECT_EQ(events[3].find("detail")->as_string(), "bad_request");
  // The cache hit is visible in the log (never in the response body).
  EXPECT_DOUBLE_EQ(
      events[2].find("counters")->find("cache_hit")->as_number(), 1.0);
  std::remove(path.c_str());
}

TEST(JobsTelemetry, ConcurrentJsonlEmitKeepsLinesIntact) {
  const std::string path = ::testing::TempDir() + "/ftl_jsonl_race.jsonl";
  std::remove(path.c_str());
  const int kThreads = 8;
  const int kEvents = 200;
  {
    ftl::jobs::JsonlSink sink(path);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&sink, t] {
        for (int i = 0; i < kEvents; ++i) {
          ftl::jobs::Event ev;
          ev.type = "job_finish";
          ev.job = "writer-" + std::to_string(t);
          ev.detail = "succeeded";
          ev.attempt = i;
          ev.counters["i"] = static_cast<double>(i);
          sink.emit(ev);
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }
  std::ifstream in(path);
  std::string line;
  int lines = 0;
  int per_thread[kThreads] = {};
  while (std::getline(in, line)) {
    ++lines;
    // Interleaved writes would corrupt a line; every one must parse whole.
    const JsonValue ev = JsonValue::parse(line);
    ASSERT_TRUE(ev.is_object()) << line;
    const std::string job = ev.find("job")->as_string();
    ++per_thread[std::stoi(job.substr(job.find('-') + 1))];
  }
  EXPECT_EQ(lines, kThreads * kEvents);
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(per_thread[t], kEvents);
  std::remove(path.c_str());
}

// --- TCP server and client ------------------------------------------------

TEST(ServeTcp, RoundTripOverARealSocket) {
  Service service({.workers = 2});
  Server server(service, ServerOptions{.port = 0});
  server.start();
  ASSERT_GT(server.port(), 0);

  Client client("127.0.0.1", server.port());
  JsonValue ping = JsonValue::object();
  ping.set("op", JsonValue::str("ping"));
  ping.set("id", JsonValue::number(1));
  const JsonValue pong = client.call(ping);
  EXPECT_TRUE(pong.bool_or("ok", false)) << pong.dump();
  EXPECT_TRUE(pong.find("pong")->as_bool());

  // Several requests down one connection, answered in order.
  const std::string synth_line = R"({"op":"synth","expr":"a b + b c + a c"})";
  const std::string first = client.call_line(synth_line);
  EXPECT_EQ(client.call_line(synth_line), first);
  const JsonValue synth = JsonValue::parse(first);
  EXPECT_TRUE(synth.find("realizes")->as_bool());

  server.stop();
}

TEST(ServeTcp, ConcurrentClientsAllSucceed) {
  Service service({.workers = 4, .queue_depth = 256});
  Server server(service, ServerOptions{.port = 0});
  server.start();

  const int kClients = 4;
  const int kRequests = 25;
  std::atomic<int> ok{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      Client client("127.0.0.1", server.port());
      for (int i = 0; i < kRequests; ++i) {
        JsonValue req = JsonValue::object();
        req.set("op", JsonValue::str("eval"));
        req.set("expr", JsonValue::str("a b + b c + a c"));
        req.set("id", JsonValue::number(c * 1000 + i));
        const JsonValue r = client.call(req);
        if (r.bool_or("ok", false) &&
            r.find("id")->as_number() == c * 1000 + i) {
          ++ok;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(ok.load(), kClients * kRequests);
  EXPECT_GE(service.stats().total_requests(),
            static_cast<std::uint64_t>(kClients * kRequests));
  server.stop();
}

TEST(ServeTcp, ShutdownOpStopsTheServer) {
  Service service({.workers = 1});
  Server server(service, ServerOptions{.port = 0});
  server.start();
  EXPECT_FALSE(server.stop_requested());

  Client client("127.0.0.1", server.port());
  const std::string r = client.call_line(R"({"op":"shutdown"})");
  EXPECT_TRUE(JsonValue::parse(r).bool_or("ok", false));
  EXPECT_TRUE(server.stop_requested());
  server.wait();  // returns because stop was requested
  server.stop();
  EXPECT_TRUE(service.draining());
}

TEST(ServeTcp, OverlongLineGetsAnErrorThenClose) {
  Service service({.workers = 1});
  Server server(service, ServerOptions{.port = 0, .max_line = 256});
  server.start();

  Client client("127.0.0.1", server.port());
  const std::string r =
      client.call_line(R"({"op":"ping","pad":")" + std::string(1024, 'x') +
                       R"("})");
  expect_error(JsonValue::parse(r), "bad_request");
  server.stop();
}

}  // namespace
