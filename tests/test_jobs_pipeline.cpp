// The paper pipeline as a job graph: DAG shape, target resolution, and a
// reduced-size end-to-end run (cold compute, then a fully warm rerun).
#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "ftl/jobs/pipeline.hpp"
#include "ftl/jobs/scheduler.hpp"
#include "ftl/jobs/telemetry.hpp"
#include "ftl/util/error.hpp"
#include "ftl/util/thread_pool.hpp"

namespace {

using namespace ftl;

jobs::PipelineOptions quick_options() {
  jobs::PipelineOptions o;
  o.mesh = 12;  // the junctionless terminal pads vanish on coarser meshes
  o.sweep_points = 7;
  o.chain_max = 4;
  o.transient_dt = 1e-9;
  o.transient_periods = 2;
  return o;
}

TEST(PaperPipeline, GraphShapeMatchesThePaper) {
  const jobs::PaperPipeline p = jobs::build_paper_pipeline(quick_options());
  EXPECT_EQ(p.graph.size(), 21u);  // 20 paper stages + the sweep_batch stage
  // Spot-check the §III -> §IV -> §V dependency spine.
  const jobs::JobId fig5 = p.graph.find("fig5");
  ASSERT_GE(fig5, 0);
  EXPECT_EQ(p.graph.job(fig5).deps.size(), 2u);
  const jobs::JobId fit_a = p.graph.find("fit_type_a");
  ASSERT_GE(fit_a, 0);
  EXPECT_EQ(p.graph.job(fit_a).deps,
            std::vector<jobs::JobId>{p.graph.find("tcad_fit_dsff")});
  const jobs::JobId fig11t = p.graph.find("fig11_transient");
  ASSERT_GE(fig11t, 0);
  EXPECT_EQ(p.graph.job(fig11t).deps,
            (std::vector<jobs::JobId>{fit_a, p.graph.find("fig11_dc")}));
  // Deps-first insertion: every dependency id precedes its consumer.
  for (const jobs::JobId id : p.all) {
    for (const jobs::JobId dep : p.graph.job(id).deps) EXPECT_LT(dep, id);
  }
  // Changing a pipeline knob changes the affected jobs' cache identity.
  jobs::PipelineOptions finer = quick_options();
  finer.mesh = 16;
  const jobs::PaperPipeline q = jobs::build_paper_pipeline(finer);
  EXPECT_NE(p.graph.job(p.graph.find("tcad_square_hfo2")).param_digest,
            q.graph.job(q.graph.find("tcad_square_hfo2")).param_digest);
}

TEST(PaperPipeline, ResolveTargetsHandlesNamesPrefixesAndErrors) {
  const jobs::PaperPipeline p = jobs::build_paper_pipeline(quick_options());
  EXPECT_TRUE(jobs::resolve_targets(p, {"all"}).empty());  // empty = whole DAG
  EXPECT_TRUE(jobs::resolve_targets(p, {}).empty());
  const std::vector<jobs::JobId> one = jobs::resolve_targets(p, {"fig10"});
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(p.graph.job(one[0]).name, "fig10");
  // "fig11" is a prefix group: fig11_dc + fig11_transient.
  EXPECT_EQ(jobs::resolve_targets(p, {"fig11"}).size(), 2u);
  EXPECT_EQ(jobs::resolve_targets(p, {"fig12"}).size(), 2u);
  EXPECT_THROW(jobs::resolve_targets(p, {"fig99"}), ftl::Error);
}

TEST(PaperPipeline, Fig12BranchRunsColdThenFullyWarm) {
  const std::filesystem::path dir =
      std::filesystem::path(testing::TempDir()) / "ftl_pipeline_fig12";
  std::filesystem::remove_all(dir);

  const jobs::PaperPipeline p = jobs::build_paper_pipeline(quick_options());
  jobs::RunOptions options;
  options.cache_dir = dir.string();
  options.targets = jobs::resolve_targets(p, {"fig12"});

  const jobs::RunResult cold = jobs::run_graph(p.graph, options);
  ASSERT_TRUE(cold.ok());
  // Closure: tcad_fit_dsff -> fit_type_a -> fig12a -> fig12b.
  EXPECT_EQ(cold.succeeded, 4);
  EXPECT_EQ(cold.reports[static_cast<std::size_t>(p.graph.find("fig5"))].status,
            jobs::JobStatus::kNotRun);
  const jobs::JobId fig12b = p.graph.find("fig12b");
  const auto& artifact = cold.reports[static_cast<std::size_t>(fig12b)].artifact;
  ASSERT_TRUE(artifact);
  // Longer chains need at least the two-switch supply voltage.
  EXPECT_DOUBLE_EQ(artifact->scalar("monotone"), 1.0);
  EXPECT_GE(artifact->scalar("growth"), 1.0);

  jobs::CaptureSink sink;
  options.sink = &sink;
  const jobs::RunResult warm = jobs::run_graph(p.graph, options);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(warm.cache_hits, 4);
  EXPECT_EQ(warm.succeeded, 0);
  EXPECT_EQ(sink.count("cache_hit"), 4);
  EXPECT_EQ(warm.reports[static_cast<std::size_t>(fig12b)].artifact->serialize(),
            artifact->serialize());
}

TEST(PaperPipeline, PooledRunMatchesSerialByteForByte) {
  // The fit sweeps run their two legs and the device sweeps their three
  // set-ups through loops nested in pool tasks; the Monte-Carlo job fans
  // its trials the same way. None of that fan-out may change a byte.
  const jobs::PaperPipeline p = jobs::build_paper_pipeline(quick_options());
  jobs::RunOptions options;  // no cache directory: every job computes
  options.targets = jobs::resolve_targets(
      p, {"tcad_fit_dsff", "tcad_fit_sfdf", "tcad_junctionless_hfo2",
          "sweep_batch"});
  options.jobs = 1;
  // The reference runs as a task of another pool, so every global-pool
  // loop inside its jobs runs inline: a fully serial schedule.
  util::ThreadPool reference_pool(2);
  const jobs::RunResult serial =
      reference_pool.submit([&] { return jobs::run_graph(p.graph, options); })
          .get();
  options.jobs = 4;
  const jobs::RunResult pooled = jobs::run_graph(p.graph, options);
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(pooled.ok());
  // The four targets plus fit_type_a, which sweep_batch reads.
  EXPECT_EQ(serial.succeeded, 5);
  EXPECT_EQ(pooled.succeeded, 5);
  for (const jobs::JobId id : p.all) {
    const jobs::JobReport& s = serial.reports[static_cast<std::size_t>(id)];
    const jobs::JobReport& q = pooled.reports[static_cast<std::size_t>(id)];
    const std::string& name = p.graph.job(id).name;
    EXPECT_EQ(s.status, q.status) << name;
    ASSERT_EQ(s.artifact == nullptr, q.artifact == nullptr) << name;
    if (s.artifact) {
      EXPECT_EQ(s.artifact->serialize(), q.artifact->serialize()) << name;
    }
    EXPECT_EQ(s.counters, q.counters) << name;
  }
}

TEST(PaperPipeline, CalibrationDigestIsStableWithinAProcess) {
  EXPECT_EQ(jobs::calibration_digest(), jobs::calibration_digest());
  EXPECT_NE(jobs::calibration_digest(), 0u);
}

}  // namespace
