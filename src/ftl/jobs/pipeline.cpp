#include "ftl/jobs/pipeline.hpp"

#include <cctype>
#include <cmath>
#include <map>

#include "ftl/bridge/chain_netlist.hpp"
#include "ftl/bridge/lattice_netlist.hpp"
#include "ftl/bridge/variability.hpp"
#include "ftl/fit/extract.hpp"
#include "ftl/jobs/digest.hpp"
#include "ftl/lattice/known_mappings.hpp"
#include "ftl/spice/dcop.hpp"
#include "ftl/spice/measure.hpp"
#include "ftl/spice/transient.hpp"
#include "ftl/tcad/bias.hpp"
#include "ftl/tcad/calibration.hpp"
#include "ftl/tcad/current_density.hpp"
#include "ftl/tcad/extract.hpp"
#include "ftl/tcad/sweep.hpp"
#include "ftl/util/counters.hpp"
#include "ftl/util/error.hpp"
#include "ftl/util/strings.hpp"
#include "ftl/util/thread_pool.hpp"

namespace ftl::jobs {

namespace {

// Gate-sweep floor per device shape (the depletion wire must be driven
// below Vth to turn off; the SiO2 variant needs the 3x deeper sweep).
double sweep_vg_min(tcad::DeviceShape shape, tcad::GateDielectric diel) {
  if (shape != tcad::DeviceShape::kJunctionless) return 0.0;
  return diel == tcad::GateDielectric::kSiO2 ? -6.0 : -2.0;
}

tcad::NetworkSolver make_solver(tcad::DeviceShape shape,
                                tcad::GateDielectric diel, int mesh) {
  const tcad::DeviceSpec spec = tcad::make_device(shape, diel);
  return tcad::NetworkSolver(tcad::build_mesh(spec, mesh),
                             tcad::ChargeSheetModel(spec));
}

// ---- TCAD sweep jobs ------------------------------------------------------

// Artifact layout shared by all six device jobs: one row per sweep point,
// tagged with the set-up index (0 = Id-Vg @ 10 mV, 1 = Id-Vg @ 5 V,
// 2 = Id-Vd @ Vgs 5 V).
void append_curve(Artifact& artifact, int setup, const tcad::IvCurve& curve) {
  for (std::size_t i = 0; i < curve.sweep_values.size(); ++i) {
    artifact.add_row({static_cast<double>(setup), curve.sweep_values[i],
                      curve.terminal_currents[i][0], curve.terminal_currents[i][1],
                      curve.terminal_currents[i][2], curve.terminal_currents[i][3]});
  }
}

Artifact tcad_sweep_job(tcad::DeviceShape shape, tcad::GateDielectric diel,
                        const PipelineOptions& options, JobContext& ctx) {
  const tcad::NetworkSolver solver = make_solver(shape, diel, options.mesh);
  const tcad::BiasCase dsss = tcad::parse_bias_case("DSSS");
  const tcad::SweepSetups sweeps = tcad::run_paper_setups(
      solver, dsss, sweep_vg_min(shape, diel), 5.0, options.sweep_points);
  Artifact out;
  out.set_columns({"setup", "v", "i_t1", "i_t2", "i_t3", "i_t4"});
  append_curve(out, 0, sweeps.idvg_low);
  append_curve(out, 1, sweeps.idvg_high);
  append_curve(out, 2, sweeps.idvd);
  out.notes["shape"] = tcad::to_string(shape);
  out.notes["dielectric"] = tcad::to_string(diel);
  ctx.counter("solver_passes", sweeps.idvg_low.solver_passes +
                                   sweeps.idvg_high.solver_passes +
                                   sweeps.idvd.solver_passes);
  ctx.counter("unconverged_points", sweeps.idvg_low.unconverged_points +
                                        sweeps.idvg_high.unconverged_points +
                                        sweeps.idvd.unconverged_points);
  return out;
}

// Rebuilds (sweep values, DSSS drain current) of one set-up from the table.
void curve_from_artifact(const Artifact& artifact, int setup,
                         const tcad::BiasCase& bias, linalg::Vector& v,
                         linalg::Vector& id) {
  std::vector<double> vs;
  std::vector<double> is;
  for (const std::vector<double>& row : artifact.rows) {
    if (static_cast<int>(row[0]) != setup) continue;
    vs.push_back(row[1]);
    double drain = 0.0;
    for (std::size_t t = 0; t < 4; ++t) {
      if (bias.roles[t] == tcad::Role::kDrain) drain += row[2 + t];
    }
    is.push_back(drain);
  }
  v = linalg::Vector(vs.size());
  id = linalg::Vector(is.size());
  for (std::size_t i = 0; i < vs.size(); ++i) {
    v[i] = vs[i];
    id[i] = std::fabs(is[i]);
  }
}

struct FigureTargets {
  double vth_hfo2, vth_sio2, ratio_hfo2, ratio_sio2;
};

// Figs. 5-7 metrics: Vth (max-gm) and on/off ratio per dielectric, compared
// against the §III-B text exactly like the standalone benches.
Artifact device_metrics_job(tcad::DeviceShape shape,
                            const FigureTargets& paper, JobContext& ctx) {
  const tcad::BiasCase dsss = tcad::parse_bias_case("DSSS");
  Artifact out;
  out.set_columns({"dielectric", "vth", "ratio", "ion"});
  int out_of_band = 0;
  const tcad::GateDielectric diels[] = {tcad::GateDielectric::kHfO2,
                                        tcad::GateDielectric::kSiO2};
  for (std::size_t d = 0; d < 2; ++d) {
    const Artifact& sweep = ctx.input(d);
    linalg::Vector v_low, id_low, v_high, id_high;
    curve_from_artifact(sweep, 0, dsss, v_low, id_low);
    curve_from_artifact(sweep, 1, dsss, v_high, id_high);
    const double vth =
        tcad::threshold_voltage_max_gm(v_low, id_low, 0.010);
    // Depletion devices are ON at Vgs = 0; their off-point is below Vth.
    const tcad::DeviceSpec spec = tcad::make_device(shape, diels[d]);
    const double vg_off =
        spec.is_depletion()
            ? tcad::ChargeSheetModel(spec).threshold_voltage() - 1.0
            : 0.0;
    const double ratio = tcad::on_off_ratio(v_high, id_high, 5.0, vg_off);
    const double ion = id_high[id_high.size() - 1];
    const bool hfo2 = diels[d] == tcad::GateDielectric::kHfO2;
    const double paper_vth = hfo2 ? paper.vth_hfo2 : paper.vth_sio2;
    const double paper_ratio = hfo2 ? paper.ratio_hfo2 : paper.ratio_sio2;
    if (std::fabs(vth - paper_vth) >
        std::max(0.35 * std::fabs(paper_vth), 0.15)) {
      ++out_of_band;
    }
    if (ratio / paper_ratio > 10.0 || paper_ratio / ratio > 10.0) ++out_of_band;
    const std::string tag = hfo2 ? "hfo2" : "sio2";
    out.scalars["vth_" + tag] = vth;
    out.scalars["ratio_" + tag] = ratio;
    out.add_row({static_cast<double>(d), vth, ratio, ion});
  }
  out.scalars["out_of_band"] = out_of_band;
  out.notes["shape"] = tcad::to_string(shape);
  return out;
}

// Fig. 8: current-crowding metrics of the three devices at the DSSS
// on-state point (cross < square Gini is the paper's qualitative claim).
Artifact fig8_job(const PipelineOptions& options, JobContext& ctx) {
  const tcad::BiasPoint bias = tcad::parse_bias_case("DSSS").at(5.0, 5.0);
  const tcad::DeviceShape shapes[] = {tcad::DeviceShape::kSquare,
                                      tcad::DeviceShape::kCross,
                                      tcad::DeviceShape::kJunctionless};
  Artifact out;
  out.set_columns({"shape", "peak_over_mean", "gini"});
  for (std::size_t s = 0; s < 3; ++s) {
    const tcad::NetworkSolver solver =
        make_solver(shapes[s], tcad::GateDielectric::kHfO2, options.mesh);
    const tcad::CrowdingMetrics m = tcad::crowding_metrics(solver, bias);
    out.add_row({static_cast<double>(s), m.peak_over_mean, m.gini});
    out.scalars["gini_" + tcad::to_string(shapes[s])] = m.gini;
  }
  out.scalars["cross_more_uniform"] =
      out.scalar("gini_cross") < out.scalar("gini_square") ? 1.0 : 0.0;
  ctx.counter("devices", 3);
  return out;
}

// ---- §IV extraction jobs --------------------------------------------------

// Sweep-data artifact of the two-scenario fit recipe: leg 0 = Id-Vg at
// Vds 5 V, leg 1 = Id-Vd at Vgs 5 V; currents are |I(drain)|.
Artifact fit_sweep_job(const std::string& bias_name,
                       const PipelineOptions& options, JobContext& ctx) {
  const tcad::NetworkSolver solver = make_solver(
      tcad::DeviceShape::kSquare, tcad::GateDielectric::kHfO2, options.mesh);
  const tcad::BiasCase bias = tcad::parse_bias_case(bias_name);
  const fit::FitSweepData data =
      fit::paper_fit_sweeps(solver, bias, options.sweep_points);
  Artifact out;
  out.set_columns({"leg", "vgs", "vds", "ids"});
  const linalg::Vector ig = data.idvg.terminal_magnitude(data.drain);
  for (std::size_t i = 0; i < data.idvg.sweep_values.size(); ++i) {
    out.add_row({0.0, data.idvg.sweep_values[i], 5.0, ig[i]});
  }
  const linalg::Vector id = data.idvd.terminal_magnitude(data.drain);
  for (std::size_t i = 0; i < data.idvd.sweep_values.size(); ++i) {
    out.add_row({1.0, 5.0, data.idvd.sweep_values[i], id[i]});
  }
  out.notes["bias"] = bias_name;
  ctx.counter("solver_passes",
              data.idvg.solver_passes + data.idvd.solver_passes);
  ctx.counter("unconverged_points",
              data.idvg.unconverged_points + data.idvd.unconverged_points);
  return out;
}

std::vector<fit::IvSample> samples_from_artifact(const Artifact& artifact) {
  std::vector<fit::IvSample> samples;
  samples.reserve(artifact.row_count());
  for (const std::vector<double>& row : artifact.rows) {
    samples.push_back({row[1], row[2], row[3]});
  }
  return samples;
}

// Level-1 fit (Fig. 10 / Table III): consumes the cached sweep artifact, so
// a fit-stage change re-fits without re-simulating the TCAD stage.
Artifact fit_job(double width, double length, JobContext& ctx) {
  const std::vector<fit::IvSample> samples =
      samples_from_artifact(ctx.input(0));
  const fit::FitResult fit = fit::fit_level1_paper(samples, width, length);
  if (!fit.converged) {
    throw Error("level-1 fit did not converge (rms " +
                util::format_double(fit.rms) + " A)");
  }
  Artifact out;
  out.scalars["kp"] = fit.params.kp;
  out.scalars["vth"] = fit.params.vth;
  out.scalars["lambda"] = fit.params.lambda;
  out.scalars["width"] = fit.params.width;
  out.scalars["length"] = fit.params.length;
  out.scalars["rms"] = fit.rms;
  out.scalars["iterations"] = fit.iterations;
  ctx.counter("levmar_iterations", fit.iterations);
  ctx.counter("samples", static_cast<double>(samples.size()));
  return out;
}

fit::Level1Params level1_from_artifact(const Artifact& artifact) {
  fit::Level1Params p;
  p.kp = artifact.scalar("kp");
  p.vth = artifact.scalar("vth");
  p.lambda = artifact.scalar("lambda");
  p.width = artifact.scalar("width");
  p.length = artifact.scalar("length");
  return p;
}

// Fig. 10 overlay: Id-Vd TCAD data (leg 1 of the DSFF sweep artifact)
// against the fitted level-1 curve.
Artifact fig10_job(JobContext& ctx) {
  const fit::Level1Params params = level1_from_artifact(ctx.input(0));
  const Artifact& sweep = ctx.input(1);
  Artifact out;
  out.set_columns({"vds", "tcad", "fit"});
  double max_rel = 0.0;
  for (const std::vector<double>& row : sweep.rows) {
    if (static_cast<int>(row[0]) != 1) continue;  // Id-Vd leg only
    const double vds = row[2];
    const double data = row[3];
    const double fitted = fit::level1_ids(params, 5.0, vds);
    out.add_row({vds, data, fitted});
    if (data > 1e-12) {
      max_rel = std::max(max_rel, std::fabs(fitted - data) / data);
    }
  }
  out.scalars["max_rel_err"] = max_rel;
  return out;
}

// Table III: the fitted Type A / Type B parameter sets side by side.
Artifact table3_job(JobContext& ctx) {
  Artifact out;
  out.set_columns({"type", "kp", "vth", "lambda", "rms"});
  const char* tags[] = {"a", "b"};
  for (std::size_t i = 0; i < 2; ++i) {
    const Artifact& fit = ctx.input(i);
    out.add_row({static_cast<double>(i), fit.scalar("kp"), fit.scalar("vth"),
                 fit.scalar("lambda"), fit.scalar("rms")});
    const std::string tag = tags[i];
    out.scalars["kp_" + tag] = fit.scalar("kp");
    out.scalars["vth_" + tag] = fit.scalar("vth");
    out.scalars["lambda_" + tag] = fit.scalar("lambda");
  }
  out.notes["type_a"] = "adjacent pair (L = 0.35 um)";
  out.notes["type_b"] = "opposite pair (L = 0.50 um)";
  return out;
}

// ---- §V circuit jobs ------------------------------------------------------

bridge::LatticeCircuitOptions lattice_options_from_fit(const Artifact& fit) {
  bridge::LatticeCircuitOptions options;
  options.switch_model = bridge::switch_model_from_level1(level1_from_artifact(fit));
  return options;
}

// Fig. 11, DC half: the electrical truth table of the inverse-XOR3 lattice.
Artifact fig11_dc_job(JobContext& ctx) {
  const bridge::LatticeCircuitOptions options =
      lattice_options_from_fit(ctx.input(0));
  const lattice::Lattice lat = lattice::xor3_lattice_3x3();
  Artifact out;
  out.set_columns({"code", "xor3", "vout", "ok"});
  bool all_ok = true;
  double zero_state = 0.0;
  for (int code = 0; code < 8; ++code) {
    std::map<int, spice::Waveform> drives;
    for (int v = 0; v < 3; ++v) {
      drives[v] = spice::Waveform::dc(((code >> v) & 1) != 0 ? 1.2 : 0.0);
    }
    bridge::LatticeCircuit lc =
        bridge::build_lattice_circuit(lat, drives, options);
    const spice::OpResult op = spice::dc_operating_point(lc.circuit);
    ctx.counter("newton_iterations", op.iterations);
    const double vout =
        op.solution[static_cast<std::size_t>(lc.circuit.find_node("out"))];
    const bool xor3 = (((code >> 0) ^ (code >> 1) ^ (code >> 2)) & 1) != 0;
    const bool ok = op.converged && (xor3 ? vout < 0.4 : vout > 1.0);
    all_ok = all_ok && ok;
    if (xor3) zero_state = std::max(zero_state, vout);
    out.add_row({static_cast<double>(code), xor3 ? 1.0 : 0.0, vout,
                 ok ? 1.0 : 0.0});
  }
  out.scalars["zero_state"] = zero_state;
  out.scalars["all_ok"] = all_ok ? 1.0 : 0.0;
  return out;
}

// Fig. 11, transient half: the binary-weighted input walk and the §V
// figures of merit (10-90% rise, 90-10% fall).
Artifact fig11_transient_job(const PipelineOptions& pipeline_options,
                             JobContext& ctx) {
  const bridge::LatticeCircuitOptions options =
      lattice_options_from_fit(ctx.input(0));
  const double zero_state = ctx.input(1).scalar("zero_state");
  const lattice::Lattice lat = lattice::xor3_lattice_3x3();
  const double period = 40e-9;
  std::map<int, spice::Waveform> drives;
  for (int v = 0; v < 3; ++v) {
    const double p = period * static_cast<double>(2 << v);
    drives[v] =
        spice::Waveform::pulse(0.0, 1.2, p / 2.0, 1e-9, 1e-9, p / 2.0 - 1e-9, p);
  }
  bridge::LatticeCircuit lc = bridge::build_lattice_circuit(lat, drives, options);
  spice::TransientOptions topt;
  topt.tstop = pipeline_options.transient_periods * period;
  topt.dt = pipeline_options.transient_dt;
  topt.record_nodes = {"out"};
  const spice::TransientResult tr = spice::transient(lc.circuit, topt);

  Artifact out;
  out.set_columns({"t", "vout"});
  for (std::size_t i = 0; i < tr.time().size(); ++i) {
    out.add_row({tr.time()[i], tr.signal("out")[i]});
  }
  const auto rise = spice::rise_time(tr.time(), tr.signal("out"), zero_state, 1.2);
  const auto fall = spice::fall_time(tr.time(), tr.signal("out"), zero_state, 1.2);
  out.scalars["rise_s"] = rise ? *rise : -1.0;
  out.scalars["fall_s"] = fall ? *fall : -1.0;
  out.scalars["zero_state"] = zero_state;
  ctx.counter("steps", static_cast<double>(tr.size()));
  ctx.counter("newton_iterations", tr.newton_iterations());
  return out;
}

// Fig. 12a: chain current at constant 1.2 V supply, N = 1..chain_max. The
// chains are independent, so they fan across the pool; each N writes its
// own slot, keeping the artifact bit-identical to a serial run.
Artifact fig12a_job(const PipelineOptions& pipeline_options, JobContext& ctx) {
  const bridge::SwitchModelParams model =
      bridge::switch_model_from_level1(level1_from_artifact(ctx.input(0)));
  const int n_max = pipeline_options.chain_max;
  std::vector<double> currents(static_cast<std::size_t>(n_max) + 1, 0.0);
  util::parallel_for(static_cast<std::size_t>(n_max), [&](std::size_t i) {
    const int n = static_cast<int>(i) + 1;
    currents[static_cast<std::size_t>(n)] =
        bridge::chain_current(n, 1.2, 1.2, model);
  });
  Artifact out;
  out.set_columns({"n", "current"});
  for (int n = 1; n <= n_max; ++n) {
    out.add_row({static_cast<double>(n), currents[static_cast<std::size_t>(n)]});
  }
  out.scalars["i1"] = currents[1];
  out.scalars["target_current"] =
      currents[static_cast<std::size_t>(std::min(2, n_max))];
  out.scalars["decay_ratio"] =
      currents[1] / currents[static_cast<std::size_t>(n_max)];
  ctx.counter("chains", n_max);
  return out;
}

// Fig. 12b: supply voltage for the constant two-switch current.
Artifact fig12b_job(const PipelineOptions& pipeline_options, JobContext& ctx) {
  const bridge::SwitchModelParams model =
      bridge::switch_model_from_level1(level1_from_artifact(ctx.input(0)));
  const double target = ctx.input(1).scalar("target_current");
  const int n_max = pipeline_options.chain_max;
  std::vector<double> volts(static_cast<std::size_t>(n_max) + 1, 0.0);
  util::parallel_for(static_cast<std::size_t>(n_max), [&](std::size_t i) {
    const int n = static_cast<int>(i) + 1;
    volts[static_cast<std::size_t>(n)] =
        bridge::voltage_for_current(n, target, 10.0, model);
  });
  Artifact out;
  out.set_columns({"n", "voltage"});
  bool monotone = true;
  for (int n = 1; n <= n_max; ++n) {
    out.add_row({static_cast<double>(n), volts[static_cast<std::size_t>(n)]});
    if (n > 1) {
      monotone = monotone && volts[static_cast<std::size_t>(n)] >=
                                 volts[static_cast<std::size_t>(n - 1)] - 1e-9;
    }
  }
  const int base = std::min(2, n_max);
  out.scalars["monotone"] = monotone ? 1.0 : 0.0;
  out.scalars["growth"] = volts[static_cast<std::size_t>(n_max)] /
                          volts[static_cast<std::size_t>(base)];
  ctx.counter("chains", n_max);
  return out;
}

// sweep_batch: corner batches as a pipeline stage. Runs the §V Monte-Carlo
// yield of the XOR3 bench (all trials of a worker chunk solved as corners
// of one spice::dcop_batch per input code) plus a Fig. 12 chain supply
// sweep through chain_current_batch, and folds the batch_core counter
// deltas into the job telemetry.
Artifact sweep_batch_job(const PipelineOptions& pipeline_options,
                         JobContext& ctx) {
  const bridge::SwitchModelParams model =
      bridge::switch_model_from_level1(level1_from_artifact(ctx.input(0)));
  const std::vector<util::CounterValue> before =
      spice::batch_core().set.snapshot();

  bridge::VariabilityOptions vo;
  vo.sigma_vth = 0.01;
  vo.sigma_kp_rel = 0.05;
  vo.trials = pipeline_options.mc_trials;
  vo.max_threads = pipeline_options.workers;
  vo.circuit.switch_model = model;
  const bridge::VariabilityResult mc = bridge::monte_carlo_yield(
      lattice::xor3_lattice_3x3(), lattice::xor3_truth_table(), vo);

  // Fig. 12 drive sweep: one chain topology, all supply corners as lanes
  // of a single symbolic analysis (gate rail tracking the supply).
  const int chain_n = std::min(5, pipeline_options.chain_max);
  std::vector<double> volts;
  for (int i = 0; i <= 10; ++i) volts.push_back(0.3 + 0.27 * i);
  const std::vector<double> currents =
      bridge::chain_current_batch(chain_n, volts, volts, model);

  Artifact out;
  out.set_columns({"v", "current"});
  for (std::size_t i = 0; i < volts.size(); ++i) {
    out.add_row({volts[i], currents[i]});
  }
  out.scalars["trials"] = static_cast<double>(mc.trials);
  out.scalars["yield"] = mc.yield();
  out.scalars["worst_low"] = mc.worst_low;
  out.scalars["worst_high"] = mc.worst_high;
  out.scalars["chain_n"] = static_cast<double>(chain_n);

  // batch_core deltas. Each dcop_batch adds only its own circuit's work to
  // these totals, and no other pipeline job runs dcop_batch, so the
  // difference is this job's batches.
  const std::vector<util::CounterValue> after =
      spice::batch_core().set.snapshot();
  for (std::size_t i = 0; i < after.size(); ++i) {
    ctx.counter(after[i].key,
                static_cast<double>(after[i].value - before[i].value));
  }
  return out;
}

std::uint64_t base_digest(const PipelineOptions& options, const char* recipe) {
  Digest d;
  d.str(recipe);
  d.u64(calibration_digest());
  d.i64(options.mesh);
  d.i64(options.sweep_points);
  return d.value();
}

}  // namespace

std::uint64_t calibration_digest() {
  namespace cal = tcad::calibration;
  Digest d;
  d.str("tcad-calibration");
  d.f64(cal::kFlatBandEnhancement);
  d.f64(cal::kFlatBandJunctionless);
  d.f64(cal::kNarrowWidth);
  d.f64(cal::kChannelMobility);
  d.f64(cal::kMobilityTheta);
  d.f64(cal::kElectrodeMobility);
  d.f64(cal::kJunctionlessDonors);
  d.f64(cal::kJunctionlessThickness);
  d.f64(cal::kJunctionlessMobility);
  d.f64(cal::kJunctionLeakage);
  d.f64(cal::kGateLeakageHfO2);
  d.f64(cal::kGateLeakageSiO2);
  d.f64(cal::kMinSheetConductance);
  return d.value();
}

PaperPipeline build_paper_pipeline(const PipelineOptions& options) {
  PaperPipeline pipeline;
  JobGraph& g = pipeline.graph;
  const auto add = [&pipeline, &g](JobDesc desc) {
    const JobId id = g.add(std::move(desc));
    pipeline.all.push_back(id);
    return id;
  };

  // ---- §IV fit sweeps ------------------------------------------------------
  // Declared first: they have no dependencies and are the critical path
  // (DSFF takes the most block passes of any job), so the scheduler's
  // ascending-id ready queue hands them to the pool before the six device
  // sweeps.
  const JobId dsff = add([&] {
    JobDesc desc;
    desc.name = "tcad_fit_dsff";
    Digest d;
    d.u64(base_digest(options, "fit-sweep-v1"));
    d.str("DSFF");
    desc.param_digest = d.value();
    desc.fn = [options](JobContext& ctx) {
      return fit_sweep_job("DSFF", options, ctx);
    };
    return desc;
  }());
  const JobId sfdf = add([&] {
    JobDesc desc;
    desc.name = "tcad_fit_sfdf";
    Digest d;
    d.u64(base_digest(options, "fit-sweep-v1"));
    d.str("SFDF");
    desc.param_digest = d.value();
    desc.fn = [options](JobContext& ctx) {
      return fit_sweep_job("SFDF", options, ctx);
    };
    return desc;
  }());

  // ---- TCAD device sweeps (Figs. 5-7 inputs) -----------------------------
  const tcad::DeviceShape shapes[] = {tcad::DeviceShape::kSquare,
                                      tcad::DeviceShape::kCross,
                                      tcad::DeviceShape::kJunctionless};
  std::map<std::string, JobId> sweep_ids;
  for (const tcad::DeviceShape shape : shapes) {
    for (const tcad::GateDielectric diel :
         {tcad::GateDielectric::kHfO2, tcad::GateDielectric::kSiO2}) {
      const std::string name = "tcad_" + tcad::to_string(shape) + "_" +
                               util::to_lower(tcad::to_string(diel));
      Digest d;
      d.u64(base_digest(options, "tcad-sweep-v1"));
      d.str(tcad::to_string(shape));
      d.str(tcad::to_string(diel));
      d.f64(sweep_vg_min(shape, diel));
      JobDesc desc;
      desc.name = name;
      desc.param_digest = d.value();
      desc.fn = [shape, diel, options](JobContext& ctx) {
        return tcad_sweep_job(shape, diel, options, ctx);
      };
      sweep_ids[name] = add(std::move(desc));
    }
  }

  // ---- Figs. 5-7 metrics --------------------------------------------------
  const struct {
    const char* name;
    tcad::DeviceShape shape;
    FigureTargets targets;
  } figures[] = {
      {"fig5", tcad::DeviceShape::kSquare, {0.16, 1.36, 1e6, 1e5}},
      {"fig6", tcad::DeviceShape::kCross, {0.27, 1.76, 1e6, 1e4}},
      {"fig7", tcad::DeviceShape::kJunctionless, {-0.57, -4.8, 1e8, 1e7}},
  };
  for (const auto& fig : figures) {
    const std::string shape_name = tcad::to_string(fig.shape);
    JobDesc desc;
    desc.name = fig.name;
    Digest d;
    d.u64(base_digest(options, "device-metrics-v1"));
    d.str(shape_name);
    desc.param_digest = d.value();
    desc.deps = {sweep_ids.at("tcad_" + shape_name + "_hfo2"),
                 sweep_ids.at("tcad_" + shape_name + "_sio2")};
    const tcad::DeviceShape shape = fig.shape;
    const FigureTargets targets = fig.targets;
    desc.fn = [shape, targets](JobContext& ctx) {
      return device_metrics_job(shape, targets, ctx);
    };
    add(std::move(desc));
  }

  // ---- Fig. 8 (independent branch) ---------------------------------------
  {
    JobDesc desc;
    desc.name = "fig8";
    desc.param_digest = base_digest(options, "fig8-crowding-v1");
    desc.fn = [options](JobContext& ctx) { return fig8_job(options, ctx); };
    add(std::move(desc));
  }

  // ---- §IV extraction -----------------------------------------------------
  const auto add_fit = [&](const char* name, JobId sweep, double length) {
    JobDesc desc;
    desc.name = name;
    Digest d;
    d.u64(base_digest(options, "fit-level1-v1"));
    d.f64(0.7e-6);
    d.f64(length);
    desc.param_digest = d.value();
    desc.deps = {sweep};
    desc.fn = [length](JobContext& ctx) {
      return fit_job(0.7e-6, length, ctx);
    };
    return add(std::move(desc));
  };
  const JobId fit_a = add_fit("fit_type_a", dsff, 0.35e-6);
  const JobId fit_b = add_fit("fit_type_b", sfdf, 0.50e-6);

  {
    JobDesc desc;
    desc.name = "fig10";
    desc.param_digest = base_digest(options, "fig10-overlay-v1");
    desc.deps = {fit_a, dsff};
    desc.fn = [](JobContext& ctx) { return fig10_job(ctx); };
    add(std::move(desc));
  }
  {
    JobDesc desc;
    desc.name = "table3";
    desc.param_digest = base_digest(options, "table3-v1");
    desc.deps = {fit_a, fit_b};
    desc.fn = [](JobContext& ctx) { return table3_job(ctx); };
    add(std::move(desc));
  }

  // ---- §V circuit experiments --------------------------------------------
  const JobId fig11_dc = add([&] {
    JobDesc desc;
    desc.name = "fig11_dc";
    desc.param_digest = base_digest(options, "fig11-dc-v1");
    desc.deps = {fit_a};
    desc.fn = [](JobContext& ctx) { return fig11_dc_job(ctx); };
    return desc;
  }());
  {
    JobDesc desc;
    desc.name = "fig11_transient";
    Digest d;
    d.u64(base_digest(options, "fig11-transient-v1"));
    d.f64(options.transient_dt);
    d.i64(options.transient_periods);
    desc.param_digest = d.value();
    desc.deps = {fit_a, fig11_dc};
    desc.fn = [options](JobContext& ctx) {
      return fig11_transient_job(options, ctx);
    };
    add(std::move(desc));
  }
  const JobId fig12a = add([&] {
    JobDesc desc;
    desc.name = "fig12a";
    Digest d;
    d.u64(base_digest(options, "fig12a-v1"));
    d.i64(options.chain_max);
    desc.param_digest = d.value();
    desc.deps = {fit_a};
    desc.fn = [options](JobContext& ctx) { return fig12a_job(options, ctx); };
    return desc;
  }());
  {
    JobDesc desc;
    desc.name = "fig12b";
    Digest d;
    d.u64(base_digest(options, "fig12b-v1"));
    d.i64(options.chain_max);
    desc.param_digest = d.value();
    desc.deps = {fit_a, fig12a};
    desc.fn = [options](JobContext& ctx) { return fig12b_job(options, ctx); };
    add(std::move(desc));
  }
  {
    JobDesc desc;
    desc.name = "sweep_batch";
    Digest d;
    d.u64(base_digest(options, "sweep-batch-v1"));
    d.i64(options.mc_trials);
    d.i64(options.chain_max);
    // options.workers stays out of the digest: the Monte-Carlo yield is
    // bitwise-deterministic across thread counts.
    desc.param_digest = d.value();
    desc.deps = {fit_a};
    desc.fn = [options](JobContext& ctx) {
      return sweep_batch_job(options, ctx);
    };
    add(std::move(desc));
  }

  return pipeline;
}

std::vector<BenchCircuit> pipeline_bench_circuits(
    const PipelineOptions& options) {
  std::vector<BenchCircuit> benches;
  const lattice::Lattice lat = lattice::xor3_lattice_3x3();

  // Fig. 11 DC bench: the all-zero input code (the other codes differ only
  // in source values, not topology).
  {
    std::map<int, spice::Waveform> drives;
    for (int v = 0; v < 3; ++v) drives[v] = spice::Waveform::dc(0.0);
    benches.push_back(
        {"fig11_dc", bridge::build_lattice_circuit(lat, drives).circuit});
  }

  // Fig. 11 transient bench: the binary-weighted pulse walk.
  {
    const double period = 40e-9;
    std::map<int, spice::Waveform> drives;
    for (int v = 0; v < 3; ++v) {
      const double p = period * static_cast<double>(2 << v);
      drives[v] = spice::Waveform::pulse(0.0, 1.2, p / 2.0, 1e-9, 1e-9,
                                         p / 2.0 - 1e-9, p);
    }
    benches.push_back(
        {"fig11_transient", bridge::build_lattice_circuit(lat, drives).circuit});
  }

  // Fig. 12 chains: shortest and longest.
  benches.push_back(
      {"fig12_chain_1", bridge::build_switch_chain(1, 1.2, 1.2).circuit});
  {
    std::string name = "fig12_chain_";
    name += std::to_string(options.chain_max);
    benches.push_back({std::move(name),
                       bridge::build_switch_chain(options.chain_max, 1.2, 1.2)
                           .circuit});
  }
  return benches;
}

std::vector<JobId> resolve_targets(const PaperPipeline& pipeline,
                                   const std::vector<std::string>& names) {
  std::vector<JobId> targets;
  for (const std::string& name : names) {
    if (name == "all") return {};
    const JobId exact = pipeline.graph.find(name);
    if (exact >= 0) {
      targets.push_back(exact);
      continue;
    }
    bool matched = false;
    for (const JobId id : pipeline.all) {
      const std::string& job_name = pipeline.graph.job(id).name;
      if (job_name.rfind(name, 0) != 0) continue;
      // Group matches: "fig11" -> fig11_dc/fig11_transient (underscore
      // stage suffix) and "fig12" -> fig12a/fig12b (subfigure letter).
      const std::string rest = job_name.substr(name.size());
      if (rest[0] == '_' ||
          (rest.size() == 1 && std::isalpha(static_cast<unsigned char>(rest[0])))) {
        targets.push_back(id);
        matched = true;
      }
    }
    if (!matched) {
      throw Error("unknown job '" + name + "' (try --list)");
    }
  }
  return targets;
}

}  // namespace ftl::jobs
