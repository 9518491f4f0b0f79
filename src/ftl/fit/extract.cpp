#include "ftl/fit/extract.hpp"

#include <algorithm>
#include <cmath>

#include "ftl/linalg/levmar.hpp"
#include "ftl/tcad/extract.hpp"
#include "ftl/util/error.hpp"
#include "ftl/util/thread_pool.hpp"

namespace ftl::fit {

FitResult fit_level1(const std::vector<IvSample>& samples,
                     const Level1Params& initial, const FitOptions& options) {
  if (samples.empty()) throw ftl::Error("fit_level1: no samples");

  // Residual weights.
  std::vector<double> weight(samples.size(), 1.0);
  if (options.relative_weighting) {
    double i_max = 0.0;
    for (const IvSample& s : samples) i_max = std::max(i_max, std::fabs(s.ids));
    const double floor = std::max(options.floor_fraction * i_max, 1e-30);
    for (std::size_t i = 0; i < samples.size(); ++i) {
      weight[i] = 1.0 / (std::fabs(samples[i].ids) + floor);
    }
  }

  // Parameters p = {kp, vth, lambda}; width/length fixed from `initial`.
  const double width = initial.width;
  const double length = initial.length;
  const auto residuals = [&](const linalg::Vector& p, linalg::Vector& r) {
    Level1Params m{p[0], p[1], p[2], width, length};
    for (std::size_t i = 0; i < samples.size(); ++i) {
      r[i] = weight[i] *
             (level1_ids(m, samples[i].vgs, samples[i].vds) - samples[i].ids);
    }
  };

  linalg::LevMarOptions lm_options;
  lm_options.max_iterations = 500;
  lm_options.lower_bounds = {1e-12, options.vth_min, 0.0};
  lm_options.upper_bounds = {1.0, 20.0, 0.5};
  const linalg::LevMarResult lm = linalg::levenberg_marquardt(
      residuals, {initial.kp, initial.vth, initial.lambda}, samples.size(),
      lm_options);

  FitResult out;
  out.params = Level1Params{lm.parameters[0], lm.parameters[1],
                            lm.parameters[2], width, length};
  // Report the unweighted current RMSE (the paper's figure of merit).
  double ss = 0.0;
  for (const IvSample& s : samples) {
    const double r = level1_ids(out.params, s.vgs, s.vds) - s.ids;
    ss += r * r;
  }
  out.rms = std::sqrt(ss / static_cast<double>(samples.size()));
  out.iterations = lm.iterations;
  out.converged = lm.converged;
  return out;
}

std::vector<IvSample> samples_from_curves(const tcad::IvCurve& idvg,
                                          double vds_of_idvg,
                                          const tcad::IvCurve& idvd,
                                          double vgs_of_idvd, int drain) {
  std::vector<IvSample> samples;
  const linalg::Vector ig = idvg.terminal_magnitude(drain);
  for (std::size_t i = 0; i < idvg.sweep_values.size(); ++i) {
    samples.push_back({idvg.sweep_values[i], vds_of_idvg, ig[i]});
  }
  const linalg::Vector id = idvd.terminal_magnitude(drain);
  for (std::size_t i = 0; i < idvd.sweep_values.size(); ++i) {
    samples.push_back({vgs_of_idvd, idvd.sweep_values[i], id[i]});
  }
  return samples;
}

Level1Params initial_guess(const std::vector<IvSample>& samples, double width,
                           double length) {
  FTL_EXPECTS(!samples.empty());
  // Saturation-leg regression: where vds >= vgs, Id ≈ (beta/2)(vgs - vth)^2,
  // so sqrt(Id) is linear in vgs. Fit a line through the upper half of the
  // curve; the intercept seeds vth and the squared slope seeds kp. This is
  // robust where max-gm extraction (a linear-region method) is not.
  double vg_max = samples.front().vgs;
  for (const IvSample& s : samples) vg_max = std::max(vg_max, s.vgs);

  double sx = 0.0, sy = 0.0, sxx = 0.0, sxy = 0.0;
  int count = 0;
  for (const IvSample& s : samples) {
    if (s.vds < s.vgs || s.vgs < 0.5 * vg_max || s.ids <= 0.0) continue;
    const double y = std::sqrt(s.ids);
    sx += s.vgs;
    sy += y;
    sxx += s.vgs * s.vgs;
    sxy += s.vgs * y;
    ++count;
  }
  double vth = 0.5;
  double kp = 1e-5;
  if (count >= 2) {
    const double denom = count * sxx - sx * sx;
    if (denom > 0.0) {
      const double slope = (count * sxy - sx * sy) / denom;
      const double intercept = (sy - slope * sx) / count;
      if (slope > 0.0) {
        vth = -intercept / slope;
        kp = 2.0 * slope * slope * length / width;
      }
    }
  }
  return Level1Params{kp, vth, 0.01, width, length};
}

FitSweepData paper_fit_sweeps(const tcad::NetworkSolver& solver,
                              const tcad::BiasCase& bias, int points) {
  // The two legs are independent sweeps over one const solver, so they run
  // side by side as run_paper_setups' set-ups do; each leg's warm-start
  // chain stays sequential inside its own index.
  FitSweepData data;
  util::parallel_for(2, [&](std::size_t leg) {
    if (leg == 0) {
      // Scenario 1: Vds = 5 V on the drain, Vgs swept 0..5.
      data.idvg = tcad::sweep_gate(solver, bias, 5.0, 0.0, 5.0, points);
    } else {
      // Scenario 2: Vgs = 5 V, Vds swept 0..5.
      data.idvd = tcad::sweep_drain(solver, bias, 5.0, 0.0, 5.0, points);
    }
  });
  for (std::size_t t = 0; t < 4; ++t) {
    if (bias.roles[t] == tcad::Role::kDrain) data.drain = static_cast<int>(t);
  }
  return data;
}

FitResult fit_level1_paper(const std::vector<IvSample>& samples, double width,
                           double length) {
  FitOptions options;
  options.vth_min = 0.0;  // enhancement devices: the switch must open at 0 V
  return fit_level1(samples, initial_guess(samples, width, length), options);
}

namespace {

std::vector<IvSample> paper_fit_samples(const tcad::NetworkSolver& solver,
                                        const tcad::BiasCase& bias) {
  const FitSweepData data = paper_fit_sweeps(solver, bias);
  return samples_from_curves(data.idvg, 5.0, data.idvd, 5.0, data.drain);
}

}  // namespace

FitResult extract_from_device(const tcad::NetworkSolver& solver,
                              const tcad::BiasCase& bias, double width,
                              double length) {
  return fit_level1_paper(paper_fit_samples(solver, bias), width, length);
}

Fit3Result fit_level3(const std::vector<IvSample>& samples,
                      const Level1Params& level1_seed,
                      const FitOptions& options) {
  if (samples.empty()) throw ftl::Error("fit_level3: no samples");

  std::vector<double> weight(samples.size(), 1.0);
  if (options.relative_weighting) {
    double i_max = 0.0;
    for (const IvSample& s : samples) i_max = std::max(i_max, std::fabs(s.ids));
    const double floor = std::max(options.floor_fraction * i_max, 1e-30);
    for (std::size_t i = 0; i < samples.size(); ++i) {
      weight[i] = 1.0 / (std::fabs(samples[i].ids) + floor);
    }
  }

  const double width = level1_seed.width;
  const double length = level1_seed.length;
  // Parameters p = {kp, vth, lambda, theta, vc}.
  const auto residuals = [&](const linalg::Vector& p, linalg::Vector& r) {
    Level3Params m{p[0], p[1], p[2], p[3], p[4], width, length};
    for (std::size_t i = 0; i < samples.size(); ++i) {
      r[i] = weight[i] *
             (level3_ids(m, samples[i].vgs, samples[i].vds) - samples[i].ids);
    }
  };

  linalg::LevMarOptions lm_options;
  lm_options.max_iterations = 800;
  lm_options.lower_bounds = {1e-12, options.vth_min, 0.0, 0.0, 0.5};
  lm_options.upper_bounds = {1.0, 20.0, 0.5, 5.0, 1e4};
  const linalg::LevMarResult lm = linalg::levenberg_marquardt(
      residuals,
      {level1_seed.kp, std::max(level1_seed.vth, options.vth_min + 0.01), 0.01,
       0.1, 20.0},
      samples.size(), lm_options);

  Fit3Result out;
  out.params = Level3Params{lm.parameters[0], lm.parameters[1],
                            lm.parameters[2], lm.parameters[3],
                            lm.parameters[4], width,         length};
  double ss = 0.0;
  for (const IvSample& s : samples) {
    const double r = level3_ids(out.params, s.vgs, s.vds) - s.ids;
    ss += r * r;
  }
  out.rms = std::sqrt(ss / static_cast<double>(samples.size()));
  out.iterations = lm.iterations;
  out.converged = lm.converged;
  return out;
}

Fit3Result extract_level3_from_device(const tcad::NetworkSolver& solver,
                                      const tcad::BiasCase& bias, double width,
                                      double length) {
  // One pair of sweeps feeds both the level-1 seed and the level-3 fit.
  const std::vector<IvSample> samples = paper_fit_samples(solver, bias);
  const FitResult seed = fit_level1_paper(samples, width, length);
  FitOptions options;
  options.vth_min = 0.0;
  return fit_level3(samples, seed.params, options);
}

}  // namespace ftl::fit
