#include "ftl/spice/dcsweep.hpp"

#include "ftl/spice/sources.hpp"
#include "ftl/util/error.hpp"

namespace ftl::spice {

DcSweepResult dc_sweep(Circuit& circuit, const std::string& source_name,
                       const linalg::Vector& values,
                       const NewtonOptions& options) {
  auto& source = dynamic_cast<VoltageSource&>(circuit.device(source_name));
  const Waveform saved = source.waveform();

  DcSweepResult result;
  result.sweep_values = values;
  result.converged = true;

  linalg::Vector guess;
  try {
    for (double v : values) {
      source.set_waveform(Waveform::dc(v));
      EvalContext ctx;
      ctx.gmin = options.gmin;
      OpResult op = newton_solve(circuit, guess, ctx, options);
      if (!op.converged) {
        // Fall back to the full rescue ladder for this point.
        try {
          op = dc_operating_point(circuit, options);
        } catch (const ftl::Error&) {
          result.converged = false;
        }
      }
      guess = op.solution;
      result.solutions.push_back(std::move(op.solution));
      result.converged = result.converged && op.converged;
    }
  } catch (...) {
    source.set_waveform(saved);  // a throwing solve must not leave it retuned
    throw;
  }

  source.set_waveform(saved);
  return result;
}

}  // namespace ftl::spice
