#include "inputs.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "exec/policy.hpp"
#include "lattice/region.hpp"
#include "layers.hpp"
#include "loading/loader.hpp"
#include "util/rng.hpp"

namespace pb {

using namespace qrm;

batch::BatchConfig fig7_config(std::uint64_t seed) {
  batch::BatchConfig config;
  config.grid_height = config.grid_width = 50;
  config.fill = 0.6;
  config.plan.target = centered_region(50, 50, 30, 30);
  config.plan.mode = PlanMode::Balanced;
  config.master_seed = seed;
  config.imaged_detection = true;
  config.loss.per_move_loss = 0.01;
  config.loss.background_loss = 0.002;
  config.loss.seed = seed;
  config.max_rounds = 10;
  return config;
}

Fig7Inputs make_fig7_inputs(std::uint64_t seed, std::uint32_t shots, Trace* trace) {
  const batch::BatchConfig config = fig7_config(seed);
  const ShotRunner runner(config);
  Fig7Inputs inputs;
  for (std::uint32_t shot = 0; shot < shots; ++shot) {
    inputs.truth.push_back(load_random(config.grid_height, config.grid_width,
                                       {config.fill, exec::shot_seed(config.master_seed, shot)}));
    const ScopedSpan span(trace, "render");
    inputs.frames.push_back(runner.render(shot, inputs.truth.back()));
  }
  return inputs;
}

std::vector<OccupancyGrid> make_scale_inputs(std::uint64_t seed, std::uint32_t grids) {
  std::vector<OccupancyGrid> inputs;
  for (std::uint32_t i = 0; i < grids; ++i) {
    inputs.push_back(load_random(256, 256, {0.6, derive_seed(seed, i)}));
  }
  return inputs;
}

std::vector<scenario::ScenarioSpec> make_campaign_specs(const std::string& campaign_text,
                                                        std::uint64_t seed) {
  std::vector<scenario::ScenarioSpec> specs = scenario::expand_sweeps(campaign_text);
  for (std::size_t i = 0; i < specs.size(); ++i) specs[i].seed = derive_seed(seed, i);
  return specs;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

}  // namespace pb
