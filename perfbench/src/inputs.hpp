#pragma once
/// \file inputs.hpp
/// Input generation: every workload's inputs are a pure function of the
/// benchmark seed. The program under test only ever sees the generated
/// grids, frames and scenario specs.

#include <cstdint>
#include <string>
#include <vector>

#include "batch/batch_planner.hpp"
#include "detection/image.hpp"
#include "lattice/grid.hpp"
#include "scenario/spec.hpp"
#include "trace.hpp"

namespace pb {

/// fig7-shot-stream: the paper's configuration. 50x50 Bernoulli(0.6) loads
/// into the centred 30x30 target, balanced mode, imaged detection at
/// default photons, per_move_loss 0.01, background_loss 0.002, 10 rounds.
/// The seed is the batch master seed and the loss seed.
[[nodiscard]] qrm::batch::BatchConfig fig7_config(std::uint64_t seed);

struct Fig7Inputs {
  std::vector<qrm::OccupancyGrid> truth;       ///< ground truth of shot i
  std::vector<qrm::FluorescenceImage> frames;  ///< the camera frame of shot i
};

/// The first `shots` shots of fig7_config(seed), each rendered exactly as
/// BatchPlanner::run_shot renders it (render spans when traced).
[[nodiscard]] Fig7Inputs make_fig7_inputs(std::uint64_t seed, std::uint32_t shots,
                                          Trace* trace = nullptr);

/// scale-256-plan: `grids` 256x256 Bernoulli(0.6) loads (target 152x152).
[[nodiscard]] std::vector<qrm::OccupancyGrid> make_scale_inputs(std::uint64_t seed,
                                                                std::uint32_t grids);

/// campaign-mix: the scenarios of a campaign file, scenario i seeded with
/// derive_seed(seed, i). Throws PreconditionError on a malformed file.
[[nodiscard]] std::vector<qrm::scenario::ScenarioSpec> make_campaign_specs(
    const std::string& campaign_text, std::uint64_t seed);

/// Whole-file read; throws std::runtime_error when the file cannot be read.
[[nodiscard]] std::string read_file(const std::string& path);

}  // namespace pb
