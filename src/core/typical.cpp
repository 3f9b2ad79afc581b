#include "core/typical.hpp"

#include "moves/realizer.hpp"
#include "util/assert.hpp"

namespace qrm {

namespace {

/// Compaction of one full line toward its centre: atoms in the low half
/// right-justify against the centre boundary, atoms in the high half
/// left-justify from it. Sources equal targets when the line is in place.
LineAssignment half_compact_line(const BitRow& bits, std::int32_t line) {
  const std::uint32_t centre = bits.width() / 2;
  LineAssignment a{line, bits, BitRow(bits.width())};
  a.targets.paste(0, bits.slice(0, centre).reversed().compacted().reversed());
  a.targets.paste(centre, bits.slice(centre, bits.width() - centre).compacted());
  return a;
}

}  // namespace

PlanResult plan_typical(const OccupancyGrid& initial, const TypicalConfig& config) {
  QRM_EXPECTS_MSG(initial.height() > 0 && initial.width() > 0, "grid must be non-empty");
  QRM_EXPECTS_MSG(initial.height() % 2 == 0 && initial.width() % 2 == 0,
                  "typical procedure requires even grid dimensions");
  const Region target = config.target;
  QRM_EXPECTS_MSG(target == centered_region(initial.height(), initial.width(), target.rows,
                                            target.cols),
                  "target region must be centred");
  QRM_EXPECTS_MSG(target.rows % 2 == 0 && target.cols % 2 == 0,
                  "target region must be even-sized");

  PlanResult result;
  result.final_grid = initial;
  OccupancyGrid& state = result.final_grid;
  const RealizeOptions realize_options{config.aod_legalize};

  const auto run_pass = [&](Axis axis) -> PassInfo {
    PassInfo info;
    info.axis = axis;
    const std::int32_t line_count = axis == Axis::Rows ? state.height() : state.width();
    std::vector<LineAssignment> lines;
    for (std::int32_t line = 0; line < line_count; ++line) {
      LineAssignment a =
          half_compact_line(axis == Axis::Rows ? state.row(line) : state.column(line), line);
      if (a.sources != a.targets) lines.push_back(std::move(a));
    }
    info.lines_with_motion = lines.size();
    if (!lines.empty()) {
      const RealizeResult rr =
          realize_assignments(state, axis, lines, result.schedule, realize_options);
      info.unit_rounds = rr.rounds_toward_origin + rr.rounds_away;
      info.atoms_moved = rr.atoms_moved;
    }
    return info;
  };

  for (std::int32_t it = 0; it < config.max_iterations; ++it) {
    const PassInfo h = run_pass(Axis::Rows);
    const PassInfo v = run_pass(Axis::Cols);
    result.stats.passes.push_back(h);
    result.stats.passes.push_back(v);
    ++result.stats.iterations;
    if (h.atoms_moved == 0 && v.atoms_moved == 0) break;
    if (state.region_full(target)) break;
  }

  result.stats.target_filled = state.region_full(target);
  result.stats.defects_remaining =
      static_cast<std::int64_t>(target.area()) - state.atom_count(target);
  return result;
}

}  // namespace qrm
