#pragma once
/// \file kernelref.hpp
/// Per-atom reference implementations of the quadrant kernels (compact_pass
/// and balance_pass in core/quadrant_plan.hpp), in the style of
/// util/bitref.hpp: the executable specification the word kernels are
/// pinned against. Each line's atoms are a std::vector of positions and
/// each assignment pairs sources[i] with targets[i]. The planner and
/// run_cpu_reference share the word kernels, so their agreement cannot
/// catch a kernel fault; the differential suite in core_test.cpp compares
/// the kernels with these instead. Never call these from production code.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/quadrant_plan.hpp"
#include "lattice/grid.hpp"
#include "util/assert.hpp"

namespace qrm::ref {

/// One line's re-placement in vector form: sources[i] goes to targets[i].
struct VectorAssignment {
  std::int32_t line = 0;
  std::vector<std::int32_t> sources;
  std::vector<std::int32_t> targets;

  friend bool operator==(const VectorAssignment&, const VectorAssignment&) = default;
};

/// Atom positions along line `line` of `local` for the given axis, ascending,
/// excluding positions at or beyond the sen gate.
inline std::vector<std::int32_t> line_atoms(const OccupancyGrid& local, Axis axis,
                                            std::int32_t line, std::int32_t sen_limit) {
  const BitRow bits = axis == Axis::Rows ? local.row(line) : local.column(line);
  std::vector<std::int32_t> out;
  out.reserve(bits.count());
  const auto& words = bits.words();
  for (std::size_t wi = 0; wi < words.size(); ++wi) {
    std::uint64_t w = words[wi];
    while (w != 0) {
      const auto bit = static_cast<std::uint32_t>(std::countr_zero(w));
      const auto p = static_cast<std::int32_t>(wi * BitRow::kWordBits + bit);
      if (sen_limit >= 0 && p >= sen_limit) return out;
      out.push_back(p);
      w &= w - 1;
    }
  }
  return out;
}

inline std::vector<VectorAssignment> compact_pass(const OccupancyGrid& local, Axis axis,
                                                  std::int32_t sen_limit) {
  const std::int32_t line_count = axis == Axis::Rows ? local.height() : local.width();
  std::vector<VectorAssignment> out;
  for (std::int32_t line = 0; line < line_count; ++line) {
    std::vector<std::int32_t> sources = line_atoms(local, axis, line, sen_limit);
    if (sources.empty()) continue;
    std::vector<std::int32_t> targets(sources.size());
    for (std::size_t i = 0; i < sources.size(); ++i) targets[i] = static_cast<std::int32_t>(i);
    if (sources == targets) continue;  // already compact
    out.push_back({line, std::move(sources), std::move(targets)});
  }
  return out;
}

inline std::vector<VectorAssignment> balance_pass(const OccupancyGrid& local,
                                                  std::int32_t target_rows,
                                                  std::int32_t target_cols,
                                                  std::int32_t sen_limit,
                                                  BalanceReport* report) {
  QRM_EXPECTS(target_rows > 0 && target_cols > 0);
  QRM_EXPECTS(target_rows <= local.height() && target_cols <= local.width());

  const std::int32_t height = local.height();
  const std::int32_t width = local.width();

  // Usable atoms per row (below the sen gate).
  std::vector<std::vector<std::int32_t>> atoms(static_cast<std::size_t>(height));
  std::vector<std::int32_t> capacity(static_cast<std::size_t>(height), 0);
  for (std::int32_t r = 0; r < height; ++r) {
    atoms[static_cast<std::size_t>(r)] = line_atoms(local, Axis::Rows, r, sen_limit);
    capacity[static_cast<std::size_t>(r)] =
        static_cast<std::int32_t>(atoms[static_cast<std::size_t>(r)].size());
  }

  // Greedy demand assignment: each target column needs `target_rows` donors,
  // at most one per row. Serving each column with the rows of largest
  // remaining capacity maximises the total satisfiable demand. Rows are
  // bucketed by remaining capacity so each column costs O(grants), not a
  // sort (this path is on the latency-critical CPU analysis).
  std::vector<std::vector<std::int32_t>> chosen(static_cast<std::size_t>(height));
  std::int32_t max_capacity = 0;
  for (const auto cap : capacity) max_capacity = std::max(max_capacity, cap);
  std::vector<std::vector<std::int32_t>> buckets(static_cast<std::size_t>(max_capacity) + 1);
  for (std::int32_t r = 0; r < height; ++r)
    buckets[static_cast<std::size_t>(capacity[static_cast<std::size_t>(r)])].push_back(r);

  BalanceReport rep;
  std::vector<std::pair<std::int32_t, std::int32_t>> picks;  // (row, old capacity)
  for (std::int32_t c = 0; c < target_cols; ++c) {
    picks.clear();
    std::int32_t granted = 0;
    for (std::int32_t cap = max_capacity; cap >= 1 && granted < target_rows; --cap) {
      auto& bucket = buckets[static_cast<std::size_t>(cap)];
      while (!bucket.empty() && granted < target_rows) {
        picks.emplace_back(bucket.back(), cap);
        bucket.pop_back();
        ++granted;
      }
    }
    // Apply grants after the scan so a row serves this column at most once.
    for (const auto& [r, cap] : picks) {
      chosen[static_cast<std::size_t>(r)].push_back(c);  // ascending: c increases
      buckets[static_cast<std::size_t>(cap - 1)].push_back(r);
    }
    if (granted < target_rows) {
      rep.feasible = false;
      rep.shortfall += target_rows - granted;
    }
  }

  // Build per-row final placements: the chosen target columns plus parking
  // spots for surplus atoms (prefer their original columns, then the lowest
  // free columns). Gated atoms (>= sen_limit) are fixed obstacles the final
  // ordering must respect — parking prefers original positions, and gated
  // atoms keep theirs, so conflicts cannot arise below the gate.
  std::vector<VectorAssignment> out;
  std::vector<char> used(static_cast<std::size_t>(width));
  for (std::int32_t r = 0; r < height; ++r) {
    const auto& row_atoms = atoms[static_cast<std::size_t>(r)];
    if (row_atoms.empty()) continue;
    std::fill(used.begin(), used.end(), char{0});
    std::size_t placed = 0;
    for (const std::int32_t c : chosen[static_cast<std::size_t>(r)]) {
      used[static_cast<std::size_t>(c)] = 1;
      ++placed;
    }
    // Keep surplus atoms at their original columns where possible...
    for (const std::int32_t a : row_atoms) {
      if (placed == row_atoms.size()) break;
      if (used[static_cast<std::size_t>(a)] == 0) {
        used[static_cast<std::size_t>(a)] = 1;
        ++placed;
      }
    }
    // ...topping up from the lowest free columns when originals collided
    // with chosen targets. Gated positions are never used for parking.
    const std::int32_t park_end = sen_limit < 0 ? width : sen_limit;
    for (std::int32_t c = 0; c < park_end && placed < row_atoms.size(); ++c) {
      if (used[static_cast<std::size_t>(c)] == 0) {
        used[static_cast<std::size_t>(c)] = 1;
        ++placed;
      }
    }
    QRM_ENSURES_MSG(placed == row_atoms.size(),
                    "balance pass could not place every atom below the sen gate");
    std::vector<std::int32_t> targets;
    targets.reserve(row_atoms.size());
    for (std::int32_t c = 0; c < width; ++c) {
      if (used[static_cast<std::size_t>(c)] != 0) targets.push_back(c);
    }
    if (targets == row_atoms) continue;  // nothing to move in this row
    out.push_back({r, row_atoms, std::move(targets)});
  }

  if (report != nullptr) *report = rep;
  return out;
}

}  // namespace qrm::ref
