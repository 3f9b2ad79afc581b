#include "core/quadrant_plan.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace qrm {

namespace {

/// Atoms of one line below the sen gate: the line's scan window.
BitRow below_gate(const BitRow& line, std::int32_t sen_limit) {
  const std::uint32_t gate =
      sen_limit < 0 ? line.width() : std::min(line.width(), static_cast<std::uint32_t>(sen_limit));
  return line.lowest(line.count_range(0, gate));
}

}  // namespace

std::vector<LineAssignment> compact_pass(const OccupancyGrid& local, Axis axis,
                                         std::int32_t sen_limit) {
  // A column pass scans the transposed grid's rows: one block transpose
  // instead of a gather per column.
  const OccupancyGrid lines = axis == Axis::Rows ? OccupancyGrid() : local.flipped(Flip::Transpose);
  const OccupancyGrid& scan = axis == Axis::Rows ? local : lines;
  std::vector<LineAssignment> out;
  for (std::int32_t line = 0; line < scan.height(); ++line) {
    BitRow sources = below_gate(scan.row(line), sen_limit);
    BitRow targets = sources.compacted();
    if (sources == targets) continue;  // already compact (or empty)
    out.push_back({line, std::move(sources), std::move(targets)});
  }
  return out;
}

std::vector<LineAssignment> balance_pass(const OccupancyGrid& local, std::int32_t target_rows,
                                         std::int32_t target_cols, std::int32_t sen_limit,
                                         BalanceReport* report) {
  QRM_EXPECTS(target_rows > 0 && target_cols > 0);
  QRM_EXPECTS(target_rows <= local.height() && target_cols <= local.width());

  const std::int32_t height = local.height();
  const auto width = static_cast<std::uint32_t>(local.width());

  // One assignment per row: its usable atoms (below the sen gate), and the
  // target columns it is chosen for, collected in `targets` as they are
  // granted. A row's capacity is its popcount.
  std::vector<LineAssignment> rows(static_cast<std::size_t>(height));
  std::int32_t max_capacity = 0;
  for (std::int32_t r = 0; r < height; ++r) {
    LineAssignment& row = rows[static_cast<std::size_t>(r)];
    row = {r, below_gate(local.row(r), sen_limit), BitRow(width)};
    max_capacity = std::max(max_capacity, static_cast<std::int32_t>(row.sources.count()));
  }

  // Greedy demand assignment: each target column needs `target_rows` donors,
  // at most one per row. Serving each column with the rows of largest
  // remaining capacity maximises the total satisfiable demand. Rows are
  // bucketed by remaining capacity so each column costs O(grants), not a
  // sort (this path is on the latency-critical CPU analysis).
  std::vector<std::vector<std::int32_t>> buckets(static_cast<std::size_t>(max_capacity) + 1);
  for (std::int32_t r = 0; r < height; ++r)
    buckets[rows[static_cast<std::size_t>(r)].sources.count()].push_back(r);

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
      rows[static_cast<std::size_t>(r)].targets.set(static_cast<std::uint32_t>(c));
      buckets[static_cast<std::size_t>(cap - 1)].push_back(r);
    }
    if (granted < target_rows) {
      rep.feasible = false;
      rep.shortfall += target_rows - granted;
    }
  }

  // Each row's placement: its k chosen columns, plus the columns of its
  // n - k lowest atoms off the chosen ones, where surplus atoms park. At
  // most k atoms sit on chosen columns, so there are always enough, and
  // parking stays below the sen gate, clear of the fixed gated atoms.
  for (LineAssignment& a : rows) {
    const std::uint32_t n = a.sources.count();
    const std::uint32_t k = a.targets.count();
    BitRow parked = a.sources;
    parked ^= a.targets;
    parked &= a.sources;  // atoms off the chosen columns
    a.targets |= parked.lowest(n - k);
  }
  std::erase_if(rows, [](const LineAssignment& a) { return a.sources == a.targets; });
  if (report != nullptr) *report = rep;
  return rows;
}

}  // namespace qrm
