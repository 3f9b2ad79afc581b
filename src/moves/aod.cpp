#include "moves/aod.hpp"

#include <algorithm>
#include <bit>
#include <map>

#include "util/assert.hpp"

namespace qrm {

std::optional<std::string> aod_violation(const OccupancyGrid& grid, const ParallelMove& move) {
  if (move.sites.empty()) return std::nullopt;
  // Word-parallel cross-product check: a violation in row r is any bit of
  //   occupied(r) AND cols-mask AND NOT members(r),
  // where the cols-mask has one bit per selected column and members(r) marks
  // the move's own sites in that row. One pass over the touched rows'
  // words replaces the O(|rows|*|cols|) per-cell std::set scan. The map keeps
  // rows ascending so the reported first violation (lowest row, then lowest
  // column) matches the historical per-cell scan order.
  BitRow colmask(static_cast<std::uint32_t>(grid.width()));
  for (const Coord& s : move.sites)
    if (s.col >= 0 && s.col < grid.width()) colmask.set(static_cast<std::uint32_t>(s.col));
  std::map<std::int32_t, BitRow> members;
  for (const Coord& s : move.sites) {
    if (s.row < 0 || s.row >= grid.height()) continue;
    const auto it = members.try_emplace(s.row, static_cast<std::uint32_t>(grid.width())).first;
    if (s.col >= 0 && s.col < grid.width()) it->second.set(static_cast<std::uint32_t>(s.col));
  }
  for (const auto& [r, member_row] : members) {
    const auto& occ = grid.row(r).words();
    const auto& sel = colmask.words();
    const auto& own = member_row.words();
    for (std::size_t wi = 0; wi < occ.size(); ++wi) {
      const BitRow::Word bystanders = occ[wi] & sel[wi] & ~own[wi];
      if (bystanders != 0) {
        const auto c = static_cast<std::int32_t>(wi * BitRow::kWordBits +
                                                 static_cast<std::size_t>(std::countr_zero(bystanders)));
        return "AOD cross trap at " + qrm::to_string(Coord{r, c}) +
               " holds a bystander atom not part of the move";
      }
    }
  }
  return std::nullopt;
}

namespace {

/// The greedy partition, run line-major on the grid in major-line
/// orientation (`gmaj`: rows are the lines the move crosses) with the
/// remaining intended sites bucketed the same way (`rmaj`). Candidates are
/// visited major axis toward the front, minor axis ascending, and each is
/// accepted into the current batch when its swept path is free (or vacated
/// by an accepted member) and the AOD lines it adds capture no bystander.
/// Rejected candidates have no side effects, which is what lets whole
/// groups of them be skipped from word-level masks instead of being
/// examined one by one:
///   * path rejects: one AND-NOT of the group's `steps` forward lines,
///   * group-axis cross rejects: one sweep of the group line against the
///     accepted-minor mask (0 bystanders = all pass, 2+ = all fail, exactly
///     1 = only the bystander site itself may proceed, and it unblocks the
///     minors after it only by being accepted),
///   * minor-axis cross checks: one running OR of the bystander minors of
///     the accepted major lines.
/// `gmaj` is advanced batch by batch and ends as the post-move grid.
std::vector<ParallelMove> greedy_partition(OccupancyGrid& gmaj, OccupancyGrid rmaj,
                                           BitRow majors_present, std::size_t left,
                                           Direction dir, std::int32_t steps) {
  const bool horiz = is_horizontal(dir);
  const Coord delta = direction_delta(dir);
  const std::int32_t dmaj = horiz ? delta.col : delta.row;  // -1 or +1
  const std::int32_t nmaj = gmaj.height();
  const std::int32_t nmin = gmaj.width();
  const auto site_at = [horiz](std::int32_t m, std::int32_t x) {
    return horiz ? Coord{x, m} : Coord{m, x};
  };

  // Batch membership as a bit grid (reset between batches), and the
  // accepted-minor mask of the batch.
  OccupancyGrid mmaj(nmaj, nmin);
  BitRow acc_min(static_cast<std::uint32_t>(nmin));
  // Minors holding a bystander atom in some already-processed accepted major
  // line. A major line's bystander set is final once its group finishes
  // (accepts only ever happen during the line's own group visit), so this
  // running OR answers every candidate's minor-line check in O(1).
  BitRow bystander_minors(static_cast<std::uint32_t>(nmin));
  std::vector<ParallelMove> out;
  std::vector<BitRow::Word> surv(gmaj.row(0).words().size());
  // Reused across batches; each emitted move gets an exact-size copy, so
  // plans kept by callers (plan cache, delta replanner) carry no slack.
  std::vector<Coord> batch;
  while (left > 0) {
    batch.clear();
    for (std::int32_t i = 0; i < nmaj; ++i) {
      const std::int32_t m = dmaj < 0 ? i : nmaj - 1 - i;  // front-first
      if (!majors_present.test(static_cast<std::uint32_t>(m))) continue;
      const std::int32_t far = m + dmaj * steps;
      if (far < 0 || far >= nmaj) continue;  // whole group walks out of bounds
      // Path check for every candidate of the group at once: each swept
      // cell must be free or vacated by an already-accepted member.
      const auto& cw = rmaj.row(m).words();
      const auto& bw = bystander_minors.words();
      for (std::size_t w = 0; w < surv.size(); ++w) surv[w] = cw[w] & ~bw[w];
      for (std::int32_t k = 1; k <= steps; ++k) {
        const auto& pw = gmaj.row(m + dmaj * k).words();
        const auto& pm = mmaj.row(m + dmaj * k).words();
        for (std::size_t w = 0; w < surv.size(); ++w) surv[w] &= ~(pw[w] & ~pm[w]);
      }
      if (std::all_of(surv.begin(), surv.end(), [](BitRow::Word w) { return w == 0; })) continue;
      // Group-axis cross state: minors already accepted elsewhere that hold
      // an atom on this major line. (The group's own members are excluded by
      // construction: mmaj.row(m) is empty until this group accepts.)
      const auto& gw = gmaj.row(m).words();
      const auto& aw = acc_min.words();
      std::int32_t vcount = 0;
      std::int32_t bystander = -1;
      for (std::size_t w = 0; w < gw.size() && vcount < 2; ++w) {
        BitRow::Word v = gw[w] & aw[w];
        while (v != 0 && vcount < 2) {
          bystander = static_cast<std::int32_t>(w * BitRow::kWordBits +
                                                static_cast<std::size_t>(std::countr_zero(v)));
          v &= v - 1;
          ++vcount;
        }
      }
      if (vcount >= 2) continue;  // no candidate can clear two bystanders
      bool gated = vcount == 1;   // only `bystander` itself may be accepted
                                  // until it joins the batch
      bool group_accepted = false;
      bool group_done = false;
      for (std::size_t w = 0; w < surv.size() && !group_done; ++w) {
        BitRow::Word bits = surv[w];
        while (bits != 0) {
          const auto x = static_cast<std::int32_t>(w * BitRow::kWordBits +
                                                   static_cast<std::size_t>(std::countr_zero(bits)));
          bits &= bits - 1;
          if (gated) {
            if (x < bystander) continue;  // fails the group-axis check
            if (x > bystander) {          // bystander was not cleared
              group_done = true;
              break;
            }
          }
          // The minor-axis cross check already ran word-parallel: surv was
          // masked by bystander_minors, and bystanders on this minor line in
          // the group's own major are the candidate itself (excluded).
          batch.push_back(site_at(m, x));
          mmaj.set({m, x});
          acc_min.set(static_cast<std::uint32_t>(x));
          group_accepted = true;
          gated = false;
        }
      }
      if (group_accepted) {
        // This line's bystander set is now final for the pass; fold it in.
        const auto& go = gmaj.row(m).words();
        const auto& mo = mmaj.row(m).words();
        for (std::size_t w = 0; w < surv.size(); ++w)
          bystander_minors.set_word(static_cast<std::uint32_t>(w),
                                    bystander_minors.words()[w] | (go[w] & ~mo[w]));
      }
    }

    QRM_ENSURES_MSG(!batch.empty(),
                    "legalize made no progress; the intended move set is not realisable");

    // Apply the batch: clear all sources, then set all destinations
    // (lockstep semantics), and reset the per-batch membership state.
    for (const Coord& s : batch) {
      const std::int32_t m = horiz ? s.col : s.row;
      const std::int32_t x = horiz ? s.row : s.col;
      gmaj.clear({m, x});
      mmaj.clear({m, x});
      rmaj.clear({m, x});
    }
    for (const Coord& s : batch) {
      const std::int32_t m = (horiz ? s.col : s.row) + dmaj * steps;
      const std::int32_t x = horiz ? s.row : s.col;
      QRM_ENSURES_MSG(!gmaj.occupied({m, x}), "legalize produced a colliding batch");
      gmaj.set({m, x});
    }
    std::int32_t prev_major = -1;
    for (const Coord& s : batch) {
      const std::int32_t m = horiz ? s.col : s.row;
      if (m == prev_major) continue;  // batch is ordered by major line
      prev_major = m;
      if (rmaj.row(m).none()) majors_present.set(static_cast<std::uint32_t>(m), false);
    }
    acc_min.reset();
    bystander_minors.reset();
    left -= batch.size();
    out.push_back(ParallelMove{dir, steps, std::vector<Coord>(batch.begin(), batch.end())});
  }
  return out;
}

}  // namespace

std::vector<ParallelMove> legalize(const OccupancyGrid& grid, std::span<const Coord> sites,
                                   Direction dir, std::int32_t steps,
                                   OccupancyGrid* major_mirror) {
  QRM_EXPECTS(steps >= 1);
  if (sites.empty()) return {};

  const bool horiz = is_horizontal(dir);
  const Coord delta = direction_delta(dir);
  const std::int32_t dmaj = horiz ? delta.col : delta.row;
  const std::int32_t nmaj = horiz ? grid.width() : grid.height();
  const std::int32_t nmin = horiz ? grid.height() : grid.width();

  // Bucket the intended sites by major line (the coordinate the move
  // changes). Enumerating the buckets front-first with minors ascending
  // gives the front_first order — atoms nearest the destination side come
  // first, so chain followers see their leaders handled first — in linear
  // time, and doubles as the duplicate check: a duplicated site would pass
  // the occupancy check (both copies see the same atom) and then be emitted
  // twice inside one ParallelMove — physically one tweezer trying to pick
  // the same atom up twice.
  OccupancyGrid rmaj(nmaj, nmin);
  BitRow majors_present(static_cast<std::uint32_t>(nmaj));
  std::optional<Coord> duplicate;
  for (const Coord& s : sites) {
    QRM_EXPECTS_MSG(grid.in_bounds(s) && grid.occupied(s), "legalize: site must hold an atom");
    const Coord bucket{horiz ? s.col : s.row, horiz ? s.row : s.col};
    if (rmaj.occupied(bucket) && !duplicate.has_value()) duplicate = s;
    rmaj.set(bucket);
    majors_present.set(static_cast<std::uint32_t>(bucket.row));
  }
  QRM_EXPECTS_MSG(!duplicate.has_value(),
                  "legalize: duplicate site " + qrm::to_string(*duplicate) +
                      " in the intended move set");

  // The probe and the greedy partition both read the grid in major-line
  // orientation; a caller-maintained mirror skips the O(area) rederivation.
  OccupancyGrid owned_gmaj;
  if (major_mirror == nullptr) owned_gmaj = horiz ? grid.flipped(Flip::Transpose) : grid;
  OccupancyGrid& gmaj = major_mirror != nullptr ? *major_mirror : owned_gmaj;

  // Fast path: when the whole intended set is already legal as one lockstep
  // command (frequent for sparse rounds), skip the greedy partition. The
  // source checks validate_move would add are guaranteed by the
  // preconditions above.
  BitRow minmask(static_cast<std::uint32_t>(nmin));
  for (std::int32_t m = 0; m < nmaj; ++m)
    if (majors_present.test(static_cast<std::uint32_t>(m))) minmask |= rmaj.row(m);
  bool legal = true;
  for (std::int32_t m = 0; m < nmaj && legal; ++m) {
    if (!majors_present.test(static_cast<std::uint32_t>(m))) continue;
    const std::int32_t far = m + dmaj * steps;
    if (far < 0 || far >= nmaj) {
      legal = false;
      break;
    }
    // An AOD cross trap capturing a bystander, or a member's swept cell
    // holding a non-member atom, each veto the single-command form.
    const auto& sw = rmaj.row(m).words();
    const auto& go = gmaj.row(m).words();
    const auto& mm = minmask.words();
    for (std::size_t w = 0; w < sw.size() && legal; ++w) legal = (go[w] & mm[w] & ~sw[w]) == 0;
    for (std::int32_t k = 1; k <= steps && legal; ++k) {
      const auto& po = gmaj.row(m + dmaj * k).words();
      const auto& ps = rmaj.row(m + dmaj * k).words();
      for (std::size_t w = 0; w < sw.size() && legal; ++w) legal = (sw[w] & po[w] & ~ps[w]) == 0;
    }
  }
  if (!legal) {
    return greedy_partition(gmaj, std::move(rmaj), std::move(majors_present), sites.size(), dir,
                            steps);
  }

  std::vector<Coord> whole;
  whole.reserve(sites.size());
  for (std::int32_t i = 0; i < nmaj; ++i) {
    const std::int32_t m = dmaj < 0 ? i : nmaj - 1 - i;  // front-first
    if (!majors_present.test(static_cast<std::uint32_t>(m))) continue;
    const auto& ws = rmaj.row(m).words();
    for (std::size_t w = 0; w < ws.size(); ++w) {
      BitRow::Word bits = ws[w];
      while (bits != 0) {
        const auto x = static_cast<std::int32_t>(w * BitRow::kWordBits +
                                                 static_cast<std::size_t>(std::countr_zero(bits)));
        bits &= bits - 1;
        whole.push_back(horiz ? Coord{x, m} : Coord{m, x});
      }
    }
  }
  // Keep the mirror tracking the post-move grid (greedy_partition does this
  // batch by batch).
  if (major_mirror != nullptr) {
    for (const Coord& s : whole) gmaj.clear({horiz ? s.col : s.row, horiz ? s.row : s.col});
    for (const Coord& s : whole)
      gmaj.set({(horiz ? s.col : s.row) + dmaj * steps, horiz ? s.row : s.col});
  }
  return {ParallelMove{dir, steps, std::move(whole)}};
}

}  // namespace qrm
