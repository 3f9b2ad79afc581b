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

[[nodiscard]] bool disjoint(const BitRow& a, const BitRow& b) {
  const auto& aw = a.words();
  const auto& bw = b.words();
  for (std::size_t w = 0; w < aw.size(); ++w)
    if ((aw[w] & bw[w]) != 0) return false;
  return true;
}

}  // namespace

AodLegalizer::AodLegalizer(const OccupancyGrid& grid, bool horizontal)
    : horiz_(horizontal),
      gmaj_(horizontal ? grid.flipped(Flip::Transpose) : grid),
      rmaj_(gmaj_.height(), gmaj_.width()),
      mmaj_(gmaj_.height(), gmaj_.width()),
      present_(static_cast<std::uint32_t>(gmaj_.height())),
      acc_min_(static_cast<std::uint32_t>(gmaj_.width())),
      bystander_minors_(acc_min_),
      minmask_(acc_min_),
      accepted_(acc_min_),
      surv_(acc_min_.words().size()) {}

OccupancyGrid AodLegalizer::take_grid() && {
  if (horiz_) return gmaj_.flipped(Flip::Transpose);
  return std::move(gmaj_);
}

void AodLegalizer::bucket(std::span<const Coord> sites, std::int32_t dmaj) {
  // Bucket the intended sites by major line (the coordinate the move
  // changes). Enumerating the buckets front-first with minors ascending
  // gives the front_first order — atoms nearest the destination side come
  // first, so chain followers see their leaders handled first — in linear
  // time, and doubles as the duplicate check: a duplicated site would pass
  // the occupancy check (both copies see the same atom) and then be emitted
  // twice inside one ParallelMove — physically one tweezer trying to pick
  // the same atom up twice.
  std::optional<Coord> duplicate;
  for (const Coord& s : sites) {
    const Coord b{horiz_ ? s.col : s.row, horiz_ ? s.row : s.col};
    QRM_EXPECTS_MSG(gmaj_.in_bounds(b) && gmaj_.occupied(b), "legalize: site must hold an atom");
    if (rmaj_.occupied(b) && !duplicate.has_value()) duplicate = s;
    rmaj_.set(b);
    present_.set(static_cast<std::uint32_t>(b.row));
  }
  QRM_EXPECTS_MSG(!duplicate.has_value(),
                  "legalize: duplicate site " + qrm::to_string(*duplicate) +
                      " in the intended move set");

  live_.clear();
  const auto& pw = present_.words();
  for (std::size_t w = 0; w < pw.size(); ++w) {
    for (BitRow::Word bits = pw[w]; bits != 0; bits &= bits - 1) {
      const auto low = static_cast<std::size_t>(std::countr_zero(bits));
      live_.push_back(static_cast<std::int32_t>(w * BitRow::kWordBits + low));
    }
  }
  if (dmaj > 0) std::reverse(live_.begin(), live_.end());  // front-first
  present_.reset();
}

bool AodLegalizer::legal_as_one(std::int32_t dmaj, std::int32_t steps) {
  // An AOD cross trap capturing a bystander, or a member's swept cell
  // holding a non-member atom, each veto the single-command form. The
  // source checks validate_move would add are guaranteed by the
  // preconditions of bucket().
  minmask_.reset();
  for (const std::int32_t m : live_) minmask_ |= rmaj_.row(m);
  const auto& mm = minmask_.words();
  for (const std::int32_t m : live_) {
    const std::int32_t far = m + dmaj * steps;
    if (far < 0 || far >= gmaj_.height()) return false;
    const auto& sw = rmaj_.row(m).words();
    const auto& go = gmaj_.row(m).words();
    for (std::size_t w = 0; w < sw.size(); ++w)
      if ((go[w] & mm[w] & ~sw[w]) != 0) return false;
    for (std::int32_t k = 1; k <= steps; ++k) {
      const auto& po = gmaj_.row(m + dmaj * k).words();
      const auto& ps = rmaj_.row(m + dmaj * k).words();
      for (std::size_t w = 0; w < sw.size(); ++w)
        if ((sw[w] & po[w] & ~ps[w]) != 0) return false;
    }
  }
  return true;
}

void AodLegalizer::apply(const OccupancyGrid& masks, std::span<const std::int32_t> lines,
                         std::int32_t shift) {
  for (const std::int32_t m : lines) gmaj_.and_not_row(m, masks.row(m));
  for (const std::int32_t m : lines) {
    QRM_ENSURES_MSG(disjoint(gmaj_.row(m + shift), masks.row(m)),
                    "legalize produced a colliding batch");
    gmaj_.or_row(m + shift, masks.row(m));
  }
}

/// The greedy partition, run line-major over the live major lines.
/// Candidates are visited major axis toward the front, minor axis
/// ascending, and each is accepted into the current batch when its swept
/// path is free (or vacated by an accepted member) and the AOD lines it adds
/// capture no bystander. Rejected candidates have no side effects, which is
/// what lets whole groups of them be decided from word-level masks instead
/// of being examined one by one:
///   * group-axis cross rejects: one sweep of the group line against the
///     accepted-minor mask (0 bystanders = all pass, 2+ = all fail, exactly
///     1 = only the bystander site itself may proceed, and it unblocks the
///     minors after it only by being accepted),
///   * path rejects: one AND-NOT of the group's `steps` forward lines,
///   * minor-axis cross checks: one running OR of the bystander minors of
///     the accepted major lines.
/// A line's accepted sites are therefore one mask, mmaj_.row(m), and the
/// batch is applied line by line with word operations.
std::vector<ParallelMove> AodLegalizer::greedy_partition(std::size_t left, Direction dir,
                                                         std::int32_t dmaj, std::int32_t steps) {
  std::vector<ParallelMove> out;
  while (left > 0) {
    batch_.clear();
    batch_lines_.clear();
    for (const std::int32_t m : live_) {
      const std::int32_t far = m + dmaj * steps;
      if (far < 0 || far >= gmaj_.height()) continue;  // whole group walks out of bounds
      // Group-axis cross state: minors already accepted elsewhere that hold
      // an atom on this major line. (The group's own members are excluded by
      // construction: mmaj_.row(m) is empty until this group accepts.)
      const auto& gw = gmaj_.row(m).words();
      const auto& aw = acc_min_.words();
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
      // Path check for every candidate of the group at once: each swept
      // cell must be free or vacated by an already-accepted member. The
      // minor-axis cross check rides along: bystanders on a candidate's
      // minor line in the group's own major are the candidate itself.
      const auto& cw = rmaj_.row(m).words();
      const auto& bw = bystander_minors_.words();
      for (std::size_t w = 0; w < surv_.size(); ++w) surv_[w] = cw[w] & ~bw[w];
      for (std::int32_t k = 1; k <= steps; ++k) {
        const auto& pw = gmaj_.row(m + dmaj * k).words();
        const auto& pm = mmaj_.row(m + dmaj * k).words();
        for (std::size_t w = 0; w < surv_.size(); ++w) surv_[w] &= ~(pw[w] & ~pm[w]);
      }
      if (vcount == 1) {
        // Only the bystander site itself may be accepted; once it joins,
        // the minors after it are unblocked and the ones before stay out.
        const auto bi = static_cast<std::size_t>(bystander) / BitRow::kWordBits;
        const auto bit = static_cast<std::uint32_t>(bystander) % BitRow::kWordBits;
        if (((surv_[bi] >> bit) & 1U) == 0) continue;
        std::fill(surv_.begin(), surv_.begin() + static_cast<std::ptrdiff_t>(bi), 0);
        surv_[bi] &= ~BitRow::Word{0} << bit;
      }
      if (std::all_of(surv_.begin(), surv_.end(), [](BitRow::Word w) { return w == 0; })) continue;
      for (std::size_t w = 0; w < surv_.size(); ++w)
        for (BitRow::Word bits = surv_[w]; bits != 0; bits &= bits - 1)
          batch_.push_back(site_at(
              m, static_cast<std::int32_t>(w * BitRow::kWordBits +
                                           static_cast<std::size_t>(std::countr_zero(bits)))));
      accepted_.assign_words(surv_);
      mmaj_.or_row(m, accepted_);
      acc_min_ |= accepted_;
      // This line's bystander set is now final for the pass; fold it in.
      for (std::size_t w = 0; w < surv_.size(); ++w)
        bystander_minors_.set_word(static_cast<std::uint32_t>(w),
                                   bystander_minors_.words()[w] | (gw[w] & ~surv_[w]));
      batch_lines_.push_back(m);
    }

    QRM_ENSURES_MSG(!batch_.empty(),
                    "legalize made no progress; the intended move set is not realisable");

    apply(mmaj_, batch_lines_, dmaj * steps);
    bool emptied = false;
    for (const std::int32_t m : batch_lines_) {
      rmaj_.and_not_row(m, mmaj_.row(m));
      mmaj_.and_not_row(m, mmaj_.row(m));
      emptied = emptied || rmaj_.row(m).none();
    }
    if (emptied) std::erase_if(live_, [this](std::int32_t m) { return rmaj_.row(m).none(); });
    acc_min_.reset();
    bystander_minors_.reset();
    left -= batch_.size();
    // Each emitted move gets an exact-size copy, so plans kept by callers
    // (plan cache, delta replanner) carry no slack.
    out.push_back(ParallelMove{dir, steps, std::vector<Coord>(batch_.begin(), batch_.end())});
  }
  return out;
}

std::vector<ParallelMove> AodLegalizer::legalize(std::span<const Coord> sites, Direction dir,
                                                 std::int32_t steps) {
  QRM_EXPECTS(steps >= 1);
  QRM_EXPECTS_MSG(is_horizontal(dir) == horiz_, "legalize: direction off the legalizer's axis");
  if (sites.empty()) return {};
  const Coord delta = direction_delta(dir);
  const std::int32_t dmaj = horiz_ ? delta.col : delta.row;  // -1 or +1
  bucket(sites, dmaj);
  // Fast path: when the whole intended set is already legal as one lockstep
  // command (frequent for sparse rounds), skip the greedy partition.
  if (!legal_as_one(dmaj, steps)) return greedy_partition(sites.size(), dir, dmaj, steps);

  std::vector<Coord> whole;
  whole.reserve(sites.size());
  for (const std::int32_t m : live_) {
    const auto& ws = rmaj_.row(m).words();
    for (std::size_t w = 0; w < ws.size(); ++w)
      for (BitRow::Word bits = ws[w]; bits != 0; bits &= bits - 1)
        whole.push_back(site_at(m, static_cast<std::int32_t>(
                                       w * BitRow::kWordBits +
                                       static_cast<std::size_t>(std::countr_zero(bits)))));
  }
  apply(rmaj_, live_, dmaj * steps);
  for (const std::int32_t m : live_) rmaj_.and_not_row(m, rmaj_.row(m));
  return {ParallelMove{dir, steps, std::move(whole)}};
}

std::vector<ParallelMove> legalize(const OccupancyGrid& grid, std::span<const Coord> sites,
                                   Direction dir, std::int32_t steps) {
  QRM_EXPECTS(steps >= 1);
  if (sites.empty()) return {};
  return AodLegalizer(grid, is_horizontal(dir)).legalize(sites, dir, steps);
}

}  // namespace qrm
