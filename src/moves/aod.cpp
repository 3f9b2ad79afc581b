#include "moves/aod.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <map>
#include <utility>

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

using Word = BitRow::Word;
constexpr std::size_t kBits = BitRow::kWordBits;

[[nodiscard]] bool test_bit(const std::vector<Word>& words, std::size_t i) {
  return ((words[i / kBits] >> (i % kBits)) & 1U) != 0;
}
void set_bit(std::vector<Word>& words, std::size_t i) {
  words[i / kBits] |= Word{1} << (i % kBits);
}
void clear_bit(std::vector<Word>& words, std::size_t i) {
  words[i / kBits] &= ~(Word{1} << (i % kBits));
}
[[nodiscard]] bool none(const Word* words, std::size_t n) {
  return std::all_of(words, words + n, [](Word w) { return w == 0; });
}

/// Calls `fn(m)` for every set bit m of `lines`, front-first for motion
/// toward `dmaj` (descending when dmaj > 0).
template <class Fn>
void for_each_line(const std::vector<Word>& lines, std::int32_t dmaj, Fn&& fn) {
  if (dmaj > 0) {
    for (std::size_t w = lines.size(); w-- > 0;)
      for (Word bits = lines[w]; bits != 0;) {
        const auto b = kBits - 1 - static_cast<std::size_t>(std::countl_zero(bits));
        bits ^= Word{1} << b;
        fn(static_cast<std::int32_t>(w * kBits + b));
      }
  } else {
    for (std::size_t w = 0; w < lines.size(); ++w)
      for (Word bits = lines[w]; bits != 0; bits &= bits - 1)
        fn(static_cast<std::int32_t>(w * kBits + static_cast<std::size_t>(std::countr_zero(bits))));
  }
}

}  // namespace

AodLegalizer::AodLegalizer(const OccupancyGrid& grid, bool horizontal)
    : horiz_(horizontal),
      majors_(horizontal ? grid.width() : grid.height()),
      minors_(horizontal ? grid.height() : grid.width()),
      wpl_((static_cast<std::size_t>(minors_) + kBits - 1) / kBits),
      grid_(static_cast<std::size_t>(majors_) * wpl_),
      movers_(grid_.size()),
      batch_(grid_.size()),
      live_((static_cast<std::size_t>(majors_) + kBits - 1) / kBits),
      next_live_(live_.size()),
      acc_min_(wpl_),
      bystander_minors_(wpl_) {
  const OccupancyGrid major_rows = horizontal ? grid.flipped(Flip::Transpose) : grid;
  for (std::int32_t m = 0; m < majors_; ++m)
    std::copy_n(major_rows.row(m).words().begin(), wpl_, line(grid_, m));
}

OccupancyGrid AodLegalizer::take_grid() && {
  OccupancyGrid out(majors_, minors_);
  BitRow row(static_cast<std::uint32_t>(minors_));
  for (std::int32_t m = 0; m < majors_; ++m) {
    for (std::size_t w = 0; w < wpl_; ++w)
      row.set_word(static_cast<std::uint32_t>(w), line(grid_, m)[w]);
    out.set_row(m, row);
  }
  return horiz_ ? out.flipped(Flip::Transpose) : out;
}

void AodLegalizer::bucket(std::span<const Coord> sites) {
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
    const std::int32_t major = horiz_ ? s.col : s.row;
    const std::int32_t minor = horiz_ ? s.row : s.col;
    const bool on_grid = major >= 0 && major < majors_ && minor >= 0 && minor < minors_;
    QRM_EXPECTS_MSG(on_grid && test_bit(grid_, bit_at(major, minor)),
                    "legalize: site must hold an atom");
    if (test_bit(movers_, bit_at(major, minor)) && !duplicate.has_value()) duplicate = s;
    set_bit(movers_, bit_at(major, minor));
    set_bit(live_, static_cast<std::size_t>(major));
  }
  QRM_EXPECTS_MSG(!duplicate.has_value(),
                  "legalize: duplicate site " + qrm::to_string(*duplicate) +
                      " in the intended move set");
}

bool AodLegalizer::legal_as_one(std::int32_t dmaj, std::int32_t steps) {
  // An AOD cross trap capturing a bystander, or a member's swept cell
  // holding a non-member atom, each veto the single-command form. The
  // source checks validate_move would add are guaranteed by bucket().
  // acc_min_ (all-zero outside a batch) briefly holds every mover's minor.
  for_each_line(live_, dmaj, [&](std::int32_t m) {
    for (std::size_t w = 0; w < wpl_; ++w) acc_min_[w] |= line(movers_, m)[w];
  });
  bool legal = true;
  for_each_line(live_, dmaj, [&](std::int32_t m) {
    if (!legal) return;
    const std::int32_t far = m + dmaj * steps;
    if (far < 0 || far >= majors_) {
      legal = false;
      return;
    }
    const Word* c = line(movers_, m);
    const Word* g = line(grid_, m);
    Word clash = 0;
    for (std::size_t w = 0; w < wpl_; ++w) clash |= g[w] & acc_min_[w] & ~c[w];
    for (std::int32_t k = 1; k <= steps; ++k) {
      const Word* pg = line(grid_, m + dmaj * k);
      const Word* pc = line(movers_, m + dmaj * k);
      for (std::size_t w = 0; w < wpl_; ++w) clash |= c[w] & pg[w] & ~pc[w];
    }
    legal = clash == 0;
  });
  std::fill(acc_min_.begin(), acc_min_.end(), 0);
  return legal;
}

void AodLegalizer::apply(Direction dir, std::int32_t steps, std::int32_t shift, bool carry) {
  for (const std::int32_t m : batch_lines_) {
    Word* g = line(grid_, m);
    const Word* b = line(batch_, m);
    for (std::size_t w = 0; w < wpl_; ++w) g[w] &= ~b[w];
  }
  for (const std::int32_t m : batch_lines_) {
    Word* to = line(grid_, m + shift);
    Word* b = line(batch_, m);
    Word* c = line(movers_, m);
    Word* n = carry ? line(next_, m + shift) : nullptr;
    Word clash = 0;
    for (std::size_t w = 0; w < wpl_; ++w) {
      clash |= to[w] & b[w];
      to[w] |= b[w];
      c[w] &= ~b[w];
      if (n != nullptr) n[w] |= b[w];
      b[w] = 0;
    }
    QRM_ENSURES_MSG(clash == 0, "legalize produced a colliding batch");
    if (none(c, wpl_)) clear_bit(live_, static_cast<std::size_t>(m));
    if (carry) set_bit(next_live_, static_cast<std::size_t>(m + shift));
  }
  std::fill(acc_min_.begin(), acc_min_.end(), 0);
  std::fill(bystander_minors_.begin(), bystander_minors_.end(), 0);
  // Each emitted move gets an exact-size copy, so plans kept by callers
  // (plan cache, delta replanner) carry no slack.
  moves_.push_back(
      ParallelMove{dir, steps, std::vector<Coord>(batch_sites_.begin(), batch_sites_.end())});
  batch_sites_.clear();
  batch_lines_.clear();
}

/// One round: the whole mover set as one command when that is legal, else
/// the greedy partition, run line-major over the live major lines.
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
/// A line's accepted sites are therefore one mask, its line of batch_, and
/// the batch is applied line by line with word operations.
void AodLegalizer::round(Direction dir, std::int32_t dmaj, std::int32_t steps, std::size_t left,
                         bool carry) {
  const std::int32_t shift = dmaj * steps;
  const auto take = [&](std::int32_t m, const Word* keep) {
    for (std::size_t w = 0; w < wpl_; ++w)
      for (Word bits = keep[w]; bits != 0; bits &= bits - 1) {
        const auto minor =
            static_cast<std::int32_t>(w * kBits + static_cast<std::size_t>(std::countr_zero(bits)));
        batch_sites_.push_back(horiz_ ? Coord{minor, m} : Coord{m, minor});
      }
    batch_lines_.push_back(m);
  };
  // Fast path: when the whole intended set is already legal as one lockstep
  // command (frequent for sparse rounds), skip the greedy partition.
  if (legal_as_one(dmaj, steps)) {
    for_each_line(live_, dmaj, [&](std::int32_t m) {
      std::copy_n(line(movers_, m), wpl_, line(batch_, m));
      take(m, line(batch_, m));
    });
    apply(dir, steps, shift, carry);
    return;
  }
  while (left > 0) {
    for_each_line(live_, dmaj, [&](std::int32_t m) {
      const std::int32_t far = m + shift;
      if (far < 0 || far >= majors_) return;  // whole group walks out of bounds
      // Group-axis cross state: minors already accepted elsewhere that hold
      // an atom on this major line. (The group's own members are excluded by
      // construction: its line of batch_ is empty until this group accepts.)
      // `two` collects a second bystander in the same bit of another word,
      // and one & (one - 1) a second one anywhere else.
      const Word* g = line(grid_, m);
      Word one = 0;
      Word two = 0;
      std::size_t one_word = 0;
      for (std::size_t w = 0; w < wpl_; ++w) {
        const Word v = g[w] & acc_min_[w];
        two |= one & v;
        one |= v;
        one_word = v != 0 ? w : one_word;
      }
      if ((two | (one & (one - 1))) != 0) return;  // no candidate clears two bystanders
      // Path check for every candidate of the group at once: each swept
      // cell must be free or vacated by an already-accepted member. The
      // minor-axis cross check rides along: bystanders on a candidate's
      // minor line in the group's own major are the candidate itself.
      Word* keep = line(batch_, m);
      const Word* c = line(movers_, m);
      for (std::size_t w = 0; w < wpl_; ++w) keep[w] = c[w] & ~bystander_minors_[w];
      for (std::int32_t k = 1; k <= steps; ++k) {
        const Word* pg = line(grid_, m + dmaj * k);
        const Word* pb = line(batch_, m + dmaj * k);
        for (std::size_t w = 0; w < wpl_; ++w) keep[w] &= ~pg[w] | pb[w];
      }
      if (one != 0) {
        // Only the bystander site itself (bit `one`, a single bit) may be
        // accepted; once it joins, the minors after it are unblocked and the
        // ones before stay out.
        if ((keep[one_word] & one) == 0) {
          std::fill_n(keep, wpl_, 0);
          return;
        }
        std::fill_n(keep, one_word, 0);
        keep[one_word] &= ~(one - 1);
      }
      if (none(keep, wpl_)) return;
      take(m, keep);
      for (std::size_t w = 0; w < wpl_; ++w) {
        acc_min_[w] |= keep[w];
        // This line's bystander set is now final for the pass; fold it in.
        bystander_minors_[w] |= g[w] & ~keep[w];
      }
    });
    QRM_ENSURES_MSG(!batch_sites_.empty(),
                    "legalize made no progress; the intended move set is not realisable");
    left -= batch_sites_.size();
    apply(dir, steps, shift, carry);
  }
}

std::vector<ParallelMove> AodLegalizer::legalize(std::span<const Coord> sites, Direction dir,
                                                 std::int32_t steps) {
  QRM_EXPECTS(steps >= 1);
  QRM_EXPECTS_MSG(is_horizontal(dir) == horiz_, "legalize: direction off the legalizer's axis");
  if (sites.empty()) return {};
  const Coord delta = direction_delta(dir);
  bucket(sites);
  round(dir, horiz_ ? delta.col : delta.row, steps, sites.size(), false);
  return std::exchange(moves_, {});
}

void AodLegalizer::run_unit_phase(std::span<const Coord> sites,
                                  std::span<const std::int32_t> displacements, Direction dir,
                                  Schedule& out) {
  QRM_EXPECTS(sites.size() == displacements.size());
  QRM_EXPECTS_MSG(is_horizontal(dir) == horiz_, "legalize: direction off the legalizer's axis");
  if (sites.empty()) return;
  const Coord delta = direction_delta(dir);
  const std::int32_t dmaj = horiz_ ? delta.col : delta.row;  // -1 or +1
  bucket(sites);
  next_.resize(grid_.size());
  // Counting-sort the targets' bits by displacement: the sites arriving
  // after round r are arrivals[first[r], first[r + 1]).
  const auto target = [&](std::size_t i) {
    return std::int64_t{horiz_ ? sites[i].col : sites[i].row} +
           std::int64_t{dmaj} * displacements[i];
  };
  std::int32_t rounds = 0;
  for (std::size_t i = 0; i < sites.size(); ++i) {
    QRM_EXPECTS_MSG(displacements[i] >= 1 && target(i) >= 0 && target(i) < majors_,
                    "legalize: a phase target must lie at least one cell on, on the grid");
    rounds = std::max(rounds, displacements[i]);
  }
  std::vector<std::size_t> first(static_cast<std::size_t>(rounds) + 2, 0);
  for (const std::int32_t d : displacements) ++first[static_cast<std::size_t>(d)];
  for (std::size_t r = 1; r < first.size(); ++r) first[r] += first[r - 1];
  std::vector<std::size_t> arrivals(sites.size());
  for (std::size_t i = sites.size(); i-- > 0;)
    arrivals[--first[static_cast<std::size_t>(displacements[i])]] =
        bit_at(static_cast<std::int32_t>(target(i)), horiz_ ? sites[i].row : sites[i].col);

  std::size_t left = sites.size();
  for (std::size_t r = 1; r <= static_cast<std::size_t>(rounds); ++r) {
    round(dir, dmaj, 1, left, true);
    for (ParallelMove& move : moves_) out.push_back(std::move(move));
    moves_.clear();
    movers_.swap(next_);
    live_.swap(next_live_);
    // Retire the sites that reached their targets this round; each must be
    // a carried mover, or the partition lost or misplaced an atom.
    for (std::size_t i = first[r]; i < first[r + 1]; ++i) {
      QRM_ENSURES_MSG(test_bit(movers_, arrivals[i]), "legalize: a mover missed its target");
      clear_bit(movers_, arrivals[i]);
      const std::size_t m = arrivals[i] / (wpl_ * kBits);
      if (none(movers_.data() + m * wpl_, wpl_)) clear_bit(live_, m);
    }
    left -= first[r + 1] - first[r];
  }
  QRM_ENSURES_MSG(none(movers_.data(), movers_.size()), "legalize: a phase ended with movers left");
}

std::vector<ParallelMove> legalize(const OccupancyGrid& grid, std::span<const Coord> sites,
                                   Direction dir, std::int32_t steps) {
  QRM_EXPECTS(steps >= 1);
  if (sites.empty()) return {};
  return AodLegalizer(grid, is_horizontal(dir)).legalize(sites, dir, steps);
}

}  // namespace qrm
