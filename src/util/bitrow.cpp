#include "util/bitrow.hpp"

#include <algorithm>
#include <array>
#include <bit>

#include "util/assert.hpp"

namespace qrm {

namespace {

using Word = BitRow::Word;

/// Bit-reversal of one byte, computed once at compile time.
constexpr std::array<std::uint8_t, 256> kByteReverse = [] {
  std::array<std::uint8_t, 256> table{};
  for (std::uint32_t v = 0; v < 256; ++v) {
    std::uint8_t r = 0;
    for (std::uint32_t b = 0; b < 8; ++b)
      if ((v >> b) & 1U) r = static_cast<std::uint8_t>(r | (1U << (7 - b)));
    table[v] = r;
  }
  return table;
}();

/// Reverse all 64 bits of a word: per-byte table lookup + byte swap.
[[nodiscard]] constexpr Word reverse_word(Word w) noexcept {
  Word out = 0;
  for (std::uint32_t byte = 0; byte < 8; ++byte) {
    out = (out << 8) | kByteReverse[w & 0xFFU];
    w >>= 8;
  }
  return out;
}

/// Mask with bits [0, n) set; n in [0, 64].
[[nodiscard]] constexpr Word low_mask(std::uint32_t n) noexcept {
  return n >= BitRow::kWordBits ? ~Word{0} : (Word{1} << n) - 1;
}

}  // namespace

BitRow::BitRow(std::uint32_t width) : width_(width), words_(word_count(), 0) {}

BitRow BitRow::from_string(std::string_view text) {
  BitRow row(static_cast<std::uint32_t>(text.size()));
  for (std::uint32_t i = 0; i < row.width_; ++i) {
    const char c = text[i];
    QRM_EXPECTS_MSG(c == '0' || c == '1' || c == '.' || c == '#',
                    "BitRow::from_string accepts only 0/1/./#");
    if (c == '1' || c == '#') row.set(i);
  }
  return row;
}

void BitRow::fill() {
  for (auto& w : words_) w = ~Word{0};
  mask_tail();
}

void BitRow::reset() noexcept {
  for (auto& w : words_) w = 0;
}

std::uint32_t BitRow::count() const noexcept {
  std::uint32_t n = 0;
  for (const Word w : words_) n += static_cast<std::uint32_t>(std::popcount(w));
  return n;
}

std::uint32_t BitRow::count_range(std::uint32_t lo, std::uint32_t hi) const {
  QRM_EXPECTS(lo <= hi && hi <= width_);
  if (lo == hi) return 0;
  // Mask the partial first and last words; every word in between contributes
  // its full popcount. No per-bit pre/post-amble.
  const std::uint32_t w0 = lo / kWordBits;
  const std::uint32_t w1 = (hi - 1) / kWordBits;
  const Word first = ~low_mask(lo % kWordBits);
  const Word last = low_mask((hi - 1) % kWordBits + 1);
  if (w0 == w1) return static_cast<std::uint32_t>(std::popcount(words_[w0] & first & last));
  std::uint32_t n = static_cast<std::uint32_t>(std::popcount(words_[w0] & first));
  for (std::uint32_t wi = w0 + 1; wi < w1; ++wi)
    n += static_cast<std::uint32_t>(std::popcount(words_[wi]));
  n += static_cast<std::uint32_t>(std::popcount(words_[w1] & last));
  return n;
}

bool BitRow::any() const noexcept {
  for (const Word w : words_)
    if (w != 0) return true;
  return false;
}

bool BitRow::all_set_below(std::uint32_t n) const {
  QRM_EXPECTS(n <= width_);
  return count_range(0, n) == n;
}

void BitRow::shift_toward_lsb(std::uint32_t n) {
  if (n >= width_) {
    reset();
    return;
  }
  const std::uint32_t word_shift = n / kWordBits;
  const std::uint32_t bit_shift = n % kWordBits;
  const std::size_t nw = words_.size();
  for (std::size_t i = 0; i < nw; ++i) {
    const std::size_t src = i + word_shift;
    Word lo = src < nw ? words_[src] : 0;
    Word hi = (src + 1) < nw ? words_[src + 1] : 0;
    words_[i] = bit_shift == 0 ? lo : ((lo >> bit_shift) | (hi << (kWordBits - bit_shift)));
  }
  mask_tail();
}

void BitRow::shift_toward_msb(std::uint32_t n) {
  if (n >= width_) {
    reset();
    return;
  }
  const std::uint32_t word_shift = n / kWordBits;
  const std::uint32_t bit_shift = n % kWordBits;
  const std::size_t nw = words_.size();
  for (std::size_t i = nw; i-- > 0;) {
    Word lo = i >= word_shift ? words_[i - word_shift] : 0;
    Word hi = (i >= word_shift + 1) ? words_[i - word_shift - 1] : 0;
    words_[i] = bit_shift == 0 ? lo : ((lo << bit_shift) | (hi >> (kWordBits - bit_shift)));
  }
  mask_tail();
}

std::uint32_t BitRow::first_hole() const noexcept {
  for (std::uint32_t wi = 0; wi < words_.size(); ++wi) {
    const Word inv = ~words_[wi];
    if (inv != 0) {
      const auto pos = static_cast<std::uint32_t>(std::countr_zero(inv)) + wi * kWordBits;
      return pos < width_ ? pos : width_;
    }
  }
  return width_;
}

std::uint32_t BitRow::first_atom() const noexcept {
  for (std::uint32_t wi = 0; wi < words_.size(); ++wi) {
    if (words_[wi] != 0) {
      const auto pos = static_cast<std::uint32_t>(std::countr_zero(words_[wi])) + wi * kWordBits;
      return pos < width_ ? pos : width_;
    }
  }
  return width_;
}

std::uint32_t BitRow::holes_below(std::uint32_t i) const {
  QRM_EXPECTS(i <= width_);
  return i - count_range(0, i);
}

std::vector<std::uint32_t> BitRow::set_positions() const {
  std::vector<std::uint32_t> out;
  out.reserve(count());
  for_each_set([&out](std::uint32_t i) { out.push_back(i); });
  return out;
}

std::vector<std::uint32_t> BitRow::hole_positions() const {
  std::vector<std::uint32_t> out;
  out.reserve(width_ - count());
  // Walk set bits of the inverted words; the tail of the last word is masked
  // so positions >= width never appear.
  for (std::uint32_t wi = 0; wi < words_.size(); ++wi) {
    Word inv = ~words_[wi];
    if (wi + 1 == words_.size() && width_ % kWordBits != 0) inv &= low_mask(width_ % kWordBits);
    while (inv != 0) {
      out.push_back(wi * kWordBits + static_cast<std::uint32_t>(std::countr_zero(inv)));
      inv &= inv - 1;
    }
  }
  return out;
}

void BitRow::for_each_set(const std::function<void(std::uint32_t)>& fn) const {
  for (std::uint32_t wi = 0; wi < words_.size(); ++wi) {
    Word w = words_[wi];
    while (w != 0) {
      const auto bit = static_cast<std::uint32_t>(std::countr_zero(w));
      fn(wi * kWordBits + bit);
      w &= w - 1;
    }
  }
}

BitRow BitRow::compacted() const {
  BitRow out(width_);
  // A prefix of count() ones: full words of all-ones then one partial mask.
  const std::uint32_t n = count();
  const std::uint32_t full = n / kWordBits;
  for (std::uint32_t wi = 0; wi < full; ++wi) out.words_[wi] = ~Word{0};
  if (n % kWordBits != 0) out.words_[full] = low_mask(n % kWordBits);
  return out;
}

BitRow BitRow::lowest(std::uint32_t k) const {
  BitRow out(width_);
  // Whole words while they fit in k, then the lowest k bits of the word
  // where the count runs out.
  for (std::size_t wi = 0; wi < words_.size() && k > 0; ++wi) {
    Word w = words_[wi];
    const auto n = static_cast<std::uint32_t>(std::popcount(w));
    if (n > k) {
      Word rest = w;
      for (; k > 0; --k) rest &= rest - 1;
      w ^= rest;
    }
    out.words_[wi] = w;
    k -= std::min(k, n);
  }
  return out;
}

std::vector<std::uint32_t> BitRow::compaction_displacements() const {
  std::vector<std::uint32_t> out;
  out.reserve(count());
  // Displacement of the atom at position p is the number of holes below p,
  // i.e. p - rank(p). Maintain the rank as a running popcount prefix sum:
  // `ones` counts set bits in earlier words, `k` those already visited in
  // the current word, so each set bit costs O(1) instead of an O(width) scan.
  std::uint32_t ones = 0;
  for (std::uint32_t wi = 0; wi < words_.size(); ++wi) {
    Word w = words_[wi];
    std::uint32_t k = 0;
    while (w != 0) {
      const auto bit = static_cast<std::uint32_t>(std::countr_zero(w));
      out.push_back(wi * kWordBits + bit - ones - k);
      ++k;
      w &= w - 1;
    }
    ones += k;
  }
  return out;
}

BitRow BitRow::reversed() const {
  BitRow out(width_);
  if (width_ == 0) return out;
  // Reverse each word (byte-reversal table + byte swap) and the word order;
  // that reverses the row as if it were word_count()*64 bits wide, leaving
  // the result too high by the tail slack. Shift the slack back out — the
  // incoming tail is canonical (zero), so no stray bits survive.
  const std::size_t nw = words_.size();
  for (std::size_t i = 0; i < nw; ++i) out.words_[nw - 1 - i] = reverse_word(words_[i]);
  const std::uint32_t slack = static_cast<std::uint32_t>(nw) * kWordBits - width_;
  if (slack != 0) {
    for (std::size_t i = 0; i < nw; ++i) {
      const Word hi = (i + 1) < nw ? out.words_[i + 1] : 0;
      out.words_[i] = (out.words_[i] >> slack) | (hi << (kWordBits - slack));
    }
  }
  return out;
}

BitRow BitRow::slice(std::uint32_t pos, std::uint32_t len) const {
  QRM_EXPECTS(pos + len <= width_);
  BitRow out(len);
  const std::uint32_t w0 = pos / kWordBits;
  const std::uint32_t shift = pos % kWordBits;
  for (std::size_t i = 0; i < out.words_.size(); ++i) {
    const Word lo = words_[w0 + i];
    const Word hi = (w0 + i + 1) < words_.size() ? words_[w0 + i + 1] : 0;
    out.words_[i] = shift == 0 ? lo : ((lo >> shift) | (hi << (kWordBits - shift)));
  }
  out.mask_tail();
  return out;
}

void BitRow::paste(std::uint32_t pos, const BitRow& piece) {
  QRM_EXPECTS(pos + piece.width_ <= width_);
  const std::uint32_t w0 = pos / kWordBits;
  const std::uint32_t shift = pos % kWordBits;
  for (std::size_t i = 0; i < piece.words_.size(); ++i) {
    // Valid bits of this source word (the piece's own tail must not clear
    // destination bits beyond the pasted range).
    const std::uint32_t remaining = piece.width_ - static_cast<std::uint32_t>(i) * kWordBits;
    const Word mask = low_mask(remaining < kWordBits ? remaining : kWordBits);
    const Word src = piece.words_[i] & mask;
    words_[w0 + i] = (words_[w0 + i] & ~(mask << shift)) | (src << shift);
    if (shift != 0 && (mask >> (kWordBits - shift)) != 0) {
      words_[w0 + i + 1] =
          (words_[w0 + i + 1] & ~(mask >> (kWordBits - shift))) | (src >> (kWordBits - shift));
    }
  }
}

void BitRow::set_word(std::uint32_t wi, Word w) {
  QRM_EXPECTS(wi < words_.size());
  words_[wi] = w;
  if (wi + 1 == words_.size()) mask_tail();
}

void BitRow::assign_words(const std::vector<Word>& words) {
  QRM_EXPECTS(words.size() == words_.size());
  words_ = words;
  mask_tail();
}

BitRow& BitRow::operator&=(const BitRow& rhs) {
  QRM_EXPECTS(rhs.width_ == width_);
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] &= rhs.words_[i];
  return *this;
}

BitRow& BitRow::operator|=(const BitRow& rhs) {
  QRM_EXPECTS(rhs.width_ == width_);
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] |= rhs.words_[i];
  return *this;
}

BitRow& BitRow::operator^=(const BitRow& rhs) {
  QRM_EXPECTS(rhs.width_ == width_);
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] ^= rhs.words_[i];
  return *this;
}

std::string BitRow::to_string() const {
  std::string s;
  s.reserve(width_);
  for (std::uint32_t i = 0; i < width_; ++i) s.push_back(test(i) ? '1' : '0');
  return s;
}

std::string BitRow::to_art() const {
  std::string s;
  s.reserve(width_);
  for (std::uint32_t i = 0; i < width_; ++i) s.push_back(test(i) ? '#' : '.');
  return s;
}

void BitRow::mask_tail() noexcept {
  if (words_.empty()) return;
  const std::uint32_t used = width_ % kWordBits;
  if (used != 0) {
    words_.back() &= (Word{1} << used) - 1;
  }
}

}  // namespace qrm
