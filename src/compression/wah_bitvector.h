#ifndef INCDB_COMPRESSION_WAH_BITVECTOR_H_
#define INCDB_COMPRESSION_WAH_BITVECTOR_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "bitvector/bitvector.h"
#include "common/status.h"
#include "simd/simd.h"

namespace incdb {

/// Counters the fused multiway kernels report about how they executed —
/// whether the SIMD dense-block fast path ran and how much it decoded.
/// Surfaced per operator as QueryStats::simd_path / words_decoded, so the
/// dense-path decision is observable in EXPLAIN and `incdb_cli --stats`.
struct WahOpStats {
  /// Windows routed through the dense path: lead operand materialized into
  /// an uncompressed accumulator and the rest stream-combined through the
  /// vectorized kernels, instead of run-at-a-time merging over the
  /// compressed form.
  uint64_t dense_windows = 0;
  /// Group words the dense path processed in uncompressed form (operands x
  /// window groups — the word traffic the fast path trades for vector
  /// throughput).
  uint64_t words_decoded = 0;

  void MergeFrom(const WahOpStats& other) {
    dense_windows += other.dense_windows;
    words_decoded += other.words_decoded;
  }
};

namespace wah_internal {

/// Literal-group density (literal groups / total groups in a window,
/// averaged over operands) at or above which the fused kernels take the
/// dense-block path. The default is the measured crossover from
/// bench_simd_kernels (docs/KERNELS.md has the derivation), 0.15;
/// SetDenseBlockThresholdForTesting moves it for tests and benches.
double DenseBlockThreshold();

/// Test/bench hook: 0.0 forces every window dense, anything above 1.0
/// disables the dense path entirely. Returns the previous value.
double SetDenseBlockThresholdForTesting(double threshold);

/// Per-word-type constants and code-word accessors. With W = bits per word:
/// the top bit flags a fill, the next bit is the fill value, the remaining
/// W-2 bits count fill groups of W-1 bits each.
template <typename WordT>
struct WahTraits {
  static constexpr int kWordBits = static_cast<int>(sizeof(WordT) * 8);
  static constexpr int kGroupBits = kWordBits - 1;
  static constexpr WordT kFillFlag = WordT{1} << (kWordBits - 1);
  static constexpr WordT kFillBitFlag = WordT{1} << (kWordBits - 2);
  static constexpr WordT kFillCountMask = kFillBitFlag - 1;
  static constexpr uint64_t kMaxFillGroups = kFillCountMask;
  static constexpr WordT kFullLiteral = kFillFlag - 1;

  static bool IsFill(WordT word) { return (word & kFillFlag) != 0; }
  static bool FillBit(WordT word) { return (word & kFillBitFlag) != 0; }
  static uint64_t FillGroups(WordT word) { return word & kFillCountMask; }
  static WordT MakeFill(bool bit, uint64_t groups) {
    return kFillFlag | (bit ? kFillBitFlag : WordT{0}) |
           static_cast<WordT>(groups & kFillCountMask);
  }
};

}  // namespace wah_internal

template <typename WordT>
class BasicWahBitVector;

/// Cursor over the group-aligned part of a compressed vector, yielding runs
/// in O(1) per code word: a fill word is one run of FillGroups groups, a
/// literal word a run of one group. The shared decoding primitive for the
/// pairwise ops, the fused multi-operand kernels, and any external consumer
/// that wants to walk the compressed form without decompressing.
///
/// The partial trailing group (the vector's `active` word) is NOT part of
/// the run stream; callers that need it must handle it separately.
template <typename WordT>
class BasicWahRunIterator {
  using Traits = wah_internal::WahTraits<WordT>;

 public:
  explicit BasicWahRunIterator(const BasicWahBitVector<WordT>& vec);

  /// True once every group-aligned run has been consumed.
  bool done() const { return groups_left_ == 0; }

  bool is_fill() const { return is_fill_; }
  bool fill_bit() const { return fill_bit_; }
  /// Groups remaining in the current run (>= 1 unless done).
  uint64_t groups_left() const { return groups_left_; }

  /// The current run viewed as a literal word (fills expand to 0/all-ones).
  WordT LiteralView() const {
    if (!is_fill_) return literal_;
    return fill_bit_ ? Traits::kFullLiteral : WordT{0};
  }

  /// Consumes n groups from the current run (n <= groups_left()).
  void Consume(uint64_t n) {
    groups_left_ -= n;
    if (groups_left_ == 0) Load();
  }

  /// Consumes n groups, crossing run boundaries as needed. Used by the
  /// fused kernels' fill fast paths to leap over absorbed stretches.
  void Skip(uint64_t n) {
    while (n > 0) {
      const uint64_t take = n < groups_left_ ? n : groups_left_;
      Consume(take);
      n -= take;
    }
  }

  /// Bulk literal copy, the dense path's decode primitive: positioned on a
  /// literal (!is_fill()), copies the current literal and up to max-1
  /// immediately following literal words into dst, consuming them all.
  /// Consecutive literals are adjacent in the code-word stream, so this is
  /// a straight scan-and-copy. Returns the number copied (>= 1).
  uint64_t CopyLiteralRun(WordT* dst, uint64_t max) {
    dst[0] = literal_;
    uint64_t n = 1;
    while (n < max && pos_ < words_.size() && !Traits::IsFill(words_[pos_])) {
      dst[n++] = words_[pos_++];
    }
    groups_left_ = 0;
    Load();
    return n;
  }

  /// CopyLiteralRun without even the copy: positioned on a literal, returns
  /// a pointer into the code-word stream covering this literal and up to
  /// max-1 immediately following literal words, consuming them all and
  /// storing the count in *n. A literal code word IS its decoded group word
  /// (the fill-flag MSB is 0), so callers can feed the returned span to the
  /// bulk kernels directly — the dense fast path's zero-copy primitive.
  const WordT* ViewLiteralRun(uint64_t max, uint64_t* n) {
    const WordT* run = &words_[pos_ - 1];
    uint64_t count = 1;
    while (count < max && pos_ < words_.size() &&
           !Traits::IsFill(words_[pos_])) {
      ++count;
      ++pos_;
    }
    groups_left_ = 0;
    Load();
    *n = count;
    return run;
  }

  /// CopyLiteralRun without the copy: consumes up to `max` consecutive
  /// literal groups and returns how many. One fill test per code word, no
  /// decode.
  uint64_t SkipLiteralRun(uint64_t max) {
    uint64_t n = 1;
    while (n < max && pos_ < words_.size() && !Traits::IsFill(words_[pos_])) {
      ++n;
      ++pos_;
    }
    groups_left_ = 0;
    Load();
    return n;
  }

 private:
  void Load() {
    while (pos_ < words_.size()) {
      const WordT w = words_[pos_++];
      if (Traits::IsFill(w)) {
        const uint64_t n = Traits::FillGroups(w);
        if (n == 0) continue;  // defensive: skip empty fills
        is_fill_ = true;
        fill_bit_ = Traits::FillBit(w);
        groups_left_ = n;
        return;
      }
      is_fill_ = false;
      literal_ = w;
      groups_left_ = 1;
      return;
    }
    groups_left_ = 0;
  }

  std::span<const WordT> words_;
  size_t pos_ = 0;
  bool is_fill_ = false;
  bool fill_bit_ = false;
  WordT literal_ = 0;
  uint64_t groups_left_ = 0;
};

/// Word-Aligned Hybrid (WAH) compressed bitvector (Wu, Otoo, Shoshani),
/// parameterized on the machine word type.
///
/// The paper executes all bitmap-index query operations directly over
/// WAH-compressed bitvectors; this class is that substrate. The canonical
/// format (and the paper's) uses 32-bit words — `WahBitVector` below; the
/// 64-bit instantiation `Wah64BitVector` exists for the word-size ablation
/// (bigger groups = fewer words touched per op, but 63-bit groups compress
/// long runs less often than 31-bit groups do).
///
/// Layout: a sequence of words. The most significant bit distinguishes the
/// two word types:
///  * literal word (MSB = 0): the low W-1 bits hold W-1 bitmap bits
///    (LSB-first: bit j of the word is bitmap bit `group*(W-1) + j`);
///  * fill word (MSB = 1): the next bit is the fill bit, the remaining
///    W-2 bits hold the fill length counted in (W-1)-bit groups.
/// A partial trailing group lives in the `active` word.
///
/// Logical operations (And/Or/Xor/Not) consume and produce compressed
/// vectors without decompressing; fills are processed in O(1) per run,
/// which is the source of the speedups the paper reports. The fused
/// multi-operand kernels (OrMany/AndMany and the *Count variants) fold k
/// operands in a single pass, re-compressing once instead of k-1 times.
template <typename WordT>
class BasicWahBitVector {
 public:
  /// Bits per literal group (W - 1).
  static constexpr int kGroupBits = static_cast<int>(sizeof(WordT) * 8) - 1;

  /// Empty vector (zero bits).
  BasicWahBitVector() = default;

  /// Compresses a verbatim bitvector.
  static BasicWahBitVector Compress(const BitVector& bits);

  /// Encodes uncompressed group words: `groups` holds ceil(size /
  /// kGroupBits) words, word g carrying bits [g*kGroupBits, (g+1)*kGroupBits)
  /// LSB-first with the top bit clear; the last word's bits past `size` are
  /// ignored. All-zero / all-one stretches become fills, so the output is
  /// canonical — what AppendBit would build bit by bit.
  static BasicWahBitVector FromGroups(std::span<const WordT> groups,
                                      uint64_t size);

  /// A `size`-bit vector whose set bits are exactly `positions` (strictly
  /// ascending, each < size), written one group at a time with the gaps
  /// as fills: cost proportional to the set bits plus the output words.
  static BasicWahBitVector FromPositions(std::span<const uint32_t> positions,
                                         uint64_t size);

  /// A vector of `size` copies of `bit` (maximally compressed).
  static BasicWahBitVector Fill(uint64_t size, bool bit);

  /// A non-owning ("borrowed") vector whose code words live in external
  /// memory — the storage engine's mmap zero-copy mode: the words stay in
  /// the page cache and are never copied into the heap. The caller
  /// guarantees `words` outlives the vector (and every vector copied from
  /// it). Validation is O(1) — structural metadata only; the group-count
  /// cross-check against `size` is ValidateStructure(), which the storage
  /// reader runs only under OpenOptions::verify_checksums so opening stays
  /// independent of the word count.
  static Result<BasicWahBitVector> FromBorrowed(std::span<const WordT> words,
                                                WordT active_word,
                                                int active_bits,
                                                uint64_t size);

  /// True when the code words are borrowed from external memory.
  bool borrowed() const { return borrowed_words_ != nullptr; }

  /// The compressed code words (excluding the active word), wherever they
  /// live — the owned heap buffer or a borrowed mapping.
  std::span<const WordT> code_words() const {
    return borrowed() ? std::span<const WordT>(borrowed_words_, num_borrowed_)
                      : std::span<const WordT>(words_);
  }

  /// The partial trailing group (active_bits() low bits are meaningful).
  WordT active_word() const { return active_word_; }
  int active_bits() const { return active_bits_; }

  /// O(words) structural invariant check: decoded group count plus the
  /// active bits must equal size(). The deep half of FromBorrowed's
  /// validation (see there for why it is separate).
  Status ValidateStructure() const;

  /// Appends a single bit. A borrowed vector detaches first (one-time copy
  /// of the borrowed words into owned storage).
  void AppendBit(bool bit);

  /// Appends `count` copies of `bit`. Detaches a borrowed vector.
  void AppendRun(bool bit, uint64_t count);

  /// Number of bits represented.
  uint64_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Number of set bits, computed over the compressed form.
  uint64_t Count() const;

  /// Expands to a verbatim bitvector.
  BitVector Decompress() const;

  /// Value of bit `index`. This is an O(words) scan from the start of the
  /// compressed form — fine for spot checks, but quadratic when called for
  /// every position in a loop. Batch readers should use ForEachSetBit (one
  /// pass over set bits) or Decompress (one pass, verbatim form) instead.
  bool Get(uint64_t index) const;

  /// Calls `fn(uint64_t index)` for every set bit, in ascending order, in a
  /// single pass over the compressed form: O(words + set bits) total, versus
  /// O(words) *per call* for Get.
  template <typename Fn>
  void ForEachSetBit(Fn&& fn) const {
    using Traits = wah_internal::WahTraits<WordT>;
    uint64_t bit_pos = 0;
    for (WordT w : code_words()) {
      if (Traits::IsFill(w)) {
        const uint64_t span_bits = Traits::FillGroups(w) * kGroupBits;
        if (Traits::FillBit(w)) {
          // Emit the one-fill as whole 64-bit chunks through the extraction
          // primitive (a counted loop per chunk) instead of one indexed
          // loop iteration per bit with a 64-bit bound compare each.
          uint64_t i = 0;
          for (; i + 64 <= span_bits; i += 64) {
            simd::ForEachSetBitInWord(~uint64_t{0}, bit_pos + i, fn);
          }
          if (i < span_bits) {
            const uint64_t tail =
                (uint64_t{1} << (span_bits - i)) - 1;
            simd::ForEachSetBitInWord(tail, bit_pos + i, fn);
          }
        }
        bit_pos += span_bits;
      } else {
        for (WordT v = w; v != 0; v &= v - 1) {
          fn(bit_pos + static_cast<uint64_t>(std::countr_zero(v)));
        }
        bit_pos += kGroupBits;
      }
    }
    for (int i = 0; i < active_bits_; ++i) {
      if ((active_word_ >> i) & 1) fn(bit_pos + static_cast<uint64_t>(i));
    }
  }

  /// Compressed payload size in bytes (code words plus the active word).
  uint64_t SizeInBytes() const;

  /// Compressed bytes divided by verbatim bitmap bytes (size()/8). An
  /// incompressible vector yields ~W/(W-1) (1.03 for 32-bit words),
  /// matching the paper's observation that WAH can slightly inflate random
  /// bitmaps.
  double CompressionRatio() const;

  /// Logical operations over the compressed form. Operands must have equal
  /// size(); the result is compressed.
  BasicWahBitVector And(const BasicWahBitVector& other) const;
  BasicWahBitVector Or(const BasicWahBitVector& other) const;
  BasicWahBitVector Xor(const BasicWahBitVector& other) const;
  /// a AND (NOT b), used to strip missing rows without a separate Not pass.
  BasicWahBitVector AndNot(const BasicWahBitVector& other) const;
  /// Bitwise complement.
  BasicWahBitVector Not() const;

  /// One operand of a fused multi-way kernel: a vector, optionally read
  /// through a complement (`negate`) without ever materializing NOT(vec).
  struct Operand {
    const BasicWahBitVector* vec = nullptr;
    bool negate = false;
  };

  /// Fused k-way OR / AND over the compressed form, re-compressing once at
  /// the end instead of k-1 times as the pairwise fold does. The engine is
  /// windowed and hybrid: each group-aligned window is routed by literal
  /// density either through the sparse path (run-at-a-time merging with
  /// absorbing-fill leaps / windowed scatter) or, above the dense-block
  /// threshold, through the SIMD dense path — operand windows are decoded
  /// into uncompressed word buffers, combined with the runtime-dispatched
  /// vector kernels (simd/simd.h), and re-encoded at the sink.
  /// Operands must be non-empty and of equal size(). `op_stats`, when
  /// non-null, accumulates which path ran (EXPLAIN's simd=/decoded=).
  static BasicWahBitVector OrMany(
      std::span<const BasicWahBitVector* const> operands,
      WahOpStats* op_stats = nullptr);
  static BasicWahBitVector AndMany(
      std::span<const BasicWahBitVector* const> operands,
      WahOpStats* op_stats = nullptr);
  /// AND with per-operand complement, e.g. the bit-sliced equality circuit
  /// AND_k (bit k set ? S_k : NOT S_k) in one fused pass.
  static BasicWahBitVector AndMany(std::span<const Operand> operands,
                                   WahOpStats* op_stats = nullptr);

  /// Fused count kernels: identical walks to OrMany/AndMany that produce
  /// only the popcount of the result — no result vector is materialized.
  /// The workhorses of ExecuteCount / ExecuteGroupCount / ExecuteAggregate.
  static uint64_t OrManyCount(
      std::span<const BasicWahBitVector* const> operands,
      WahOpStats* op_stats = nullptr);
  static uint64_t AndManyCount(
      std::span<const BasicWahBitVector* const> operands,
      WahOpStats* op_stats = nullptr);
  static uint64_t AndManyCount(std::span<const Operand> operands,
                               WahOpStats* op_stats = nullptr);
  /// Count of a AND b without materializing it (the per-group kernel of
  /// GROUP BY / aggregates).
  static uint64_t AndCount(const BasicWahBitVector& a,
                           const BasicWahBitVector& b,
                           WahOpStats* op_stats = nullptr);

  /// Content equality: a borrowed vector equals an owned one holding the
  /// same code words.
  bool operator==(const BasicWahBitVector& other) const {
    const std::span<const WordT> a = code_words();
    const std::span<const WordT> b = other.code_words();
    return size_ == other.size_ && active_bits_ == other.active_bits_ &&
           active_word_ == other.active_word_ && a.size() == b.size() &&
           std::equal(a.begin(), a.end(), b.begin());
  }

  /// Number of code words (excluding the active word).
  uint64_t NumWords() const { return code_words().size(); }

  /// Debug rendering: "L:xxxxx" literal words and "F<bit>x<n>" fills.
  std::string DebugString() const;

 private:
  friend class BasicWahRunIterator<WordT>;

  // Shared single-pass engines behind the public fused kernels.
  static BasicWahBitVector FuseToVector(std::span<const Operand> operands,
                                        bool is_or, WahOpStats* op_stats);
  static uint64_t FuseToCount(std::span<const Operand> operands, bool is_or,
                              WahOpStats* op_stats);

  // Emits into words_ only (no size_ accounting), merging adjacent fills
  // and converting all-zero / all-one literals to fills. EmitGroups is the
  // one group-word encoder behind FromGroups (and so Compress and the build
  // ladders), the active-group flush and the fused kernels' dense sink.
  void EmitFill(bool bit, uint64_t groups);
  void EmitLiteral(WordT literal);
  void EmitGroups(const WordT* groups, uint64_t n);
  // Runs `emit` (which appends to words_) in a reused per-thread buffer and
  // then copies the code words out at their exact size: one allocation per
  // built vector instead of push_back's regrowth on cold memory.
  template <typename Fn>
  void EmitExact(Fn&& emit);
  void FlushActiveGroup();

  enum class OpKind { kAnd, kOr, kXor, kAndNot };
  BasicWahBitVector BinaryOp(const BasicWahBitVector& other, OpKind op) const;

  // Copies borrowed code words into words_ so mutators can extend them.
  // No-op for an owned vector.
  void Detach();

  std::vector<WordT> words_;
  // Borrowed (non-owning) code words; when set, words_ is empty and all
  // reads go through code_words(). Copies of a borrowed vector stay
  // borrowed (shallow pointer copy) — the mapping must outlive them all.
  const WordT* borrowed_words_ = nullptr;
  size_t num_borrowed_ = 0;
  WordT active_word_ = 0;  // partial trailing group, LSB-first
  int active_bits_ = 0;    // bits in active_word_, in [0, kGroupBits)
  uint64_t size_ = 0;      // total bits
};

template <typename WordT>
BasicWahRunIterator<WordT>::BasicWahRunIterator(
    const BasicWahBitVector<WordT>& vec)
    : words_(vec.code_words()) {
  Load();
}

/// The paper's (and FastBit's) canonical 32-bit WAH.
using WahBitVector = BasicWahBitVector<uint32_t>;
/// 64-bit-word WAH for the word-size ablation.
using Wah64BitVector = BasicWahBitVector<uint64_t>;

using WahRunIterator = BasicWahRunIterator<uint32_t>;
using Wah64RunIterator = BasicWahRunIterator<uint64_t>;

extern template class BasicWahBitVector<uint32_t>;
extern template class BasicWahBitVector<uint64_t>;

}  // namespace incdb

#endif  // INCDB_COMPRESSION_WAH_BITVECTOR_H_
