#include "compression/wah_bitvector.h"

#include <algorithm>
#include <atomic>
#include <bit>

#include "common/bitutil.h"
#include "common/logging.h"

namespace incdb {

namespace wah_internal {
namespace {

// Default dense-block threshold, in literal groups per operand-group: the
// measured crossover from bench_simd_kernels (derivation in
// docs/KERNELS.md) below which run-at-a-time merging over the compressed
// form beats stream-combining through the vector kernels. Uniform 5%-bit
// inputs (~0.8 literal fraction) win on the dense path at every level and
// k; clustered 1% inputs (~0.03) win on the sparse strategies; the
// break-even sits near the cost ratio of a scatter store vs its share of a
// kernel pass, ~0.1-0.2 on both tested word widths.
std::atomic<double> dense_block_threshold{0.15};

}  // namespace

double DenseBlockThreshold() {
  return dense_block_threshold.load(std::memory_order_relaxed);
}

double SetDenseBlockThresholdForTesting(double threshold) {
  return dense_block_threshold.exchange(threshold, std::memory_order_relaxed);
}

}  // namespace wah_internal

namespace {

template <typename WordT>
using Traits = wah_internal::WahTraits<WordT>;

template <typename WordT>
WordT ApplyOp(WordT a, WordT b, int op) {
  switch (op) {
    case 0:
      return a & b;
    case 1:
      return a | b;
    case 2:
      return a ^ b;
    default:
      return a & (~b & Traits<WordT>::kFullLiteral);
  }
}

// Per-operand view of the partial trailing group.
template <typename WordT>
WordT ActiveView(const typename BasicWahBitVector<WordT>::Operand& op,
                 WordT active_word, WordT mask) {
  const WordT v = op.negate ? static_cast<WordT>(~active_word) : active_word;
  return v & mask;
}

// ---------------------------------------------------------------------------
// The windowed hybrid k-way fusion engine.
//
// The stream of groups is processed in fixed windows of kWindowGroups groups
// (64 Ki payload bits, so the accumulator and scratch buffers stay resident
// in L1/L2). Each window is classified by an estimate of the operands'
// literal density (seeded from compressed size, then carried forward from
// the density the previous window actually saw — see FuseHybrid); windows
// at or above wah_internal::DenseBlockThreshold() take the dense path —
// materialize the lead operand and stream the rest's literal runs straight
// from their compressed form into the runtime-dispatched SIMD kernels —
// while sparse windows stay on compressed-form strategies:
//  * OR: scatter each operand's runs into the zeroed accumulator (one store
//    per literal, one fill per 1-run), then hand the window to the sink;
//  * AND: the classic lockstep run merge with absorbing-fill leaps, which
//    skips whole 0-fill runs without touching the other operands' payloads.
//
// All decoded buffers hold one group per WordT with the fill-flag MSB zero,
// so combines can never produce a word the re-encode scan would mistake for
// a fill code word.
// ---------------------------------------------------------------------------

template <typename WordT>
constexpr uint64_t kWindowGroups =
    uint64_t{65536} / static_cast<uint64_t>(Traits<WordT>::kGroupBits);

// The kFullLiteral pattern replicated across a 64-bit lane, for masked
// OR-NOT combines (keeps complemented group words' fill flags clear).
template <typename WordT>
constexpr uint64_t ReplicatedFullLiteral() {
  if constexpr (sizeof(WordT) == 4) {
    return (uint64_t{Traits<WordT>::kFullLiteral} << 32) |
           uint64_t{Traits<WordT>::kFullLiteral};
  } else {
    return uint64_t{Traits<WordT>::kFullLiteral};
  }
}

// Decodes the next `w` groups of one operand into `buf`, one group word per
// slot (fill-flag MSB always zero). Consecutive literal code words are
// adjacent in the compressed stream, so literal runs bulk-copy. Returns the
// number of literal groups decoded (feeds the density estimate).
template <typename WordT>
uint64_t DecodeWindow(BasicWahRunIterator<WordT>& it, WordT* buf, uint64_t w) {
  uint64_t pos = 0;
  uint64_t literals = 0;
  while (pos < w) {
    if (it.is_fill()) {
      const uint64_t n = std::min(it.groups_left(), w - pos);
      std::fill_n(buf + pos,
                  n, it.fill_bit() ? Traits<WordT>::kFullLiteral : WordT{0});
      it.Consume(n);
      pos += n;
    } else {
      const uint64_t n = it.CopyLiteralRun(buf + pos, w - pos);
      literals += n;
      pos += n;
    }
  }
  return literals;
}

struct CombineResult {
  uint64_t literals = 0;  // literal groups consumed (density estimate feed)
  uint64_t any = 0;       // OR-fold of every accumulator word this operand
                          // wrote (AND only)
  bool covered = true;    // every window group was written by this operand;
                          // false once a stretch was left untouched (an
                          // AND 1-fill), making `any` a lower bound only
};

// Combines the next `w` groups of one operand into `acc` straight from the
// compressed stream: fills are O(1) skips or bulk std::fill_n, literal runs
// feed the SIMD kernels directly (a literal code word IS its decoded group
// word), so no scratch buffer is ever materialized. Short literal runs are
// folded inline — an indirect kernel call per 1-2-word run would cost more
// than the combine itself. For AND ops the result's `any`/`covered` pair
// answers "is the accumulator now provably all-zero?" without any rescan.
template <typename WordT>
CombineResult CombineWindow(BasicWahRunIterator<WordT>& it, WordT* acc,
                            uint64_t w, bool is_or, bool negate,
                            const simd::Kernels& kernels) {
  const WordT kFull = Traits<WordT>::kFullLiteral;
  constexpr uint64_t kInlineRun = 16;
  CombineResult result;
  uint64_t pos = 0;
  while (pos < w) {
    if (it.is_fill()) {
      const uint64_t n = std::min(it.groups_left(), w - pos);
      const bool bit = it.fill_bit() != negate;
      if (is_or) {
        if (bit) std::fill_n(acc + pos, n, kFull);
      } else {
        if (!bit) {
          std::fill_n(acc + pos, n, WordT{0});
        } else {
          result.covered = false;  // acc unchanged here, contents unknown
        }
      }
      it.Consume(n);
      pos += n;
    } else {
      uint64_t n = 0;
      const WordT* run = it.ViewLiteralRun(w - pos, &n);
      WordT* dst = acc + pos;
      if (n < kInlineRun) {
        uint64_t any = 0;
        if (is_or) {
          if (negate) {
            for (uint64_t i = 0; i < n; ++i) {
              dst[i] = static_cast<WordT>(dst[i] | (~run[i] & kFull));
            }
          } else {
            for (uint64_t i = 0; i < n; ++i) dst[i] |= run[i];
          }
        } else {
          if (negate) {
            for (uint64_t i = 0; i < n; ++i) {
              dst[i] = static_cast<WordT>(dst[i] & ~run[i]);
              any |= dst[i];
            }
          } else {
            for (uint64_t i = 0; i < n; ++i) {
              dst[i] &= run[i];
              any |= dst[i];
            }
          }
        }
        result.any |= any;
      } else {
        const size_t bytes = static_cast<size_t>(n) * sizeof(WordT);
        if (is_or) {
          if (negate) {
            kernels.ornot_mask_into(dst, run, ReplicatedFullLiteral<WordT>(),
                                    bytes);
          } else {
            kernels.or_into(dst, run, bytes);
          }
        } else {
          if (negate) {
            result.any |= kernels.andnot_into(dst, run, bytes);
          } else {
            result.any |= kernels.and_into(dst, run, bytes);
          }
        }
      }
      result.literals += n;
      pos += n;
    }
  }
  return result;
}

// Dense window: decode the first non-negated operand into the accumulator,
// then stream-combine every other operand straight from its compressed
// form with the active SIMD kernel table. Negated operands are folded
// through AND-NOT / masked OR-NOT so their group words are never
// materialized in complemented form. Returns the literal density realized
// over the operand windows it actually walked (the next window's
// classification estimate).
template <typename WordT>
double DenseWindow(
    std::span<const typename BasicWahBitVector<WordT>::Operand> ops,
    std::vector<BasicWahRunIterator<WordT>>& its, bool is_or, uint64_t w,
    WordT* acc) {
  const simd::Kernels& kernels = simd::ActiveKernels();
  uint64_t literals = 0;
  uint64_t examined = 0;
  size_t lead = ops.size();
  for (size_t i = 0; i < ops.size(); ++i) {
    if (!ops[i].negate) {
      lead = i;
      break;
    }
  }
  if (lead < ops.size()) {
    literals += DecodeWindow(its[lead], acc, w);
    examined += w;
  } else {
    std::fill_n(acc, w, is_or ? WordT{0} : Traits<WordT>::kFullLiteral);
  }
  // AND early-exit: the CombineResult of each operand proves (or fails to
  // prove) the accumulator empty as a byproduct of the combine, so the
  // remaining operands only need their cursors advanced — no rescans.
  bool empty = false;
  for (size_t i = 0; i < ops.size(); ++i) {
    if (i == lead) continue;
    if (empty) {
      its[i].Skip(w);
      continue;
    }
    const CombineResult r =
        CombineWindow(its[i], acc, w, is_or, ops[i].negate, kernels);
    literals += r.literals;
    examined += w;
    if (!is_or) empty = r.covered && r.any == 0;
  }
  return examined == 0
             ? 1.0
             : static_cast<double>(literals) / static_cast<double>(examined);
}

// Sparse OR window: scatter every operand's runs into the zeroed
// accumulator. One store per literal group, one std::fill_n per
// effective 1-fill; 0-runs cost nothing. Returns the realized literal
// density of the window (the next window's classification estimate).
template <typename WordT>
double ScatterOrWindow(
    std::span<const typename BasicWahBitVector<WordT>::Operand> ops,
    std::vector<BasicWahRunIterator<WordT>>& its, uint64_t w, WordT* acc) {
  const WordT kFull = Traits<WordT>::kFullLiteral;
  std::fill_n(acc, w, WordT{0});
  uint64_t literals = 0;
  for (size_t i = 0; i < ops.size(); ++i) {
    BasicWahRunIterator<WordT>& it = its[i];
    const bool negate = ops[i].negate;
    uint64_t pos = 0;
    while (pos < w) {
      if (it.is_fill()) {
        const uint64_t n = std::min(it.groups_left(), w - pos);
        if (it.fill_bit() != negate) std::fill_n(acc + pos, n, kFull);
        it.Consume(n);
        pos += n;
      } else {
        const WordT lit = it.LiteralView();
        acc[pos] |= negate ? static_cast<WordT>(~lit & kFull) : lit;
        ++literals;
        ++pos;
        it.Consume(1);
      }
    }
  }
  return static_cast<double>(literals) / static_cast<double>(w * ops.size());
}

// Sparse AND stretch: the lockstep run merge. Emits `emit_run(view, n)` for
// each maximal stretch of n groups with constant view (n > 1 only for fill
// output) until at least `limit` groups have been produced. Absorbing-fill
// leaps may overshoot the window boundary — that is deliberate: a long
// 0-fill should be jumped in one step, and the next window's classification
// simply happens wherever the cursors land. Returns the number of groups
// emitted; `*literal_groups` accumulates the operand literal words it
// stepped through (groups leapt over inside absorbing fills count as fills,
// biasing the density estimate low — exactly the windows this path wins on).
template <typename WordT, typename RunFn>
uint64_t SparseAndStretch(
    std::span<const typename BasicWahBitVector<WordT>::Operand> ops,
    std::vector<BasicWahRunIterator<WordT>>& its, uint64_t limit,
    RunFn&& emit_run, uint64_t* literal_groups) {
  const WordT kFull = Traits<WordT>::kFullLiteral;
  uint64_t emitted = 0;
  uint64_t literals = 0;  // local: a through-pointer count would alias
  while (emitted < limit && !its[0].done()) {
    WordT acc = kFull;
    uint64_t n_min = UINT64_MAX;
    uint64_t absorb = 0;
    bool all_fill = true;
    for (size_t i = 0; i < its.size(); ++i) {
      const BasicWahRunIterator<WordT>& it = its[i];
      WordT view = it.LiteralView();
      if (ops[i].negate) view = ~view & kFull;
      if (it.is_fill()) {
        if (view == 0) absorb = std::max(absorb, it.groups_left());
      } else {
        all_fill = false;
        ++literals;
      }
      if (it.groups_left() < n_min) n_min = it.groups_left();
      acc = static_cast<WordT>(acc & view);
      if (acc == 0) break;  // remaining operands cannot change it
    }
    uint64_t n;
    if (acc == 0) {
      n = absorb > 0 ? absorb : 1;
    } else {
      n = all_fill ? n_min : 1;
    }
    emit_run(acc, n);
    for (auto& it : its) it.Skip(n);
    emitted += n;
  }
  *literal_groups += literals;
  return emitted;
}

// Drives the full fusion: windows the group stream, classifies each window
// dense/sparse, and feeds results to the sinks. `emit_run(view, n)` receives
// constant-view stretches from the sparse AND path; `emit_dense(buf, w)`
// receives decoded window buffers from the dense and scatter-OR paths.
//
// Classification is adaptive and costs O(1) per window: the first window
// is classified from the operands' compressed sizes (code words per group
// is a direct proxy for literal density — a literal group costs one word,
// a fill amortizes to ~zero); every window after that is classified by the
// literal density the previous window realized while doing its real work
// (all three window routines report it as a near-free byproduct). On
// homogeneous inputs classification cost vanishes; on regime changes it
// mispredicts at most one window, which only costs a suboptimal strategy
// there, never a wrong answer.
template <typename WordT, typename RunFn, typename DenseFn>
void FuseHybrid(std::span<const typename BasicWahBitVector<WordT>::Operand> ops,
                bool is_or, uint64_t groups_total, RunFn&& emit_run,
                DenseFn&& emit_dense, WahOpStats* op_stats) {
  if (groups_total == 0) return;
  std::vector<BasicWahRunIterator<WordT>> its;
  its.reserve(ops.size());
  for (const auto& op : ops) its.emplace_back(*op.vec);
  const double threshold = wah_internal::DenseBlockThreshold();
  const bool dense_enabled = threshold <= 1.0;
  const bool force_dense = threshold <= 0.0;
  const uint64_t window = kWindowGroups<WordT>;
  std::vector<WordT> acc(std::min<uint64_t>(window, groups_total));
  uint64_t done = 0;
  double est_density = 0.0;
  if (dense_enabled && !force_dense) {
    uint64_t code_words = 0;
    for (const auto& op : ops) code_words += op.vec->NumWords();
    est_density = static_cast<double>(code_words) /
                  static_cast<double>(groups_total * ops.size());
  }
  while (done < groups_total) {
    const uint64_t w = std::min(window, groups_total - done);
    bool dense = false;
    if (force_dense) {
      dense = true;
    } else if (dense_enabled) {
      dense = est_density >= threshold;
    }
    if (dense) {
      est_density = DenseWindow<WordT>(ops, its, is_or, w, acc.data());
      emit_dense(acc.data(), w);
      if (op_stats != nullptr) {
        op_stats->dense_windows += 1;
        op_stats->words_decoded += w * ops.size();
      }
      done += w;
    } else if (is_or) {
      est_density = ScatterOrWindow<WordT>(ops, its, w, acc.data());
      emit_dense(acc.data(), w);
      done += w;
    } else {
      uint64_t literals = 0;
      const uint64_t n =
          SparseAndStretch<WordT>(ops, its, w, emit_run, &literals);
      est_density = static_cast<double>(literals) /
                    static_cast<double>(n * ops.size());
      done += n;
    }
  }
  for (const auto& it : its) INCDB_CHECK(it.done());
}

}  // namespace

template <typename WordT>
template <typename Fn>
void BasicWahBitVector<WordT>::EmitExact(Fn&& emit) {
  thread_local std::vector<WordT> buffer;
  buffer.clear();
  words_.swap(buffer);
  emit();
  words_.swap(buffer);
  words_.assign(buffer.begin(), buffer.end());
}

template <typename WordT>
BasicWahBitVector<WordT> BasicWahBitVector<WordT>::Compress(
    const BitVector& bits) {
  const uint64_t n = bits.size();
  const std::vector<uint64_t>& words = bits.words();
  // Extract consecutive (W-1)-bit groups from the 64-bit word array; the
  // partial last group keeps whatever lies past n, which FromGroups masks.
  std::vector<WordT> groups(bitutil::CeilDiv(n, kGroupBits));
  for (uint64_t g = 0; g < groups.size(); ++g) {
    const uint64_t bit_pos = g * kGroupBits;
    const uint64_t word_idx = bit_pos / 64;
    const int offset = static_cast<int>(bit_pos % 64);
    uint64_t chunk = words[word_idx] >> offset;
    if (offset + kGroupBits > 64 && word_idx + 1 < words.size()) {
      chunk |= words[word_idx + 1] << (64 - offset);
    }
    groups[g] = static_cast<WordT>(chunk & bitutil::LowBitsMask(kGroupBits));
  }
  return FromGroups(groups, n);
}

template <typename WordT>
BasicWahBitVector<WordT> BasicWahBitVector<WordT>::FromGroups(
    std::span<const WordT> groups, uint64_t size) {
  INCDB_CHECK(groups.size() == bitutil::CeilDiv(size, kGroupBits));
  BasicWahBitVector out;
  const uint64_t full_groups = size / kGroupBits;
  out.EmitExact([&] { out.EmitGroups(groups.data(), full_groups); });
  out.active_bits_ = static_cast<int>(size % kGroupBits);
  if (out.active_bits_ > 0) {
    out.active_word_ = static_cast<WordT>(
        groups[full_groups] & bitutil::LowBitsMask(out.active_bits_));
  }
  out.size_ = size;
  return out;
}

template <typename WordT>
BasicWahBitVector<WordT> BasicWahBitVector<WordT>::FromPositions(
    std::span<const uint32_t> positions, uint64_t size) {
  BasicWahBitVector out;
  const uint64_t full_groups = size / kGroupBits;
  const uint64_t n = positions.size();
  uint64_t i = 0;
  out.EmitExact([&] {
    uint64_t next_group = 0;  // first group not yet emitted
    while (i < n) {
      const uint64_t group = positions[i] / kGroupBits;
      if (group >= full_groups) break;
      INCDB_DCHECK(group >= next_group);
      const uint64_t base = group * kGroupBits;
      WordT word = 0;
      do {
        INCDB_DCHECK(i == 0 || positions[i] > positions[i - 1]);
        word |= WordT{1} << (positions[i] - base);
      } while (++i < n && positions[i] < base + kGroupBits);
      if (group > next_group) out.EmitFill(false, group - next_group);
      if (word == Traits<WordT>::kFullLiteral) {
        out.EmitFill(true, 1);
      } else {
        out.words_.push_back(word);
      }
      next_group = group + 1;
    }
    out.EmitFill(false, full_groups - next_group);
  });
  const uint64_t base = full_groups * kGroupBits;
  for (; i < n; ++i) {
    INCDB_DCHECK(positions[i] >= base && positions[i] < size);
    out.active_word_ |= WordT{1} << (positions[i] - base);
  }
  out.active_bits_ = static_cast<int>(size - base);
  out.size_ = size;
  return out;
}

template <typename WordT>
BasicWahBitVector<WordT> BasicWahBitVector<WordT>::Fill(uint64_t size,
                                                        bool bit) {
  BasicWahBitVector out;
  out.AppendRun(bit, size);
  return out;
}

template <typename WordT>
void BasicWahBitVector<WordT>::AppendBit(bool bit) {
  Detach();
  if (bit) active_word_ |= WordT{1} << active_bits_;
  ++active_bits_;
  ++size_;
  if (active_bits_ == kGroupBits) FlushActiveGroup();
}

template <typename WordT>
void BasicWahBitVector<WordT>::AppendRun(bool bit, uint64_t count) {
  Detach();
  if (count == 0) return;
  const WordT ones = bit ? Traits<WordT>::kFullLiteral : WordT{0};
  // Top up the active group with one mask, flushing it when it fills.
  if (active_bits_ != 0) {
    const int head = static_cast<int>(
        std::min<uint64_t>(count, kGroupBits - active_bits_));
    active_word_ |= static_cast<WordT>(
        (ones & bitutil::LowBitsMask(head)) << active_bits_);
    active_bits_ += head;
    size_ += static_cast<uint64_t>(head);
    count -= static_cast<uint64_t>(head);
    if (active_bits_ < kGroupBits) return;
    FlushActiveGroup();
  }
  const uint64_t groups = count / kGroupBits;
  EmitFill(bit, groups);
  // The partial tail opens a fresh active group (the old one is flushed).
  active_bits_ = static_cast<int>(count % kGroupBits);
  active_word_ = static_cast<WordT>(ones & bitutil::LowBitsMask(active_bits_));
  size_ += count;
}

template <typename WordT>
void BasicWahBitVector<WordT>::FlushActiveGroup() {
  INCDB_DCHECK(active_bits_ == kGroupBits);
  EmitGroups(&active_word_, 1);
  active_word_ = 0;
  active_bits_ = 0;
}

template <typename WordT>
void BasicWahBitVector<WordT>::EmitFill(bool bit, uint64_t groups) {
  INCDB_DCHECK(!borrowed());
  while (groups > 0) {
    if (!words_.empty() && Traits<WordT>::IsFill(words_.back()) &&
        Traits<WordT>::FillBit(words_.back()) == bit) {
      const uint64_t have = Traits<WordT>::FillGroups(words_.back());
      const uint64_t take =
          std::min(groups, Traits<WordT>::kMaxFillGroups - have);
      if (take > 0) {
        words_.back() = Traits<WordT>::MakeFill(bit, have + take);
        groups -= take;
        continue;
      }
    }
    const uint64_t take = std::min(groups, Traits<WordT>::kMaxFillGroups);
    words_.push_back(Traits<WordT>::MakeFill(bit, take));
    groups -= take;
  }
}

template <typename WordT>
void BasicWahBitVector<WordT>::EmitLiteral(WordT literal) {
  INCDB_DCHECK(!borrowed());
  INCDB_DCHECK((literal & Traits<WordT>::kFillFlag) == 0);
  words_.push_back(literal);
}

template <typename WordT>
void BasicWahBitVector<WordT>::EmitGroups(const WordT* groups, uint64_t n) {
  uint64_t i = 0;
  while (i < n) {
    const WordT v = groups[i];
    if (v == 0 || v == Traits<WordT>::kFullLiteral) {
      uint64_t j = i + 1;
      while (j < n && groups[j] == v) ++j;
      EmitFill(v != 0, j - i);
      i = j;
    } else {
      EmitLiteral(v);
      ++i;
    }
  }
}

template <typename WordT>
uint64_t BasicWahBitVector<WordT>::Count() const {
  uint64_t count = 0;
  for (WordT w : code_words()) {
    if (Traits<WordT>::IsFill(w)) {
      if (Traits<WordT>::FillBit(w)) {
        count += Traits<WordT>::FillGroups(w) * kGroupBits;
      }
    } else {
      count += static_cast<uint64_t>(std::popcount(w));
    }
  }
  count += static_cast<uint64_t>(std::popcount(active_word_));
  return count;
}

template <typename WordT>
BitVector BasicWahBitVector<WordT>::Decompress() const {
  BitVector out(size_);
  uint64_t bit_pos = 0;
  auto write_literal = [&](WordT lit) {
    for (WordT w = lit; w != 0; w &= w - 1) {
      out.Set(bit_pos + static_cast<uint64_t>(std::countr_zero(w)));
    }
    bit_pos += kGroupBits;
  };
  for (WordT w : code_words()) {
    if (Traits<WordT>::IsFill(w)) {
      const uint64_t span = Traits<WordT>::FillGroups(w) * kGroupBits;
      if (Traits<WordT>::FillBit(w)) {
        out.SetRange(bit_pos, bit_pos + span);
      }
      bit_pos += span;
    } else {
      write_literal(w);
    }
  }
  for (int i = 0; i < active_bits_; ++i) {
    if ((active_word_ >> i) & 1) out.Set(bit_pos + i);
  }
  return out;
}

template <typename WordT>
bool BasicWahBitVector<WordT>::Get(uint64_t index) const {
  INCDB_CHECK(index < size_);
  uint64_t bit_pos = 0;
  for (WordT w : code_words()) {
    const uint64_t span = Traits<WordT>::IsFill(w)
                              ? Traits<WordT>::FillGroups(w) * kGroupBits
                              : static_cast<uint64_t>(kGroupBits);
    if (index < bit_pos + span) {
      if (Traits<WordT>::IsFill(w)) return Traits<WordT>::FillBit(w);
      return (w >> (index - bit_pos)) & 1;
    }
    bit_pos += span;
  }
  return (active_word_ >> (index - bit_pos)) & 1;
}

template <typename WordT>
uint64_t BasicWahBitVector<WordT>::SizeInBytes() const {
  return (code_words().size() + (active_bits_ > 0 ? 1 : 0)) * sizeof(WordT);
}

template <typename WordT>
double BasicWahBitVector<WordT>::CompressionRatio() const {
  if (size_ == 0) return 0.0;
  const double verbatim_bytes = static_cast<double>(size_) / 8.0;
  return static_cast<double>(SizeInBytes()) / verbatim_bytes;
}

template <typename WordT>
BasicWahBitVector<WordT> BasicWahBitVector<WordT>::And(
    const BasicWahBitVector& other) const {
  return BinaryOp(other, OpKind::kAnd);
}

template <typename WordT>
BasicWahBitVector<WordT> BasicWahBitVector<WordT>::Or(
    const BasicWahBitVector& other) const {
  return BinaryOp(other, OpKind::kOr);
}

template <typename WordT>
BasicWahBitVector<WordT> BasicWahBitVector<WordT>::Xor(
    const BasicWahBitVector& other) const {
  return BinaryOp(other, OpKind::kXor);
}

template <typename WordT>
BasicWahBitVector<WordT> BasicWahBitVector<WordT>::AndNot(
    const BasicWahBitVector& other) const {
  return BinaryOp(other, OpKind::kAndNot);
}

template <typename WordT>
BasicWahBitVector<WordT> BasicWahBitVector<WordT>::BinaryOp(
    const BasicWahBitVector& other, OpKind op) const {
  INCDB_CHECK(size_ == other.size_);
  const int op_code = static_cast<int>(op);
  BasicWahBitVector out;
  BasicWahRunIterator<WordT> a(*this);
  BasicWahRunIterator<WordT> b(other);
  uint64_t groups_emitted = 0;
  while (!a.done() && !b.done()) {
    if (a.is_fill() && b.is_fill()) {
      const uint64_t n = std::min(a.groups_left(), b.groups_left());
      const WordT r = ApplyOp(a.LiteralView(), b.LiteralView(), op_code);
      out.EmitFill(r == Traits<WordT>::kFullLiteral, n);
      groups_emitted += n;
      a.Consume(n);
      b.Consume(n);
    } else {
      // At least one side is a literal; process one group.
      const WordT r = ApplyOp(a.LiteralView(), b.LiteralView(), op_code);
      if (r == 0) {
        out.EmitFill(false, 1);
      } else if (r == Traits<WordT>::kFullLiteral) {
        out.EmitFill(true, 1);
      } else {
        out.EmitLiteral(r);
      }
      ++groups_emitted;
      a.Consume(1);
      b.Consume(1);
    }
  }
  INCDB_CHECK(a.done() && b.done());
  out.size_ = groups_emitted * kGroupBits;
  // Partial trailing group: sizes are equal, so active_bits_ match.
  INCDB_CHECK(active_bits_ == other.active_bits_);
  if (active_bits_ > 0) {
    const WordT mask = static_cast<WordT>(bitutil::LowBitsMask(active_bits_));
    out.active_word_ =
        ApplyOp(active_word_, other.active_word_, op_code) & mask;
    out.active_bits_ = active_bits_;
    out.size_ += static_cast<uint64_t>(active_bits_);
  }
  INCDB_CHECK(out.size_ == size_);
  return out;
}

template <typename WordT>
BasicWahBitVector<WordT> BasicWahBitVector<WordT>::FuseToVector(
    std::span<const Operand> operands, bool is_or, WahOpStats* op_stats) {
  INCDB_CHECK(!operands.empty());
  const BasicWahBitVector& first = *operands[0].vec;
  for (const Operand& op : operands) {
    INCDB_CHECK(op.vec != nullptr && op.vec->size_ == first.size_);
  }
  if (operands.size() == 1 && !operands[0].negate) return first;
  if (operands.size() == 2 && !operands[0].negate && !operands[1].negate) {
    // The tight two-way merge; the k-way machinery has nothing to add.
    return is_or ? first.Or(*operands[1].vec) : first.And(*operands[1].vec);
  }
  BasicWahBitVector out;
  const uint64_t groups =
      (first.size_ - first.active_bits_) / static_cast<uint64_t>(kGroupBits);
  auto emit_run = [&out](WordT view, uint64_t n) {
    if (view == 0) {
      out.EmitFill(false, n);
    } else if (view == Traits<WordT>::kFullLiteral) {
      out.EmitFill(true, n);
    } else {
      INCDB_DCHECK(n == 1);
      out.EmitLiteral(view);
    }
  };
  // EmitFill merges across window boundaries, so the output is canonical
  // no matter how the engine partitioned the stream.
  auto emit_dense = [&out](const WordT* buf, uint64_t w) {
    out.EmitGroups(buf, w);
  };
  FuseHybrid<WordT>(operands, is_or, groups, emit_run, emit_dense, op_stats);
  out.size_ = groups * static_cast<uint64_t>(kGroupBits);
  if (first.active_bits_ > 0) {
    const WordT mask =
        static_cast<WordT>(bitutil::LowBitsMask(first.active_bits_));
    WordT acc = is_or ? WordT{0} : mask;
    for (const Operand& op : operands) {
      const WordT v = ActiveView<WordT>(op, op.vec->active_word_, mask);
      acc = is_or ? static_cast<WordT>(acc | v) : static_cast<WordT>(acc & v);
    }
    out.active_word_ = acc;
    out.active_bits_ = first.active_bits_;
    out.size_ += static_cast<uint64_t>(first.active_bits_);
  }
  INCDB_CHECK(out.size_ == first.size_);
  return out;
}

template <typename WordT>
uint64_t BasicWahBitVector<WordT>::FuseToCount(
    std::span<const Operand> operands, bool is_or, WahOpStats* op_stats) {
  INCDB_CHECK(!operands.empty());
  const BasicWahBitVector& first = *operands[0].vec;
  for (const Operand& op : operands) {
    INCDB_CHECK(op.vec != nullptr && op.vec->size_ == first.size_);
  }
  const uint64_t groups =
      (first.size_ - first.active_bits_) / static_cast<uint64_t>(kGroupBits);
  uint64_t count = 0;
  auto emit_run = [&count](WordT view, uint64_t n) {
    count += static_cast<uint64_t>(std::popcount(view)) * n;
  };
  auto emit_dense = [&count](const WordT* buf, uint64_t w) {
    count += simd::ActiveKernels().popcount(
        buf, static_cast<size_t>(w) * sizeof(WordT));
  };
  FuseHybrid<WordT>(operands, is_or, groups, emit_run, emit_dense, op_stats);
  if (first.active_bits_ > 0) {
    const WordT mask =
        static_cast<WordT>(bitutil::LowBitsMask(first.active_bits_));
    WordT acc = is_or ? WordT{0} : mask;
    for (const Operand& op : operands) {
      const WordT v = ActiveView<WordT>(op, op.vec->active_word_, mask);
      acc = is_or ? static_cast<WordT>(acc | v) : static_cast<WordT>(acc & v);
    }
    count += static_cast<uint64_t>(std::popcount(acc));
  }
  return count;
}

namespace {

template <typename WordT>
std::vector<typename BasicWahBitVector<WordT>::Operand> PlainOperands(
    std::span<const BasicWahBitVector<WordT>* const> operands) {
  std::vector<typename BasicWahBitVector<WordT>::Operand> ops;
  ops.reserve(operands.size());
  for (const BasicWahBitVector<WordT>* vec : operands) {
    ops.push_back({vec, false});
  }
  return ops;
}

}  // namespace

template <typename WordT>
BasicWahBitVector<WordT> BasicWahBitVector<WordT>::OrMany(
    std::span<const BasicWahBitVector* const> operands,
    WahOpStats* op_stats) {
  const auto ops = PlainOperands<WordT>(operands);
  return FuseToVector(ops, /*is_or=*/true, op_stats);
}

template <typename WordT>
BasicWahBitVector<WordT> BasicWahBitVector<WordT>::AndMany(
    std::span<const BasicWahBitVector* const> operands,
    WahOpStats* op_stats) {
  const auto ops = PlainOperands<WordT>(operands);
  return FuseToVector(ops, /*is_or=*/false, op_stats);
}

template <typename WordT>
BasicWahBitVector<WordT> BasicWahBitVector<WordT>::AndMany(
    std::span<const Operand> operands, WahOpStats* op_stats) {
  return FuseToVector(operands, /*is_or=*/false, op_stats);
}

template <typename WordT>
uint64_t BasicWahBitVector<WordT>::OrManyCount(
    std::span<const BasicWahBitVector* const> operands,
    WahOpStats* op_stats) {
  const auto ops = PlainOperands<WordT>(operands);
  return FuseToCount(ops, /*is_or=*/true, op_stats);
}

template <typename WordT>
uint64_t BasicWahBitVector<WordT>::AndManyCount(
    std::span<const BasicWahBitVector* const> operands,
    WahOpStats* op_stats) {
  const auto ops = PlainOperands<WordT>(operands);
  return FuseToCount(ops, /*is_or=*/false, op_stats);
}

template <typename WordT>
uint64_t BasicWahBitVector<WordT>::AndManyCount(
    std::span<const Operand> operands, WahOpStats* op_stats) {
  return FuseToCount(operands, /*is_or=*/false, op_stats);
}

template <typename WordT>
uint64_t BasicWahBitVector<WordT>::AndCount(const BasicWahBitVector& a,
                                            const BasicWahBitVector& b,
                                            WahOpStats* op_stats) {
  const Operand ops[] = {{&a, false}, {&b, false}};
  return FuseToCount(ops, /*is_or=*/false, op_stats);
}

template <typename WordT>
BasicWahBitVector<WordT> BasicWahBitVector<WordT>::Not() const {
  BasicWahBitVector out;
  for (WordT w : code_words()) {
    if (Traits<WordT>::IsFill(w)) {
      out.EmitFill(!Traits<WordT>::FillBit(w), Traits<WordT>::FillGroups(w));
    } else {
      const WordT lit = ~w & Traits<WordT>::kFullLiteral;
      if (lit == 0) {
        out.EmitFill(false, 1);
      } else if (lit == Traits<WordT>::kFullLiteral) {
        out.EmitFill(true, 1);
      } else {
        out.EmitLiteral(lit);
      }
    }
  }
  out.size_ = size_ - static_cast<uint64_t>(active_bits_);
  if (active_bits_ > 0) {
    const WordT mask = static_cast<WordT>(bitutil::LowBitsMask(active_bits_));
    out.active_word_ = ~active_word_ & mask;
    out.active_bits_ = active_bits_;
    out.size_ += static_cast<uint64_t>(active_bits_);
  }
  return out;
}

template <typename WordT>
std::string BasicWahBitVector<WordT>::DebugString() const {
  std::string out;
  for (WordT w : code_words()) {
    if (Traits<WordT>::IsFill(w)) {
      out += "F";
      out += Traits<WordT>::FillBit(w) ? '1' : '0';
      out += 'x';
      out += std::to_string(Traits<WordT>::FillGroups(w));
      out += ' ';
    } else {
      out += "L:";
      for (int i = 0; i < kGroupBits; ++i) {
        out += ((w >> i) & 1) ? '1' : '0';
      }
      out += " ";
    }
  }
  if (active_bits_ > 0) {
    out += "A:";
    for (int i = 0; i < active_bits_; ++i) {
      out += ((active_word_ >> i) & 1) ? '1' : '0';
    }
  }
  return out;
}

template <typename WordT>
Result<BasicWahBitVector<WordT>> BasicWahBitVector<WordT>::FromBorrowed(
    std::span<const WordT> words, WordT active_word, int active_bits,
    uint64_t size) {
  if (active_bits < 0 || active_bits >= kGroupBits) {
    return Status::IOError("borrowed WAH vector: active_bits out of range");
  }
  if ((active_word &
       ~static_cast<WordT>(bitutil::LowBitsMask(active_bits))) != 0) {
    return Status::IOError("borrowed WAH vector: active word has stray bits");
  }
  if (size < static_cast<uint64_t>(active_bits)) {
    return Status::IOError("borrowed WAH vector: size below active bits");
  }
  BasicWahBitVector out;
  out.borrowed_words_ = words.data();
  out.num_borrowed_ = words.size();
  out.active_word_ = active_word;
  out.active_bits_ = active_bits;
  out.size_ = size;
  return out;
}

template <typename WordT>
Status BasicWahBitVector<WordT>::ValidateStructure() const {
  // Reject the moment the running total exceeds what `size_` allows:
  // adversarial fill counts must not be able to wrap the uint64 sum and
  // sneak a too-long vector past the final equality check. Each fill word
  // contributes well under 2^63 groups, and the bound itself is at most
  // 2^64 / kGroupBits, so `groups` can never overflow before the check.
  const uint64_t max_groups = size_ / kGroupBits + 1;
  uint64_t groups = 0;
  for (WordT w : code_words()) {
    groups += Traits<WordT>::IsFill(w) ? Traits<WordT>::FillGroups(w) : 1;
    if (groups > max_groups) {
      return Status::IOError("WAH vector: decoded group count does not "
                             "match declared size");
    }
  }
  if (groups * kGroupBits + static_cast<uint64_t>(active_bits_) != size_) {
    return Status::IOError("WAH vector: decoded group count does not match "
                           "declared size");
  }
  return Status::OK();
}

template <typename WordT>
void BasicWahBitVector<WordT>::Detach() {
  if (!borrowed()) return;
  words_.assign(borrowed_words_, borrowed_words_ + num_borrowed_);
  borrowed_words_ = nullptr;
  num_borrowed_ = 0;
}

template class BasicWahBitVector<uint32_t>;
template class BasicWahBitVector<uint64_t>;

}  // namespace incdb
