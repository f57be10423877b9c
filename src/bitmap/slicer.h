#ifndef INCDB_BITMAP_SLICER_H_
#define INCDB_BITMAP_SLICER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "table/value.h"

namespace incdb {

/// How an attribute's value domain is mapped onto bitmap slots — the
/// *binning* axis of the bitmap layer's binning x encoding architecture
/// (docs/ENCODINGS.md). A slicer turns each value into one slot id per
/// axis; an encoder (bitmap/encoder.h) then turns each axis's slot stream
/// into WAH bitvectors. Any slicer composes with any encoder.
///
/// The slicer layer deliberately knows nothing about WAH compression or
/// encodings: it is pure value-domain geometry over the table's Value type
/// (enforced by the `slicer-isolation` lint rule — slicers depend only on
/// common/ and table/).
enum class SlotScheme {
  /// One axis with one slot per value (slot = v - 1). The binning behind
  /// the paper's BEE/BRE/BIE/BSL indexes: O(C) slots.
  kDirect,
  /// Chan-Ioannidis mixed-radix decomposition: k components whose radices
  /// multiply to >= C, each its own axis (axis 0 = least significant
  /// digit). O(sum of radices) ~ O(k * C^(1/k)) slots instead of O(C); a
  /// point predicate constrains one slot per component.
  kMultiComponent,
  /// Multi-level hierarchy with fanout 2: axis l bins 2^l consecutive
  /// values together (axis 0 = the values themselves, top axis = one root
  /// bin). O(2C) slots, but a wide range is covered by O(log C) aligned
  /// bins instead of O(C) values.
  kHierarchical,
};

std::string_view SlotSchemeToString(SlotScheme scheme);

/// Maps one attribute's values to per-axis slot ids. Deterministic per
/// (scheme, cardinality): rebuilding a slicer from those two numbers always
/// yields the same geometry, so the storage layer persists only the scheme
/// byte and validates the per-axis shapes on open.
class Slicer {
 public:
  struct Axis {
    /// Slots on this axis (the axis's "cardinality" for the encoder).
    uint32_t num_slots = 0;
    /// Value-domain granularity: multi-component — product of the radices
    /// of the lower axes; hierarchical — values per bin (2^level); direct
    /// — 1. SlotOf is ((v - 1) / divisor) % num_slots for every scheme.
    uint64_t divisor = 1;
  };

  /// Derives the axis geometry for an attribute domain of `cardinality`
  /// values (1-based, as everywhere in incdb). Fails on cardinality 0.
  static Result<Slicer> Create(SlotScheme scheme, uint32_t cardinality);

  SlotScheme scheme() const { return scheme_; }
  uint32_t cardinality() const { return cardinality_; }
  size_t num_axes() const { return axes_.size(); }
  const std::vector<Axis>& axes() const { return axes_; }
  uint32_t num_slots(size_t axis) const { return axes_[axis].num_slots; }

  /// Slot id of value `v` (in [1, cardinality]) on `axis`. Missing values
  /// have no slot on any axis — callers route them to the attribute's
  /// missing bitvector instead.
  uint32_t SlotOf(Value v, size_t axis) const {
    const Axis& ax = axes_[axis];
    return static_cast<uint32_t>(
        (static_cast<uint64_t>(v - 1) / ax.divisor) % ax.num_slots);
  }

  /// Total slots across all axes — the bitmap count an equality encoder
  /// would store for this slicer (the space side of the space/probe
  /// trade-off table in docs/ENCODINGS.md).
  uint64_t TotalSlots() const;

 private:
  Slicer(SlotScheme scheme, uint32_t cardinality, std::vector<Axis> axes)
      : scheme_(scheme), cardinality_(cardinality), axes_(std::move(axes)) {}

  SlotScheme scheme_ = SlotScheme::kDirect;
  uint32_t cardinality_ = 0;
  std::vector<Axis> axes_;
};

/// The hierarchical scheme's range cover (Krčál et al. 2021): calls
/// bin(level, slot) for each bin of the segment-tree cover of the 0-based
/// value range [lo, hi], lowest level first — peel an unaligned edge bin per
/// side, ascend one level, repeat. At most two bins per level; bin b at
/// level l+1 is exactly the union of level-l bins 2b and 2b+1, so the bins'
/// union is exactly [lo, hi]. The evaluator probes these bins and the cost
/// model counts them, so both walk this one loop.
template <typename Bin>
void ForEachCoverBin(uint64_t lo, uint64_t hi, Bin&& bin) {
  for (size_t level = 0; lo <= hi; ++level, lo >>= 1, hi >>= 1) {
    if (lo == hi) {
      bin(level, lo);
      return;
    }
    if ((lo & 1) != 0) bin(level, lo++);
    if ((hi & 1) == 0) bin(level, hi--);
  }
}

}  // namespace incdb

#endif  // INCDB_BITMAP_SLICER_H_
