#include "core/index_factory.h"

#include <algorithm>
#include <cctype>

#include "core/scan_index.h"

namespace incdb {

namespace {

constexpr BitmapIndex::Options Direct(BitmapEncoding encoding) {
  return {encoding, MissingStrategy::kExtraBitmap, SlotScheme::kDirect};
}

constexpr BitmapIndex::Options Composite(SlotScheme scheme) {
  return {BitmapEncoding::kEquality, MissingStrategy::kExtraBitmap, scheme};
}

constexpr IndexKindInfo kKinds[] = {
    {IndexKind::kSequentialScan, "SeqScan", "scan", std::nullopt,
     std::nullopt},
    {IndexKind::kBitmapEquality, "BEE-WAH", "bee",
     Direct(BitmapEncoding::kEquality), std::nullopt},
    {IndexKind::kBitmapRange, "BRE-WAH", "bre", Direct(BitmapEncoding::kRange),
     std::nullopt},
    {IndexKind::kBitmapInterval, "BIE-WAH", "bie",
     Direct(BitmapEncoding::kInterval), std::nullopt},
    {IndexKind::kBitmapBitSliced, "BSL-WAH", "bsl",
     Direct(BitmapEncoding::kBitSliced), std::nullopt},
    {IndexKind::kVaFile, "VA-File", "va", std::nullopt,
     VaQuantization::kUniform},
    {IndexKind::kVaPlusFile, "VA+-File", "va+", std::nullopt,
     VaQuantization::kEquiDepth},
    {IndexKind::kBitmapMultiComponent, "MC-WAH", "mc",
     Composite(SlotScheme::kMultiComponent), std::nullopt},
    {IndexKind::kBitmapHierarchical, "HIER-WAH", "hier",
     Composite(SlotScheme::kHierarchical), std::nullopt},
};

std::string Lowercase(std::string_view text) {
  std::string lower(text);
  std::transform(lower.begin(), lower.end(), lower.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return lower;
}

// Moves a Result<T> of a concrete index into a unique_ptr of the interface.
template <typename T>
Result<std::unique_ptr<IncompleteIndex>> Wrap(Result<T> result) {
  if (!result.ok()) return result.status();
  return std::unique_ptr<IncompleteIndex>(
      std::make_unique<T>(std::move(result).value()));
}

}  // namespace

std::span<const IndexKindInfo> IndexKinds() { return kKinds; }

const IndexKindInfo* FindIndexKind(IndexKind kind) {
  for (const IndexKindInfo& info : kKinds) {
    if (info.kind == kind) return &info;
  }
  return nullptr;
}

std::string_view IndexKindToString(IndexKind kind) {
  const IndexKindInfo* info = FindIndexKind(kind);
  return info != nullptr ? info->name : "unknown";
}

Result<IndexKind> IndexKindFromString(std::string_view name) {
  const std::string lower = Lowercase(name);
  std::string valid;
  for (const IndexKindInfo& info : kKinds) {
    const std::string full = Lowercase(info.name);
    if (lower == full || lower == info.alias) return info.kind;
    if (!valid.empty()) valid += ", ";
    valid += full;
  }
  return Status::InvalidArgument("unknown index kind '" + std::string(name) +
                                 "'; valid kinds: " + valid);
}

Result<std::unique_ptr<IncompleteIndex>> CreateIndex(IndexKind kind,
                                                     const Table& table) {
  const IndexKindInfo* info = FindIndexKind(kind);
  if (info == nullptr) return Status::InvalidArgument("unknown index kind");
  if (info->bitmap.has_value()) {
    return Wrap(BitmapIndex::Build(table, *info->bitmap));
  }
  if (info->va.has_value()) {
    return Wrap(VaFile::Build(table, {*info->va, 0}));
  }
  return std::unique_ptr<IncompleteIndex>(std::make_unique<ScanIndex>(table));
}

}  // namespace incdb
