#include "core/index_factory.h"

#include <algorithm>
#include <cctype>

#include "bitmap/bitmap_index.h"
#include "core/scan_index.h"
#include "vafile/va_file.h"

namespace incdb {

namespace {

// Moves a Result<T> of a concrete index into a unique_ptr of the interface.
template <typename T>
Result<std::unique_ptr<IncompleteIndex>> Wrap(Result<T> result) {
  if (!result.ok()) return result.status();
  return std::unique_ptr<IncompleteIndex>(
      std::make_unique<T>(std::move(result).value()));
}

}  // namespace

std::string_view IndexKindToString(IndexKind kind) {
  switch (kind) {
    case IndexKind::kSequentialScan:
      return "SeqScan";
    case IndexKind::kBitmapEquality:
      return "BEE-WAH";
    case IndexKind::kBitmapRange:
      return "BRE-WAH";
    case IndexKind::kBitmapInterval:
      return "BIE-WAH";
    case IndexKind::kBitmapBitSliced:
      return "BSL-WAH";
    case IndexKind::kVaFile:
      return "VA-File";
    case IndexKind::kVaPlusFile:
      return "VA+-File";
    case IndexKind::kBitmapMultiComponent:
      return "MC-WAH";
    case IndexKind::kBitmapHierarchical:
      return "HIER-WAH";
  }
  return "unknown";
}

Result<IndexKind> IndexKindFromString(std::string_view name) {
  std::string lower(name);
  std::transform(lower.begin(), lower.end(), lower.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  static constexpr struct {
    std::string_view alias;
    IndexKind kind;
  } kAliases[] = {
      {"seqscan", IndexKind::kSequentialScan},
      {"scan", IndexKind::kSequentialScan},
      {"bee-wah", IndexKind::kBitmapEquality},
      {"bee", IndexKind::kBitmapEquality},
      {"bre-wah", IndexKind::kBitmapRange},
      {"bre", IndexKind::kBitmapRange},
      {"bie-wah", IndexKind::kBitmapInterval},
      {"bie", IndexKind::kBitmapInterval},
      {"bsl-wah", IndexKind::kBitmapBitSliced},
      {"bsl", IndexKind::kBitmapBitSliced},
      {"va-file", IndexKind::kVaFile},
      {"va", IndexKind::kVaFile},
      {"va+-file", IndexKind::kVaPlusFile},
      {"va+", IndexKind::kVaPlusFile},
      {"mc-wah", IndexKind::kBitmapMultiComponent},
      {"mc", IndexKind::kBitmapMultiComponent},
      {"hier-wah", IndexKind::kBitmapHierarchical},
      {"hier", IndexKind::kBitmapHierarchical},
  };
  for (const auto& entry : kAliases) {
    if (lower == entry.alias) return entry.kind;
  }
  std::string valid;
  IndexKind last_named = IndexKind::kSequentialScan;
  for (const auto& entry : kAliases) {
    if (entry.kind == last_named && !valid.empty()) continue;
    if (!valid.empty()) valid += ", ";
    valid += entry.alias;
    last_named = entry.kind;
  }
  return Status::InvalidArgument("unknown index kind '" + std::string(name) +
                                 "'; valid kinds: " + valid);
}

Result<std::unique_ptr<IncompleteIndex>> CreateIndex(IndexKind kind,
                                                     const Table& table) {
  switch (kind) {
    case IndexKind::kSequentialScan:
      return std::unique_ptr<IncompleteIndex>(
          std::make_unique<ScanIndex>(table));
    case IndexKind::kBitmapEquality:
      return Wrap(BitmapIndex::Build(
          table, {BitmapEncoding::kEquality, MissingStrategy::kExtraBitmap}));
    case IndexKind::kBitmapRange:
      return Wrap(BitmapIndex::Build(
          table, {BitmapEncoding::kRange, MissingStrategy::kExtraBitmap}));
    case IndexKind::kBitmapInterval:
      return Wrap(BitmapIndex::Build(
          table, {BitmapEncoding::kInterval, MissingStrategy::kExtraBitmap}));
    case IndexKind::kBitmapBitSliced:
      return Wrap(BitmapIndex::Build(
          table,
          {BitmapEncoding::kBitSliced, MissingStrategy::kExtraBitmap}));
    case IndexKind::kVaFile:
      return Wrap(VaFile::Build(table, {VaQuantization::kUniform, 0}));
    case IndexKind::kVaPlusFile:
      return Wrap(VaFile::Build(table, {VaQuantization::kEquiDepth, 0}));
    case IndexKind::kBitmapMultiComponent:
      return Wrap(BitmapIndex::Build(
          table, {BitmapEncoding::kEquality, MissingStrategy::kExtraBitmap,
                  SlotScheme::kMultiComponent}));
    case IndexKind::kBitmapHierarchical:
      return Wrap(BitmapIndex::Build(
          table, {BitmapEncoding::kEquality, MissingStrategy::kExtraBitmap,
                  SlotScheme::kHierarchical}));
  }
  return Status::InvalidArgument("unknown index kind");
}

}  // namespace incdb
