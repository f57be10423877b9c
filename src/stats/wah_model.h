#ifndef INCDB_STATS_WAH_MODEL_H_
#define INCDB_STATS_WAH_MODEL_H_

#include <cstdint>

namespace incdb {

/// Analytic model of WAH(32) compression for an n-bit bitmap whose bits are
/// (approximately) independent with density d.
///
/// With 31-bit groups: a group is an all-zero fill candidate with
/// probability p0 = (1-d)^31, all-ones with p1 = d^31, literal otherwise.
/// Expected code words = literal groups plus one word per maximal run of
/// same-type fill groups:
///
///   E[words] ≈ G * (pl + p0*(1-p0) + p1*(1-p1)),  G = ceil(n/31)
///
/// This is the model behind the index advisor's size estimates;
/// it matches measured sizes within ~20% for independent bits and degrades
/// gracefully (over-estimating) for clustered bitmaps.
double ExpectedWahWords(uint64_t bits, double density);

/// E[words] * 4 bytes, at least 4 for any non-empty bitmap.
double ExpectedWahBytes(uint64_t bits, double density);

}  // namespace incdb

#endif  // INCDB_STATS_WAH_MODEL_H_
