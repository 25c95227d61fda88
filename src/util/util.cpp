// pab_util is header-only apart from util/rng.cpp; this translation unit
// holds compile-time checks on the header set.
#include "util/bitops.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/units.hpp"

namespace pab {

static_assert(kPi > 3.14 && kPi < 3.15);
static_assert(to_string(ErrorCode::kOk) != nullptr);

}  // namespace pab
