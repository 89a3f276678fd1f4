#include "kernels/star_operand.hpp"

#include <algorithm>

namespace tsg {

namespace {

constexpr int kQ = kNumQuantities;

/// inPattern[p * 9 + j]: slot (p, j) of starT may be nonzero.
struct PatternMask {
  bool inPattern[kQ * kQ] = {};
  constexpr PatternMask() {
    for (const StarSlot& s : kStarPattern) {
      inPattern[s.p * kQ + s.j] = true;
    }
  }
};
constexpr PatternMask kMask;

}  // namespace

void packStarLane(const real* starT, real* group, int lane) {
  for (int c = 0; c < 3; ++c) {
    const real* m = starT + c * kQ * kQ;
    for (int i = 0; i < kQ * kQ; ++i) {
      if (!kMask.inPattern[i] && m[i] != 0) {
        throw StarPatternError(
            "star matrix " + std::to_string(c) + " has a nonzero at (" +
            std::to_string(i / kQ) + ", " + std::to_string(i % kQ) +
            ") outside the structural pattern");
      }
    }
  }
  for (int c = 0; c < 3; ++c) {
    for (int k = 0; k < kStarNonzeros; ++k) {
      const StarSlot& s = kStarPattern[k];
      group[(c * kStarNonzeros + k) * kStarGroupLanes + lane] =
          starT[c * kQ * kQ + s.p * kQ + s.j];
    }
  }
}

void expandStarLane(const real* group, int lane, real* starT) {
  std::fill(starT, starT + 3 * kQ * kQ, 0.0);
  for (int c = 0; c < 3; ++c) {
    for (int k = 0; k < kStarNonzeros; ++k) {
      const StarSlot& s = kStarPattern[k];
      starT[c * kQ * kQ + s.p * kQ + s.j] =
          group[(c * kStarNonzeros + k) * kStarGroupLanes + lane];
    }
  }
}

}  // namespace tsg
