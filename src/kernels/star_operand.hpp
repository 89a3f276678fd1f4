#pragma once

// The star matrices in the form the tile kernels read them: compressed to
// their structural nonzeros and interleaved across groups of lanes.
//
// Every star matrix A* = sum_d (grad xi_c)_d A_d couples stresses only to
// velocities and velocities only to stresses, and no more than the
// elastic Jacobians do.  In the transposed star matrix starT[c] (row p =
// input quantity, column j = output quantity) rows 0-5 feed only columns
// 6-8 and rows 6-8 feed only columns 0-5, and of those 36 slots 24 can be
// nonzero at all: kStarPattern below, ordered by output column, then
// input row ascending.  An acoustic element (mu = 0) has exact zeros
// inside the pattern as well; they are stored like any other value.
//
// Storage of one group of kStarGroupLanes lanes (elements):
//
//     group[(c * kStarNonzeros + k) * kStarGroupLanes + lane],
//
// value k of the pattern of direction c.  The predictor and volume
// kernels load one slot for all lanes of a group as one vector and skip
// the other 57 products of every 9 x 9 star product.  Skipping an exact
// zero product leaves the bits of the dense sum unchanged: every output
// sums "+0, then a[p] * b[p] for p ascending", and a partial sum that
// starts at +0 is never -0 without FTZ, so adding a (finite) a * 0 = +-0
// to it is a no-op.  (Under FTZ a partial sum can flush to -0; the
// skipped zero would then only change the sign of a zero result, and only
// where the destination is -0 as well.)

#include <stdexcept>
#include <string>

#include "common/types.hpp"

namespace tsg {

/// Lanes of one interleaved star group.  Assets pad every cluster to
/// whole groups, so this is fixed whatever the batch size or vector ISA.
inline constexpr int kStarGroupLanes = 8;
/// Structural nonzeros of one 9 x 9 star matrix.
inline constexpr int kStarNonzeros = 24;
/// Reals of one group: 3 directions x 24 slots x 8 lanes.
inline constexpr int kStarGroupSize = 3 * kStarNonzeros * kStarGroupLanes;

struct StarSlot {
  int p;  // input quantity: row of starT
  int j;  // output quantity: column of starT
};

/// The structural nonzeros of starT, by column j, then row p ascending.
inline constexpr StarSlot kStarPattern[kStarNonzeros] = {
    {6, 0}, {7, 0}, {8, 0},  // sigma_xx <- v
    {6, 1}, {7, 1}, {8, 1},  // sigma_yy <- v
    {6, 2}, {7, 2}, {8, 2},  // sigma_zz <- v
    {6, 3}, {7, 3},          // sigma_xy <- v_x, v_y
    {7, 4}, {8, 4},          // sigma_yz <- v_y, v_z
    {6, 5}, {8, 5},          // sigma_xz <- v_x, v_z
    {0, 6}, {3, 6}, {5, 6},  // v_x <- sigma_xx, sigma_xy, sigma_xz
    {1, 7}, {3, 7}, {4, 7},  // v_y <- sigma_yy, sigma_xy, sigma_yz
    {2, 8}, {4, 8}, {5, 8},  // v_z <- sigma_zz, sigma_yz, sigma_xz
};

/// First slot of output column j: column j owns slots
/// [kStarColumnBegin[j], kStarColumnBegin[j + 1]).
inline constexpr int kStarColumnBegin[kNumQuantities + 1] = {
    0, 3, 6, 9, 11, 13, 15, 18, 21, 24};

/// A star matrix with a nonzero outside kStarPattern: the compressed
/// storage cannot hold it.
class StarPatternError : public std::runtime_error {
 public:
  explicit StarPatternError(const std::string& what)
      : std::runtime_error(what) {}
};

/// Pack the 3 transposed star matrices of one element (starT[c*81 + p*9 +
/// j]) into lane `lane` of `group`.  Throws StarPatternError, writing
/// nothing, if a value outside the pattern is nonzero.
void packStarLane(const real* starT, real* group, int lane);

/// Inverse of packStarLane: the 3 x 81 transposed star matrices of lane
/// `lane`, with +0 outside the pattern.
void expandStarLane(const real* group, int lane, real* starT);

}  // namespace tsg
