// Tail shapes of the tile-stage kernels on every ISA table the host can
// execute.  The vector tables block the j (column) loop in vectors of 2,
// 4 or 8 reals and 1-4 rows, so every shape that leaves a remainder -- in
// rows, in vectors, in trailing columns -- must still give the bits of
// detail::gemmAccImpl, and no store may leave its columns:
//  * gemmAccStrided (the accumulate mode) over m x n x k tails with
//    leading dimensions wider than the operands,
//  * the overwrite mode over row counts and tile widths, through the
//    lane-tile predictor on synthetic operators,
//  * the per-lane flux stages (the local stage's overwrite, the neighbour
//    stage's overwrite of its scratch and its accumulate) over row counts
//    and lane widths with null lanes in between,
//  * the lane-tile predictor and volume stages over degrees 1-3 and lane
//    spans that leave partial star groups or start inside one,
//  * the same stages with subnormals flushed (FTZ|DAZ, the fast
//    backend's mode).
// The lane-tile stages read the compressed star operand
// (kernels/star_operand.hpp); their oracle runs gemmAccImpl per lane on
// the dense 9 x 9 matrices expandStarLane gives back, so it takes all 81
// products where the kernels skip the structural zeros.  The predictor
// and flux stages subtract their products (subtract mode); their oracle
// is gemmAccImpl on an explicitly negated copy of the operand, the
// reference path's form.  Inputs mix +-0 and subnormals with normal
// values (in the 24 star slots as well); every buffer carries a sentinel
// past column n, in padding and in skipped lanes, and the comparisons
// cover the whole buffer, sentinels included.

#include <cstdint>
#include <cstring>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "common/flops.hpp"
#include "common/matrix.hpp"
#include "kernels/backends/fast_backend.hpp"
#include "kernels/backends/isa_dispatch.hpp"
#include "kernels/reference_matrices.hpp"
#include "kernels/star_operand.hpp"

namespace tsg {
namespace {

constexpr int kQ = kNumQuantities;

/// A finite value (about -5e33) far outside the operands' range.  A
/// stray accumulate into it changes its bits; a quiet NaN would not, as
/// NaN + x keeps the NaN's payload.
real sentinel() {
  const std::uint64_t bits = 0xc6f0'dead'beef'0001ull;
  real v;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

/// Values in [-1, 1] with about 1 in 8 of them +-0 and 1 in 8 subnormal.
std::vector<real> operand(std::size_t n, std::mt19937& rng) {
  std::uniform_real_distribution<real> uni(-1, 1);
  std::uniform_int_distribution<int> kind(0, 7);
  std::vector<real> v(n);
  for (real& x : v) {
    switch (kind(rng)) {
      case 0:
        x = (uni(rng) < 0) ? -0.0 : 0.0;
        break;
      case 1:
        x = uni(rng) * 4e-310;  // subnormal
        break;
      default:
        x = uni(rng);
    }
  }
  return v;
}

/// The operand with every sign flipped (the reference path's negated
/// operand; unary minus is exact, subnormals and zeros included).
std::vector<real> negated(std::vector<real> v) {
  for (real& x : v) {
    x = -x;
  }
  return v;
}

/// Runs `f`, with subnormals flushed (FTZ|DAZ) when `flush` is set.
template <class F>
void runFlushed(bool flush, F f) {
  if (flush) {
    FlushSubnormalsScope ftz;
    f();
  } else {
    f();
  }
}

/// An m x n block with leading dimension ld: operand values in the block,
/// the sentinel in the padding columns and in `extra` trailing reals.
std::vector<real> block(int m, int n, int ld, std::mt19937& rng,
                        std::size_t extra = 8) {
  std::vector<real> v(static_cast<std::size_t>(m) * ld + extra, sentinel());
  const std::vector<real> vals = operand(static_cast<std::size_t>(m) * n, rng);
  for (int i = 0; i < m; ++i) {
    std::memcpy(&v[static_cast<std::size_t>(i) * ld], &vals[i * n],
                n * sizeof(real));
  }
  return v;
}

/// The columns [col, col + n) of m rows set to +0 (a zero-filled
/// destination: the reference's start of an accumulation chain).
void zeroColumns(std::vector<real>& v, int m, int col, int n, int ld) {
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      v[static_cast<std::size_t>(i) * ld + col + j] = 0.0;
    }
  }
}

void expectSameBits(const std::vector<real>& expected,
                    const std::vector<real>& actual, const char* what) {
  ASSERT_EQ(expected.size(), actual.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    if (std::memcmp(&expected[i], &actual[i], sizeof(real)) != 0) {
      ADD_FAILURE() << what << ": first differing real at index " << i
                    << " (expected " << expected[i] << ", got " << actual[i]
                    << ")";
      return;
    }
  }
}

std::vector<const StageKernels*> executableTables() {
  std::vector<const StageKernels*> tables;
  for (const FastIsa isa : {FastIsa::kScalar, FastIsa::kSse2, FastIsa::kAvx2,
                            FastIsa::kAvx512}) {
    if (fastIsaSupported(isa)) {
      tables.push_back(&fastStageKernels(isa));
    }
  }
  return tables;
}

/// Lanes [first, first + live) of a lane-minor tile of `groups` star
/// groups; the other lanes belong to no element of the batch.
struct LaneSpan {
  int first, live, groups;
};

/// Spans with whole, partial and several groups, and batches that start
/// inside a group (as batch sizes that are not multiples of 8 give).
constexpr LaneSpan kLaneSpans[] = {{0, 1, 1}, {0, 5, 1}, {0, 8, 1},
                                   {3, 5, 1}, {7, 1, 1}, {3, 7, 2},
                                   {0, 16, 2}, {6, 11, 3}};

constexpr std::size_t kTileExtra = 8;  // sentinel reals past a tile

/// A lane-minor tile of nbq rows: lane first + i of row r holds
/// blocks[i*nbq + r], the other lanes +0 (the backend's gather), the
/// `kTileExtra` trailing reals the sentinel.
std::vector<real> laneTile(const std::vector<real>& blocks, int nbq,
                           const LaneSpan& s) {
  const int lanes = kStarGroupLanes * s.groups;
  std::vector<real> t(static_cast<std::size_t>(nbq) * lanes + kTileExtra,
                      sentinel());
  std::fill(t.begin(), t.end() - kTileExtra, 0.0);
  for (int i = 0; i < s.live; ++i) {
    for (int r = 0; r < nbq; ++r) {
      t[static_cast<std::size_t>(r) * lanes + s.first + i] =
          blocks[static_cast<std::size_t>(i) * nbq + r];
    }
  }
  return t;
}

/// The dense 3 x 81 transposed star matrices of tile lane `lane`.
std::vector<real> expandedStar(const std::vector<real>& star, int lane) {
  std::vector<real> m(3 * 81);
  expandStarLane(star.data() + static_cast<std::size_t>(lane /
                                                        kStarGroupLanes) *
                                   kStarGroupSize,
                 lane % kStarGroupLanes, m.data());
  return m;
}

/// Runs kt.lanePredictor on a lane tile whose level 0 holds random DOFs in
/// the span's lanes (+0 elsewhere), levels 1..degree and the scratch tile
/// starting as the sentinel, and compares stack and scratch -- every lane
/// and the trailing sentinels -- with the reference order per lane on
/// zero-filled destinations: nb x 9 x nb derivative products, then the
/// dense star products with the negated operand.  Lanes outside the span
/// must come out +0.  Every star group lane holds operand values, the
/// other lanes as well (another batch's elements).  With `flush` both
/// sides run with subnormals flushed (FTZ|DAZ).
void checkLanePredictor(const StageKernels& kt, const ReferenceMatrices& rm,
                        const LaneSpan& span, std::mt19937& rng,
                        bool flush = false) {
  const int nb = rm.nb, degree = rm.degree, nbq = nb * kQ;
  const int lanes = kStarGroupLanes * span.groups;
  const std::size_t tileSize = static_cast<std::size_t>(nbq) * lanes;
  const std::vector<real> star =
      operand(static_cast<std::size_t>(span.groups) * kStarGroupSize, rng);
  const std::vector<real> dofs =
      operand(static_cast<std::size_t>(span.live) * nbq, rng);

  // Per lane: expected stack levels and final scratch.
  std::vector<std::vector<real>> expStack(span.live), expScratch(span.live);
  std::vector<real> actStack((degree + 1) * tileSize + kTileExtra, sentinel());
  const std::vector<real> level0 = laneTile(dofs, nbq, span);
  std::copy(level0.begin(), level0.end() - kTileExtra, actStack.begin());
  std::vector<real> actScratch(tileSize + kTileExtra, sentinel());
  std::uint64_t flops = 0;
  runFlushed(flush, [&] {
    for (int i = 0; i < span.live; ++i) {
      const std::vector<real> negStar =
          negated(expandedStar(star, span.first + i));
      std::vector<real>& st = expStack[i];
      st.assign((degree + 1) * nbq, 0.0);
      std::copy(dofs.begin() + i * nbq, dofs.begin() + (i + 1) * nbq,
                st.begin());
      for (int k = 0; k < degree; ++k) {
        const real* cur = st.data() + k * nbq;
        real* next = st.data() + (k + 1) * nbq;
        for (int c = 0; c < 3; ++c) {
          expScratch[i].assign(nbq, 0.0);
          detail::gemmAccImpl(nb, kQ, nb, rm.dXi[c].data(), nb, cur, kQ,
                              expScratch[i].data(), kQ);
          detail::gemmAccImpl(nb, kQ, kQ, expScratch[i].data(), kQ,
                              negStar.data() + c * 81, kQ, next, kQ);
        }
      }
    }
    const std::uint64_t f0 = threadFlops();
    kt.lanePredictor(rm, star.data(), actStack.data(), actScratch.data(),
                     span.groups, span.live);
    flops = threadFlops() - f0;
  });

  std::vector<real> expStackTile((degree + 1) * tileSize + kTileExtra,
                                 sentinel());
  for (int k = 0; k <= degree; ++k) {
    std::vector<real> level(static_cast<std::size_t>(span.live) * nbq);
    for (int i = 0; i < span.live; ++i) {
      std::copy(expStack[i].begin() + k * nbq,
                expStack[i].begin() + (k + 1) * nbq, level.begin() + i * nbq);
    }
    const std::vector<real> t = laneTile(level, nbq, span);
    std::copy(t.begin(), t.end() - kTileExtra,
              expStackTile.begin() + k * tileSize);
  }
  std::vector<real> lastScratch(static_cast<std::size_t>(span.live) * nbq);
  for (int i = 0; i < span.live; ++i) {
    std::copy(expScratch[i].begin(), expScratch[i].end(),
              lastScratch.begin() + i * nbq);
  }
  expectSameBits(expStackTile, actStack, "predictor stack");
  expectSameBits(laneTile(lastScratch, nbq, span), actScratch,
                 "predictor scratch");
  // The dense FLOPs of the live lanes only.
  EXPECT_EQ(flops, static_cast<std::uint64_t>(degree) * 3 *
                       (2ull * nb * kQ * nb + 2ull * nb * 81) * span.live);
}

/// Runs kt.laneVolume on random time integrals and DOFs in the span's
/// lanes (+0 elsewhere) and compares DOFs and scratch with the reference
/// order per lane: scratch = 0 + tInt * starT[c] (dense), then
/// dofs += kXi[c] * scratch.
void checkLaneVolume(const StageKernels& kt, const ReferenceMatrices& rm,
                     const LaneSpan& span, std::mt19937& rng,
                     bool flush = false) {
  const int nb = rm.nb, nbq = nb * kQ;
  const std::size_t tileSize =
      static_cast<std::size_t>(nbq) * kStarGroupLanes * span.groups;
  const std::vector<real> star =
      operand(static_cast<std::size_t>(span.groups) * kStarGroupSize, rng);
  const std::vector<real> tInt =
      operand(static_cast<std::size_t>(span.live) * nbq, rng);
  std::vector<real> dofs =
      operand(static_cast<std::size_t>(span.live) * nbq, rng);
  const std::vector<real> tIntTile = laneTile(tInt, nbq, span);
  std::vector<real> actDofs = laneTile(dofs, nbq, span);
  std::vector<real> actScratch(tileSize + kTileExtra, sentinel());
  std::vector<real> scratch(static_cast<std::size_t>(span.live) * nbq);
  std::uint64_t flops = 0;
  runFlushed(flush, [&] {
    for (int i = 0; i < span.live; ++i) {
      const std::vector<real> starT = expandedStar(star, span.first + i);
      real* sc = scratch.data() + i * nbq;
      for (int c = 0; c < 3; ++c) {
        std::fill(sc, sc + nbq, 0.0);
        detail::gemmAccImpl(nb, kQ, kQ, tInt.data() + i * nbq, kQ,
                            starT.data() + c * 81, kQ, sc, kQ);
        detail::gemmAccImpl(nb, kQ, nb, rm.kXi[c].data(), nb, sc, kQ,
                            dofs.data() + i * nbq, kQ);
      }
    }
    const std::uint64_t f0 = threadFlops();
    kt.laneVolume(rm, star.data(), tIntTile.data(), actDofs.data(),
                  actScratch.data(), span.groups, span.live);
    flops = threadFlops() - f0;
  });
  expectSameBits(laneTile(dofs, nbq, span), actDofs, "volume DOFs");
  expectSameBits(laneTile(scratch, nbq, span), actScratch, "volume scratch");
  EXPECT_EQ(flops, 3ull * (2ull * nb * 81 + 2ull * nb * kQ * nb) * span.live);
}

TEST(StageKernels, GemmAccStridedTailShapesMatchReferenceBitwise) {
  std::mt19937 rng(5);
  for (const StageKernels* kt : executableTables()) {
    for (const int m : {1, 2, 3, 5, 10}) {
      for (const int n : {1, 3, 4, 5, 7, 8, 9, 12, 17, 144}) {
        for (const int k : {1, 9, 10, 11}) {
          const int lda = k + 3, ldb = n + 5, ldc = n + 7;
          const std::vector<real> a = block(m, k, lda, rng);
          const std::vector<real> b = block(k, n, ldb, rng);
          std::vector<real> expected = block(m, n, ldc, rng);
          std::vector<real> actual = expected;
          detail::gemmAccImpl(m, n, k, a.data(), lda, b.data(), ldb,
                              expected.data(), ldc);
          kt->gemmAccStrided(m, n, k, a.data(), lda, b.data(), ldb,
                             actual.data(), ldc);
          SCOPED_TRACE(testing::Message() << kt->isa << " m " << m << " n "
                                          << n << " k " << k);
          expectSameBits(expected, actual, "C");
        }
      }
    }
  }
}

// Overwrite mode (the `0 + sum` store that starts an accumulation chain)
// on the same tails, through the lane-tile predictor on a synthetic
// operator set: m = k = nb over {1, 2, 3, 5, 10, 11} rows and n = 72 *
// groups over 1-3 groups, so the wide GEMM leaves a remainder of one
// vector modulo the 2-vector block of every ISA (72, 216) or none (144),
// and both the first star product (overwrite) and its successors
// (accumulate) run at each row count.
TEST(StageKernels, OverwriteModeTailShapesMatchReferenceBitwise) {
  std::mt19937 rng(8);
  for (const StageKernels* kt : executableTables()) {
    for (const int nb : {1, 2, 3, 5, 10, 11}) {
      ReferenceMatrices rm;
      rm.degree = 1;
      rm.nb = nb;
      for (Matrix& d : rm.dXi) {
        d = Matrix(nb, nb);
        const std::vector<real> vals = operand(nb * nb, rng);
        std::copy(vals.begin(), vals.end(), d.data());
      }
      for (const LaneSpan& span : kLaneSpans) {
        SCOPED_TRACE(testing::Message()
                     << kt->isa << " nb " << nb << " lanes [" << span.first
                     << ", +" << span.live << ") of " << span.groups
                     << " groups");
        checkLanePredictor(*kt, rm, span, rng);
      }
    }
  }
}

/// Per-lane products (n = 9): the local flux overwrites its lanes with
/// the negated product, the neighbour flux overwrites its scratch with the
/// negated product and accumulates into the DOF tile.  Null lanes must
/// stay untouched, as must the tile padding.  With `flush` both sides run
/// with subnormals flushed (FTZ|DAZ).
void checkPerLaneFlux(const StageKernels& kt, int nb, int width,
                      std::mt19937& rng, bool flush = false) {
  const int ld = kQ * width + 5;
  const std::vector<real> tInt = block(nb, kQ * width, ld, rng);
  const std::vector<real> flux = operand(width * 81, rng);
  const std::vector<real> negFlux = negated(flux);
  const std::vector<real> fluxNeighbor = operand(nb * nb, rng);
  const std::vector<real> src = operand(width * nb * kQ, rng);
  std::vector<const real*> fluxT(width, nullptr);
  std::vector<NeighborFluxLane> lanes(width);
  for (int lane = 0; lane < width; ++lane) {
    if (lane % 3 == 1) {
      continue;  // a skipped lane between two live ones
    }
    fluxT[lane] = flux.data() + lane * 81;
    lanes[lane] = {src.data() + lane * nb * kQ, fluxT[lane],
                   fluxNeighbor.data()};
  }
  // The local stage overwrites the columns of its live lanes: the
  // destination starts as the sentinel, which skipped lanes and the
  // padding must keep.
  std::vector<real> expected(static_cast<std::size_t>(nb) * ld + 8,
                             sentinel());
  std::vector<real> actual = expected;
  runFlushed(flush, [&] {
    for (int lane = 0; lane < width; ++lane) {
      if (fluxT[lane]) {
        zeroColumns(expected, nb, lane * kQ, kQ, ld);
        detail::gemmAccImpl(nb, kQ, kQ, tInt.data() + lane * kQ, ld,
                            negFlux.data() + lane * 81, kQ,
                            expected.data() + lane * kQ, ld);
      }
    }
    kt.localFluxStage(nb, width, ld, tInt.data(), fluxT.data(),
                      actual.data());
  });
  expectSameBits(expected, actual, "local flux tile");

  expected = block(nb, kQ * width, ld, rng);
  actual = expected;
  std::vector<real> expectedScratch = block(nb, kQ, kQ, rng);
  std::vector<real> actualScratch = expectedScratch;

  runFlushed(flush, [&] {
    for (int lane = 0; lane < width; ++lane) {
      const NeighborFluxLane& ln = lanes[lane];
      if (!ln.src) {
        continue;
      }
      zeroColumns(expectedScratch, nb, 0, kQ, kQ);
      detail::gemmAccImpl(nb, kQ, kQ, ln.src, kQ, negFlux.data() + lane * 81,
                          kQ, expectedScratch.data(), kQ);
      detail::gemmAccImpl(nb, kQ, nb, ln.fluxNeighbor, nb,
                          expectedScratch.data(), kQ,
                          expected.data() + lane * kQ, ld);
    }
    kt.neighborFluxStage(nb, width, ld, lanes.data(), actualScratch.data(),
                         actual.data());
  });
  expectSameBits(expected, actual, "neighbour flux tile");
  expectSameBits(expectedScratch, actualScratch, "neighbour flux scratch");
}

TEST(StageKernels, PerLaneFluxStagesMatchReferenceBitwise) {
  std::mt19937 rng(6);
  for (const StageKernels* kt : executableTables()) {
    for (const int nb : {1, 2, 3, 5, 10}) {
      for (const int width : {1, 3, 5, 16}) {
        SCOPED_TRACE(testing::Message() << kt->isa << " nb " << nb
                                        << " width " << width);
        checkPerLaneFlux(*kt, nb, width, rng);
      }
    }
  }
}

// The lane-tile predictor (wide derivative GEMMs, then sparse star
// products: overwrite, then accumulate) and volume stage (sparse star
// products overwriting the scratch tile, then wide GEMMs accumulating into
// the DOFs) on the production reference matrices, against the dense
// reference order per lane.
TEST(StageKernels, LanePredictorAndVolumeMatchReferenceBitwise) {
  std::mt19937 rng(7);
  for (const StageKernels* kt : executableTables()) {
    for (const int degree : {1, 2, 3}) {
      const ReferenceMatrices& rm = referenceMatrices(degree);
      for (const LaneSpan& span : kLaneSpans) {
        SCOPED_TRACE(testing::Message()
                     << kt->isa << " degree " << degree << " lanes ["
                     << span.first << ", +" << span.live << ") of "
                     << span.groups << " groups");
        checkLanePredictor(*kt, rm, span, rng);
        checkLaneVolume(*kt, rm, span, rng);
      }
    }
  }
}

// Under FTZ|DAZ (the fast backend): the lane-tile predictor and volume
// stages and the per-lane flux stages, operands seeded with +-0 and
// subnormals, against the oracles run with subnormals flushed as well.
TEST(StageKernels, SubtractModeMatchesNegatedOperandUnderFlush) {
  std::mt19937 rng(9);
  for (const StageKernels* kt : executableTables()) {
    for (const int degree : {1, 2}) {
      const ReferenceMatrices& rm = referenceMatrices(degree);
      for (const LaneSpan& span : kLaneSpans) {
        SCOPED_TRACE(testing::Message()
                     << kt->isa << " degree " << degree << " lanes ["
                     << span.first << ", +" << span.live << ") of "
                     << span.groups << " groups");
        checkLanePredictor(*kt, rm, span, rng, /*flush=*/true);
        checkLaneVolume(*kt, rm, span, rng, /*flush=*/true);
      }
      for (const int width : {1, 3, 16}) {
        SCOPED_TRACE(testing::Message() << kt->isa << " degree " << degree
                                        << " width " << width);
        checkPerLaneFlux(*kt, rm.nb, width, rng, /*flush=*/true);
      }
    }
  }
}

}  // namespace
}  // namespace tsg
