// Tail shapes of the tile-stage kernels on every ISA table the host can
// execute.  The vector tables block the j (column) loop in vectors of 2,
// 4 or 8 reals and 1-4 rows, so every shape that leaves a remainder -- in
// rows, in vectors, in trailing columns -- must still give the bits of
// detail::gemmAccImpl, and no store may leave its columns:
//  * gemmAccStrided (the accumulate mode) over m x n x k tails with
//    leading dimensions wider than the operands,
//  * the overwrite mode over row counts and column remainders, through
//    the predictor on synthetic operators,
//  * the per-lane flux stages (accumulate, and the neighbour stage's
//    overwrite of its scratch) over row counts and lane widths with null
//    lanes in between,
//  * the predictor and volume stages (overwrite, then accumulate) over
//    degrees 1-3 and partial batches,
//  * the predictor and per-lane flux stages again with subnormals flushed
//    (FTZ|DAZ, the fast backend's mode).
// The predictor and flux stages subtract their products (subtract mode);
// their oracle is gemmAccImpl on an explicitly negated copy of the
// operand, the reference path's form.  Inputs mix +-0 and subnormals with
// normal values; every buffer carries a sentinel past column n, in
// padding and in skipped lanes, and the comparisons cover the whole
// buffer, sentinels included.

#include <cstdint>
#include <cstring>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "common/matrix.hpp"
#include "kernels/backends/fast_backend.hpp"
#include "kernels/backends/isa_dispatch.hpp"
#include "kernels/reference_matrices.hpp"

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

/// Runs kt.aderPredictor on a stack whose level 0 holds random DOFs and
/// whose levels 1..degree and scratch tile start as `expScratch` (the
/// sentinel outside written columns), and compares stack and scratch
/// with the reference order on zero-filled destinations, the star
/// products taken with the negated operand.  The derivative product
/// (nb x 9*width x nb) and the first star product (nb x 9 x 9)
/// overwrite; the other two star products accumulate.  With `flush` both
/// sides run with subnormals flushed (FTZ|DAZ).
void checkPredictor(const StageKernels& kt, const ReferenceMatrices& rm,
                    int width, int ld, const std::vector<real>& starTB,
                    std::vector<real>& expScratch,
                    std::vector<real>& actScratch, std::mt19937& rng,
                    bool flush = false) {
  const int nb = rm.nb, degree = rm.degree, cols = kQ * width;
  const std::size_t tileSize = static_cast<std::size_t>(nb) * ld;
  std::vector<real> expStack((degree + 1) * tileSize, sentinel());
  const std::vector<real> level0 = block(nb, cols, ld, rng, 0);
  std::copy(level0.begin(), level0.end(), expStack.begin());
  std::vector<real> actStack = expStack;
  const std::vector<real> negStarTB = negated(starTB);
  runFlushed(flush, [&] {
    for (int k = 0; k < degree; ++k) {
      const real* cur = expStack.data() + k * tileSize;
      std::vector<real> next(expStack.begin() + (k + 1) * tileSize,
                             expStack.begin() + (k + 2) * tileSize);
      zeroColumns(next, nb, 0, cols, ld);
      for (int c = 0; c < 3; ++c) {
        zeroColumns(expScratch, nb, 0, cols, ld);
        detail::gemmAccImpl(nb, cols, nb, rm.dXi[c].data(), nb, cur, ld,
                            expScratch.data(), ld);
        for (int lane = 0; lane < width; ++lane) {
          detail::gemmAccImpl(nb, kQ, kQ, expScratch.data() + lane * kQ, ld,
                              negStarTB.data() + (lane * 3 + c) * 81, kQ,
                              next.data() + lane * kQ, ld);
        }
      }
      std::copy(next.begin(), next.end(),
                expStack.begin() + (k + 1) * tileSize);
    }
    kt.aderPredictor(rm, starTB.data(), actStack.data(), actScratch.data(),
                     width, ld);
  });
  expectSameBits(expStack, actStack, "predictor stack");
  expectSameBits(expScratch, actScratch, "predictor scratch");
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
// on the same tails, through the predictor's derivative product on a
// synthetic operator set: m = k = nb over {1, 2, 3, 5, 10, 11} rows and
// n = 9 * width over widths 1-8 and 16, so every column remainder modulo
// the vector widths 2, 4 and 8 occurs, and both the 9 x 9 star product
// (overwrite) and its successors (accumulate) run at each row count.
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
      for (const int width : {1, 2, 3, 4, 5, 6, 7, 8, 16}) {
        SCOPED_TRACE(testing::Message() << kt->isa << " nb " << nb
                                        << " width " << width);
        const int ld = kQ * width + 3;
        const std::vector<real> starTB = operand(width * 3 * 81, rng);
        std::vector<real> expScratch(static_cast<std::size_t>(nb) * ld + 8,
                                     sentinel());
        std::vector<real> actScratch = expScratch;
        checkPredictor(*kt, rm, width, ld, starTB, expScratch, actScratch,
                       rng);
      }
    }
  }
}

/// Per-lane products (n = 9): the local flux subtracts into its lanes,
/// the neighbour flux overwrites its scratch with the negated product and
/// accumulates into the DOF tile.  Null lanes must stay untouched, as
/// must the tile padding.  With `flush` both sides run with subnormals
/// flushed (FTZ|DAZ).
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
  std::vector<real> expected = block(nb, kQ * width, ld, rng);
  std::vector<real> actual = expected;
  std::vector<real> expectedScratch = block(nb, kQ, kQ, rng);
  std::vector<real> actualScratch = expectedScratch;

  runFlushed(flush, [&] {
    for (int lane = 0; lane < width; ++lane) {
      if (fluxT[lane]) {
        detail::gemmAccImpl(nb, kQ, kQ, tInt.data() + lane * kQ, ld,
                            negFlux.data() + lane * 81, kQ,
                            expected.data() + lane * kQ, ld);
      }
    }
    kt.localFluxStage(nb, width, ld, tInt.data(), fluxT.data(),
                      actual.data());
  });
  expectSameBits(expected, actual, "local flux tile");

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

// The wide GEMMs (n = 9 * width) and the star products of the predictor
// (both overwriting) and of the volume stage (overwrite into the scratch
// tile, then accumulate into the DOFs), against the reference order on
// zero-filled destinations.
TEST(StageKernels, PredictorAndVolumeMatchReferenceBitwise) {
  std::mt19937 rng(7);
  for (const StageKernels* kt : executableTables()) {
    for (const int degree : {1, 2, 3}) {
      const ReferenceMatrices& rm = referenceMatrices(degree);
      const int nb = rm.nb;
      for (const int width : {1, 3, 5, 16}) {
        SCOPED_TRACE(testing::Message() << kt->isa << " degree " << degree
                                        << " width " << width);
        const int ld = kQ * width + 5, cols = kQ * width;
        const std::size_t tileSize = static_cast<std::size_t>(nb) * ld;
        const std::vector<real> starTB = operand(width * 3 * 81, rng);

        std::vector<real> expScratch(tileSize, sentinel());
        std::vector<real> actScratch = expScratch;
        checkPredictor(*kt, rm, width, ld, starTB, expScratch, actScratch, rng);

        // Volume: dofs += sum_c kXi[c] * (tInt * starT[c]).
        const std::vector<real> tInt = block(nb, cols, ld, rng);
        std::vector<real> expDofs = block(nb, cols, ld, rng);
        std::vector<real> actDofs = expDofs;
        for (int c = 0; c < 3; ++c) {
          zeroColumns(expScratch, nb, 0, cols, ld);
          for (int lane = 0; lane < width; ++lane) {
            detail::gemmAccImpl(nb, kQ, kQ, tInt.data() + lane * kQ, ld,
                                starTB.data() + (lane * 3 + c) * 81, kQ,
                                expScratch.data() + lane * kQ, ld);
          }
          detail::gemmAccImpl(nb, cols, nb, rm.kXi[c].data(), nb,
                              expScratch.data(), ld, expDofs.data(), ld);
        }
        kt->volumeKernel(rm, starTB.data(), tInt.data(), actDofs.data(),
                         actScratch.data(), width, ld);
        expectSameBits(expDofs, actDofs, "volume DOFs");
        expectSameBits(expScratch, actScratch, "volume scratch");
      }
    }
  }
}

// Subtract mode under FTZ|DAZ (the fast backend): the predictor and the
// per-lane flux stages, operands seeded with +-0 and subnormals, against
// the negated-operand oracle run with subnormals flushed as well.
TEST(StageKernels, SubtractModeMatchesNegatedOperandUnderFlush) {
  std::mt19937 rng(9);
  for (const StageKernels* kt : executableTables()) {
    for (const int degree : {1, 2}) {
      const ReferenceMatrices& rm = referenceMatrices(degree);
      for (const int width : {1, 3, 16}) {
        SCOPED_TRACE(testing::Message() << kt->isa << " degree " << degree
                                        << " width " << width);
        const int ld = kQ * width + 5;
        const std::vector<real> starTB = operand(width * 3 * 81, rng);
        std::vector<real> expScratch(static_cast<std::size_t>(rm.nb) * ld,
                                     sentinel());
        std::vector<real> actScratch = expScratch;
        checkPredictor(*kt, rm, width, ld, starTB, expScratch, actScratch,
                       rng, /*flush=*/true);
        checkPerLaneFlux(*kt, rm.nb, width, rng, /*flush=*/true);
      }
    }
  }
}

}  // namespace
}  // namespace tsg
