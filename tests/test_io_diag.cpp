#include <cmath>
#include <complex>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>

#include <gtest/gtest.h>

#include "common/config.hpp"
#include "common/errors.hpp"
#include "common/kernel_path.hpp"
#include "geometry/mesh_builder.hpp"
#include "io/atomic_file.hpp"
#include "io/vtk_writer.hpp"
#include "kernels/reference_matrices.hpp"
#include "linking/kajiura.hpp"
#include "solver/diagnostics.hpp"
#include "solver/simulation.hpp"

namespace tsg {
namespace {

TEST(Fft, RoundTripAndParseval) {
  std::vector<std::complex<real>> a(64);
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = std::complex<real>(std::sin(0.3 * i), std::cos(0.7 * i));
  }
  const auto orig = a;
  real energyTime = 0;
  for (const auto& x : a) {
    energyTime += std::norm(x);
  }
  fft(a, false);
  real energyFreq = 0;
  for (const auto& x : a) {
    energyFreq += std::norm(x);
  }
  EXPECT_NEAR(energyFreq / a.size(), energyTime, 1e-10 * energyTime);
  fft(a, true);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(std::abs(a[i] - orig[i]), 0.0, 1e-12);
  }
}

TEST(Fft, DeltaTransformsToConstant) {
  std::vector<std::complex<real>> a(16, 0);
  a[0] = 1;
  fft(a, false);
  for (const auto& x : a) {
    EXPECT_NEAR(x.real(), 1.0, 1e-13);
    EXPECT_NEAR(x.imag(), 0.0, 1e-13);
  }
}

TEST(Kajiura, ConstantFieldInteriorInvariantWhenKernelIsNarrow) {
  // The Kajiura kernel width is ~ the water depth; for a patch much wider
  // than the depth the interior must be preserved (edges may dip where
  // the zero padding bleeds in).
  const int n = 24;
  std::vector<real> f(n * n, 2.5);
  const auto out = kajiuraFilter(f, n, n, 100.0, 100.0, 150.0);
  EXPECT_NEAR(out[(n / 2) * n + n / 2], 2.5, 0.05);
  // A deep-kernel filter legitimately spreads the finite patch out.
  const auto deep = kajiuraFilter(f, n, n, 100.0, 100.0, 1000.0);
  EXPECT_LT(deep[(n / 2) * n + n / 2], 2.5);
  EXPECT_GT(deep[(n / 2) * n + n / 2], 0.5);
}

TEST(Kajiura, SingleModeAttenuatedByCoshKh) {
  // A pure cosine of wavelength L over depth h must come back scaled by
  // ~1/cosh(2 pi h / L) in the interior.
  const int n = 64;
  const real dx = 250.0;
  const real wavelength = 8 * dx;  // 2000 m
  const real depth = 600.0;
  const real k = 2 * M_PI / wavelength;
  std::vector<real> f(n * n);
  for (int j = 0; j < n; ++j) {
    for (int i = 0; i < n; ++i) {
      f[j * n + i] = std::cos(k * i * dx);
    }
  }
  const auto out = kajiuraFilter(f, n, n, dx, dx, depth);
  const real expected = 1.0 / std::cosh(k * depth);
  // Compare at an interior crest (i = 32 is a multiple of the wavelength).
  const int i = 32, j = 32;
  EXPECT_NEAR(out[j * n + i], f[j * n + i] * expected,
              0.15 * std::abs(f[j * n + i] * expected) + 0.01);
}

TEST(Kajiura, ShortWavelengthsSuppressedMoreThanLong) {
  const int n = 64;
  const real dx = 100.0;
  const real depth = 1500.0;
  auto amplitudeAfter = [&](real wavelength) {
    const real k = 2 * M_PI / wavelength;
    std::vector<real> f(n * n);
    for (int j = 0; j < n; ++j) {
      for (int i = 0; i < n; ++i) {
        f[j * n + i] = std::cos(k * i * dx);
      }
    }
    const auto out = kajiuraFilter(f, n, n, dx, dx, depth);
    real m = 0;
    for (int i = 16; i < 48; ++i) {
      m = std::max(m, std::abs(out[32 * n + i]));
    }
    return m;
  };
  const real longWave = amplitudeAfter(32 * dx);
  const real shortWave = amplitudeAfter(8 * dx);
  EXPECT_GT(longWave, 4 * shortWave);
}

TEST(Vtk, WritesWellFormedFiles) {
  BoxMeshSpec spec;
  spec.xLines = uniformLine(0, 1, 2);
  spec.yLines = uniformLine(0, 1, 2);
  spec.zLines = uniformLine(0, 1, 2);
  const Mesh mesh = buildBoxMesh(spec);
  std::map<std::string, std::vector<real>> data;
  data["material"] = std::vector<real>(mesh.numElements(), 1.0);
  const std::string path = "/tmp/tsg_test_mesh.vtk";
  writeVtkMesh(path, mesh, data);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "# vtk DataFile Version 3.0");
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string body = ss.str();
  EXPECT_NE(body.find("POINTS 27 double"), std::string::npos);
  EXPECT_NE(body.find("CELLS 48 240"), std::string::npos);
  EXPECT_NE(body.find("SCALARS material double 1"), std::string::npos);
  std::remove(path.c_str());
  // Size mismatch must throw.
  data["bad"] = {1.0};
  EXPECT_THROW(writeVtkMesh(path, mesh, data), std::invalid_argument);
}

TEST(Vtk, SurfaceFile) {
  const std::vector<SurfaceSample> samples = {{0, 0, 0.1}, {1, 0, -0.2},
                                              {0, 1, 0.3}};
  const std::string path = "/tmp/tsg_test_surface.vtk";
  writeVtkSurface(path, samples);
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string body = ss.str();
  EXPECT_NE(body.find("POINTS 3 double"), std::string::npos);
  EXPECT_NE(body.find("SCALARS eta double 1"), std::string::npos);
  std::remove(path.c_str());
}

/// The legacy-VTK text the writers produced through std::ostringstream
/// (default stream formatting), kept as the byte-exact oracle of the
/// std::to_chars writers.
std::string ostreamVtkMesh(const Mesh& mesh,
                           const std::map<std::string, std::vector<real>>& data) {
  std::ostringstream out;
  out << "# vtk DataFile Version 3.0\n" << "tsunamigen mesh" << "\nASCII\n";
  out << "DATASET UNSTRUCTURED_GRID\n";
  out << "POINTS " << mesh.vertices.size() << " double\n";
  for (const auto& v : mesh.vertices) {
    out << v[0] << " " << v[1] << " " << v[2] << "\n";
  }
  const int n = mesh.numElements();
  out << "CELLS " << n << " " << 5 * n << "\n";
  for (const auto& e : mesh.elements) {
    out << "4 " << e.vertices[0] << " " << e.vertices[1] << " "
        << e.vertices[2] << " " << e.vertices[3] << "\n";
  }
  out << "CELL_TYPES " << n << "\n";
  for (int i = 0; i < n; ++i) {
    out << "10\n";
  }
  out << "CELL_DATA " << n << "\n";
  for (const auto& [name, values] : data) {
    out << "SCALARS " << name << " double 1\nLOOKUP_TABLE default\n";
    for (real v : values) {
      out << v << "\n";
    }
  }
  return out.str();
}

std::string ostreamVtkSurface(const std::vector<SurfaceSample>& samples) {
  std::ostringstream out;
  out << "# vtk DataFile Version 3.0\n" << "tsunamigen sea surface"
      << "\nASCII\n";
  out << "DATASET POLYDATA\n";
  out << "POINTS " << samples.size() << " double\n";
  for (const auto& s : samples) {
    out << s.x << " " << s.y << " " << s.eta << "\n";
  }
  out << "VERTICES " << samples.size() << " " << 2 * samples.size() << "\n";
  for (std::size_t i = 0; i < samples.size(); ++i) {
    out << "1 " << i << "\n";
  }
  out << "POINT_DATA " << samples.size() << "\n";
  out << "SCALARS eta double 1\nLOOKUP_TABLE default\n";
  for (const auto& s : samples) {
    out << s.eta << "\n";
  }
  return out.str();
}

/// Values whose %g text has every shape: signed zeros, subnormals, the
/// exponent extremes, integers around the 6-digit switch to exponent
/// form, rounding carries, and the non-finite values a failure dump
/// (HealthMonitor) writes.
std::vector<real> formattingEdgeCases() {
  const real inf = std::numeric_limits<real>::infinity();
  const real nan = std::numeric_limits<real>::quiet_NaN();
  return {0.0, -0.0, std::numeric_limits<real>::denorm_min(),
          -4.9406564584124654e-320, 2.2250738585072014e-308,
          std::numeric_limits<real>::max(), 1e300, -1e300, 1e-300, -1e-300,
          1.0, -7.0, 42.0, 99999.0, 999999.0, 1000000.0, 9999995.0,
          123456789.0, 0.1, 1.0 / 3.0, -2.0 / 3.0, 1e-4, 1e-5, 0.99999949,
          0.9999995, 5e-324 * 3, 6.02214076e23, -1.5e-7, inf, -inf, nan,
          -nan};
}

TEST(Vtk, NumberFormattingMatchesOstreamOracle) {
  const std::vector<real> edge = formattingEdgeCases();
  BoxMeshSpec spec;
  spec.xLines = uniformLine(0, 1, 2);
  spec.yLines = uniformLine(0, 1, 2);
  spec.zLines = uniformLine(0, 1, 2);
  Mesh mesh = buildBoxMesh(spec);
  std::size_t k = 0;
  for (auto& v : mesh.vertices) {
    for (real& c : v) {
      c = edge[k++ % edge.size()];
    }
  }
  std::map<std::string, std::vector<real>> data;
  for (const char* name : {"a", "b", "c"}) {
    auto& values = data[name];
    for (int e = 0; e < mesh.numElements(); ++e) {
      values.push_back(edge[k++ % edge.size()]);
    }
  }
  const std::string meshPath = "tsg_test_vtk_format_mesh.vtk";
  writeVtkMesh(meshPath, mesh, data);
  EXPECT_EQ(readFileBytes(meshPath), ostreamVtkMesh(mesh, data));
  std::remove(meshPath.c_str());

  std::vector<SurfaceSample> samples;
  for (std::size_t i = 0; i < edge.size(); ++i) {
    samples.push_back({edge[i], edge[(i + 7) % edge.size()],
                       edge[(i + 13) % edge.size()]});
  }
  const std::string surfacePath = "tsg_test_vtk_format_surface.vtk";
  writeVtkSurface(surfacePath, samples);
  EXPECT_EQ(readFileBytes(surfacePath), ostreamVtkSurface(samples));
  std::remove(surfacePath.c_str());
}

// Quadrature oracle for computeEnergy: the energy densities evaluated
// pointwise at every volume quadrature point of every element.
EnergyBudget quadratureEnergy(const Simulation& sim) {
  const auto& rm = referenceMatrices(sim.config().degree);
  const Mesh& mesh = sim.mesh();
  EnergyBudget e;
  for (int elem = 0; elem < mesh.numElements(); ++elem) {
    const Material& m = sim.materialOf(elem);
    const real jac = 6.0 * mesh.volume(elem);
    real kin = 0, strain = 0;
    for (std::size_t i = 0; i < rm.volQuadXi.size(); ++i) {
      const auto q = sim.evaluate(elem, rm.volQuadXi[i]);
      const real w = rm.volQuadW[i] * jac;
      kin += w * 0.5 * m.rho *
             (q[kVx] * q[kVx] + q[kVy] * q[kVy] + q[kVz] * q[kVz]);
      if (m.isAcoustic()) {
        const real p = -(q[kSxx] + q[kSyy] + q[kSzz]) / 3.0;
        strain += w * p * p / (2.0 * m.lambda);
      } else {
        const real tr = q[kSxx] + q[kSyy] + q[kSzz];
        const real ss = q[kSxx] * q[kSxx] + q[kSyy] * q[kSyy] +
                        q[kSzz] * q[kSzz] +
                        2.0 * (q[kSxy] * q[kSxy] + q[kSyz] * q[kSyz] +
                               q[kSxz] * q[kSxz]);
        strain += w / (4.0 * m.mu) *
                  (ss - m.lambda / (3.0 * m.lambda + 2.0 * m.mu) * tr * tr);
      }
    }
    e.kinetic += kin;
    if (m.isAcoustic()) {
      e.strainAcoustic += strain;
    } else {
      e.strainElastic += strain;
    }
  }
  return e;
}

// Uniform in [-1, 1), a pure function of (x, p): projecting it gives
// every element pseudo-random DOFs in every mode, independently of the
// thread that evaluates the initial condition.
real hashedUniform(const Vec3& x, int p) {
  std::uint64_t h = 0x9e3779b97f4a7c15ull * static_cast<std::uint64_t>(p + 1);
  for (const real c : x) {
    std::uint64_t bits;
    std::memcpy(&bits, &c, sizeof bits);
    h ^= bits + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ull;
    h = (h ^ (h >> 27)) * 0x94d049bb133111ebull;
    h ^= h >> 31;
  }
  return static_cast<real>(h >> 11) * 0x1.0p-52 - 1.0;
}

TEST(Energy, ModalFormMatchesQuadratureOracle) {
  // Stretched, deformed box: elements of unequal volume, two elastic
  // layers under an acoustic one.
  BoxMeshSpec spec;
  spec.xLines = {0.0, 0.3, 1.0};
  spec.yLines = {0.0, 0.6, 1.0};
  spec.zLines = {0.0, 0.2, 0.55, 0.7, 1.0};
  spec.deformZ = [](real x, real y, real z) {
    return z * (1.0 + 0.1 * x * (1.0 - y));
  };
  spec.material = [](const Vec3& c) {
    if (c[2] > 0.7) {
      return 2;
    }
    return c[2] > 0.2 ? 1 : 0;
  };
  const std::vector<Material> mats = {Material::fromVelocities(2.7, 6.0, 3.5),
                                      Material::fromVelocities(2.0, 3.0, 1.2),
                                      Material::acoustic(1.0, 1.5)};
  for (int degree = 1; degree <= kMaxDegree; ++degree) {
    SCOPED_TRACE("degree " + std::to_string(degree));
    SolverConfig cfg;
    cfg.degree = degree;
    cfg.gravity = 0;
    Simulation sim(buildBoxMesh(spec), mats, cfg);
    sim.setInitialCondition([](const Vec3& x, int) {
      std::array<real, 9> q{};
      for (int p = 0; p < kNumQuantities; ++p) {
        q[p] = hashedUniform(x, p);
      }
      return q;
    });
    const EnergyBudget modal = computeEnergy(sim);
    const EnergyBudget oracle = quadratureEnergy(sim);
    ASSERT_GT(oracle.kinetic, 0);
    ASSERT_GT(oracle.strainElastic, 0);
    ASSERT_GT(oracle.strainAcoustic, 0);
    EXPECT_NEAR(modal.kinetic, oracle.kinetic, 1e-12 * oracle.kinetic);
    EXPECT_NEAR(modal.strainElastic, oracle.strainElastic,
                1e-12 * oracle.strainElastic);
    EXPECT_NEAR(modal.strainAcoustic, oracle.strainAcoustic,
                1e-12 * oracle.strainAcoustic);
  }
}

TEST(Energy, HydrostaticReductionForIsotropicStress) {
  // For isotropic stress the elastic strain energy density must equal
  // p^2 / (2K): verified through computeEnergy on a uniform state.
  BoxMeshSpec spec;
  spec.xLines = uniformLine(0, 1, 2);
  spec.yLines = uniformLine(0, 1, 2);
  spec.zLines = uniformLine(0, 1, 2);
  SolverConfig cfg;
  cfg.degree = 2;
  cfg.gravity = 0;
  const Material m = Material::fromVelocities(2.0, 2.0, 1.0);
  Simulation sim(buildBoxMesh(spec), {m}, cfg);
  const real p = 3.0;
  sim.setInitialCondition([&](const Vec3&, int) {
    std::array<real, 9> q{};
    q[kSxx] = q[kSyy] = q[kSzz] = -p;
    return q;
  });
  const EnergyBudget e = computeEnergy(sim);
  const real bulk = m.lambda + 2.0 * m.mu / 3.0;
  EXPECT_NEAR(e.strainElastic, p * p / (2 * bulk), 1e-10);
  EXPECT_NEAR(e.kinetic, 0.0, 1e-14);
}

TEST(Energy, ClosedBoxConservesEnergyUpToUpwindDissipation) {
  // Rigid-wall box: the DG scheme may only *dissipate* total energy.
  BoxMeshSpec spec;
  spec.xLines = uniformLine(0, 1, 3);
  spec.yLines = uniformLine(0, 1, 3);
  spec.zLines = uniformLine(0, 1, 3);
  spec.boundary = [](const Vec3&, const Vec3&) {
    return BoundaryType::kRigidWall;
  };
  for (const KernelPath kp :
       {KernelPath::kReference, KernelPath::kBatched, KernelPath::kFast}) {
    SCOPED_TRACE(kernelPathName(kp));
    SolverConfig cfg;
    cfg.degree = 3;
    cfg.gravity = 0;
    cfg.kernelPath = kp;
    Simulation sim(buildBoxMesh(spec), {Material::fromVelocities(2, 2, 1)},
                   cfg);
    const real k = 2 * M_PI;
    sim.setInitialCondition([&](const Vec3& x, int) {
      std::array<real, 9> q{};
      q[kSxx] = 3.2 * k * std::cos(k * x[0]);
      q[kSyy] = 1.2 * k * std::cos(k * x[0]);
      q[kSzz] = q[kSyy];
      return q;
    });
    const real e0 = computeEnergy(sim).total();
    real prev = e0;
    for (int s = 1; s <= 4; ++s) {
      sim.advanceTo(0.1 * s);
      const real e = computeEnergy(sim).total();
      EXPECT_LE(e, prev * (1 + 1e-10)) << "energy grew at step " << s;
      prev = e;
    }
    // Smooth field at order 3: dissipation must be small.
    EXPECT_GT(prev, 0.9 * e0);
  }
}

TEST(Config, ParsesTypesAndTracksUnused) {
  const ConfigFile cfg = ConfigFile::parse(R"(
# comment
scenario = palu   # trailing comment
degree = 3
end_time = 12.5
vtk_output = ON
typo_key = 7
)");
  EXPECT_EQ(cfg.getString("scenario", "x"), "palu");
  EXPECT_EQ(cfg.getInt("degree", 0), 3);
  EXPECT_NEAR(cfg.getNumber("end_time", 0), 12.5, 1e-15);
  EXPECT_TRUE(cfg.getBool("vtk_output", false));
  EXPECT_FALSE(cfg.getBool("missing", false));
  const auto unused = cfg.unusedKeys();
  ASSERT_EQ(unused.size(), 1u);
  EXPECT_EQ(*unused.begin(), "typo_key");
}

TEST(Config, RejectsMalformedInput) {
  EXPECT_THROW(ConfigFile::parse("novalue\n"), ConfigError);
  EXPECT_THROW(ConfigFile::parse("= 3\n"), ConfigError);
  const ConfigFile cfg = ConfigFile::parse("a = abc\nb = maybe\n");
  EXPECT_THROW(cfg.getNumber("a", 0), ConfigError);
  EXPECT_THROW(cfg.getBool("b", false), ConfigError);
  EXPECT_THROW(ConfigFile::load("/nonexistent/path.cfg"), ConfigError);
}

TEST(Config, RejectsTrailingGarbageAndNonFiniteNumbers) {
  // "10.0abc" must be a hard error, not strtod-style silent truncation
  // to 10.0 -- a typoed end_time would otherwise change the run silently.
  const ConfigFile cfg = ConfigFile::parse(
      "end_time = 10.0abc\nt2 = 1e3x\nn = nan\ni = inf\no = 1e999\nok = "
      "2.5\n");
  EXPECT_THROW(cfg.getNumber("end_time", 0), ConfigError);
  EXPECT_THROW(cfg.getNumber("t2", 0), ConfigError);
  EXPECT_THROW(cfg.getNumber("n", 0), ConfigError);   // non-finite spelling
  EXPECT_THROW(cfg.getNumber("i", 0), ConfigError);
  EXPECT_THROW(cfg.getNumber("o", 0), ConfigError);   // overflow to inf
  EXPECT_EQ(cfg.getNumber("ok", 0), 2.5);
}

TEST(Config, GetIntRejectsFractionalValues) {
  const ConfigFile cfg = ConfigFile::parse("degree = 2.5\nsnapshots = 4\n");
  EXPECT_THROW(cfg.getInt("degree", 0), ConfigError);  // not truncated to 2
  EXPECT_EQ(cfg.getInt("snapshots", 0), 4);
  EXPECT_EQ(cfg.getInt("missing", 7), 7);
}

TEST(Receivers, WriteCsvThrowsIoErrorOnUnwritablePath) {
  Receiver r;
  r.name = "x";
  r.times = {0.0, 0.1};
  r.samples = {{}, {}};
  // Previously this silently discarded the whole series.
  EXPECT_THROW(r.writeCsv("/nonexistent-dir/sub/x.csv"), IoError);
}

}  // namespace
}  // namespace tsg
