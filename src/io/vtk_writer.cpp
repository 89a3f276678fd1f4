#include "io/vtk_writer.hpp"

#include <charconv>
#include <cmath>
#include <stdexcept>
#include <string_view>
#include <type_traits>

#include "basis/dubiner.hpp"
#include "io/atomic_file.hpp"

namespace tsg {

namespace {

// Text is appended to one std::string.  Numbers are formatted with
// std::to_chars exactly as a default std::ostream formats them: doubles
// like printf("%.6g") (general, precision 6), integers in decimal.
void put(std::string& out, std::string_view text) { out += text; }

void put(std::string& out, double v) {
  char buf[32];
  const auto r =
      std::to_chars(buf, buf + sizeof buf, v, std::chars_format::general, 6);
  out.append(buf, r.ptr);
}

template <class Int, std::enable_if_t<std::is_integral_v<Int>, int> = 0>
void put(std::string& out, Int v) {
  char buf[24];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  out.append(buf, r.ptr);
}

template <class... Args>
void append(std::string& out, const Args&... args) {
  (put(out, args), ...);
}

void writeHeader(std::string& out, std::string_view title) {
  append(out, "# vtk DataFile Version 3.0\n", title, "\nASCII\n");
}

void writeTetGrid(std::string& out, const Mesh& mesh) {
  append(out, "DATASET UNSTRUCTURED_GRID\n");
  append(out, "POINTS ", mesh.vertices.size(), " double\n");
  for (const auto& v : mesh.vertices) {
    append(out, v[0], " ", v[1], " ", v[2], "\n");
  }
  const int n = mesh.numElements();
  append(out, "CELLS ", n, " ", 5 * n, "\n");
  for (const auto& e : mesh.elements) {
    append(out, "4 ", e.vertices[0], " ", e.vertices[1], " ", e.vertices[2],
           " ", e.vertices[3], "\n");
  }
  append(out, "CELL_TYPES ", n, "\n");
  for (int i = 0; i < n; ++i) {
    append(out, "10\n");  // VTK_TETRA
  }
}

}  // namespace

void writeVtkMesh(const std::string& path, const Mesh& mesh,
                  const std::map<std::string, std::vector<real>>& cellData) {
  std::string out;
  writeHeader(out, "tsunamigen mesh");
  writeTetGrid(out, mesh);
  if (!cellData.empty()) {
    append(out, "CELL_DATA ", mesh.numElements(), "\n");
    for (const auto& [name, values] : cellData) {
      if (static_cast<int>(values.size()) != mesh.numElements()) {
        throw std::invalid_argument("writeVtkMesh: field size mismatch: " +
                                    name);
      }
      append(out, "SCALARS ", name, " double 1\nLOOKUP_TABLE default\n");
      for (real v : values) {
        append(out, v, "\n");
      }
    }
  }
  atomicWriteFile(path, out);  // throws IoError naming the path
}

void writeVtkWavefield(const std::string& path, const Simulation& sim) {
  static const char* kNames[kNumQuantities] = {
      "sxx", "syy", "szz", "sxy", "syz", "sxz", "vx", "vy", "vz"};
  const Mesh& mesh = sim.mesh();
  std::map<std::string, std::vector<real>> fields;
  for (int q = 0; q < kNumQuantities; ++q) {
    fields[kNames[q]].resize(mesh.numElements());
  }
  auto& pressure = fields["pressure"];
  pressure.resize(mesh.numElements());
  const int nb = basisSize(sim.config().degree);
  std::vector<real> phi(nb);
  dubinerTetAll(sim.config().degree, {0.25, 0.25, 0.25}, phi.data());
  const real* q = sim.dofsData().data();
  for (int e = 0; e < mesh.numElements(); ++e, q += nb * kNumQuantities) {
    const auto v = evaluateModes(phi.data(), q, nb);
    for (int p = 0; p < kNumQuantities; ++p) {
      fields[kNames[p]][e] = v[p];
    }
    pressure[e] = -(v[kSxx] + v[kSyy] + v[kSzz]) / 3.0;
  }
  writeVtkMesh(path, mesh, fields);
}

void writeVtkSurface(const std::string& path,
                     const std::vector<SurfaceSample>& samples) {
  std::string out;
  writeHeader(out, "tsunamigen sea surface");
  append(out, "DATASET POLYDATA\n");
  append(out, "POINTS ", samples.size(), " double\n");
  for (const auto& s : samples) {
    append(out, s.x, " ", s.y, " ", s.eta, "\n");
  }
  append(out, "VERTICES ", samples.size(), " ", 2 * samples.size(), "\n");
  for (std::size_t i = 0; i < samples.size(); ++i) {
    append(out, "1 ", i, "\n");
  }
  append(out, "POINT_DATA ", samples.size(), "\n");
  append(out, "SCALARS eta double 1\nLOOKUP_TABLE default\n");
  for (const auto& s : samples) {
    append(out, s.eta, "\n");
  }
  atomicWriteFile(path, out);  // throws IoError naming the path
}

}  // namespace tsg
