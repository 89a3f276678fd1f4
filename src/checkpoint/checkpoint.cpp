#include "checkpoint/checkpoint.hpp"

#include <array>
#include <cstring>

#include "io/atomic_file.hpp"
#include "perf/perf_monitor.hpp"
#include "telemetry/metrics_registry.hpp"

namespace tsg {

namespace {

constexpr char kMagic[8] = {'T', 'S', 'G', 'C', 'K', 'P', 'T', '\0'};

/// Slicing-by-8 tables: table[0] is the bytewise CRC-32 table, and
/// table[k][i] is the CRC of byte i followed by k zero bytes.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

CrcTables makeCrcTables() {
  CrcTables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (std::uint32_t i = 0; i < 256; ++i) {
    for (int k = 1; k < 8; ++k) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}

/// Four bytes as a little-endian word (one load on little-endian hosts).
std::uint32_t loadLe32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

}  // namespace

std::uint32_t crc32(const void* data, std::size_t size) {
  static const CrcTables t = makeCrcTables();
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t c = 0xFFFFFFFFu;
  // Eight bytes per step (slicing-by-8), then the tail bytewise.
  for (; size >= 8; p += 8, size -= 8) {
    const std::uint32_t lo = c ^ loadLe32(p);
    const std::uint32_t hi = loadLe32(p + 4);
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
        t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
        t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; size > 0; ++p, --size) {
    c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

void BinaryWriter::writeRaw(const void* p, std::size_t n) {
  buf_.append(static_cast<const char*>(p), n);
}

void BinaryWriter::writeRealVec(const std::vector<real>& v) {
  writeU64(v.size());
  writeRaw(v.data(), v.size() * sizeof(real));
}

void BinaryWriter::writeString(const std::string& s) {
  writeU64(s.size());
  writeRaw(s.data(), s.size());
}

void BinaryReader::readRaw(void* p, std::size_t n) {
  if (pos_ + n > buf_.size()) {
    throw CheckpointError(
        "checkpoint payload underflow: stream ended mid-field");
  }
  std::memcpy(p, buf_.data() + pos_, n);
  pos_ += n;
}

std::uint32_t BinaryReader::readU32() {
  std::uint32_t v;
  readRaw(&v, sizeof v);
  return v;
}

std::uint64_t BinaryReader::readU64() {
  std::uint64_t v;
  readRaw(&v, sizeof v);
  return v;
}

std::int64_t BinaryReader::readI64() {
  std::int64_t v;
  readRaw(&v, sizeof v);
  return v;
}

real BinaryReader::readReal() {
  real v;
  readRaw(&v, sizeof v);
  return v;
}

std::vector<real> BinaryReader::readRealVec() {
  const std::uint64_t n = readU64();
  if (n * sizeof(real) > remaining()) {
    throw CheckpointError("checkpoint payload underflow: array of " +
                          std::to_string(n) + " reals exceeds stream");
  }
  std::vector<real> v(n);
  readRaw(v.data(), n * sizeof(real));
  return v;
}

std::string BinaryReader::readString() {
  const std::uint64_t n = readU64();
  if (n > remaining()) {
    throw CheckpointError("checkpoint payload underflow: string of " +
                          std::to_string(n) + " bytes exceeds stream");
  }
  std::string s(n, '\0');
  readRaw(s.data(), n);
  return s;
}

void writeCheckpointFile(const std::string& path, const CheckpointHeader& h,
                         const std::string& payload) {
  // Handles cached once; updates are lock-free (see MetricsRegistry).
  static Counter& saves =
      MetricsRegistry::global().counter("checkpoint.saves", MetricUnit::kCount);
  static Counter& bytes = MetricsRegistry::global().counter(
      "checkpoint.bytes_written", MetricUnit::kBytes);
  static Histogram& duration = MetricsRegistry::global().histogram(
      "checkpoint.save_seconds", MetricUnit::kSeconds);
  const double t0 = PerfMonitor::clockSeconds();

  BinaryWriter w;
  std::string file;
  file.append(kMagic, sizeof kMagic);
  w.writeU32(h.version);
  w.writeU32(h.degree);
  w.writeU64(h.numElements);
  w.writeU64(h.configHash);
  w.writeU64(h.assetHash);
  w.writeU64(h.scenarioHash);
  w.writeU64(payload.size());
  w.writeU32(crc32(payload.data(), payload.size()));
  file += w.buffer();
  file += payload;
  atomicWriteFile(path, file);

  saves.add(1);
  bytes.add(file.size());
  duration.observe(PerfMonitor::clockSeconds() - t0);
}

CheckpointHeader readCheckpointFile(const std::string& path,
                                    std::string& payload) {
  static Counter& restores = MetricsRegistry::global().counter(
      "checkpoint.restores", MetricUnit::kCount);
  restores.add(1);
  std::string bytes;
  try {
    bytes = readFileBytes(path);
  } catch (const IoError& e) {
    throw CheckpointError(std::string("checkpoint: ") + e.what());
  }
  constexpr std::size_t kHeaderSize =
      sizeof kMagic + 2 * sizeof(std::uint32_t) + 5 * sizeof(std::uint64_t) +
      sizeof(std::uint32_t);
  if (bytes.size() < kHeaderSize) {
    throw CheckpointError("checkpoint " + path +
                          ": truncated (shorter than the header)");
  }
  if (std::memcmp(bytes.data(), kMagic, sizeof kMagic) != 0) {
    throw CheckpointError("checkpoint " + path +
                          ": bad magic (not a tsunamigen checkpoint)");
  }
  BinaryReader r(bytes.substr(sizeof kMagic, kHeaderSize - sizeof kMagic));
  CheckpointHeader h;
  h.version = r.readU32();
  h.degree = r.readU32();
  h.numElements = r.readU64();
  h.configHash = r.readU64();
  h.assetHash = r.readU64();
  h.scenarioHash = r.readU64();
  const std::uint64_t payloadSize = r.readU64();
  const std::uint32_t payloadCrc = r.readU32();
  if (h.version != kCheckpointFormatVersion) {
    throw CheckpointError(
        "checkpoint " + path + ": format version " +
        std::to_string(h.version) + " not supported (expected " +
        std::to_string(kCheckpointFormatVersion) + ")");
  }
  if (bytes.size() - kHeaderSize != payloadSize) {
    throw CheckpointError(
        "checkpoint " + path + ": truncated or padded payload (" +
        std::to_string(bytes.size() - kHeaderSize) + " bytes on disk, " +
        std::to_string(payloadSize) + " expected)");
  }
  payload = bytes.substr(kHeaderSize);
  if (crc32(payload.data(), payload.size()) != payloadCrc) {
    throw CheckpointError("checkpoint " + path +
                          ": payload CRC mismatch (file is corrupt)");
  }
  return h;
}

}  // namespace tsg
