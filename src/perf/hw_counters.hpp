#pragma once

// Per-thread hardware performance counters via perf_event_open (Linux).
//
// One HwCounterGroup per worker thread (thread_local, lazily opened on
// first use) holds a perf-event GROUP of up to five counters -- cycles
// (leader), instructions, LLC references, LLC misses, stalled backend
// cycles -- so one read() syscall snapshots them all coherently.  The
// PerfThreadRecorder reads a snapshot at each wave begin/end next to its
// steady_clock / FLOP-counter reads; the deltas land in PhaseStats and
// surface in the "tsg-perf-2" phase fields (cycles, ipc,
// llc_miss_rate, derived gbytes_per_s).
//
// Degradation is a first-class state, never a failure: sandboxed CI and
// locked-down hosts return EACCES / EPERM / ENOSYS from perf_event_open
// (or lack the syscall entirely on non-Linux builds).  Every failure
// path leaves the group "unavailable": sample() reports invalid, the
// recorder skips the hw fields, the JSON report omits them and records
// `"hw_counters": false` -- the run itself never notices.  Individual
// non-leader counters that fail to open (e.g. no
// PERF_COUNT_HW_STALLED_CYCLES_BACKEND event on this microarchitecture)
// are dropped from the group's mask while the rest keep counting.
//
// TSG_NO_HW_COUNTERS=1 forces the degraded path (overhead-sensitive
// benchmarking, and the CI leg that pins the degradation behaviour).
// The env var is read at group-open time, i.e. per thread on its first
// sample -- tests flip it and probe from a fresh std::thread.
//
// Counter multiplexing (more groups than PMU slots) is handled with the
// standard time_enabled / time_running scaling, applied to deltas.

#include <cstdint>

namespace tsg {

/// Which counters of a group are live (bitmask).
enum HwCounterBit : unsigned {
  kHwCycles = 1u << 0,
  kHwInstructions = 1u << 1,
  kHwLlcRefs = 1u << 2,
  kHwLlcMisses = 1u << 3,
  kHwStalledBackend = 1u << 4,
};
constexpr int kNumHwCounters = 5;

/// One coherent snapshot of the group (raw values plus the multiplexing
/// clock pair; subtract two snapshots with hwCounterDelta).
struct HwCounterSample {
  std::uint64_t value[kNumHwCounters] = {};
  std::uint64_t timeEnabled = 0;
  std::uint64_t timeRunning = 0;
  bool valid = false;
};

/// Multiplexing-scaled counter deltas between two snapshots of the same
/// group.  `valid` is false when either snapshot failed or the group was
/// never scheduled in the interval (all deltas are then zero).
struct HwCounterDelta {
  std::uint64_t cycles = 0;
  std::uint64_t instructions = 0;
  std::uint64_t llcRefs = 0;
  std::uint64_t llcMisses = 0;
  std::uint64_t stalledBackend = 0;
  bool valid = false;
};

class HwCounterGroup {
 public:
  /// Opens the counter group for the CALLING thread (pid = self, any
  /// cpu).  Never throws: failure of the leader -- or TSG_NO_HW_COUNTERS
  /// -- leaves the group unavailable.
  HwCounterGroup();
  ~HwCounterGroup();
  HwCounterGroup(const HwCounterGroup&) = delete;
  HwCounterGroup& operator=(const HwCounterGroup&) = delete;

  bool available() const { return mask_ != 0; }
  /// Live counters of this group (HwCounterBit mask; 0 when degraded).
  unsigned mask() const { return mask_; }

  /// One read() of the whole group.  Returns an invalid sample when the
  /// group is unavailable or the read fails.
  HwCounterSample sample() const;

 private:
  int fd_[kNumHwCounters];  // -1 = not open; fd_[0] is the group leader
  unsigned mask_ = 0;
};

/// The calling thread's lazily-opened counter group.  First call on a
/// thread opens the group (reading TSG_NO_HW_COUNTERS at that moment);
/// the group lives until thread exit.
HwCounterGroup& threadHwCounters();

/// Scaled delta between two snapshots of one group (order: begin, end).
HwCounterDelta hwCounterDelta(const HwCounterSample& begin,
                              const HwCounterSample& end, unsigned mask);

}  // namespace tsg
