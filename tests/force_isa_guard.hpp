#pragma once

// Save/restore TSG_FORCE_ISA around a test so a failure cannot leak a
// forced ISA into later tests (the variable is read at Simulation
// construction time, by both tile backends).

#include <cstdlib>
#include <string>

namespace tsg {

struct ForceIsaGuard {
  std::string saved;
  bool hadValue = false;
  ForceIsaGuard() {
    if (const char* v = std::getenv("TSG_FORCE_ISA")) {
      saved = v;
      hadValue = true;
    }
  }
  ~ForceIsaGuard() {
    if (hadValue) {
      setenv("TSG_FORCE_ISA", saved.c_str(), 1);
    } else {
      unsetenv("TSG_FORCE_ISA");
    }
  }
  ForceIsaGuard(const ForceIsaGuard&) = delete;
  ForceIsaGuard& operator=(const ForceIsaGuard&) = delete;
};

}  // namespace tsg
