// One DetectionResult as a string: every field, doubles in hex float, so
// two results render the same string exactly when their bits agree. The
// streaming golden pins these strings; other tests compare two of them.
#pragma once

#include <cstdio>
#include <string>

#include "core/detector.hpp"

namespace lumichat::core::testutil {

inline std::string describe(const DetectionResult& r) {
  const auto quality = [](const SignalQuality& q) {
    char buf[128];
    std::snprintf(buf, sizeof(buf), "%zu,%a,%a,%d", q.change_events,
                  q.snr_proxy, q.window_completeness,
                  static_cast<int>(q.all_finite));
    return std::string(buf);
  };
  const FeatureDiagnostics& d = r.diagnostics;
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "v=%d atk=%d lof=%a z=%a,%a,%a,%a d=%a,%zu,%zu,%zu,%zu",
                static_cast<int>(r.verdict), static_cast<int>(r.is_attacker),
                r.lof_score, r.features.z1, r.features.z2, r.features.z3,
                r.features.z4, d.estimated_delay_s, d.transmitted_changes,
                d.received_changes, d.matched_transmitted, d.matched_received);
  return std::string(buf) + " tq=" + quality(r.transmitted_quality) +
         " rq=" + quality(r.received_quality);
}

}  // namespace lumichat::core::testutil
