// Aggregates a collected trace into per-span-name totals and self times.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace e2e {

struct SpanTotals {
  std::int64_t count = 0;
  double total_s = 0.0;
  /// Duration minus the part of the span's interval its child spans
  /// cover (children on other threads included, overlaps counted once).
  double self_s = 0.0;
};

/// Totals per span name, over every event of the trace.
std::map<std::string, SpanTotals> summarize(
    const std::vector<ht::obs::TraceEvent>& events);

/// Time inside the spans named `name` that no layer span accounts for: their
/// own self time plus the self time of their direct children (the library's
/// top-level build span), so only time covered by a span two levels down, a
/// layer, counts as attributed.
double unattributed_s(const std::vector<ht::obs::TraceEvent>& events,
                      const std::string& name);

}  // namespace e2e
