#include "util/perf_counters.hpp"

#include <sstream>

namespace ht {

namespace {

obs::MetricsRegistry& registry() { return obs::MetricsRegistry::global(); }

}  // namespace

PerfCounters::PerfCounters()
    : pieces_(registry().counter("engine.pieces")),
      max_flow_calls_(registry().counter("flow.max_flow_calls")),
      tasks_(registry().counter("pool.tasks")),
      max_queue_depth_(registry().gauge("pool.max_queue_depth")),
      flow_builds_(registry().counter("flow.builds")) {}

PerfCounters& PerfCounters::global() {
  // Never destroyed, like MetricsRegistry::global(): a pool worker counts
  // its task after resolving the caller's future, so it can still be
  // running when main returns.
  static PerfCounters* counters = new PerfCounters();
  return *counters;
}

void PerfCounters::reset() { registry().reset_all(); }

std::string PerfCounters::report() const {
  std::ostringstream os;
  os << "perf: pieces=" << pieces() << " max_flow_calls=" << max_flow_calls()
     << " pool_tasks=" << tasks() << " max_queue_depth=" << max_queue_depth()
     << "\n";
  os << "perf: flow_builds=" << flow_builds() << "\n";
  return os.str();
}

}  // namespace ht
