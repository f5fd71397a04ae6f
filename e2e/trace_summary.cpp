#include "trace_summary.hpp"

#include <algorithm>
#include <unordered_map>
#include <utility>

namespace e2e {
namespace {

using Children = std::unordered_map<ht::obs::SpanId, std::vector<std::size_t>>;

Children children_of(const std::vector<ht::obs::TraceEvent>& events) {
  Children children;
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (events[i].parent != 0) children[events[i].parent].push_back(i);
  }
  return children;
}

/// Self time of each event, in seconds.
std::vector<double> self_times(const std::vector<ht::obs::TraceEvent>& events,
                               const Children& children) {
  std::vector<double> out(events.size());
  std::vector<std::pair<double, double>> cover;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const ht::obs::TraceEvent& e = events[i];
    const double lo = e.start_us;
    const double hi = e.start_us + e.dur_us;
    cover.clear();
    if (auto it = children.find(e.id); it != children.end()) {
      for (const std::size_t c : it->second) {
        const double clo = std::max(lo, events[c].start_us);
        const double chi = std::min(hi, events[c].start_us + events[c].dur_us);
        if (chi > clo) cover.emplace_back(clo, chi);
      }
    }
    std::sort(cover.begin(), cover.end());
    double covered = 0.0;
    double end = lo;
    for (const auto& [clo, chi] : cover) {
      const double from = std::max(clo, end);
      if (chi > from) covered += chi - from;
      end = std::max(end, chi);
    }
    out[i] = (e.dur_us - covered) * 1e-6;
  }
  return out;
}

}  // namespace

std::map<std::string, SpanTotals> summarize(
    const std::vector<ht::obs::TraceEvent>& events) {
  const std::vector<double> self = self_times(events, children_of(events));
  std::map<std::string, SpanTotals> out;
  for (std::size_t i = 0; i < events.size(); ++i) {
    SpanTotals& t = out[events[i].name];
    ++t.count;
    t.total_s += events[i].dur_us * 1e-6;
    t.self_s += self[i];
  }
  return out;
}

double unattributed_s(const std::vector<ht::obs::TraceEvent>& events,
                      const std::string& name) {
  const Children children = children_of(events);
  const std::vector<double> self = self_times(events, children);
  double out = 0.0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (events[i].name != name) continue;
    out += self[i];
    if (auto it = children.find(events[i].id); it != children.end()) {
      for (const std::size_t c : it->second) out += self[c];
    }
  }
  return out;
}

}  // namespace e2e
