// Workload definitions of the e2e benchmark: what each one builds, with
// which options, and why it is in the benchmark.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace e2e {

enum class BuildPath { kInMemory, kSharded };

constexpr std::int32_t kRingBlockSize = 10;

/// One workload at one size. The benchmark runs the full size; the
/// benchmark's own tests run the `smoke` size of the same family.
struct Workload {
  std::string name;
  BuildPath path = BuildPath::kInMemory;
  /// Build threads (clamped to the machine's core count at run time).
  std::size_t threads = 1;
  bool prep_exact = false;
  // Sharded build shape (kSharded only).
  std::int32_t shards = 0;
  std::int32_t resident = 0;
  std::size_t budget_bytes = 0;
  // Family parameters.
  std::int32_t ring_blocks = 0;     // ring-of-clusters: blocks of 10
  std::int32_t planted_half = 0;    // planted bisection: vertices per side
  std::int32_t planted_edges = 0;   //   3-uniform nets inside each side
  std::int32_t planted_cross = 0;   //   nets across the planted cut
  std::int32_t copies = 1;          // times every net is written
  /// Why the workload is in the benchmark, and where its build time is
  /// predicted to go. Printed with every record.
  std::string why;
  std::string predicted;

  std::int32_t num_vertices() const {
    return ring_blocks > 0 ? ring_blocks * kRingBlockSize : 2 * planted_half;
  }
};

/// The named workload, full size or smoke size; false for an unknown name.
bool find_workload(const std::string& name, bool smoke, Workload* out);

/// Writes the workload's instance as a plain hMetis file (`m n` header, one
/// line of 1-indexed pins per net). The instance is fixed per workload; a
/// run's seed draws only its queries.
void write_instance(const Workload& w, const std::string& path);

}  // namespace e2e
