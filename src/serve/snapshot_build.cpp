#include "serve/snapshot_build.hpp"

#include <cstring>
#include <functional>
#include <iterator>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "cuttree/decomposition_tree.hpp"
#include "cuttree/vertex_cut_tree.hpp"
#include "flow/cut_engine.hpp"
#include "obs/trace.hpp"
#include "reduction/clique_expansion.hpp"
#include "reduction/star_expansion.hpp"
#include "util/run_context.hpp"
#include "util/thread_pool.hpp"

namespace ht::snapshot {

namespace {

using hypergraph::EdgeId;
using hypergraph::Hypergraph;
using hypergraph::VertexId;

template <typename T>
std::span<const T> to_span(const std::vector<T>& v) {
  return {v.data(), v.size()};
}

/// Flattens a cuttree::Tree into the four snapshot arrays.
struct TreeArrays {
  std::vector<std::int32_t> parent;
  std::vector<double> node_weight;
  std::vector<double> edge_weight;
  std::vector<std::int32_t> vertex_node;

  explicit TreeArrays(const cuttree::Tree& t) {
    const auto n = static_cast<std::size_t>(t.num_nodes());
    parent.reserve(n);
    node_weight.reserve(n);
    edge_weight.reserve(n);
    for (cuttree::NodeId v = 0; v < t.num_nodes(); ++v) {
      parent.push_back(t.parent(v));
      node_weight.push_back(t.node_weight(v));
      edge_weight.push_back(t.edge_weight(v));
    }
    const auto vertices = static_cast<std::size_t>(t.num_embedded_vertices());
    vertex_node.reserve(vertices);
    for (cuttree::VertexId v = 0; v < t.num_embedded_vertices(); ++v) {
      vertex_node.push_back(t.node_of_vertex(v));
    }
  }
};

}  // namespace

StatusOr<std::string> build(const Hypergraph& h, const BuildOptions& options,
                            BuildReport* report) {
  obs::TraceSpan span("snapshot.build");
  if (!h.finalized()) {
    return Status::InvalidArgument("snapshot build needs a finalized "
                                   "hypergraph");
  }
  const VertexId n = h.num_vertices();
  if (n < 2) {
    return Status::InvalidArgument("snapshot build needs >= 2 vertices");
  }

  BuildReport local_report;
  BuildReport& rep = report != nullptr ? *report : local_report;
  rep = BuildReport{};

  // Preprocessing first: every artifact below is built on the reduced
  // instance, and the lifting map is frozen into the snapshot so the
  // server can keep answering in original vertex ids.
  prep::PrepResult prep_result;
  const Hypergraph* instance = &h;
  bool prep_applied = false;
  if (options.prep.mode != prep::PrepConfig::Mode::kOff) {
    auto pipeline = prep::run_pipeline(h, options.prep);
    rep.prep_status = pipeline.status();
    prep_result = std::move(*pipeline);
    prep_applied = prep_result.applied();
    if (prep_applied) instance = &prep_result.reduced;
  }
  const Hypergraph& stored = *instance;
  const VertexId stored_n = stored.num_vertices();
  const EdgeId stored_m = stored.num_edges();
  rep.stored_vertices = stored_n;
  rep.stored_edges = stored_m;
  rep.prep_applied = prep_applied;
  rep.prep_stage_flags = prep_result.stage_flags;
  rep.prep_exact = prep_result.exact();

  MetaBlock meta;
  std::memset(&meta, 0, sizeof(meta));
  meta.build_seed = options.seed;
  meta.num_vertices = stored_n;
  meta.num_edges = stored_m;
  meta.total_edge_weight = stored.total_edge_weight();
  meta.total_vertex_weight = stored.total_vertex_weight();
  // meta.build_threads stays 0: like created_unix_s, the live thread count
  // is provenance that would break byte-determinism across thread counts,
  // so it is reported in BuildReport instead of the checksummed artifact.
  rep.build_threads = static_cast<std::uint32_t>(env_default_threads());
  if (const RunState* run = current_run_state(); run != nullptr) {
    rep.build_threads =
        run->context().threads != 0
            ? static_cast<std::uint32_t>(run->context().threads)
            : rep.build_threads;
  }

  // Hypergraph CSR — rebuilt from the public accessors, written as the
  // flat arrays the reader serves zero-copy.
  std::vector<double> vertex_weights(static_cast<std::size_t>(stored_n));
  for (VertexId v = 0; v < stored_n; ++v) {
    vertex_weights[static_cast<std::size_t>(v)] = stored.vertex_weight(v);
  }
  std::vector<double> edge_weights(static_cast<std::size_t>(stored_m));
  std::vector<std::int64_t> pin_offsets;
  std::vector<std::int32_t> pins;
  pin_offsets.reserve(static_cast<std::size_t>(stored_m) + 1);
  pin_offsets.push_back(0);
  for (EdgeId e = 0; e < stored_m; ++e) {
    edge_weights[static_cast<std::size_t>(e)] = stored.edge_weight(e);
    for (VertexId v : stored.pins(e)) pins.push_back(v);
    pin_offsets.push_back(static_cast<std::int64_t>(pins.size()));
  }
  meta.num_pins = static_cast<std::int64_t>(pins.size());

  Writer writer;
  writer.set_timestamp(options.timestamp_unix_s);

  // The three artifacts are independent builds over `stored`. Each builder
  // writes only its own arrays and its own BuildReport/MetaBlock fields;
  // the shared completeness bits are merged after the join.
  bool gh_complete = false;
  bool vct_complete = false;
  bool decomp_complete = false;

  // Gomory–Hu tree: exact min s-t cut answers. Needs connectivity.
  std::vector<std::int32_t> gh_parent;
  std::vector<double> gh_parent_cut;
  const auto build_gomory_hu = [&] {
    if (!options.include_gomory_hu || !hypergraph::is_connected(stored))
      return;
    const auto gh = CutEngine().gomory_hu(stored);
    rep.gomory_hu_status = gh.status;
    rep.gomory_hu_present = true;
    gh_parent.assign(gh.tree.parent.begin(), gh.tree.parent.end());
    gh_parent_cut = gh.tree.parent_cut;
    meta.gh_root = gh.tree.root;
    meta.gh_applied = gh.applied;
    gh_complete = gh.status.ok();
  };

  // Section 3.1 vertex cut tree of the star expansion (Corollary 3's
  // serving artifact: bisection + set-cut queries become tree DPs).
  std::optional<TreeArrays> vct;
  std::vector<std::int32_t> vct_separators;
  const auto build_vct = [&] {
    if (!options.include_vertex_cut_tree) return;
    const auto star = reduction::star_expansion(stored);
    cuttree::VertexCutTreeOptions vct_options;
    vct_options.seed = options.seed;
    vct_options.alpha = options.alpha;
    const auto result =
        cuttree::build_vertex_cut_tree(star.graph, vct_options);
    rep.vertex_cut_tree_status = result.status;
    rep.vertex_cut_tree_present = true;
    rep.vct_nodes = result.tree.num_nodes();
    vct.emplace(result.tree);
    vct_separators.assign(result.separator_vertices.begin(),
                          result.separator_vertices.end());
    meta.vct_num_nodes = result.tree.num_nodes();
    meta.vct_num_pieces = result.num_pieces;
    meta.vct_separator_weight = result.separator_weight;
    meta.vct_threshold = result.threshold;
    meta.vct_root = result.tree.root();
    vct_complete = result.status.ok();
  };

  // Decomposition tree of the clique expansion (k-way queries via the
  // edge-cut tree DP, Lemma 1 distortion).
  std::optional<TreeArrays> decomp;
  const auto build_decomp = [&] {
    if (!options.include_decomposition) return;
    graph::Graph expansion = reduction::clique_expansion(stored);
    if (!expansion.finalized()) expansion.finalize();
    cuttree::DecompositionOptions decomp_options;
    decomp_options.seed = options.seed;
    auto result =
        cuttree::build_decomposition_tree_run(expansion, decomp_options);
    rep.decomposition_status = result.status;
    rep.decomposition_present = true;
    rep.decomp_nodes = result.tree.num_nodes();
    decomp.emplace(result.tree);
    meta.decomp_num_nodes = result.tree.num_nodes();
    meta.decomp_root = result.tree.root();
    decomp_complete = result.status.ok();
  };

  // Build the artifacts concurrently on the pool. Gomory–Hu, the longest
  // serial chain, is item 0 so it is claimed first. Every builder is
  // deterministic on its own, so the bytes do not depend on the schedule.
  // parallel_for runs the items in order on a one-thread pool, which has no
  // spare core. A piece budget also keeps the serial order: note_piece()
  // counts across all three builders, so an interleaved run would stop at
  // a schedule-dependent piece.
  const std::function<void()> builders[] = {build_gomory_hu, build_vct,
                                            build_decomp};
  const RunState* run = current_run_state();
  if (run != nullptr && run->context().piece_budget != 0) {
    for (const auto& builder : builders) builder();
  } else {
    parallel_for(std::size(builders),
                 [&builders](std::size_t i) { builders[i](); });
  }
  if (gh_complete) meta.artifact_flags |= kGomoryHuComplete;
  if (vct_complete) meta.artifact_flags |= kVertexCutTreeComplete;
  if (decomp_complete) meta.artifact_flags |= kDecompositionComplete;

  writer.add_meta(meta);
  writer.add_span(SectionKind::kVertexWeights, to_span(vertex_weights));
  writer.add_span(SectionKind::kEdgeWeights, to_span(edge_weights));
  writer.add_span(SectionKind::kPinOffsets, to_span(pin_offsets));
  writer.add_span(SectionKind::kPins, to_span(pins));
  if (rep.gomory_hu_present) {
    writer.add_span(SectionKind::kGhParent, to_span(gh_parent));
    writer.add_span(SectionKind::kGhParentCut, to_span(gh_parent_cut));
  }
  if (vct.has_value()) {
    writer.add_span(SectionKind::kVctParent, to_span(vct->parent));
    writer.add_span(SectionKind::kVctNodeWeight, to_span(vct->node_weight));
    writer.add_span(SectionKind::kVctEdgeWeight, to_span(vct->edge_weight));
    writer.add_span(SectionKind::kVctVertexNode, to_span(vct->vertex_node));
    writer.add_span(SectionKind::kVctSeparators, to_span(vct_separators));
  }
  if (decomp.has_value()) {
    writer.add_span(SectionKind::kDecompParent, to_span(decomp->parent));
    writer.add_span(SectionKind::kDecompNodeWeight,
                    to_span(decomp->node_weight));
    writer.add_span(SectionKind::kDecompEdgeWeight,
                    to_span(decomp->edge_weight));
    writer.add_span(SectionKind::kDecompVertexNode,
                    to_span(decomp->vertex_node));
  }
  std::vector<std::int32_t> prep_map;
  std::string prep_stages_text;
  if (prep_applied) {
    PrepBlock prep_block;
    std::memset(&prep_block, 0, sizeof(prep_block));
    prep_block.orig_num_pins = prep_result.total_pins_before;
    prep_block.prep_seed = options.prep.sparsify.seed;
    prep_block.orig_num_vertices = n;
    prep_block.orig_num_edges = h.num_edges();
    prep_block.stage_flags = prep_result.stage_flags;
    prep_block.mode = static_cast<std::uint32_t>(options.prep.mode);
    prep_block.rounds = prep_result.rounds;
    writer.add_bytes(SectionKind::kPrepMeta, sizeof(PrepBlock), &prep_block,
                     sizeof(PrepBlock));
    prep_map.assign(prep_result.lifting.map().begin(),
                    prep_result.lifting.map().end());
    writer.add_span(SectionKind::kPrepVertexMap, to_span(prep_map));
    for (const prep::StageInfo& stage : prep_result.stages) {
      prep_stages_text += stage.name;
      prep_stages_text += stage.exact ? " exact" : " lossy";
      prep_stages_text += " n " + std::to_string(stage.vertices_before) +
                          "->" + std::to_string(stage.vertices_after);
      prep_stages_text += " m " + std::to_string(stage.edges_before) + "->" +
                          std::to_string(stage.edges_after);
      prep_stages_text += " pins " + std::to_string(stage.pins_before) +
                          "->" + std::to_string(stage.pins_after);
      prep_stages_text += " rounds " + std::to_string(stage.rounds) + "\n";
    }
    writer.add_bytes(SectionKind::kPrepStages, 1, prep_stages_text.data(),
                     prep_stages_text.size());
  }
  if (!options.build_info.empty()) {
    writer.add_build_info(options.build_info);
  }

  auto bytes = writer.serialize();
  if (!bytes.ok()) return bytes.status();
  rep.bytes = bytes->size();
  return bytes;
}

Status write(const Hypergraph& h, const std::string& path,
             const BuildOptions& options, BuildReport* report) {
  auto bytes = build(h, options, report);
  if (!bytes.ok()) return bytes.status();
  return write_bytes_atomic(path, *bytes);
}

}  // namespace ht::snapshot
