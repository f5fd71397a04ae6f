// .htsnap persistence: round-trip fidelity, byte determinism, and the
// malformed-input corpus.
//
// The loader contract under test: a snapshot that came back from
// open()/open_bytes() answers queries identically to the in-memory
// artifacts it was built from, re-serializes byte-identically, and NO
// byte-level corruption — truncation, bit flips, hostile offsets, wrong
// endianness — may ever crash the loader (CI runs this file under
// ASan/UBSan): every malformed input is a Status.

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "cuttree/tree.hpp"
#include "cuttree/tree_bisection.hpp"
#include "cuttree/vertex_cut_tree.hpp"
#include "flow/cut_engine.hpp"
#include "hypergraph/generators.hpp"
#include "hypergraph/hypergraph.hpp"
#include "reduction/star_expansion.hpp"
#include "serve/snapshot_build.hpp"
#include "serve/snapshot_format.hpp"
#include "serve/snapshot_reader.hpp"
#include "serve/snapshot_writer.hpp"
#include "serve/tree_server.hpp"
#include "util/hash64.hpp"
#include "util/rng.hpp"
#include "util/run_context.hpp"
#include "util/thread_pool.hpp"

namespace {

using ht::snapshot::RawHeader;
using ht::snapshot::RawSection;
using ht::snapshot::SectionKind;

ht::hypergraph::Hypergraph test_instance(std::uint64_t seed = 1234) {
  ht::Rng rng(seed);
  auto h = ht::hypergraph::random_uniform(16, 30, 3, rng);
  // The corpus relies on every artifact (incl. Gomory–Hu) being present.
  EXPECT_TRUE(ht::hypergraph::is_connected(h));
  return h;
}

std::string build_bytes(const ht::hypergraph::Hypergraph& h,
                        std::uint64_t seed = 7) {
  ht::snapshot::BuildOptions options;
  options.seed = seed;
  auto bytes = ht::snapshot::build(h, options);
  EXPECT_TRUE(bytes.ok()) << bytes.status().to_string();
  return *bytes;
}

/// Recomputes every checksum (payloads -> TOC -> header) after a test
/// mutated the image, so semantic corruption reaches the semantic
/// validators instead of dying at the integrity layer.
void resign(std::string& bytes) {
  auto* header = reinterpret_cast<RawHeader*>(bytes.data());
  auto* toc = reinterpret_cast<RawSection*>(bytes.data() + header->toc_offset);
  // A hostile section_count / offset / length planted by the test cannot
  // be hashed (the claimed bytes are not in the buffer); the loader
  // rejects those on bounds before ever consulting the checksums, so
  // resign only refreshes what is actually addressable.
  std::uint32_t count = header->section_count;
  if (header->toc_offset > bytes.size() ||
      count > (bytes.size() - header->toc_offset) / sizeof(RawSection)) {
    count = 0;
  }
  for (std::uint32_t i = 0; i < count; ++i) {
    if (toc[i].offset > bytes.size() ||
        toc[i].byte_size > bytes.size() - toc[i].offset) {
      continue;
    }
    toc[i].checksum = ht::hash64(bytes.data() + toc[i].offset,
                                 toc[i].byte_size,
                                 ht::snapshot::kChecksumSeed);
  }
  if (count == header->section_count) {
    header->toc_checksum = ht::hash64(toc, count * sizeof(RawSection),
                                      ht::snapshot::kChecksumSeed);
  }
  header->header_checksum =
      ht::hash64(header, offsetof(RawHeader, header_checksum),
                 ht::snapshot::kChecksumSeed);
}

/// The TOC entry for `kind` (must exist).
RawSection* find_section(std::string& bytes, SectionKind kind) {
  auto* header = reinterpret_cast<RawHeader*>(bytes.data());
  auto* toc = reinterpret_cast<RawSection*>(bytes.data() + header->toc_offset);
  for (std::uint32_t i = 0; i < header->section_count; ++i) {
    if (toc[i].kind == static_cast<std::uint32_t>(kind)) return &toc[i];
  }
  ADD_FAILURE() << "section " << static_cast<unsigned>(kind) << " missing";
  return nullptr;
}

// ---------------------------------------------------------------------------
// Round trips.

TEST(SnapshotRoundTrip, SectionsAndMetaSurvive) {
  const auto h = test_instance();
  auto snap = ht::snapshot::open_bytes(build_bytes(h));
  ASSERT_TRUE(snap.ok()) << snap.status().to_string();

  const auto& meta = snap->meta();
  EXPECT_EQ(meta.num_vertices, h.num_vertices());
  EXPECT_EQ(meta.num_edges, h.num_edges());
  EXPECT_DOUBLE_EQ(meta.total_edge_weight, h.total_edge_weight());
  EXPECT_EQ(meta.build_seed, 7u);
  EXPECT_TRUE(snap->has(SectionKind::kMeta));
  EXPECT_TRUE(snap->has(SectionKind::kPins));
  EXPECT_TRUE(snap->has(SectionKind::kGhParent));
  EXPECT_TRUE(snap->has(SectionKind::kVctParent));
  EXPECT_TRUE(snap->has(SectionKind::kDecompParent));

  auto vw = snap->section<double>(SectionKind::kVertexWeights);
  ASSERT_TRUE(vw.ok());
  ASSERT_EQ(static_cast<std::int64_t>(vw->size()), h.num_vertices());
  for (ht::hypergraph::VertexId v = 0; v < h.num_vertices(); ++v) {
    EXPECT_DOUBLE_EQ((*vw)[static_cast<std::size_t>(v)], h.vertex_weight(v));
  }
  auto pins = snap->section<std::int32_t>(SectionKind::kPins);
  auto offsets = snap->section<std::int64_t>(SectionKind::kPinOffsets);
  ASSERT_TRUE(pins.ok());
  ASSERT_TRUE(offsets.ok());
  for (ht::hypergraph::EdgeId e = 0; e < h.num_edges(); ++e) {
    const auto begin = (*offsets)[static_cast<std::size_t>(e)];
    const auto expected = h.pins(e);
    ASSERT_EQ((*offsets)[static_cast<std::size_t>(e) + 1] - begin,
              static_cast<std::int64_t>(expected.size()));
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ((*pins)[static_cast<std::size_t>(begin) + i], expected[i]);
    }
  }
}

TEST(SnapshotRoundTrip, QueriesMatchInMemoryArtifacts) {
  const auto h = test_instance();
  auto state = ht::serve::LoadedSnapshot::load(
      std::move(*ht::snapshot::open_bytes(build_bytes(h))));
  ASSERT_TRUE(state.ok()) << state.status().to_string();
  const ht::serve::LoadedSnapshot& loaded = **state;

  // Gomory–Hu answers equal a fresh in-memory build (same deterministic
  // algorithm, no seed involved).
  const auto gh = ht::CutEngine().gomory_hu(h);
  ASSERT_TRUE(gh.status.ok());
  ASSERT_TRUE(loaded.gomory_hu.has_value());
  for (ht::hypergraph::VertexId s = 0; s < h.num_vertices(); ++s) {
    for (ht::hypergraph::VertexId t = s + 1; t < h.num_vertices(); ++t) {
      EXPECT_DOUBLE_EQ(loaded.gomory_hu->min_cut(s, t),
                       gh.tree.min_cut(s, t));
    }
  }

  // The stored vertex cut tree is byte-equal to rebuilding with the
  // snapshot's seed.
  const auto star = ht::reduction::star_expansion(h);
  ht::cuttree::VertexCutTreeOptions options;
  options.seed = 7;
  const auto rebuilt =
      ht::cuttree::build_vertex_cut_tree(star.graph, options);
  ASSERT_TRUE(loaded.vertex_cut_tree.has_value());
  EXPECT_EQ(ht::cuttree::tree_signature(*loaded.vertex_cut_tree),
            ht::cuttree::tree_signature(rebuilt.tree));

  // And the bisection DP on the loaded tree reproduces the in-memory DP.
  std::vector<ht::cuttree::VertexId> counted;
  for (ht::hypergraph::VertexId v = 0; v < h.num_vertices(); ++v) {
    counted.push_back(v);
  }
  const auto from_snapshot =
      ht::cuttree::balanced_tree_bisection(*loaded.vertex_cut_tree, counted);
  const auto from_memory =
      ht::cuttree::balanced_tree_bisection(rebuilt.tree, counted);
  ASSERT_TRUE(from_snapshot.valid);
  EXPECT_EQ(from_snapshot.side, from_memory.side);
  EXPECT_DOUBLE_EQ(from_snapshot.tree_cut, from_memory.tree_cut);
}

TEST(SnapshotRoundTrip, ReserializationIsByteIdentical) {
  const auto h = test_instance();
  const std::string first = build_bytes(h);
  const std::string second = build_bytes(h);
  ASSERT_EQ(first.size(), second.size());
  EXPECT_EQ(0, std::memcmp(first.data(), second.data(), first.size()));
}

// At more than one pool thread the three artifacts build concurrently;
// the ring (n = 600) is big enough for all three to overlap. The bytes
// must not depend on how they interleaved.
TEST(SnapshotRoundTrip, ByteIdenticalAcrossThreadCounts) {
  for (const auto& h :
       {test_instance(), ht::hypergraph::ring_of_clusters(60, 10)}) {
    ht::ThreadPool::reset_global(1);
    const std::string serial = build_bytes(h);
    ht::ThreadPool::reset_global(4);
    const std::string parallel = build_bytes(h);
    ht::ThreadPool::reset_global();
    ASSERT_EQ(serial.size(), parallel.size());
    EXPECT_EQ(0, std::memcmp(serial.data(), parallel.data(), serial.size()));
  }
}

// The ambient RunContext's thread count (the CLI's --threads / HT_THREADS
// path) must not leak into the artifact either: snapshots are
// content-addressable regardless of how parallel the build was.
TEST(SnapshotRoundTrip, ByteIdenticalAcrossContextThreadCounts) {
  const auto h = test_instance();
  std::string bytes_1;
  {
    ht::RunContext ctx;
    ctx.threads = 1;
    ht::RunScope scope(ctx);
    bytes_1 = build_bytes(h);
  }
  std::string bytes_4;
  {
    ht::RunContext ctx;
    ctx.threads = 4;
    ht::RunScope scope(ctx);
    bytes_4 = build_bytes(h);
  }
  ASSERT_EQ(bytes_1.size(), bytes_4.size());
  EXPECT_EQ(0, std::memcmp(bytes_1.data(), bytes_4.data(), bytes_1.size()));
  ht::snapshot::BuildOptions options;
  options.seed = 7;
  ht::snapshot::BuildReport report;
  ht::RunContext ctx;
  ctx.threads = 3;
  ht::RunScope scope(ctx);
  ASSERT_TRUE(ht::snapshot::build(h, options, &report).ok());
  EXPECT_EQ(report.build_threads, 3u);  // provenance lives in the report
}

// The piece budget counts across all three builders, so a budgeted build
// keeps the serial order at any pool size: the budget below runs
// Gomory–Hu to completion (n - 1 applied pieces) and stops inside the
// vertex cut tree. Interleaving the builders would spend pieces on the
// trees while Gomory–Hu is still applying, and stop it early.
TEST(SnapshotRoundTrip, PieceBudgetStopsAtSameArtifactAcrossThreadCounts) {
  const auto h = ht::hypergraph::ring_of_clusters(60, 10);
  const auto budget = static_cast<std::uint64_t>(h.num_vertices() - 1) + 3;
  const auto budgeted = [&](std::size_t threads,
                            ht::snapshot::BuildReport* report) {
    ht::ThreadPool::reset_global(threads);
    ht::RunContext ctx;
    ctx.with_piece_budget(budget);
    ht::RunScope scope(ctx);
    ht::snapshot::BuildOptions options;
    options.seed = 7;
    auto bytes = ht::snapshot::build(h, options, report);
    EXPECT_TRUE(bytes.ok()) << bytes.status().to_string();
    return bytes.ok() ? *bytes : std::string();
  };
  ht::snapshot::BuildReport serial_report, parallel_report;
  const std::string serial = budgeted(1, &serial_report);
  const std::string parallel = budgeted(4, &parallel_report);
  ht::ThreadPool::reset_global();
  for (const auto* report : {&serial_report, &parallel_report}) {
    EXPECT_TRUE(report->gomory_hu_status.ok());
    EXPECT_EQ(report->vertex_cut_tree_status.code(),
              ht::StatusCode::kResourceExhausted);
    EXPECT_EQ(report->decomposition_status.code(),
              ht::StatusCode::kResourceExhausted);
  }
  EXPECT_EQ(serial.size(), parallel.size());
  EXPECT_TRUE(serial == parallel);
}

TEST(SnapshotRoundTrip, FileWriteThenMmapOpen) {
  const auto h = test_instance();
  const std::string path = testing::TempDir() + "roundtrip.htsnap";
  ht::snapshot::BuildOptions options;
  options.seed = 7;
  ASSERT_TRUE(ht::snapshot::write(h, path, options).ok());
  auto mapped = ht::snapshot::open(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().to_string();
  auto in_memory = ht::snapshot::open_bytes(build_bytes(h));
  ASSERT_TRUE(in_memory.ok());
  ASSERT_EQ(mapped->size_bytes(), in_memory->size_bytes());
  EXPECT_EQ(mapped->header().file_size, in_memory->header().file_size);
  auto a = mapped->section<std::int32_t>(SectionKind::kPins);
  auto b = in_memory->section<std::int32_t>(SectionKind::kPins);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->size(), b->size());
  EXPECT_EQ(0, std::memcmp(a->data(), b->data(), a->size_bytes()));
  std::remove(path.c_str());
}

TEST(SnapshotRoundTrip, BuildInfoSurvives) {
  const auto h = test_instance();
  ht::snapshot::BuildOptions options;
  options.build_info = "test build\nrev abc123";
  auto bytes = ht::snapshot::build(h, options);
  ASSERT_TRUE(bytes.ok());
  auto snap = ht::snapshot::open_bytes(std::move(*bytes));
  ASSERT_TRUE(snap.ok());
  EXPECT_EQ(snap->build_info(), "test build\nrev abc123");
}

// ---------------------------------------------------------------------------
// Golden fixture: a v1 snapshot checked into the repo. Guards format
// compatibility — if parsing v1 images breaks, this fails before any
// cross-version CI job does. Answers are asserted as values, not bytes,
// so the test is compiler-portable.

TEST(SnapshotGolden, V1FixtureLoadsAndAnswers) {
  const std::string path =
      std::string(HT_TEST_DATA_DIR) + "/golden_v1_small16.htsnap";
  auto server = ht::TreeServer::open(path);
  ASSERT_TRUE(server.ok()) << server.status().to_string();
  const auto info = server->info();
  EXPECT_EQ(info.num_vertices, 16);
  EXPECT_EQ(info.num_edges, 20);
  EXPECT_EQ(info.format_version, 1u);
  EXPECT_TRUE(info.has_gomory_hu);
  EXPECT_TRUE(info.has_vertex_cut_tree);
  EXPECT_TRUE(info.has_decomposition);
  EXPECT_TRUE(info.gomory_hu_exact);

  auto minc = server->min_cut(0, 5);
  ASSERT_TRUE(minc.ok()) << minc.status().to_string();
  EXPECT_NEAR(minc->value, 4.0, 1e-9);
  EXPECT_TRUE(minc->exact);

  auto bisect = server->bisection();
  ASSERT_TRUE(bisect.ok()) << bisect.status().to_string();
  std::int64_t side1 = 0;
  for (const bool s : bisect->side) side1 += s ? 1 : 0;
  EXPECT_EQ(side1, 8);
  EXPECT_GT(bisect->cut, 0.0);

  auto kway = server->kway(4);
  ASSERT_TRUE(kway.ok()) << kway.status().to_string();
  std::vector<int> sizes(4, 0);
  for (const std::int32_t p : kway->part) {
    ASSERT_GE(p, 0);
    ASSERT_LT(p, 4);
    ++sizes[static_cast<std::size_t>(p)];
  }
  for (const int size : sizes) EXPECT_EQ(size, 4);
}

// ---------------------------------------------------------------------------
// Malformed corpus: every case must produce a Status, never a crash.

class SnapshotCorpus : public testing::Test {
 protected:
  void SetUp() override { bytes_ = build_bytes(test_instance()); }

  void expect_rejected(std::string mutated, const char* why) {
    auto snap = ht::snapshot::open_bytes(std::move(mutated));
    EXPECT_FALSE(snap.ok()) << "loader accepted " << why;
  }

  std::string bytes_;
};

TEST_F(SnapshotCorpus, EmptyFile) { expect_rejected("", "an empty file"); }

TEST_F(SnapshotCorpus, TruncatedHeader) {
  expect_rejected(bytes_.substr(0, 10), "a truncated header");
  expect_rejected(bytes_.substr(0, sizeof(RawHeader) - 1),
                  "a header one byte short");
}

TEST_F(SnapshotCorpus, TruncatedEverywhere) {
  // Cutting the file at any length below full size must be caught by the
  // size / bounds / checksum chain.
  for (std::size_t len : {sizeof(RawHeader), bytes_.size() / 2,
                          bytes_.size() - 1}) {
    expect_rejected(bytes_.substr(0, len), "a truncated file");
  }
}

TEST_F(SnapshotCorpus, BadMagic) {
  std::string mutated = bytes_;
  mutated[0] = 'X';
  expect_rejected(std::move(mutated), "a bad magic");
}

TEST_F(SnapshotCorpus, OppositeEndianness) {
  std::string mutated = bytes_;
  auto* header = reinterpret_cast<RawHeader*>(mutated.data());
  // What a big-endian writer would have produced for the mark.
  header->endian_mark = __builtin_bswap32(ht::snapshot::kEndianMark);
  auto snap = ht::snapshot::open_bytes(std::move(mutated));
  ASSERT_FALSE(snap.ok());
  EXPECT_NE(snap.status().message().find("endian"), std::string::npos);
}

TEST_F(SnapshotCorpus, VersionOutsideWindow) {
  for (std::uint32_t version :
       {0u, ht::snapshot::kFormatVersion + 1, 0xFFFFFFFFu}) {
    std::string mutated = bytes_;
    reinterpret_cast<RawHeader*>(mutated.data())->version = version;
    resign(mutated);
    expect_rejected(std::move(mutated), "an unsupported version");
  }
}

TEST_F(SnapshotCorpus, HeaderChecksumFlip) {
  std::string mutated = bytes_;
  reinterpret_cast<RawHeader*>(mutated.data())->file_size ^= 1;
  expect_rejected(std::move(mutated), "a header bit flip");
}

TEST_F(SnapshotCorpus, TocChecksumFlip) {
  std::string mutated = bytes_;
  mutated[sizeof(RawHeader) + 4] ^= 0x40;  // inside the first TOC entry
  expect_rejected(std::move(mutated), "a TOC bit flip");
}

TEST_F(SnapshotCorpus, PayloadBitFlip) {
  std::string mutated = bytes_;
  mutated[mutated.size() - 3] ^= 0x01;  // inside the last payload
  expect_rejected(std::move(mutated), "a payload bit flip");
}

TEST_F(SnapshotCorpus, OversizedSectionOffset) {
  for (std::uint64_t offset :
       {bytes_.size(), bytes_.size() + 1024,
        static_cast<std::size_t>(0x7FFFFFFFFFFFFFF0ULL)}) {
    std::string mutated = bytes_;
    find_section(mutated, SectionKind::kPins)->offset = offset;
    resign(mutated);
    expect_rejected(std::move(mutated), "an out-of-bounds section offset");
  }
}

TEST_F(SnapshotCorpus, OversizedSectionLength) {
  // byte_size chosen so offset + byte_size overflows to a small value —
  // the classic bounds-check bypass; the loader must use overflow-safe
  // arithmetic.
  std::string mutated = bytes_;
  auto* section = find_section(mutated, SectionKind::kPins);
  section->byte_size = ~0ULL - section->offset + 8;
  resign(mutated);
  expect_rejected(std::move(mutated), "an overflowing section length");
}

TEST_F(SnapshotCorpus, HostileSectionCount) {
  std::string mutated = bytes_;
  reinterpret_cast<RawHeader*>(mutated.data())->section_count = 0xFFFFFFFFu;
  resign(mutated);
  expect_rejected(std::move(mutated), "a hostile section count");
}

TEST_F(SnapshotCorpus, MisalignedSectionOffset) {
  std::string mutated = bytes_;
  find_section(mutated, SectionKind::kPins)->offset += 1;
  resign(mutated);
  expect_rejected(std::move(mutated), "a misaligned section offset");
}

TEST_F(SnapshotCorpus, DuplicateSectionKind) {
  std::string mutated = bytes_;
  find_section(mutated, SectionKind::kEdgeWeights)->kind =
      static_cast<std::uint32_t>(SectionKind::kVertexWeights);
  resign(mutated);
  expect_rejected(std::move(mutated), "a duplicate section kind");
}

TEST_F(SnapshotCorpus, ElementSizeMismatch) {
  auto snap = ht::snapshot::open_bytes(std::string(bytes_));
  ASSERT_TRUE(snap.ok());
  // Reading an i32 section as f64 must fail cleanly, not reinterpret.
  auto wrong = snap->section<double>(SectionKind::kPins);
  EXPECT_FALSE(wrong.ok());
}

TEST_F(SnapshotCorpus, MissingMeta) {
  std::string mutated = bytes_;
  // Retype the meta section to an unknown kind: the loader skips unknown
  // kinds (forward compat) and must then reject the metadata-less file.
  find_section(mutated, SectionKind::kMeta)->kind = 0xFFFFu;
  resign(mutated);
  expect_rejected(std::move(mutated), "a snapshot without kMeta");
}

TEST_F(SnapshotCorpus, UnknownSectionKindIsSkipped) {
  std::string mutated = bytes_;
  // Forward compatibility: an unknown kind on a NON-required section is
  // ignored; the file still loads (and still checksums).
  find_section(mutated, SectionKind::kVctSeparators)->kind = 0xFFFFu;
  resign(mutated);
  auto snap = ht::snapshot::open_bytes(std::move(mutated));
  EXPECT_TRUE(snap.ok()) << snap.status().to_string();
  EXPECT_FALSE(snap->has(SectionKind::kVctSeparators));
}

// Checksum-valid but semantically corrupt images: the serve-layer
// validators must catch what the integrity layer cannot.

TEST_F(SnapshotCorpus, SemanticPinOutOfRange) {
  std::string mutated = bytes_;
  const auto* section = find_section(mutated, SectionKind::kPins);
  *reinterpret_cast<std::int32_t*>(mutated.data() + section->offset) = 999;
  resign(mutated);
  auto snap = ht::snapshot::open_bytes(std::move(mutated));
  ASSERT_TRUE(snap.ok());  // integrity layer is fine with it
  auto loaded = ht::serve::LoadedSnapshot::load(std::move(*snap));
  EXPECT_FALSE(loaded.ok());
}

TEST_F(SnapshotCorpus, SemanticGomoryHuCycle) {
  std::string mutated = bytes_;
  const auto* section = find_section(mutated, SectionKind::kGhParent);
  auto* parent =
      reinterpret_cast<std::int32_t*>(mutated.data() + section->offset);
  // Point two non-root vertices at each other: a 2-cycle unreachable from
  // the root.
  parent[14] = 15;
  parent[15] = 14;
  resign(mutated);
  auto snap = ht::snapshot::open_bytes(std::move(mutated));
  ASSERT_TRUE(snap.ok());
  auto loaded = ht::serve::LoadedSnapshot::load(std::move(*snap));
  EXPECT_FALSE(loaded.ok());
}

TEST_F(SnapshotCorpus, SemanticTreeParentOrderViolation) {
  std::string mutated = bytes_;
  const auto* section = find_section(mutated, SectionKind::kVctParent);
  auto* parent =
      reinterpret_cast<std::int32_t*>(mutated.data() + section->offset);
  parent[1] = 2;  // Tree invariant: parent(v) < v
  resign(mutated);
  auto snap = ht::snapshot::open_bytes(std::move(mutated));
  ASSERT_TRUE(snap.ok());
  auto loaded = ht::serve::LoadedSnapshot::load(std::move(*snap));
  EXPECT_FALSE(loaded.ok());
}

TEST_F(SnapshotCorpus, SemanticMetaCountMismatch) {
  std::string mutated = bytes_;
  const auto* section = find_section(mutated, SectionKind::kMeta);
  auto* meta = reinterpret_cast<ht::snapshot::MetaBlock*>(mutated.data() +
                                                          section->offset);
  meta->num_vertices += 1;
  resign(mutated);
  auto snap = ht::snapshot::open_bytes(std::move(mutated));
  ASSERT_TRUE(snap.ok());
  auto loaded = ht::serve::LoadedSnapshot::load(std::move(*snap));
  EXPECT_FALSE(loaded.ok());
}

TEST_F(SnapshotCorpus, RandomSingleByteFlips) {
  // A light fuzz pass: flipping any single byte must never crash; it
  // either fails validation or (for don't-care bytes like padding or the
  // timestamp) still loads.
  ht::Rng rng(99);
  for (int trial = 0; trial < 200; ++trial) {
    std::string mutated = bytes_;
    const auto pos = static_cast<std::size_t>(rng() % mutated.size());
    mutated[pos] ^= static_cast<char>(1 + (rng() % 255));
    auto snap = ht::snapshot::open_bytes(std::move(mutated));
    if (snap.ok()) {
      auto loaded = ht::serve::LoadedSnapshot::load(std::move(*snap));
      (void)loaded;  // either outcome is fine — just must not crash
    }
  }
}

// ---------------------------------------------------------------------------
// Writer-side validation.

TEST(SnapshotWriter, RejectsDuplicateKinds) {
  ht::snapshot::Writer writer;
  const double values[2] = {1.0, 2.0};
  writer.add_span(SectionKind::kVertexWeights,
                  std::span<const double>(values, 2));
  writer.add_span(SectionKind::kVertexWeights,
                  std::span<const double>(values, 2));
  EXPECT_FALSE(writer.serialize().ok());
}

TEST(SnapshotWriter, RejectsIndivisiblePayload) {
  ht::snapshot::Writer writer;
  const char raw[5] = {0, 1, 2, 3, 4};
  writer.add_bytes(SectionKind::kPins, 4, raw, 5);
  EXPECT_FALSE(writer.serialize().ok());
}

TEST(SnapshotBuild, RejectsUnusableInputs) {
  ht::hypergraph::Hypergraph unfinalized(4);
  unfinalized.add_edge({0, 1});
  EXPECT_FALSE(ht::snapshot::build(unfinalized).ok());

  ht::hypergraph::Hypergraph tiny(1);
  tiny.finalize();
  EXPECT_FALSE(ht::snapshot::build(tiny).ok());
}

}  // namespace
