// Tests for the out-of-core paths (docs/SCALE.md): the incremental v2
// binary writer (DagStreamWriter), the chunked CSR-native binary reader,
// the workload registry's streaming generation (make_dag_stream), and the
// byte-offset/section diagnostics of the binary parser, including a
// fuzz-ish sweep over every truncation length of a real file.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/graph/dag_io.hpp"
#include "src/graph/generators.hpp"
#include "src/workload/workload_registry.hpp"

namespace mbsp {
namespace {

std::string temp_path(const std::string& leaf) {
  return ::testing::TempDir() + "/" + leaf;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void spill(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Streams `dag` through DagStreamWriter exactly as a generator would:
/// counts first, nodes in id order, edges u-major in stored-child order.
std::uint64_t stream_copy(const ComputeDag& dag, const std::string& path) {
  DagStreamWriter writer(path);
  writer.begin(dag.name(), static_cast<std::uint64_t>(dag.num_nodes()));
  for (NodeId v = 0; v < dag.num_nodes(); ++v) {
    writer.add_node(dag.omega(v), dag.mu(v));
  }
  writer.begin_edges(static_cast<std::uint64_t>(dag.num_edges()));
  for (NodeId u = 0; u < dag.num_nodes(); ++u) {
    for (NodeId v : dag.children(u)) writer.add_edge(u, v);
  }
  std::uint64_t hash = 0;
  EXPECT_TRUE(writer.finish(&hash)) << writer.error();
  return hash;
}

TEST(StreamIo, WriterMatchesInMemoryEncoderBitwise) {
  Rng rng(33);
  ComputeDag dag = spmv_dag(8, 3, rng, "stream vs in-memory");
  assign_random_memory_weights(dag, rng);
  const std::string path = temp_path("stream_writer_bitwise.bin");
  const std::uint64_t hash = stream_copy(dag, path);
  EXPECT_EQ(hash, dag_canonical_hash(dag));
  EXPECT_EQ(slurp(path), dag_to_binary(dag));
}

TEST(StreamIo, TextToStreamedBinaryToTextIsBitwiseIdentity) {
  Rng rng(91);
  for (int trial = 0; trial < 8; ++trial) {
    ComputeDag dag = random_layered_dag(40 + trial * 9, 3 + trial % 4, rng);
    assign_random_memory_weights(dag, rng);
    dag.set_name("stream prop " + std::to_string(trial));
    const std::string text = dag_to_text(dag);
    const std::string path = temp_path("stream_roundtrip.bin");
    stream_copy(dag, path);
    std::string error;
    const auto loaded = read_dag_file(path, &error);
    ASSERT_TRUE(loaded.has_value()) << error;
    EXPECT_TRUE(loaded->csr_native());
    EXPECT_EQ(dag_to_text(*loaded), text);
    EXPECT_EQ(dag_canonical_hash(*loaded), dag_canonical_hash(dag));
  }
}

TEST(StreamIo, WriterEnforcesProtocolAndLatchesErrors) {
  {
    DagStreamWriter writer(temp_path("stream_protocol.bin"));
    writer.begin("x", 2);
    writer.add_node(1, 1);
    writer.add_node(1, 1);
    writer.begin_edges(2);
    writer.add_edge(1, 0);  // ok so far (stored order within u = 1)
    writer.add_edge(0, 1);  // u went backwards: not u-major
    EXPECT_FALSE(writer.ok());
    EXPECT_NE(writer.error().find("u-major"), std::string::npos)
        << writer.error();
    EXPECT_FALSE(writer.finish());
  }
  {
    DagStreamWriter writer(temp_path("stream_protocol.bin"));
    writer.begin("x", 2);
    writer.add_node(1, 1);
    writer.add_node(1, 1);
    writer.begin_edges(1);
    EXPECT_FALSE(writer.finish());  // declared 1 edge, emitted 0
    EXPECT_NE(writer.error().find("edge"), std::string::npos)
        << writer.error();
  }
  {
    DagStreamWriter writer("/nonexistent-dir/cannot.bin");
    EXPECT_FALSE(writer.ok());
    writer.begin("x", 0);  // no-op after the open failure latched
    EXPECT_FALSE(writer.finish());
  }
}

TEST(StreamIo, RegistryStreamingMatchesInMemoryAcrossFamilies) {
  const WorkloadRegistry& registry = WorkloadRegistry::global();
  const std::vector<std::string> specs = {
      "stencil2d:nx=5,ny=4,steps=3",
      "stencil3d:nx=3,ny=4,nz=2,steps=2",
      "wavefront:nx=6,ny=3",
      "fft:n=16",
      "mapreduce:maps=5,reducers=3,rounds=3",
      // mu=unit exercises the non-randomized wrapper path.
      "stencil2d:nx=4,ny=4,steps=2,mu=unit",
  };
  for (const std::string& spec : specs) {
    ASSERT_TRUE(registry.supports_streaming(spec)) << spec;
    std::string error;
    const auto in_memory = registry.make_dag(spec, /*seed=*/7, &error);
    ASSERT_TRUE(in_memory.has_value()) << spec << ": " << error;

    const std::string path = temp_path("stream_family.bin");
    DagStreamWriter writer(path);
    ASSERT_TRUE(registry.make_dag_stream(spec, /*seed=*/7, writer, &error))
        << spec << ": " << error;
    std::uint64_t hash = 0;
    ASSERT_TRUE(writer.finish(&hash)) << spec << ": " << writer.error();
    EXPECT_EQ(hash, dag_canonical_hash(*in_memory)) << spec;

    const auto streamed = read_dag_file(path, &error);
    ASSERT_TRUE(streamed.has_value()) << spec << ": " << error;
    EXPECT_EQ(streamed->name(), in_memory->name()) << spec;
    EXPECT_EQ(streamed->num_nodes(), in_memory->num_nodes()) << spec;
    EXPECT_EQ(streamed->num_edges(), in_memory->num_edges()) << spec;
    EXPECT_EQ(dag_canonical_hash(*streamed), dag_canonical_hash(*in_memory))
        << spec;
  }
}

TEST(StreamIo, RegistryStreamingErrorNamesTheFamily) {
  const WorkloadRegistry& registry = WorkloadRegistry::global();
  EXPECT_FALSE(registry.supports_streaming("lu:blocks=4"));
  const std::string path = temp_path("stream_unsupported.bin");
  DagStreamWriter writer(path);
  std::string error;
  EXPECT_FALSE(registry.make_dag_stream("lu:blocks=4", /*seed=*/1, writer,
                                        &error));
  EXPECT_NE(error.find("'lu'"), std::string::npos) << error;
  EXPECT_NE(error.find("stencil2d"), std::string::npos) << error;
  // Spec errors surface with the same offending-token messages as make_dag.
  EXPECT_FALSE(registry.make_dag_stream("stencil2d:bogus=1", /*seed=*/1,
                                        writer, &error));
  EXPECT_NE(error.find("bogus"), std::string::npos) << error;
}

TEST(StreamIo, BinaryErrorsReportOffsetSectionAndFileSize) {
  Rng rng(17);
  ComputeDag dag = spmv_dag(5, 3, rng, "diagnose me");
  const std::string bytes = dag_to_binary(dag);
  std::string error;
  // Truncated mid-edges: the message carries all three diagnostics.
  EXPECT_FALSE(
      dag_from_binary(bytes.substr(0, bytes.size() - 11), &error).has_value());
  EXPECT_NE(error.find("truncated"), std::string::npos) << error;
  EXPECT_NE(error.find("byte offset"), std::string::npos) << error;
  EXPECT_NE(error.find("section"), std::string::npos) << error;
  EXPECT_NE(error.find(std::to_string(bytes.size() - 11)), std::string::npos)
      << error;
}

TEST(StreamIo, WrappingEdgeCountIsATruncationError) {
  // One node, then an edge count of 2^61 + 1 and 8 more bytes: m * 8 wraps
  // to exactly the bytes left, so a product-based guard passes and the
  // edge buffer reservation throws. Both read paths must report a typed
  // truncation of the edge section instead.
  std::string bytes = "MBSPDAG2";
  const auto put = [&](std::uint64_t v, int width) {
    for (int i = 0; i < width; ++i) {
      bytes.push_back(static_cast<char>(v >> (8 * i)));
    }
  };
  put(0, 4);                 // empty name
  put(1, 4);                 // one node
  put(0, 8);                 // its omega
  put(0, 8);                 // its mu
  put((1ULL << 61) + 1, 8);  // edge count
  put(0, 8);                 // 8 bytes left
  std::string error;
  EXPECT_FALSE(dag_from_binary(bytes, &error).has_value());
  EXPECT_NE(error.find("truncated"), std::string::npos) << error;
  EXPECT_NE(error.find("section 'edges'"), std::string::npos) << error;
  const std::string path = temp_path("wrapping_edge_count.bin");
  spill(path, bytes);
  error.clear();
  EXPECT_FALSE(read_dag_file(path, &error).has_value());
  EXPECT_NE(error.find("section 'edges'"), std::string::npos) << error;
  std::remove(path.c_str());
}

TEST(StreamIo, EveryTruncationLengthIsRejectedWithDiagnostics) {
  // Fuzz-ish sweep: chop a real file at every possible length; the parser
  // must reject every prefix (no prefix of a valid file is valid, thanks
  // to the hash footer) and always say where and in which section it gave
  // up.
  Rng rng(5);
  ComputeDag dag = random_layered_dag(24, 3, rng);
  dag.set_name("truncate me");
  const std::string bytes = dag_to_binary(dag);
  const std::string path = temp_path("stream_truncation.bin");
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    std::string error;
    EXPECT_FALSE(dag_from_binary(bytes.substr(0, len), &error).has_value())
        << "length " << len;
    if (len >= 8) {  // past the magic, the offset diagnostics kick in
      EXPECT_NE(error.find("byte offset"), std::string::npos)
          << "length " << len << ": " << error;
      EXPECT_NE(error.find("section"), std::string::npos)
          << "length " << len << ": " << error;
    }
    // The file-backed reader reports the same failure.
    if (len == bytes.size() / 2) {
      spill(path, bytes.substr(0, len));
      const auto loaded = read_dag_file(path, &error);
      EXPECT_FALSE(loaded.has_value());
      EXPECT_NE(error.find("truncated"), std::string::npos) << error;
    }
  }
  // The untruncated bytes still parse (the sweep used the real encoder).
  EXPECT_TRUE(dag_from_binary(bytes).has_value());
}

TEST(StreamIo, ReadDagFileLoadsBinaryAsCsrNative) {
  Rng rng(3);
  ComputeDag dag = spmv_dag(6, 3, rng, "csr native load");
  const std::string path = temp_path("stream_csr_native.bin");
  ASSERT_TRUE(write_dag_file(dag, path, /*binary=*/true));
  std::string error;
  const auto loaded = read_dag_file(path, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_TRUE(loaded->csr_native());
  // Mutation thaws the CSR-native storage transparently.
  ComputeDag copy = *loaded;
  const NodeId extra = copy.add_node(1, 1);
  copy.add_edge(0, extra);
  EXPECT_EQ(copy.num_nodes(), loaded->num_nodes() + 1);
  EXPECT_FALSE(copy.csr_native());
  EXPECT_TRUE(loaded->csr_native());  // the source is untouched
}

}  // namespace
}  // namespace mbsp
