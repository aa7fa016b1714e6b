#include "src/graph/dag_io.hpp"

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <vector>

#include "src/graph/topology.hpp"

namespace mbsp {

namespace {

constexpr char kBinaryMagic[8] = {'M', 'B', 'S', 'P', 'D', 'A', 'G', '2'};
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

std::string format_weight(double w) {
  char buf[64];
  // %.17g round-trips IEEE doubles; trim to plain form where possible.
  std::snprintf(buf, sizeof(buf), "%.17g", w);
  return buf;
}

bool fail(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
  return false;
}

/// Little-endian byte writer / FNV hasher over the same primitive layout,
/// so the canonical hash and the binary encoding agree bit for bit.
/// Pass hashing = false for pure writers (the per-byte FNV loop is the
/// dominant cost of emitting large binary files otherwise).
class ByteSink {
 public:
  explicit ByteSink(std::string* out = nullptr, bool hashing = true)
      : out_(out), hashing_(hashing) {}

  void bytes(const void* data, std::size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    if (hashing_) {
      for (std::size_t i = 0; i < size; ++i) {
        hash_ = (hash_ ^ p[i]) * kFnvPrime;
      }
    }
    if (out_ != nullptr) out_->append(reinterpret_cast<const char*>(p), size);
  }
  void u32(std::uint32_t v) {
    unsigned char b[4];
    for (int i = 0; i < 4; ++i) b[i] = static_cast<unsigned char>(v >> (8 * i));
    bytes(b, 4);
  }
  void u64(std::uint64_t v) {
    unsigned char b[8];
    for (int i = 0; i < 8; ++i) b[i] = static_cast<unsigned char>(v >> (8 * i));
    bytes(b, 8);
  }
  void f64(double d) { u64(std::bit_cast<std::uint64_t>(d)); }

  std::uint64_t hash() const { return hash_; }

 private:
  std::string* out_;
  bool hashing_;
  std::uint64_t hash_ = kFnvOffset;
};

/// Byte supplier for the chunked binary parser: a file or an in-memory
/// string, with the total size known up front and the running offset
/// tracked so parse errors can name the exact byte position.
class Feed {
 public:
  virtual ~Feed() = default;
  /// Copies up to `size` bytes into `out`; returns the count delivered
  /// (short only at end of input).
  virtual std::size_t read(void* out, std::size_t size) = 0;
  std::size_t pos() const { return pos_; }
  std::size_t size() const { return size_; }
  std::size_t remaining() const { return size_ - pos_; }

 protected:
  std::size_t pos_ = 0;
  std::size_t size_ = 0;
};

class StringFeed final : public Feed {
 public:
  explicit StringFeed(const std::string& bytes) : bytes_(bytes) {
    size_ = bytes.size();
  }
  std::size_t read(void* out, std::size_t size) override {
    const std::size_t take = std::min(size, bytes_.size() - pos_);
    std::copy_n(bytes_.data() + pos_, take, static_cast<char*>(out));
    pos_ += take;
    return take;
  }

 private:
  const std::string& bytes_;
};

class FileFeed final : public Feed {
 public:
  /// Takes ownership of `file` (must be open, positioned at 0).
  FileFeed(std::FILE* file, std::size_t file_size) : file_(file) {
    size_ = file_size;
    buffer_.resize(1u << 20);
    std::setvbuf(file_, buffer_.data(), _IOFBF, buffer_.size());
  }
  ~FileFeed() override {
    if (file_ != nullptr) std::fclose(file_);
  }
  std::size_t read(void* out, std::size_t size) override {
    const std::size_t got = std::fread(out, 1, size, file_);
    pos_ += got;
    return got;
  }

 private:
  std::FILE* file_;
  std::vector<char> buffer_;
};

std::uint32_t decode_u32(const unsigned char* b) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(b[i]) << (8 * i);
  return v;
}

std::uint64_t decode_u64(const unsigned char* b) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(b[i]) << (8 * i);
  return v;
}

/// Streams the canonical form of `dag` (header-free; sorted edges) into
/// `sink`. Shared by the hash and the binary footer.
void stream_canonical(const ComputeDag& dag, ByteSink& sink) {
  sink.bytes(dag.name().data(), dag.name().size());
  sink.u32(0);  // name terminator (names cannot contain NUL-NUL-NUL-NUL)
  sink.u32(static_cast<std::uint32_t>(dag.num_nodes()));
  for (NodeId v = 0; v < dag.num_nodes(); ++v) {
    sink.f64(dag.omega(v));
    sink.f64(dag.mu(v));
  }
  sink.u64(dag.num_edges());
  for (NodeId u = 0; u < dag.num_nodes(); ++u) {
    const auto span = dag.children(u);
    std::vector<NodeId> children(span.begin(), span.end());
    std::sort(children.begin(), children.end());
    for (NodeId v : children) {
      sink.u32(static_cast<std::uint32_t>(u));
      sink.u32(static_cast<std::uint32_t>(v));
    }
  }
}

/// Chunked v2 binary parser shared by the in-memory and file paths.
/// Decodes straight into CSR arrays (no per-node vectors), folds the
/// canonical hash in on the fly, and reports byte offset + section + file
/// size on truncation or corruption.
std::optional<ComputeDag> parse_binary_stream(Feed& in, std::string* error) {
  std::uint64_t hash = kFnvOffset;
  const auto hash_bytes = [&](const void* data, std::size_t size) {
    hash = fnv1a_64(data, size, hash);
  };
  const auto hash_u32 = [&](std::uint32_t v) {
    unsigned char b[4];
    for (int i = 0; i < 4; ++i) b[i] = static_cast<unsigned char>(v >> (8 * i));
    hash_bytes(b, 4);
  };
  const auto hash_u64 = [&](std::uint64_t v) {
    unsigned char b[8];
    for (int i = 0; i < 8; ++i) b[i] = static_cast<unsigned char>(v >> (8 * i));
    hash_bytes(b, 8);
  };

  // Error helpers: every message carries the byte offset where decoding
  // stopped, the section being decoded, and the file size.
  const auto at = [&](const std::string& message, const char* section) {
    return message + " (at byte offset " + std::to_string(in.pos()) +
           ", section '" + section + "', file size " +
           std::to_string(in.size()) + " bytes)";
  };
  const auto truncated = [&](const char* section, std::uint64_t need) {
    fail(error, at("truncated file: " + std::to_string(need) +
                       " more byte(s) expected",
                   section));
    return std::nullopt;
  };
  // Reads exactly `size` bytes or reports truncation of `section`.
  const auto read_exact = [&](void* out, std::size_t size,
                              const char* section) {
    return in.read(out, size) == size ? true
                                      : (fail(error, at("truncated file: " +
                                                            std::to_string(
                                                                size) +
                                                            " more byte(s) "
                                                            "expected",
                                                        section)),
                                         false);
  };

  unsigned char scratch[8];
  char magic[8];
  if (!read_exact(magic, sizeof(magic), "magic")) return std::nullopt;
  if (!std::equal(magic, magic + sizeof(magic), kBinaryMagic)) {
    fail(error, "missing 'MBSPDAG2' magic (not a binary DAG)");
    return std::nullopt;
  }

  if (!read_exact(scratch, 4, "name length")) return std::nullopt;
  const std::uint32_t name_len = decode_u32(scratch);
  if (name_len > in.remaining()) return truncated("name", name_len);
  std::string name(name_len, '\0');
  if (!read_exact(name.data(), name_len, "name")) return std::nullopt;
  hash_bytes(name.data(), name.size());
  hash_u32(0);  // canonical name terminator

  if (!read_exact(scratch, 4, "node count")) return std::nullopt;
  const std::uint32_t n = decode_u32(scratch);
  hash_u32(n);
  if (static_cast<std::uint64_t>(n) * 16 > in.remaining()) {
    return truncated("node weights", static_cast<std::uint64_t>(n) * 16);
  }

  std::vector<double> omega, mu;
  omega.reserve(n);
  mu.reserve(n);
  {
    // Decode node weights in fixed-size chunks (16 bytes per node).
    constexpr std::size_t kNodesPerChunk = 4096;
    std::vector<unsigned char> chunk(kNodesPerChunk * 16);
    std::uint32_t done = 0;
    while (done < n) {
      const std::size_t batch =
          std::min<std::size_t>(kNodesPerChunk, n - done);
      if (!read_exact(chunk.data(), batch * 16, "node weights")) {
        return std::nullopt;
      }
      hash_bytes(chunk.data(), batch * 16);
      for (std::size_t i = 0; i < batch; ++i) {
        omega.push_back(
            std::bit_cast<double>(decode_u64(chunk.data() + i * 16)));
        mu.push_back(
            std::bit_cast<double>(decode_u64(chunk.data() + i * 16 + 8)));
      }
      done += static_cast<std::uint32_t>(batch);
    }
  }

  if (!read_exact(scratch, 8, "edge count")) return std::nullopt;
  const std::uint64_t m = decode_u64(scratch);
  hash_u64(m);
  // Divide, don't multiply: m is untrusted, and m * 8 can wrap past a
  // valid-looking size (m = 2^61 + 1 gives 8) and then size succ below.
  if (m > in.remaining() / 8) {
    return truncated("edges", m > UINT64_MAX / 8 ? UINT64_MAX : m * 8);
  }

  // Stream edges straight into the successor CSR. The format is u-major
  // (see the header comment), which lets us fill offsets in one pass and
  // hash each node's sorted child list as soon as it completes.
  std::vector<std::size_t> succ_off(static_cast<std::size_t>(n) + 1, 0);
  std::vector<NodeId> succ;
  succ.reserve(m);
  std::vector<NodeId> sorted_children;  // reused per-u scratch
  std::int64_t prev_u = -1;
  std::size_t u_begin = 0;  // index into succ where prev_u's children start
  const auto flush_u = [&]() -> bool {
    if (prev_u < 0) return true;
    sorted_children.assign(succ.begin() + static_cast<std::ptrdiff_t>(u_begin),
                           succ.end());
    std::sort(sorted_children.begin(), sorted_children.end());
    for (std::size_t i = 0; i < sorted_children.size(); ++i) {
      if (i > 0 && sorted_children[i] == sorted_children[i - 1]) {
        fail(error, at("duplicate edge " + std::to_string(prev_u) + " -> " +
                           std::to_string(sorted_children[i]),
                       "edges"));
        return false;
      }
      hash_u32(static_cast<std::uint32_t>(prev_u));
      hash_u32(static_cast<std::uint32_t>(sorted_children[i]));
    }
    return true;
  };
  {
    constexpr std::size_t kEdgesPerChunk = 8192;
    std::vector<unsigned char> chunk(kEdgesPerChunk * 8);
    std::uint64_t done = 0;
    while (done < m) {
      const std::size_t batch =
          std::min<std::uint64_t>(kEdgesPerChunk, m - done);
      if (!read_exact(chunk.data(), batch * 8, "edges")) return std::nullopt;
      for (std::size_t i = 0; i < batch; ++i) {
        const std::uint32_t u = decode_u32(chunk.data() + i * 8);
        const std::uint32_t v = decode_u32(chunk.data() + i * 8 + 4);
        const std::uint64_t e = done + i;
        if (u >= n || v >= n) {
          fail(error, at("edge " + std::to_string(e) + " endpoint out of "
                             "range [0, " + std::to_string(n) + ")",
                         "edges"));
          return std::nullopt;
        }
        if (u == v) {
          fail(error,
               at("self-loop edge " + std::to_string(u), "edges"));
          return std::nullopt;
        }
        if (static_cast<std::int64_t>(u) < prev_u) {
          fail(error, at("edge " + std::to_string(e) +
                             " breaks u-major order (u=" + std::to_string(u) +
                             " after u=" + std::to_string(prev_u) + ")",
                         "edges"));
          return std::nullopt;
        }
        if (static_cast<std::int64_t>(u) != prev_u) {
          if (!flush_u()) return std::nullopt;
          for (std::int64_t k = prev_u + 1; k <= static_cast<std::int64_t>(u);
               ++k) {
            succ_off[static_cast<std::size_t>(k)] = succ.size();
          }
          prev_u = u;
          u_begin = succ.size();
        }
        succ.push_back(static_cast<NodeId>(v));
      }
      done += batch;
    }
  }
  if (!flush_u()) return std::nullopt;
  for (std::int64_t k = prev_u + 1; k <= static_cast<std::int64_t>(n); ++k) {
    succ_off[static_cast<std::size_t>(k)] = succ.size();
  }

  if (!read_exact(scratch, 8, "hash footer")) return std::nullopt;
  const std::uint64_t stored_hash = decode_u64(scratch);
  if (in.remaining() != 0) {
    fail(error, at(std::to_string(in.remaining()) +
                       " trailing byte(s) after the hash footer",
                   "footer"));
    return std::nullopt;
  }

  ComputeDag dag = ComputeDag::from_csr(std::move(name), std::move(omega),
                                        std::move(mu), std::move(succ_off),
                                        std::move(succ));
  if (!is_acyclic(dag)) {
    fail(error, "edge set contains a cycle");
    return std::nullopt;
  }
  if (hash != stored_hash) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64 " != stored %016" PRIx64,
                  hash, stored_hash);
    fail(error, std::string("canonical hash mismatch (corrupt file): ") + buf);
    return std::nullopt;
  }
  return dag;
}

}  // namespace

std::uint64_t fnv1a_64(const void* data, std::size_t size,
                       std::uint64_t seed) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = seed;
  for (std::size_t i = 0; i < size; ++i) h = (h ^ p[i]) * kFnvPrime;
  return h;
}

std::uint64_t dag_canonical_hash(const ComputeDag& dag) {
  ByteSink sink;
  stream_canonical(dag, sink);
  return sink.hash();
}

std::string dag_hash_hex(std::uint64_t hash) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, hash);
  return buf;
}

std::string dag_to_text(const ComputeDag& dag) {
  std::ostringstream out;
  out << "mbsp-dag v1\n";
  out << "name " << dag.name() << '\n';
  out << "nodes " << dag.num_nodes() << '\n';
  for (NodeId v = 0; v < dag.num_nodes(); ++v) {
    out << format_weight(dag.omega(v)) << ' ' << format_weight(dag.mu(v))
        << '\n';
  }
  out << "edges " << dag.num_edges() << '\n';
  for (NodeId u = 0; u < dag.num_nodes(); ++u) {
    for (NodeId v : dag.children(u)) out << u << ' ' << v << '\n';
  }
  return out.str();
}

std::optional<ComputeDag> dag_from_text(const std::string& text,
                                        std::string* error) {
  std::istringstream in(text);
  std::string line;
  int line_no = 0;
  // Reads the next non-blank line (CR-stripped); false at end of input.
  auto next_line = [&]() -> bool {
    while (std::getline(in, line)) {
      ++line_no;
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (line.find_first_not_of(" \t") != std::string::npos) return true;
    }
    return false;
  };
  auto at_line = [&](const std::string& message) {
    return "line " + std::to_string(line_no) + ": " + message;
  };
  auto truncated = [&](const std::string& expected) {
    return "unexpected end of input after line " + std::to_string(line_no) +
           ": expected " + expected;
  };

  if (!next_line() || line != "mbsp-dag v1") {
    fail(error, line_no == 0 ? "empty input: missing 'mbsp-dag v1' header"
                             : at_line("missing 'mbsp-dag v1' header"));
    return std::nullopt;
  }
  if (!next_line()) {
    fail(error, truncated("'name <string>'"));
    return std::nullopt;
  }
  if (line.rfind("name", 0) != 0 || (line.size() > 4 && line[4] != ' ')) {
    fail(error, at_line("expected 'name <string>'"));
    return std::nullopt;
  }
  const std::string name = line.size() > 5 ? line.substr(5) : "";

  long long n = 0;
  {
    if (!next_line()) {
      fail(error, truncated("'nodes <count>'"));
      return std::nullopt;
    }
    std::istringstream fields(line);
    std::string token;
    if (!(fields >> token >> n) || token != "nodes" || n < 0) {
      fail(error, at_line("expected 'nodes <count>'"));
      return std::nullopt;
    }
  }
  ComputeDag dag(name);
  for (long long i = 0; i < n; ++i) {
    if (!next_line()) {
      fail(error, truncated(std::to_string(n) + " node weight lines, got " +
                            std::to_string(i)));
      return std::nullopt;
    }
    std::istringstream fields(line);
    double omega = 0, mu = 0;
    std::string extra;
    if (!(fields >> omega >> mu) || fields >> extra) {
      fail(error, at_line("bad node weight line (expected '<omega> <mu>')"));
      return std::nullopt;
    }
    dag.add_node(omega, mu);
  }
  long long m = 0;
  {
    if (!next_line()) {
      fail(error, truncated("'edges <count>'"));
      return std::nullopt;
    }
    std::istringstream fields(line);
    std::string token;
    if (!(fields >> token >> m) || token != "edges" || m < 0) {
      fail(error, at_line("expected 'edges <count>'"));
      return std::nullopt;
    }
  }
  for (long long e = 0; e < m; ++e) {
    if (!next_line()) {
      fail(error, truncated(std::to_string(m) + " edge lines, got " +
                            std::to_string(e)));
      return std::nullopt;
    }
    std::istringstream fields(line);
    long long u = 0, v = 0;
    std::string extra;
    if (!(fields >> u >> v) || fields >> extra) {
      fail(error, at_line("bad edge line (expected '<u> <v>')"));
      return std::nullopt;
    }
    if (u < 0 || u >= n || v < 0 || v >= n) {
      fail(error, at_line("edge endpoint out of range [0, " +
                          std::to_string(n) + ")"));
      return std::nullopt;
    }
    if (u == v) {
      fail(error, at_line("self-loop edge " + std::to_string(u)));
      return std::nullopt;
    }
    const std::size_t before = dag.num_edges();
    dag.add_edge(static_cast<NodeId>(u), static_cast<NodeId>(v));
    if (dag.num_edges() == before) {
      fail(error, at_line("duplicate edge " + std::to_string(u) + " -> " +
                          std::to_string(v)));
      return std::nullopt;
    }
  }
  if (next_line()) {
    fail(error, at_line("trailing content after the edge list"));
    return std::nullopt;
  }
  if (!is_acyclic(dag)) {
    fail(error, "edge set contains a cycle");
    return std::nullopt;
  }
  return dag;
}

std::string dag_to_binary(const ComputeDag& dag) {
  std::string out;
  ByteSink sink(&out, /*hashing=*/false);
  sink.bytes(kBinaryMagic, sizeof(kBinaryMagic));
  sink.u32(static_cast<std::uint32_t>(dag.name().size()));
  sink.bytes(dag.name().data(), dag.name().size());
  sink.u32(static_cast<std::uint32_t>(dag.num_nodes()));
  for (NodeId v = 0; v < dag.num_nodes(); ++v) {
    sink.f64(dag.omega(v));
    sink.f64(dag.mu(v));
  }
  sink.u64(dag.num_edges());
  for (NodeId u = 0; u < dag.num_nodes(); ++u) {
    for (NodeId v : dag.children(u)) {
      sink.u32(static_cast<std::uint32_t>(u));
      sink.u32(static_cast<std::uint32_t>(v));
    }
  }
  sink.u64(dag_canonical_hash(dag));
  return out;
}

bool is_binary_dag(const std::string& bytes) {
  return bytes.size() >= sizeof(kBinaryMagic) &&
         std::equal(kBinaryMagic, kBinaryMagic + sizeof(kBinaryMagic),
                    bytes.begin());
}

std::optional<ComputeDag> dag_from_binary(const std::string& bytes,
                                          std::string* error) {
  if (!is_binary_dag(bytes)) {
    fail(error, "missing 'MBSPDAG2' magic (not a binary DAG)");
    return std::nullopt;
  }
  StringFeed in(bytes);
  return parse_binary_stream(in, error);
}

std::optional<ComputeDag> dag_from_bytes(const std::string& bytes,
                                         std::string* error) {
  return is_binary_dag(bytes) ? dag_from_binary(bytes, error)
                              : dag_from_text(bytes, error);
}

bool write_dag_file(const ComputeDag& dag, const std::string& path,
                    bool binary) {
  if (binary) {
    // Stream through DagStreamWriter instead of buffering dag_to_binary's
    // full string: identical bytes, O(max-degree) extra memory.
    DagStreamWriter writer(path);
    writer.begin(dag.name(), static_cast<std::uint64_t>(dag.num_nodes()));
    for (NodeId v = 0; v < dag.num_nodes(); ++v) {
      writer.add_node(dag.omega(v), dag.mu(v));
    }
    writer.begin_edges(dag.num_edges());
    for (NodeId u = 0; u < dag.num_nodes(); ++u) {
      for (NodeId v : dag.children(u)) writer.add_edge(u, v);
    }
    return writer.finish();
  }
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  out << dag_to_text(dag);
  return static_cast<bool>(out);
}

std::optional<ComputeDag> read_dag_file(const std::string& path,
                                        std::string* error) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    if (error != nullptr) *error = "cannot open " + path;
    return std::nullopt;
  }
  // Sniff the magic to pick the format, then rewind.
  char magic[8] = {};
  const std::size_t got = std::fread(magic, 1, sizeof(magic), file);
  if (got == sizeof(magic) &&
      std::equal(magic, magic + sizeof(magic), kBinaryMagic)) {
    // Binary: chunked decode straight into CSR (FileFeed owns the handle).
    if (std::fseek(file, 0, SEEK_END) != 0) {
      std::fclose(file);
      if (error != nullptr) *error = "cannot seek " + path;
      return std::nullopt;
    }
    const long file_size = std::ftell(file);
    std::rewind(file);
    FileFeed in(file, static_cast<std::size_t>(file_size));
    return parse_binary_stream(in, error);
  }
  // Text: small by construction; read whole and reuse the line parser.
  std::rewind(file);
  std::string buffer;
  char chunk[1 << 16];
  std::size_t read = 0;
  while ((read = std::fread(chunk, 1, sizeof(chunk), file)) > 0) {
    buffer.append(chunk, read);
  }
  std::fclose(file);
  return dag_from_text(buffer, error);
}

// ---------------------------------------------------------------------------
// DagStreamWriter

DagStreamWriter::DagStreamWriter(const std::string& path)
    : hash_(kFnvOffset) {
  file_ = std::fopen(path.c_str(), "wb");
  if (file_ == nullptr) {
    set_error("cannot open " + path + " for writing");
    return;
  }
  io_buffer_.resize(1u << 20);
  std::setvbuf(file_, io_buffer_.data(), _IOFBF, io_buffer_.size());
}

DagStreamWriter::~DagStreamWriter() {
  if (file_ != nullptr) std::fclose(file_);
}

void DagStreamWriter::set_error(const std::string& message) {
  if (error_.empty()) error_ = message;
}

void DagStreamWriter::put_bytes(const void* data, std::size_t size) {
  if (!ok() || file_ == nullptr) return;
  if (std::fwrite(data, 1, size, file_) != size) {
    set_error("write failed (disk full?)");
  }
}

void DagStreamWriter::put_u32(std::uint32_t v) {
  unsigned char b[4];
  for (int i = 0; i < 4; ++i) b[i] = static_cast<unsigned char>(v >> (8 * i));
  put_bytes(b, 4);
}

void DagStreamWriter::put_u64(std::uint64_t v) {
  unsigned char b[8];
  for (int i = 0; i < 8; ++i) b[i] = static_cast<unsigned char>(v >> (8 * i));
  put_bytes(b, 8);
}

void DagStreamWriter::put_f64(double d) {
  put_u64(std::bit_cast<std::uint64_t>(d));
}

void DagStreamWriter::hash_bytes(const void* data, std::size_t size) {
  hash_ = fnv1a_64(data, size, hash_);
}

void DagStreamWriter::hash_u32(std::uint32_t v) {
  unsigned char b[4];
  for (int i = 0; i < 4; ++i) b[i] = static_cast<unsigned char>(v >> (8 * i));
  hash_bytes(b, 4);
}

void DagStreamWriter::hash_u64(std::uint64_t v) {
  unsigned char b[8];
  for (int i = 0; i < 8; ++i) b[i] = static_cast<unsigned char>(v >> (8 * i));
  hash_bytes(b, 8);
}

void DagStreamWriter::hash_f64(double d) {
  hash_u64(std::bit_cast<std::uint64_t>(d));
}

void DagStreamWriter::begin(const std::string& name,
                            std::uint64_t num_nodes) {
  if (!ok()) return;
  if (state_ != State::kCreated) {
    set_error("begin() called twice");
    return;
  }
  if (num_nodes > 0xFFFFFFFFull) {
    set_error("node count " + std::to_string(num_nodes) +
              " exceeds the format's u32 limit");
    return;
  }
  state_ = State::kNodes;
  declared_nodes_ = num_nodes;
  put_bytes(kBinaryMagic, sizeof(kBinaryMagic));
  put_u32(static_cast<std::uint32_t>(name.size()));
  put_bytes(name.data(), name.size());
  put_u32(static_cast<std::uint32_t>(num_nodes));
  hash_bytes(name.data(), name.size());
  hash_u32(0);  // canonical name terminator
  hash_u32(static_cast<std::uint32_t>(num_nodes));
}

void DagStreamWriter::add_node(double omega, double mu) {
  if (!ok()) return;
  if (state_ != State::kNodes) {
    set_error("add_node() outside the node section");
    return;
  }
  if (emitted_nodes_ == declared_nodes_) {
    set_error("more add_node() calls than the declared " +
              std::to_string(declared_nodes_));
    return;
  }
  ++emitted_nodes_;
  put_f64(omega);
  put_f64(mu);
  hash_f64(omega);
  hash_f64(mu);
}

void DagStreamWriter::begin_edges(std::uint64_t num_edges) {
  if (!ok()) return;
  if (state_ != State::kNodes) {
    set_error("begin_edges() outside the node section");
    return;
  }
  if (emitted_nodes_ != declared_nodes_) {
    set_error("begin_edges() after " + std::to_string(emitted_nodes_) +
              " of " + std::to_string(declared_nodes_) + " declared nodes");
    return;
  }
  state_ = State::kEdges;
  declared_edges_ = num_edges;
  put_u64(num_edges);
  hash_u64(num_edges);
}

bool DagStreamWriter::flush_pending_children() {
  if (current_u_ == kInvalidNode) return true;
  sorted_children_ = pending_children_;
  std::sort(sorted_children_.begin(), sorted_children_.end());
  for (std::size_t i = 0; i < sorted_children_.size(); ++i) {
    if (i > 0 && sorted_children_[i] == sorted_children_[i - 1]) {
      set_error("duplicate edge " + std::to_string(current_u_) + " -> " +
                std::to_string(sorted_children_[i]));
      return false;
    }
    hash_u32(static_cast<std::uint32_t>(current_u_));
    hash_u32(static_cast<std::uint32_t>(sorted_children_[i]));
  }
  pending_children_.clear();
  return true;
}

void DagStreamWriter::add_edge(NodeId u, NodeId v) {
  if (!ok()) return;
  if (state_ != State::kEdges) {
    set_error("add_edge() outside the edge section");
    return;
  }
  if (emitted_edges_ == declared_edges_) {
    set_error("more add_edge() calls than the declared " +
              std::to_string(declared_edges_));
    return;
  }
  if (u < 0 || v < 0 ||
      static_cast<std::uint64_t>(u) >= declared_nodes_ ||
      static_cast<std::uint64_t>(v) >= declared_nodes_) {
    set_error("edge " + std::to_string(u) + " -> " + std::to_string(v) +
              " endpoint out of range [0, " +
              std::to_string(declared_nodes_) + ")");
    return;
  }
  if (u == v) {
    set_error("self-loop edge " + std::to_string(u));
    return;
  }
  if (current_u_ != kInvalidNode && u < current_u_) {
    set_error("edges must be u-major: u=" + std::to_string(u) +
              " after u=" + std::to_string(current_u_));
    return;
  }
  if (u != current_u_) {
    if (!flush_pending_children()) return;
    current_u_ = u;
  }
  ++emitted_edges_;
  pending_children_.push_back(v);
  put_u32(static_cast<std::uint32_t>(u));
  put_u32(static_cast<std::uint32_t>(v));
}

bool DagStreamWriter::finish(std::uint64_t* hash_out) {
  if (ok()) {
    if (state_ != State::kEdges) {
      set_error(state_ == State::kFinished ? "finish() called twice"
                                           : "finish() before begin_edges()");
    } else if (emitted_edges_ != declared_edges_) {
      set_error("finish() after " + std::to_string(emitted_edges_) + " of " +
                std::to_string(declared_edges_) + " declared edges");
    }
  }
  if (ok()) flush_pending_children();
  if (ok()) {
    put_u64(hash_);
    if (file_ != nullptr && std::fflush(file_) != 0) {
      set_error("flush failed (disk full?)");
    }
  }
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
  if (!ok()) return false;
  state_ = State::kFinished;
  if (hash_out != nullptr) *hash_out = hash_;
  return true;
}

}  // namespace mbsp
