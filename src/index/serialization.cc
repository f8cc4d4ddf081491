#include "index/serialization.h"

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "sax/sax_scheme.h"
#include "sfa/sfa_scheme.h"

namespace sofa {
namespace index {
namespace {

constexpr char kMagic[8] = {'S', 'O', 'F', 'A', 'I', 'D', 'X', '1'};
constexpr std::uint8_t kSchemeSax = 0;
constexpr std::uint8_t kSchemeSfa = 1;

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) {
      std::fclose(f);
    }
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

// ------------------------------------------------------------- writing

class Writer {
 public:
  explicit Writer(std::FILE* file) : file_(file) {}
  explicit Writer(std::string* bytes) : bytes_(bytes) {}

  bool ok() const { return ok_; }

  void Bytes(const void* data, std::size_t size) {
    if (bytes_ != nullptr) {
      bytes_->append(static_cast<const char*>(data), size);
    } else if (ok_ && std::fwrite(data, 1, size, file_) != size) {
      ok_ = false;
    }
  }

  template <typename T>
  void Pod(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    Bytes(&value, sizeof(T));
  }

  void U64(std::uint64_t v) { Pod(v); }
  void U8(std::uint8_t v) { Pod(v); }

  void String(const std::string& s) {
    U64(s.size());
    Bytes(s.data(), s.size());
  }

 private:
  std::FILE* file_ = nullptr;
  std::string* bytes_ = nullptr;  // set: append here instead of the file
  bool ok_ = true;
};

void WriteNode(Writer* w, const Node& node) {
  w->U8(node.is_leaf() ? 1 : 0);
  w->Bytes(node.prefixes.data(), node.prefixes.size());
  w->Bytes(node.cards.data(), node.cards.size());
  w->Pod(static_cast<std::uint16_t>(node.split_dim));
  if (node.is_leaf()) {
    w->U64(node.leaf_size());
    w->Bytes(node.series_ids.data(),
             node.series_ids.size() * sizeof(std::uint32_t));
    w->Bytes(node.words.data(), node.words.size());
    return;
  }
  WriteNode(w, *node.left);
  WriteNode(w, *node.right);
}

// The scheme kind and payload; false for a scheme type the format does
// not know.
bool WriteScheme(Writer* w, const quant::SummaryScheme& scheme) {
  if (const auto* sfa = dynamic_cast<const sfa::SfaScheme*>(&scheme)) {
    w->U8(kSchemeSfa);
    w->U64(sfa->series_length());
    w->U64(sfa->alphabet());
    w->U64(sfa->word_length());
    w->String(sfa->name());
    for (const auto ref : sfa->selected_values()) {
      w->Pod(static_cast<std::uint16_t>(ref.coeff));
      w->U8(ref.imag ? 1 : 0);
    }
    // Interior edges come back out of the padded bound arrays.
    for (std::size_t d = 0; d < sfa->word_length(); ++d) {
      for (std::size_t s = 1; s < sfa->alphabet(); ++s) {
        w->Pod(sfa->table().lower_bounds()[d * sfa->alphabet() + s]);
      }
    }
    return true;
  }
  if (dynamic_cast<const sax::SaxScheme*>(&scheme) != nullptr) {
    w->U8(kSchemeSax);
    w->U64(scheme.series_length());
    w->U64(scheme.word_length());
    w->U64(scheme.alphabet());
    return true;
  }
  return false;
}

// True when both schemes serialize to the same bytes.
bool SameScheme(const quant::SummaryScheme& a,
                const quant::SummaryScheme& b) {
  std::string a_bytes;
  std::string b_bytes;
  Writer a_writer(&a_bytes);
  Writer b_writer(&b_bytes);
  return WriteScheme(&a_writer, a) && WriteScheme(&b_writer, b) &&
         a_bytes == b_bytes;
}

// ------------------------------------------------------------- reading

class Reader {
 public:
  explicit Reader(std::FILE* file) : file_(file) {}

  bool ok() const { return ok_; }

  bool Bytes(void* out, std::size_t size) {
    if (ok_ && std::fread(out, 1, size, file_) != size) {
      ok_ = false;
    }
    return ok_;
  }

  template <typename T>
  T Pod() {
    T value{};
    Bytes(&value, sizeof(T));
    return value;
  }

  std::uint64_t U64() { return Pod<std::uint64_t>(); }
  std::uint8_t U8() { return Pod<std::uint8_t>(); }

  std::string String(std::size_t max_size = 1 << 20) {
    const std::uint64_t size = U64();
    if (size > max_size) {
      ok_ = false;
      return {};
    }
    std::string s(size, '\0');
    Bytes(s.data(), size);
    return s;
  }

 private:
  std::FILE* file_;
  bool ok_ = true;
};

std::unique_ptr<Node> ReadNode(Reader* r, std::size_t word_length,
                               std::size_t data_size, int depth) {
  if (!r->ok() || depth > 200) {  // depth bound guards corrupted files
    return nullptr;
  }
  const bool is_leaf = r->U8() != 0;
  auto node = std::make_unique<Node>(word_length);
  r->Bytes(node->prefixes.data(), word_length);
  r->Bytes(node->cards.data(), word_length);
  node->split_dim = r->Pod<std::uint16_t>();
  if (is_leaf) {
    const std::uint64_t count = r->U64();
    if (count > data_size) {
      return nullptr;
    }
    node->series_ids.resize(count);
    node->words.resize(count * word_length);
    r->Bytes(node->series_ids.data(), count * sizeof(std::uint32_t));
    r->Bytes(node->words.data(), count * word_length);
    if (!r->ok()) {
      return nullptr;
    }
    for (std::size_t i = 0; i < count; ++i) {
      if (node->series_ids[i] >= data_size) {
        return nullptr;
      }
    }
    return node;
  }
  node->left = ReadNode(r, word_length, data_size, depth + 1);
  node->right = ReadNode(r, word_length, data_size, depth + 1);
  if (node->left == nullptr || node->right == nullptr ||
      node->split_dim >= word_length) {
    return nullptr;
  }
  return node;
}

}  // namespace

bool SaveIndex(const TreeIndex& index, const std::string& path) {
  FilePtr file(std::fopen(path.c_str(), "wb"));
  if (file == nullptr) {
    return false;
  }
  Writer w(file.get());
  w.Bytes(kMagic, sizeof(kMagic));

  if (!WriteScheme(&w, index.scheme())) {
    return false;  // unknown scheme type
  }

  // Config + shape.
  const IndexConfig& config = index.config();
  w.U64(config.leaf_capacity);
  w.U8(config.split_policy == SplitPolicy::kBestBalance ? 0 : 1);
  w.U64(index.root_bits());
  w.U64(index.data().size());
  w.U64(index.data().length());

  // Forest.
  w.U64(index.subtrees().size());
  for (const auto& [key, node] : index.subtrees()) {
    w.Pod(key);
    WriteNode(&w, *node);
  }
  return w.ok();
}

std::optional<LoadedIndex> LoadIndex(
    const std::string& path, const Dataset* data, ThreadPool* pool,
    std::shared_ptr<const quant::SummaryScheme> reuse) {
  if (data == nullptr || pool == nullptr) {
    return std::nullopt;
  }
  FilePtr file(std::fopen(path.c_str(), "rb"));
  if (file == nullptr) {
    return std::nullopt;
  }
  Reader r(file.get());
  char magic[8];
  if (!r.Bytes(magic, sizeof(magic)) ||
      std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return std::nullopt;
  }

  LoadedIndex result;
  const std::uint8_t scheme_kind = r.U8();
  if (scheme_kind == kSchemeSfa) {
    sfa::SfaSpec spec;
    spec.series_length = r.U64();
    spec.alphabet = r.U64();
    const std::uint64_t word_length = r.U64();
    if (!r.ok() || word_length == 0 || word_length > 4096 ||
        spec.alphabet < 2 || spec.alphabet > 256) {
      return std::nullopt;
    }
    spec.name = r.String();
    for (std::uint64_t d = 0; d < word_length; ++d) {
      sfa::ValueRef ref;
      ref.coeff = r.Pod<std::uint16_t>();
      ref.imag = r.U8() != 0;
      spec.selected.push_back(ref);
    }
    for (std::uint64_t d = 0; d < word_length; ++d) {
      std::vector<float> edges(spec.alphabet - 1);
      r.Bytes(edges.data(), edges.size() * sizeof(float));
      spec.edges.push_back(std::move(edges));
    }
    if (!r.ok() || spec.series_length != data->length()) {
      return std::nullopt;
    }
    result.scheme = std::make_unique<sfa::SfaScheme>(spec);
  } else if (scheme_kind == kSchemeSax) {
    const std::uint64_t series_length = r.U64();
    const std::uint64_t word_length = r.U64();
    const std::uint64_t alphabet = r.U64();
    if (!r.ok() || series_length != data->length() || word_length == 0 ||
        word_length > series_length || alphabet < 2 || alphabet > 256) {
      return std::nullopt;
    }
    result.scheme =
        std::make_unique<sax::SaxScheme>(series_length, word_length,
                                         alphabet);
  } else {
    return std::nullopt;
  }

  IndexConfig config;
  config.leaf_capacity = r.U64();
  config.split_policy =
      r.U8() == 0 ? SplitPolicy::kBestBalance : SplitPolicy::kRoundRobin;
  const std::uint64_t root_bits = r.U64();
  const std::uint64_t data_size = r.U64();
  const std::uint64_t data_length = r.U64();
  if (!r.ok() || root_bits == 0 || root_bits > 16 ||
      data_size != data->size() || data_length != data->length()) {
    return std::nullopt;
  }
  config.root_bits = root_bits;

  const std::size_t word_length = result.scheme->word_length();
  std::vector<std::unique_ptr<Node>> root_children(std::size_t{1}
                                                   << root_bits);
  const std::uint64_t num_subtrees = r.U64();
  if (!r.ok() || num_subtrees > root_children.size()) {
    return std::nullopt;
  }
  for (std::uint64_t s = 0; s < num_subtrees; ++s) {
    const std::uint32_t key = r.Pod<std::uint32_t>();
    if (!r.ok() || key >= root_children.size() ||
        root_children[key] != nullptr) {
      return std::nullopt;
    }
    root_children[key] = ReadNode(&r, word_length, data->size(), 0);
    if (root_children[key] == nullptr) {
      return std::nullopt;
    }
  }

  if (reuse != nullptr && SameScheme(*result.scheme, *reuse)) {
    result.scheme = std::move(reuse);
  }
  result.tree = TreeIndex::FromParts(data, result.scheme.get(), config, pool,
                                     std::move(root_children), root_bits);
  return result;
}

}  // namespace index
}  // namespace sofa
