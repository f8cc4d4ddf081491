#include "index/index_builder.h"

#include <algorithm>
#include <cstring>

#include "util/check.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace sofa {
namespace index {
namespace {

// Everything one subtree build needs; shared read-only across tasks except
// for the disjoint id spans each subtree owns.
struct BuildContext {
  const Dataset* data;
  const quant::SummaryScheme* scheme;
  const IndexConfig* config;
  const std::uint8_t* words;  // N × l full-cardinality words
  std::uint32_t* ids;         // partitioned id array (disjoint spans)
  std::size_t word_length;
  std::uint32_t bits;
};

// The bit a split on `dim` would test for a node whose current cardinality
// on that dimension is `card`: the next-most-significant symbol bit.
inline std::uint32_t NextBit(const std::uint8_t* word, std::size_t dim,
                             std::uint32_t card, std::uint32_t bits) {
  return (word[dim] >> (bits - card - 1)) & 1u;
}

// Number of series in [begin, end) whose next bit on `dim` is 1.
std::size_t CountOnes(const BuildContext& ctx, std::size_t begin,
                      std::size_t end, std::size_t dim, std::uint32_t card) {
  std::size_t ones = 0;
  for (std::size_t i = begin; i < end; ++i) {
    ones += NextBit(ctx.words + ctx.ids[i] * ctx.word_length, dim, card,
                    ctx.bits);
  }
  return ones;
}

// Chooses the split dimension, or returns kNoSplit if every dimension is
// either at full cardinality or splits degenerately (all series on one
// side) — then the leaf stays oversized (duplicate-heavy data).
std::uint16_t ChooseSplitDim(const BuildContext& ctx, const Node& node,
                             std::size_t begin, std::size_t end) {
  const std::size_t count = end - begin;
  const std::size_t l = ctx.word_length;
  if (ctx.config->split_policy == SplitPolicy::kRoundRobin) {
    const std::size_t start =
        node.split_dim == kNoSplit ? 0 : (node.split_dim + 1) % l;
    for (std::size_t step = 0; step < l; ++step) {
      const std::size_t dim = (start + step) % l;
      if (node.cards[dim] >= ctx.bits) {
        continue;
      }
      const std::size_t ones =
          CountOnes(ctx, begin, end, dim, node.cards[dim]);
      if (ones > 0 && ones < count) {
        return static_cast<std::uint16_t>(dim);
      }
    }
    return kNoSplit;
  }
  // Best balance: minimize |ones − count/2| over non-degenerate splits.
  std::uint16_t best_dim = kNoSplit;
  std::size_t best_imbalance = count + 1;
  for (std::size_t dim = 0; dim < l; ++dim) {
    if (node.cards[dim] >= ctx.bits) {
      continue;
    }
    const std::size_t ones = CountOnes(ctx, begin, end, dim, node.cards[dim]);
    if (ones == 0 || ones == count) {
      continue;
    }
    const std::size_t imbalance =
        ones > count - ones ? 2 * ones - count : count - 2 * ones;
    if (imbalance < best_imbalance) {
      best_imbalance = imbalance;
      best_dim = static_cast<std::uint16_t>(dim);
    }
  }
  return best_dim;
}

// Fills `node` as a leaf over ids[begin, end).
void FillLeaf(const BuildContext& ctx, Node* node, std::size_t begin,
              std::size_t end) {
  const std::size_t count = end - begin;
  const std::size_t l = ctx.word_length;
  node->split_dim = kNoSplit;  // may hold the round-robin cursor until now
  node->series_ids.resize(count);
  node->words.resize(count * l);
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint32_t id = ctx.ids[begin + i];
    node->series_ids[i] = id;
    std::memcpy(node->words.data() + i * l, ctx.words + id * l, l);
  }
}

// Recursively builds the subtree of `node` over ids[begin, end).
void BuildNode(const BuildContext& ctx, Node* node, std::size_t begin,
               std::size_t end) {
  const std::size_t count = end - begin;
  if (count <= ctx.config->leaf_capacity) {
    FillLeaf(ctx, node, begin, end);
    return;
  }
  const std::uint16_t dim = ChooseSplitDim(ctx, *node, begin, end);
  if (dim == kNoSplit) {
    FillLeaf(ctx, node, begin, end);  // unsplittable: oversized leaf
    return;
  }
  const std::uint32_t card = node->cards[dim];
  // In-place partition: next-bit 0 first.
  std::uint32_t* first = ctx.ids + begin;
  std::uint32_t* last = ctx.ids + end;
  std::uint32_t* mid = std::partition(first, last, [&](std::uint32_t id) {
    return NextBit(ctx.words + id * ctx.word_length, dim, card, ctx.bits) ==
           0;
  });
  const std::size_t split_at = begin + static_cast<std::size_t>(mid - first);
  SOFA_DCHECK(split_at > begin && split_at < end);

  node->split_dim = dim;
  for (const int bit : {0, 1}) {
    auto child = std::make_unique<Node>(ctx.word_length);
    child->prefixes = node->prefixes;
    child->cards = node->cards;
    child->prefixes[dim] = static_cast<std::uint8_t>(
        (node->prefixes[dim] << 1) | static_cast<std::uint8_t>(bit));
    child->cards[dim] = static_cast<std::uint8_t>(card + 1);
    child->split_dim = dim;  // round-robin continues from here
    if (bit == 0) {
      node->left = std::move(child);
    } else {
      node->right = std::move(child);
    }
  }
  // Children inherit split_dim only as the round-robin cursor; reset to
  // kNoSplit semantics happens implicitly when they become leaves (is_leaf
  // checks children, not split_dim).
  BuildNode(ctx, node->left.get(), begin, split_at);
  BuildNode(ctx, node->right.get(), split_at, end);
}

}  // namespace

BuildResult BuildTree(const Dataset& data,
                      const quant::SummaryScheme& scheme,
                      const IndexConfig& config, std::size_t root_bits,
                      ThreadPool* pool) {
  SOFA_CHECK(pool != nullptr);
  BuildResult result;
  const std::size_t n_series = data.size();
  const std::size_t l = scheme.word_length();
  const std::uint32_t bits = scheme.bits();
  const std::size_t num_root_children = std::size_t{1} << root_bits;
  result.root_children.resize(num_root_children);
  if (n_series == 0) {
    return result;
  }

  WallTimer total_timer;

  // Phase 1: symbolize all series and derive root keys.
  WallTimer phase_timer;
  AlignedVector<std::uint8_t> words(n_series * l);
  std::vector<std::uint32_t> keys(n_series);
  ParallelFor(pool, n_series,
              [&](std::size_t begin, std::size_t end, std::size_t) {
                auto scratch = scheme.NewScratch();
                std::vector<float> values(l);
                for (std::size_t i = begin; i < end; ++i) {
                  std::uint8_t* word = words.data() + i * l;
                  scheme.Symbolize(data.row(i), word, scratch.get(),
                                   values.data());
                  std::uint32_t key = 0;
                  for (std::size_t dim = 0; dim < root_bits; ++dim) {
                    key = (key << 1) | (word[dim] >> (bits - 1));
                  }
                  keys[i] = key;
                }
              });
  result.stats.symbolize_seconds = phase_timer.Seconds();

  // Phase 2: partition ids by root key (histogram, offsets, scatter).
  // Both passes split [0, n) into the same static chunks, one per worker,
  // so chunk w writes key k's rows from offsets[k] plus the rows of key k
  // in chunks before it: rows ascend by id inside every root child at any
  // worker count, and the tree does not depend on the schedule.
  phase_timer.Reset();
  std::vector<std::vector<std::size_t>> local_counts(
      pool->size(), std::vector<std::size_t>(num_root_children, 0));
  ParallelFor(pool, n_series,
              [&](std::size_t begin, std::size_t end, std::size_t worker) {
                auto& local = local_counts[worker];
                for (std::size_t i = begin; i < end; ++i) {
                  ++local[keys[i]];
                }
              });
  std::vector<std::size_t> counts(num_root_children, 0);
  std::vector<std::size_t> offsets(num_root_children + 1, 0);
  for (std::size_t key = 0; key < num_root_children; ++key) {
    std::size_t cursor = offsets[key];
    for (auto& local : local_counts) {  // count → this chunk's first slot
      const std::size_t rows = local[key];
      local[key] = cursor;
      cursor += rows;
    }
    counts[key] = cursor - offsets[key];
    offsets[key + 1] = cursor;
  }
  std::vector<std::uint32_t> ids(n_series);
  ParallelFor(pool, n_series,
              [&](std::size_t begin, std::size_t end, std::size_t worker) {
                auto& cursors = local_counts[worker];
                for (std::size_t i = begin; i < end; ++i) {
                  ids[cursors[keys[i]]++] = static_cast<std::uint32_t>(i);
                }
              });
  result.stats.partition_seconds = phase_timer.Seconds();

  // Phase 3: build non-empty subtrees in parallel.
  phase_timer.Reset();
  std::vector<std::uint32_t> nonempty;
  for (std::size_t key = 0; key < num_root_children; ++key) {
    if (counts[key] == 0) {
      continue;
    }
    auto node = std::make_unique<Node>(l);
    for (std::size_t dim = 0; dim < root_bits; ++dim) {
      node->cards[dim] = 1;
      node->prefixes[dim] = (key >> (root_bits - 1 - dim)) & 1u;
    }
    result.root_children[key] = std::move(node);
    nonempty.push_back(static_cast<std::uint32_t>(key));
  }
  BuildContext ctx{&data,      &scheme, &config, words.data(),
                   ids.data(), l,       bits};
  DynamicParallelFor(
      pool, nonempty.size(), 1,
      [&](std::size_t begin, std::size_t end, std::size_t) {
        for (std::size_t b = begin; b < end; ++b) {
          const std::uint32_t key = nonempty[b];
          BuildNode(ctx, result.root_children[key].get(), offsets[key],
                    offsets[key + 1]);
        }
      });
  result.stats.tree_seconds = phase_timer.Seconds();

  result.subtrees.reserve(nonempty.size());
  for (const std::uint32_t key : nonempty) {
    result.subtrees.emplace_back(key, result.root_children[key].get());
  }
  result.stats.total_seconds = total_timer.Seconds();
  return result;
}

}  // namespace index
}  // namespace sofa
