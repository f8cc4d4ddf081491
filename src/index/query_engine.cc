#include "index/query_engine.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <limits>
#include <memory>
#include <mutex>
#include <utility>

#include "core/distance.h"
#include "quant/lbd.h"
#include "util/check.h"

namespace sofa {
namespace index {
namespace {

constexpr float kInf = std::numeric_limits<float>::infinity();

// Series LBDs computed per call of the block kernel before they are tested
// against the live bound.
constexpr std::size_t kLbdBlock = 128;

// Phase-3 work the owner of a search does alone before it offers the rest
// of its leaf queue to idle workers, in units of one series-LBD check; an
// exact distance counts kExactDistanceWork (about 8 ns against 190 ns for
// 256-point series on an AVX-512 Xeon). Short queries (most PNW-like ones)
// finish under the budget and leave idle workers to the queries and
// inserts queued behind them; queries that scan most of a collection
// (SCEDC-like ones) pass it early and still split.
constexpr std::uint64_t kSoloWorkBudget = 200000;
constexpr std::uint64_t kExactDistanceWork = 24;

std::uint64_t Phase3Work(const QueryProfile& profile) {
  return profile.series_lbd_checked +
         kExactDistanceWork * profile.series_ed_computed;
}

struct LeafEntry {
  float lbd_sq;
  const Node* leaf;
  std::uint32_t part;
};

// The candidate leaves of one query, every tree's, ascending by leaf LBD
// (the paper's priority queues made one). The owner pushes them all, then
// seals; after that any number of threads pop without a lock.
class LeafQueue {
 public:
  void Push(LeafEntry entry) { entries_.push_back(entry); }

  // Orders the queue; ties keep collection order, so a one-thread search
  // pops leaves in the same order every time.
  void Seal() {
    std::stable_sort(entries_.begin(), entries_.end(),
                     [](const LeafEntry& a, const LeafEntry& b) {
                       return a.lbd_sq < b.lbd_sq;
                     });
  }

  std::size_t size() const { return entries_.size(); }

  // The minimum-LBD leaf not yet handed out, or null when none is left.
  const LeafEntry* PopMin() {
    const std::size_t at = next_.fetch_add(1, std::memory_order_relaxed);
    return at < entries_.size() ? &entries_[at] : nullptr;
  }

  // "Abandon": everything still queued is at least as far as the entry that
  // triggered abandonment, so it can all be pruned at once. Returns the
  // number of entries dropped.
  std::size_t Clear() {
    const std::size_t popped =
        next_.exchange(entries_.size(), std::memory_order_relaxed);
    return popped < entries_.size() ? entries_.size() - popped : 0;
  }

 private:
  std::vector<LeafEntry> entries_;
  std::atomic<std::size_t> next_{0};
};

// The query in one scheme's summary space, shared by every tree that
// holds that scheme object.
struct SchemeQuery {
  std::vector<float> projection;   // query in summary space
  std::vector<std::uint8_t> word;  // query's own word
  quant::LbdTable lbd;             // series-LBD lookup table
};

// Per-tree immutable query state.
struct PartContext {
  const TreeIndex* index = nullptr;
  const std::vector<std::uint32_t>* global_ids = nullptr;  // null = identity
  const SchemeQuery* summary = nullptr;

  std::uint32_t GlobalId(std::uint32_t local) const {
    return global_ids == nullptr ? local : (*global_ids)[local];
  }
};

// Per-query immutable context.
struct QueryContext {
  const float* query = nullptr;
  // ε-approximation: lower bounds are inflated by this factor before being
  // compared against the BSF; 1.0 = exact search.
  float lbd_inflation_sq = 1.0f;
  // Deleted global ids, masked before any distance work (null = none).
  const std::unordered_set<std::uint32_t>* exclude = nullptr;
  std::vector<SchemeQuery> schemes;  // parts point into it: never resized
  std::vector<PartContext> parts;

  bool Masked(std::uint32_t global_id, QueryProfile* profile) const {
    if (exclude == nullptr || exclude->count(global_id) == 0) {
      return false;
    }
    ++profile->candidates_filtered;
    return true;
  }
};

// Scans a leaf with the LBD → real-distance cascade: the series LBDs come
// from the query's lookup table a block at a time, and each is tested
// against the bound live at its turn.
void ScanLeaf(const QueryContext& ctx, const PartContext& part,
              const Node& leaf, ResultSet* results, QueryProfile* profile) {
  const quant::LbdTable& lbd = part.summary->lbd;
  const std::size_t l = lbd.word_length();
  const float inflation = ctx.lbd_inflation_sq;
  const Dataset& data = part.index->data();
  float lbd_sq[kLbdBlock] = {};
  for (std::size_t first = 0; first < leaf.leaf_size(); first += kLbdBlock) {
    const std::size_t count = std::min(kLbdBlock, leaf.leaf_size() - first);
    quant::LbdSquaredBlock(lbd, leaf.words.data() + first * l, count, lbd_sq);
    profile->series_lbd_checked += count;
    for (std::size_t i = 0; i < count; ++i) {
      const float bound = results->bound_sq();
      if (lbd_sq[i] * inflation >= bound) {
        ++profile->series_lbd_pruned;
        continue;
      }
      const std::uint32_t id = leaf.series_ids[first + i];
      const std::uint32_t global_id = part.GlobalId(id);
      if (ctx.Masked(global_id, profile)) {
        continue;
      }
      const float d = SquaredEuclideanEarlyAbandon(ctx.query, data.row(id),
                                                   data.length(), bound);
      ++profile->series_ed_computed;
      if (d < bound) {
        results->Offer(global_id, d);
      }
    }
  }
}

// Descends from `node` to the leaf matching the query's own word bits.
const Node* DescendToLeaf(const PartContext& part, const Node* node) {
  const std::uint32_t bits = part.index->scheme().bits();
  while (!node->is_leaf()) {
    const std::size_t dim = node->split_dim;
    const std::uint32_t child_card = node->left->cards[dim];
    const std::uint32_t bit =
        (part.summary->word[dim] >> (bits - child_card)) & 1u;
    node = bit == 0 ? node->left.get() : node->right.get();
  }
  return node;
}

// Approximate search (paper Section IV-C): the leaf the query itself would
// be stored in, or the most promising subtree when that root child is
// empty. Null only for an empty tree.
const Node* ApproximateLeaf(const PartContext& part) {
  const TreeIndex& index = *part.index;
  const std::size_t root_bits = index.root_bits();
  const std::uint32_t bits = index.scheme().bits();
  std::uint32_t key = 0;
  for (std::size_t dim = 0; dim < root_bits; ++dim) {
    key = (key << 1) | (part.summary->word[dim] >> (bits - 1));
  }
  const Node* start = index.root_child(key);
  if (start == nullptr) {
    float best_lbd = kInf;
    for (const auto& [subtree_key, node] : index.subtrees()) {
      const float lbd = quant::NodeLbdSquared(
          index.scheme().table(), index.scheme().weights(),
          part.summary->projection.data(), node->prefixes.data(),
          node->cards.data());
      if (lbd < best_lbd) {
        best_lbd = lbd;
        start = node;
      }
    }
  }
  return start == nullptr ? nullptr : DescendToLeaf(part, start);
}

// DFS of one subtree, pruning by node LBD and queueing surviving leaves.
void CollectLeaves(const QueryContext& ctx, std::uint32_t part_index,
                   const Node* node, const ResultSet& results,
                   LeafQueue* queue, const Node* skip_leaf,
                   QueryProfile* profile) {
  if (node->is_leaf() && node == skip_leaf) {
    return;  // already scanned exhaustively by the approximate phase
  }
  const PartContext& part = ctx.parts[part_index];
  const quant::SummaryScheme& scheme = part.index->scheme();
  const float lbd_sq = quant::NodeLbdSquared(
      scheme.table(), scheme.weights(), part.summary->projection.data(),
      node->prefixes.data(), node->cards.data());
  ++profile->nodes_visited;
  if (lbd_sq * ctx.lbd_inflation_sq >= results.bound_sq()) {
    ++profile->nodes_pruned;  // prunes the entire subtree
    return;
  }
  if (node->is_leaf()) {
    queue->Push(LeafEntry{lbd_sq, node, part_index});
    ++profile->leaves_collected;
    return;
  }
  CollectLeaves(ctx, part_index, node->left.get(), results, queue, skip_leaf,
                profile);
  CollectLeaves(ctx, part_index, node->right.get(), results, queue, skip_leaf,
                profile);
}

// Builds the per-query context: one projection, word and LBD table per
// scheme object (consecutive trees that share one share them).
QueryContext MakeContext(const TreePart* parts, std::size_t num_parts,
                         const float* query, double epsilon,
                         const std::unordered_set<std::uint32_t>* exclude) {
  QueryContext ctx;
  ctx.query = query;
  const double inflation = (1.0 + epsilon) * (1.0 + epsilon);
  ctx.lbd_inflation_sq = static_cast<float>(inflation);
  ctx.exclude = exclude != nullptr && !exclude->empty() ? exclude : nullptr;
  ctx.schemes.reserve(num_parts);
  ctx.parts.resize(num_parts);
  for (std::size_t p = 0; p < num_parts; ++p) {
    PartContext& part = ctx.parts[p];
    part.index = parts[p].tree;
    part.global_ids = parts[p].global_ids;
    const quant::SummaryScheme& scheme = part.index->scheme();
    if (p > 0 && &parts[p - 1].tree->scheme() == &scheme) {
      part.summary = ctx.parts[p - 1].summary;
    } else {
      SchemeQuery& summary = ctx.schemes.emplace_back();
      const std::size_t l = scheme.word_length();
      summary.projection.resize(l);
      summary.word.resize(l);
      auto scratch = scheme.NewScratch();
      scheme.Project(query, summary.projection.data(), scratch.get());
      for (std::size_t dim = 0; dim < l; ++dim) {
        summary.word[dim] =
            scheme.table().Quantize(dim, summary.projection[dim]);
      }
      summary.lbd = quant::LbdTable(scheme.table(), scheme.weights(),
                                    summary.projection.data());
      part.summary = &summary;
    }
  }
  return ctx;
}

// Phase 3: the owner and, once it has spent kSoloWorkBudget alone, idle
// pool workers pop leaves off one queue in LBD order and scan them into
// the shared result set; the first popped leaf whose LBD reaches the bound
// abandons the queue. A helper leaves between two leaves as soon as a task
// waits in the pool. The owner drains until the queue is empty, then waits
// only for helpers still inside a leaf; one that joins later finds the
// drain closed and never touches the query's (owner-held) state.
class LeafDrain : public Joinable,
                  public std::enable_shared_from_this<LeafDrain> {
 public:
  LeafDrain(const QueryContext* ctx, LeafQueue* queue, ResultSet* results)
      : ctx_(ctx), queue_(queue), results_(results) {}

  bool Join(const ThreadPool& pool) override {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (closed_) {
        return true;
      }
      ++active_;
    }
    QueryProfile profile;
    const bool exhausted =
        Drain(&profile, [&pool] { return pool.HasQueuedTask(); });
    std::lock_guard<std::mutex> lock(mutex_);
    helper_profile_.Merge(profile);
    if (--active_ == 0 && closed_) {
      helpers_done_.notify_all();
    }
    return exhausted;
  }

  // The owner's share: drains alone until the queue is done or the solo
  // budget is spent, then offers the rest to up to `max_helpers` idle
  // workers of `pool` and drains alongside them. Returns once every leaf
  // is scanned or abandoned, with the helpers' counters merged into
  // `profile`.
  void Run(ThreadPool* pool, std::size_t max_helpers, QueryProfile* profile) {
    const std::uint64_t solo_end = Phase3Work(*profile) + kSoloWorkBudget;
    const bool offer =
        !Drain(profile, [&] { return Phase3Work(*profile) >= solo_end; }) &&
        max_helpers > 0;
    if (offer) {
      pool->Offer(shared_from_this(), max_helpers);
    }
    Drain(profile, [] { return false; });
    if (!offer) {
      return;  // no helper can be inside
    }
    pool->Withdraw(this);
    std::unique_lock<std::mutex> lock(mutex_);
    closed_ = true;
    helpers_done_.wait(lock, [this] { return active_ == 0; });
    profile->Merge(helper_profile_);
  }

 private:
  // Pops and scans leaves until none is left (true) or until `stop()`
  // holds between two leaves (false).
  template <typename Stop>
  bool Drain(QueryProfile* profile, Stop stop) {
    while (!stop()) {
      const LeafEntry* entry = queue_->PopMin();
      if (entry == nullptr) {
        return true;
      }
      if (entry->lbd_sq * ctx_->lbd_inflation_sq >= results_->bound_sq()) {
        // All remaining entries are at least as far: abandon the queue.
        profile->leaves_abandoned += 1 + queue_->Clear();
        return true;
      }
      ScanLeaf(*ctx_, ctx_->parts[entry->part], *entry->leaf, results_,
               profile);
    }
    return false;
  }

  const QueryContext* ctx_;
  LeafQueue* queue_;
  ResultSet* results_;
  std::mutex mutex_;
  std::condition_variable helpers_done_;
  std::size_t active_ = 0;  // helpers inside Drain
  bool closed_ = false;     // the owner is done: joiners leave at once
  QueryProfile helper_profile_;
};

}  // namespace

QueryEngine::QueryEngine(const std::vector<TreePart>* parts, ThreadPool* pool)
    : parts_(parts->data()), num_parts_(parts->size()), pool_(pool) {
  SOFA_CHECK(!parts->empty());
  for (const TreePart& part : *parts) {
    SOFA_CHECK(part.tree != nullptr);
    SOFA_CHECK_EQ(part.tree->data().length(),
                  (*parts)[0].tree->data().length());
  }
  if (pool_ == nullptr) {
    pool_ = (*parts)[0].tree->pool();
  }
}

std::vector<Neighbor> QueryEngine::Search(const float* query, std::size_t k,
                                          double epsilon,
                                          QueryProfile* profile,
                                          std::size_t num_threads) const {
  return Search(query, k, epsilon, profile, num_threads, nullptr, FlatScan());
}

std::vector<Neighbor> QueryEngine::Search(
    const float* query, std::size_t k, double epsilon, QueryProfile* profile,
    std::size_t num_threads, const std::unordered_set<std::uint32_t>* exclude,
    const FlatScan& flat_scan) const {
  if (k == 0) {
    return {};
  }
  SOFA_CHECK(epsilon >= 0.0);
  const TreePart* parts = this->parts();
  const QueryContext ctx =
      MakeContext(parts, num_parts_, query, epsilon, exclude);
  ResultSet results(k);
  QueryProfile local_profile;

  // Phase 1: the first tree's approximate answer seeds the BSF; then any
  // flat scans (the insert buffer) tighten it before the trees are walked.
  const Node* approx_leaf = nullptr;
  std::uint32_t approx_part = 0;
  for (; approx_part < num_parts_; ++approx_part) {
    approx_leaf = ApproximateLeaf(ctx.parts[approx_part]);
    if (approx_leaf != nullptr) {
      ScanLeaf(ctx, ctx.parts[approx_part], *approx_leaf, &results,
               &local_profile);
      break;
    }
  }
  if (flat_scan) {
    flat_scan(&results, &local_profile);
  }

  const IndexConfig& config = parts[0].tree->config();
  if (num_threads == 0) {
    num_threads = config.num_threads == 0 ? pool_->size() : config.num_threads;
  }

  // Phase 2: the owner alone collects every tree's candidate leaves into
  // one queue ordered by LBD.
  LeafQueue queue;
  for (std::uint32_t p = 0; p < num_parts_; ++p) {
    for (const auto& [key, node] : parts[p].tree->subtrees()) {
      CollectLeaves(ctx, p, node, results, &queue,
                    p == approx_part ? approx_leaf : nullptr, &local_profile);
    }
  }
  queue.Seal();

  // Phase 3: drain the queue with BSF pruning and abandonment; past the
  // solo budget, joined by up to num_threads - 1 idle workers (never more
  // than leaves to share).
  const std::size_t participants = std::min(num_threads, queue.size());
  std::make_shared<LeafDrain>(&ctx, &queue, &results)
      ->Run(pool_, participants == 0 ? 0 : participants - 1, &local_profile);

  if (profile != nullptr) {
    profile->Merge(local_profile);
  }
  return results.Finish();
}

std::vector<Neighbor> QueryEngine::SearchLeafOnly(const float* query,
                                                  std::size_t k) const {
  if (k == 0) {
    return {};
  }
  const QueryContext ctx = MakeContext(parts(), 1, query, 0.0, nullptr);
  const Node* leaf = ApproximateLeaf(ctx.parts[0]);
  if (leaf == nullptr) {
    return {};
  }
  ResultSet results(k);
  QueryProfile profile;
  ScanLeaf(ctx, ctx.parts[0], *leaf, &results, &profile);
  return results.Finish();
}

}  // namespace index
}  // namespace sofa
