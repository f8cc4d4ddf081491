// Process-wide metrics registry: named counters, gauges, and histograms
// with label support. The hot path (Counter::Add, Gauge::Set,
// Histogram::Record) is lock-free — instruments are resolved once at
// registration and then touched through stable pointers; the registry
// mutex guards only registration and Collect().
//
// Every layer of the engine registers here — service admission counters,
// ingest/WAL/persist counters, per-stage query timings — so one
// Collect() yields a snapshot coverable by a single exposition endpoint
// (see obs/exposition.h). Components with pre-existing locked counters
// (e.g. ingest::Compactor) publish via collect hooks: a callback run at
// the start of Collect() that copies their source-of-truth values into
// registry instruments with Counter::Set().

#ifndef SOFA_OBS_REGISTRY_H_
#define SOFA_OBS_REGISTRY_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "util/histogram.h"

namespace sofa {
namespace obs {

/// Label set attached to an instrument; stored sorted by key.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// Monotonic counter. Add() is the normal path; Set() exists for collect
/// hooks that mirror an external source of truth (which may itself be
/// seeded, e.g. from a recovered manifest).
class Counter {
 public:
  void Add(std::uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  void Set(std::uint64_t value) {
    value_.store(value, std::memory_order_relaxed);
  }
  std::uint64_t Value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  friend class Registry;
  Counter() = default;
  std::atomic<std::uint64_t> value_{0};
};

/// Instantaneous value (queue depths, row counts, uptime).
class Gauge {
 public:
  void Set(double value) { value_.store(value, std::memory_order_relaxed); }
  void Add(double delta);
  double Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class Registry;
  Gauge() = default;
  std::atomic<double> value_{0.0};
};

/// Geometry of a histogram instrument (see LogHistogram). The first
/// registration of a name+labels wins; later lookups ignore the options.
struct HistogramOptions {
  double min_value = 1e-3;
  double max_value = 1e5;
  std::size_t buckets_per_decade = 20;
};

/// Distribution instrument backed by the lock-free LogHistogram.
class Histogram {
 public:
  void Record(double value) { data_.Record(value); }
  const LogHistogram& data() const { return data_; }

 private:
  friend class Registry;
  explicit Histogram(const HistogramOptions& options)
      : data_(options.min_value, options.max_value,
              options.buckets_per_decade) {}
  LogHistogram data_;
};

enum class InstrumentKind { kCounter, kGauge, kHistogram };

/// One cumulative histogram bucket in a snapshot. `upper_edge` is the
/// inclusive upper bound; the final bucket has `overflow` set and should
/// be rendered as le="+Inf".
struct HistogramBucket {
  double upper_edge = 0.0;
  std::uint64_t cumulative = 0;
  bool overflow = false;
};

/// Point-in-time copy of one instrument, safe to render after the fact.
struct InstrumentSnapshot {
  std::string name;
  Labels labels;  // sorted by key
  std::string help;
  InstrumentKind kind = InstrumentKind::kCounter;

  std::uint64_t counter = 0;  // kCounter
  double gauge = 0.0;         // kGauge

  // kHistogram:
  std::uint64_t count = 0;
  double sum = 0.0;
  double max = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  std::vector<HistogramBucket> buckets;  // non-empty buckets + overflow
};

/// Instrument owner. Get* registers on first call and returns the same
/// pointer on every later call with the same name+labels (pointers stay
/// valid for the registry's lifetime). Registering an existing name with
/// a different kind aborts — metric names are a cross-layer contract.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  Counter* GetCounter(const std::string& name, Labels labels = {},
                      const std::string& help = "");
  Gauge* GetGauge(const std::string& name, Labels labels = {},
                  const std::string& help = "");
  Histogram* GetHistogram(const std::string& name,
                          const HistogramOptions& options = HistogramOptions{},
                          Labels labels = {}, const std::string& help = "");

  /// Registers a callback run at the start of every Collect(), used to
  /// sync externally-owned counters into registry instruments. Hooks must
  /// not call back into the registry (update pre-acquired instruments
  /// only). Returns an id for RemoveCollectHook(). Removal does not wait
  /// for an in-flight Collect() — quiesce collectors before destroying a
  /// hook's owner.
  std::uint64_t AddCollectHook(std::function<void()> hook);
  void RemoveCollectHook(std::uint64_t id);

  /// Runs collect hooks, then snapshots every instrument, sorted by name
  /// then labels — deterministic input for the renderers.
  std::vector<InstrumentSnapshot> Collect() const;

 private:
  struct Entry {
    InstrumentKind kind;
    std::string name;
    Labels labels;
    std::string help;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Entry* FindOrCreate(const std::string& name, Labels* labels,
                      const std::string& help, InstrumentKind kind,
                      const HistogramOptions* options);

  mutable std::mutex mutex_;
  // Keyed by name + sorted labels: map order == exposition order.
  std::map<std::string, Entry> entries_;
  std::map<std::uint64_t, std::function<void()>> hooks_;
  std::uint64_t next_hook_id_ = 1;
};

}  // namespace obs
}  // namespace sofa

#endif  // SOFA_OBS_REGISTRY_H_
