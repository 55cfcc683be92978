#include "obs/metrics.h"

#include <cmath>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <stdexcept>

#include "util/sync.h"

#include "obs/expose.h"
#include "obs/obs.h"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace olsq2::obs::metrics {

namespace internal {

std::atomic<bool> g_enabled{false};

std::size_t shard_index() {
  return static_cast<std::size_t>(Trace::thread_id()) % kShards;
}

}  // namespace internal

void set_enabled(bool on) {
  internal::g_enabled.store(on, std::memory_order_relaxed);
}

// ---- Histogram -----------------------------------------------------------

namespace {

/// Bucket for value v: smallest i with v <= bucket_upper(i).
std::size_t bucket_for(double v) {
  if (!(v > 0)) return 0;  // <= 0 and NaN land in the first bucket
  int exp = 0;
  std::frexp(v, &exp);  // v = m * 2^exp with m in [0.5, 1) => v <= 2^exp
  const int idx = exp - Histogram::kMinExp;
  if (idx < 0) return 0;
  if (idx >= Histogram::kBuckets) return Histogram::kBuckets - 1;
  return static_cast<std::size_t>(idx);
}

void atomic_min(std::atomic<double>& a, double v) {
  double cur = a.load(std::memory_order_relaxed);
  while (v < cur &&
         !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

void atomic_max(std::atomic<double>& a, double v) {
  double cur = a.load(std::memory_order_relaxed);
  while (v > cur &&
         !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

}  // namespace

double HistogramSnapshot::bucket_upper(std::size_t i) {
  if (i + 1 >= static_cast<std::size_t>(Histogram::kBuckets)) {
    return std::numeric_limits<double>::infinity();
  }
  return std::ldexp(1.0, static_cast<int>(i) + Histogram::kMinExp);
}

double HistogramSnapshot::quantile(double q) const {
  if (count == 0) return 0;
  if (q < 0) q = 0;
  if (q > 1) q = 1;
  const double rank = q * static_cast<double>(count);
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < bucket_counts.size(); ++i) {
    const std::uint64_t in_bucket = bucket_counts[i];
    if (in_bucket == 0) continue;
    if (static_cast<double>(cum + in_bucket) >= rank) {
      // Interpolate within the bucket, clamped to the observed range.
      double lo = i == 0 ? 0.0 : bucket_upper(i - 1);
      double hi = bucket_upper(i);
      if (lo < min) lo = min;
      if (!(hi < max)) hi = max;  // also handles the +Inf overflow bucket
      if (hi < lo) hi = lo;
      const double frac =
          in_bucket == 0
              ? 0.0
              : (rank - static_cast<double>(cum)) / static_cast<double>(in_bucket);
      return lo + (hi - lo) * (frac < 0 ? 0 : frac > 1 ? 1 : frac);
    }
    cum += in_bucket;
  }
  return max;
}

void Histogram::observe(double v) {
  if (!enabled()) return;
  Shard& shard = shards_[internal::shard_index()];
  shard.buckets[bucket_for(v)].fetch_add(1, std::memory_order_relaxed);
  shard.count.fetch_add(1, std::memory_order_relaxed);
  double cur = shard.sum.load(std::memory_order_relaxed);
  while (!shard.sum.compare_exchange_weak(cur, cur + v,
                                          std::memory_order_relaxed)) {
  }
  if (!has_sample_.exchange(true, std::memory_order_acq_rel)) {
    min_.store(v, std::memory_order_relaxed);
    max_.store(v, std::memory_order_relaxed);
  } else {
    atomic_min(min_, v);
    atomic_max(max_, v);
  }
}

HistogramSnapshot Histogram::snapshot() const {
  HistogramSnapshot snap;
  snap.bucket_counts.assign(kBuckets, 0);
  for (const Shard& shard : shards_) {
    for (int i = 0; i < kBuckets; ++i) {
      snap.bucket_counts[static_cast<std::size_t>(i)] +=
          shard.buckets[static_cast<std::size_t>(i)].load(
              std::memory_order_relaxed);
    }
    snap.count += shard.count.load(std::memory_order_relaxed);
    snap.sum += shard.sum.load(std::memory_order_relaxed);
  }
  if (snap.count > 0) {
    snap.min = min_.load(std::memory_order_relaxed);
    snap.max = max_.load(std::memory_order_relaxed);
  }
  return snap;
}

void Histogram::reset() {
  for (Shard& shard : shards_) {
    for (auto& b : shard.buckets) b.store(0, std::memory_order_relaxed);
    shard.count.store(0, std::memory_order_relaxed);
    shard.sum.store(0, std::memory_order_relaxed);
  }
  min_.store(0, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
  has_sample_.store(false, std::memory_order_relaxed);
}

// ---- Registry ------------------------------------------------------------

struct Registry::Family {
  std::string name;
  std::string help;
  Kind kind = Kind::kCounter;
  // Stable addresses: series objects are heap-owned and never erased.
  std::vector<std::pair<Labels, std::unique_ptr<Counter>>> counters;
  std::vector<std::pair<Labels, std::unique_ptr<Gauge>>> gauges;
  std::vector<std::pair<Labels, std::unique_ptr<Histogram>>> histograms;
};

struct Registry::Impl {
  mutable sync::Mutex mutex{"obs.metrics.registry"};
  /// Registration order.
  std::vector<std::unique_ptr<Family>> families OLSQ2_GUARDED_BY(mutex);
  std::map<std::string, Family*, std::less<>> by_name OLSQ2_GUARDED_BY(mutex);
  /// Non-empty => write at process exit. Set once in the constructor
  /// (single-threaded), read in the destructor; ctor/dtor are exempt from
  /// the analysis.
  std::string dump_file;
};

namespace {

const char* kind_name(Kind kind) {
  switch (kind) {
    case Kind::kCounter: return "counter";
    case Kind::kGauge: return "gauge";
    case Kind::kHistogram: return "histogram";
  }
  return "?";
}

template <typename T>
T& find_or_create(std::vector<std::pair<Labels, std::unique_ptr<T>>>& series,
                  Labels&& labels) {
  for (auto& [ls, obj] : series) {
    if (ls == labels) return *obj;
  }
  series.emplace_back(std::move(labels), std::make_unique<T>());
  return *series.back().second;
}

}  // namespace

Registry::Registry() : impl_(new Impl) {
  // NOLINTNEXTLINE(concurrency-mt-unsafe): the singleton constructs under
  // the magic-static guard before worker threads touch metrics; no setenv.
  if (const char* env = std::getenv("OLSQ2_METRICS");
      env != nullptr && *env != '\0') {
    set_enabled(true);
    if (std::string_view(env) != "1") impl_->dump_file = env;
  }
}

Registry::~Registry() {
  if (!impl_->dump_file.empty()) {
    if (!write_metrics_file(impl_->dump_file, "")) {
      std::cerr << "metrics: cannot write " << impl_->dump_file << "\n";
    }
  }
  delete impl_;
}

Registry& Registry::instance() {
  static Registry registry;
  return registry;
}

Registry::Family& Registry::family(std::string_view name,
                                   std::string_view help, Kind kind) {
  // Caller holds impl_->mutex.
  auto it = impl_->by_name.find(name);
  if (it != impl_->by_name.end()) {
    if (it->second->kind != kind) {
      throw std::logic_error("metrics: family '" + std::string(name) +
                             "' re-registered as " + kind_name(kind) +
                             " (was " + kind_name(it->second->kind) + ")");
    }
    return *it->second;
  }
  auto fam = std::make_unique<Family>();
  fam->name = name;
  fam->help = help;
  fam->kind = kind;
  Family* raw = fam.get();
  impl_->families.push_back(std::move(fam));
  impl_->by_name.emplace(std::string(name), raw);
  return *raw;
}

Counter& Registry::counter(std::string_view name, std::string_view help,
                           Labels labels) {
  sync::MutexLock lock(impl_->mutex);
  return find_or_create(family(name, help, Kind::kCounter).counters,
                        std::move(labels));
}

Gauge& Registry::gauge(std::string_view name, std::string_view help,
                       Labels labels) {
  sync::MutexLock lock(impl_->mutex);
  return find_or_create(family(name, help, Kind::kGauge).gauges,
                        std::move(labels));
}

Histogram& Registry::histogram(std::string_view name, std::string_view help,
                               Labels labels) {
  sync::MutexLock lock(impl_->mutex);
  return find_or_create(family(name, help, Kind::kHistogram).histograms,
                        std::move(labels));
}

std::vector<Registry::FamilySnapshot> Registry::snapshot() const {
  sync::MutexLock lock(impl_->mutex);
  std::vector<FamilySnapshot> out;
  out.reserve(impl_->families.size());
  for (const auto& fam : impl_->families) {
    FamilySnapshot fs;
    fs.name = fam->name;
    fs.help = fam->help;
    fs.kind = fam->kind;
    for (const auto& [labels, c] : fam->counters) {
      fs.series.push_back(
          {labels, static_cast<double>(c->value()), HistogramSnapshot{}});
    }
    for (const auto& [labels, g] : fam->gauges) {
      fs.series.push_back({labels, g->value(), HistogramSnapshot{}});
    }
    for (const auto& [labels, h] : fam->histograms) {
      fs.series.push_back({labels, 0, h->snapshot()});
    }
    out.push_back(std::move(fs));
  }
  return out;
}

void Registry::reset_all() {
  sync::MutexLock lock(impl_->mutex);
  for (const auto& fam : impl_->families) {
    for (auto& [labels, c] : fam->counters) c->reset();
    for (auto& [labels, g] : fam->gauges) g->reset();
    for (auto& [labels, h] : fam->histograms) h->reset();
  }
}

namespace {
// Force-construct the registry when OLSQ2_METRICS is set so the exit dump
// fires even if no metric is ever touched.
const bool g_env_probe = [] {
  // NOLINTNEXTLINE(concurrency-mt-unsafe): static initializer, pre-main.
  if (const char* env = std::getenv("OLSQ2_METRICS");
      env != nullptr && *env != '\0') {
    Registry::instance();
  }
  return true;
}();
}  // namespace

std::size_t peak_rss_bytes() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
#if defined(__APPLE__)
  return static_cast<std::size_t>(usage.ru_maxrss);  // bytes on Darwin
#else
  return static_cast<std::size_t>(usage.ru_maxrss) * 1024;  // KiB on Linux
#endif
#else
  return 0;
#endif
}

}  // namespace olsq2::obs::metrics
