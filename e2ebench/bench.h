// Shared pieces of the end-to-end benchmark: workload inputs built from
// the trace generators, deterministic payloads, latency histograms, the
// in-memory span recorder, and metric records.
//
// The benchmark drives the system only through its public API
// (Watchman, WatchmanServer, the clients and codec, QueryCache and
// ShardedQueryCache); everything here is benchmark-side bookkeeping.

#ifndef E2EBENCH_BENCH_H_
#define E2EBENCH_BENCH_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "cache/query_descriptor.h"
#include "watchman/payload_store.h"

namespace e2ebench {

using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------------

/// One distinct query of a workload: its text (what callers submit), the
/// trace's deterministic size and cost, and the relations it reads.
struct Query {
  std::string text;
  uint64_t qhash = 0;  // identifies the query inside its payload
  uint64_t result_bytes = 0;
  uint64_t cost = 0;
  const std::vector<std::string>* relations = nullptr;
  /// True when a warehouse refresh (orders/lineitem) changes the result.
  bool refreshable = false;
  /// The epoch-0 payload, precomputed so checks and fills are a copy.
  std::string payload0;
  /// Descriptor for the standalone QueryCache / ShardedQueryCache replays.
  watchman::QueryDescriptor desc;
};

/// A workload's reference stream: distinct queries plus the trace order.
struct Inputs {
  std::vector<Query> queries;
  std::vector<uint32_t> stream;  // indices into `queries`, trace order
};

enum class TraceKind { kSetQuery, kTpcd };

/// Generates `num_queries` events with the repo's workload generator for
/// `seed` and resolves them into distinct queries.
Inputs MakeInputs(TraceKind kind, size_t num_queries, uint64_t seed);

/// TPC-D template id (1..17 = Q1..Q17) -> relations the query reads, per
/// the TPC-D specification's query definitions. Set Query reads BENCH.
const std::vector<std::string>& RelationsOf(TraceKind kind, uint32_t tmpl);

/// The relations a TPC-D refresh (UF1 inserts, UF2 deletes) updates.
const std::vector<std::string>& RefreshRelations();

/// Deterministic payload of `bytes` bytes for (query, epoch): a 16-byte
/// header (query hash, epoch) followed by filler derived from both.
std::string MakePayload(uint64_t qhash, uint64_t epoch, uint64_t bytes);

/// Reads the epoch from a payload's header; false if the header does not
/// name `qhash` or the payload is too short.
bool PayloadEpoch(const std::string& payload, uint64_t qhash,
                  uint64_t* epoch);

// ---------------------------------------------------------------------------
// Latency histogram: 64 linear sub-buckets per power of two (<1.6%
// relative bucket width), interpolated quantiles, exact counts. Recording
// never allocates, so per-thread histograms merge after a run.
// ---------------------------------------------------------------------------

class Hist {
 public:
  void Record(uint64_t v) {
    ++counts_[Index(v)];
    ++n_;
    sum_ += static_cast<double>(v);
  }
  void Merge(const Hist& o) {
    for (size_t i = 0; i < counts_.size(); ++i) counts_[i] += o.counts_[i];
    n_ += o.n_;
    sum_ += o.sum_;
  }
  uint64_t count() const { return n_; }
  double mean() const { return n_ == 0 ? 0.0 : sum_ / static_cast<double>(n_); }
  /// Interpolated quantile q in [0, 1]; 0 when empty.
  double Quantile(double q) const;
  /// Samples strictly beyond the q-quantile's rank.
  uint64_t Beyond(double q) const {
    const auto at = static_cast<uint64_t>(q * static_cast<double>(n_));
    return n_ > at ? n_ - at : 0;
  }

 private:
  static constexpr int kSubBits = 6;
  static constexpr uint64_t kSub = 1u << kSubBits;
  static size_t Index(uint64_t v);
  static uint64_t Lower(size_t idx);
  static uint64_t Width(size_t idx);

  std::array<uint64_t, (64 - kSubBits + 1) * kSub> counts_{};
  uint64_t n_ = 0;
  double sum_ = 0.0;
};

// ---------------------------------------------------------------------------
// Spans (traced run only). Each thread keeps a stack of open spans; a
// closed span adds its duration to its parent's child time, so self time
// = duration - child time. Closed spans go to a bounded per-thread buffer
// and are written out when the run ends.
// ---------------------------------------------------------------------------

struct SpanRecord {
  const char* name;
  uint64_t id;
  uint64_t parent;
  uint64_t query;
  uint32_t thread;
  int64_t start_ns;
  int64_t end_ns;
};

class Tracer {
 public:
  /// Spans are recorded only while enabled.
  static bool enabled() { return enabled_.load(std::memory_order_relaxed); }
  static void SetEnabled(bool on) { enabled_.store(on); }
  /// Query id stamped on spans this thread opens (0 = none known).
  static void SetQuery(uint64_t query);
  /// Writes every buffered span as JSON lines after `header_line`.
  static bool WriteFile(const std::string& path,
                        const std::string& header_line);
  static uint64_t recorded();
  static uint64_t dropped();

 private:
  friend class Span;
  static std::atomic<bool> enabled_;
};

/// RAII span. `Close()` ends it early and returns (duration, self) in ns.
class Span {
 public:
  explicit Span(const char* name) : Span(name, 0) {}
  /// A span that started at `start_ns` (open loop: when a query was due).
  Span(const char* name, int64_t start_ns);
  ~Span() { Close(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  struct Times {
    int64_t dur_ns = 0;
    int64_t self_ns = 0;
  };
  Times Close();

 private:
  bool open_ = false;
  size_t depth_ = 0;
};

/// PayloadStore decorator over MemoryPayloadStore that times every call
/// (and opens a span while tracing). Used only in the traced run.
class TracedPayloadStore : public watchman::PayloadStore {
 public:
  watchman::Status Put(const std::string& key,
                       const std::string& payload) override;
  watchman::StatusOr<std::string> Get(const std::string& key) override;
  watchman::Status GetInto(const std::string& key, std::string* out) override;
  bool Erase(const std::string& key) override { return inner_.Erase(key); }
  bool Contains(const std::string& key) const override {
    return inner_.Contains(key);
  }
  size_t count() const override { return inner_.count(); }
  uint64_t payload_bytes() const override { return inner_.payload_bytes(); }

  struct Totals {
    uint64_t puts = 0, put_ns = 0, gets = 0, get_ns = 0;
  };
  Totals totals() const {
    return {puts_.load(), put_ns_.load(), gets_.load(), get_ns_.load()};
  }

 private:
  watchman::MemoryPayloadStore inner_;
  std::atomic<uint64_t> puts_{0}, put_ns_{0}, gets_{0}, get_ns_{0};
};

// ---------------------------------------------------------------------------
// Results
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  /// Samples behind a percentile (0 = not a percentile).
  uint64_t samples = 0;
  uint64_t beyond = 0;
};

/// Appends one metric.
void AddMetric(std::vector<Metric>* out, const std::string& name, double value,
               const std::string& unit);

/// num / den, or 0 when den is 0.
inline double Ratio(double num, double den) {
  return den == 0 ? 0.0 : num / den;
}

/// Appends metrics for a percentile of `h`, scaled from ns by `scale`.
void AddPercentile(std::vector<Metric>* out, const std::string& name,
                   const Hist& h, double q, double scale,
                   const std::string& unit);

/// Peak resident set (VmHWM) in MiB.
double PeakRssMiB();

/// One-line JSON machine fingerprint: nproc, CPU model, kernel, governor,
/// compiler, build type.
std::string Fingerprint();

/// Median of a non-empty vector.
double Median(std::vector<double> v);

/// The q-quantile of a non-empty vector, interpolating between ranks.
double SampleQuantile(std::vector<double> v, double q);

}  // namespace e2ebench

#endif  // E2EBENCH_BENCH_H_
