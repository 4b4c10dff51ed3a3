// The three workloads and the per-layer probes.
//
//  setquery_embedded   4 closed-loop threads call Watchman::Execute on one
//                      in-process facade (LNC-RA, K=4, 8 shards, 256 KiB).
//  hot_get_daemon      one blocking WatchmanClient, on the same CPU as the
//                      daemon, replays a prefilled TPC-D trace as GETs;
//                      every GET hits.
//  tpcd_refresh_daemon open-loop Poisson GET/EXECUTE-fill traffic over one
//                      MultiplexedClient plus periodic orders/lineitem
//                      refreshes against a 1 MiB cache; the daemon and
//                      the load share two CPUs.

#ifndef E2EBENCH_WORKLOADS_H_
#define E2EBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "server/server.h"
#include "watchman/watchman.h"

namespace e2ebench {

/// Latency samples of one slice of a timed window.
struct Slice {
  uint64_t queries = 0;
  Hist query, hit, miss;  // ns
};

/// What one timed window produced. Latencies are kept per one-second
/// slice so the reported figures can be medians over slices, which a
/// short burst of interference from outside the benchmark moves little.
struct Window {
  /// Sizes the slices for a window of `seconds` starting at `t0_ns`.
  void Start(int64_t t0_ns, double seconds);
  /// Same slicing as `o` (per-thread windows of one run).
  void StartLike(const Window& o);
  /// One query finished at `end_ns` after `ns`.
  void Record(int64_t end_ns, uint64_t ns, bool hit);
  /// Adds another thread's window of the same run.
  void Merge(const Window& o);
  /// Adds a later round's window: its full slices, its overflow slot
  /// merged into this one's, and all its counters.
  void Append(const Window& o);
  /// Slices wholly inside the window (the last slot collects the rest).
  size_t full_slices() const { return slices.empty() ? 0 : slices.size() - 1; }
  double slice_seconds() const { return static_cast<double>(slice_ns) / 1e9; }
  /// All slices merged.
  Slice Total() const;

  int64_t t0_ns = 0;
  int64_t slice_ns = 0;
  std::vector<Slice> slices;
  double seconds = 0.0;
  uint64_t attempted = 0;    // operations attempted (queries + refreshes)
  uint64_t failed = 0;       // failed or shed operations
  uint64_t wrong = 0;        // answers whose bytes were not a valid payload
  uint64_t no_exec = 0;      // queries served without running the executor
  uint64_t cost_total = 0;   // cost_block_reads of every query issued
  uint64_t cost_exec = 0;    // cost of the executor calls actually made
  uint64_t exec_calls = 0;   // executor calls (remote: materialized fills)
  Hist invalidate;           // ns, one refresh
  Hist sched_lag;            // ns, open loop only
  uint64_t refreshes = 0;
  uint64_t sets_dropped = 0;
  uint64_t fills_crossed_refresh = 0;  // watchman.stale_served
  uint64_t stale_answers = 0;  // answers older than the last finished refresh
  // Facade counters over the window.
  uint64_t lookups = 0;
  uint64_t executions = 0;
  uint64_t dedup_hits = 0;
  uint64_t lock_acquisitions = 0;
  uint64_t lock_contended = 0;
  // Traced windows: facade-call span times on the embedded path.
  Hist facade_hit_ns;
  Hist facade_miss_self_ns;

  uint64_t queries() const { return Total().queries; }

 private:
  /// Adds the per-query counters and histograms of `o`.
  void AddCounters(const Window& o);
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Everything up to the first timed request.
  virtual void Setup() = 0;
  /// One timed window of `seconds`.
  virtual Window Run(double seconds) = 0;

  const Inputs& inputs() const { return inputs_; }
  /// The in-process daemon, or nullptr for the embedded workload.
  virtual watchman::WatchmanServer* server() { return nullptr; }
  /// The decorated payload store (traced runs), or nullptr.
  TracedPayloadStore* traced_store() { return traced_store_; }
  /// Cache capacity the workload runs with.
  virtual uint64_t capacity_bytes() const = 0;

 protected:
  explicit Workload(uint64_t seed, bool traced)
      : seed_(seed), traced_(traced) {}
  /// Facade options shared by every workload: LNC-RA, K = 4, 8 shards,
  /// and the timing PayloadStore decorator in traced runs.
  watchman::Watchman::Options FacadeOptions(uint64_t capacity);
  /// Snapshot of the facade counters a Window reports as deltas.
  void FacadeCounters(Window* w, int sign);

  uint64_t seed_;
  bool traced_;
  Inputs inputs_;
  TracedPayloadStore* traced_store_ = nullptr;
  std::unique_ptr<watchman::Watchman> facade_;
};

/// Builds a workload by name; nullptr for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       uint64_t seed, bool traced);

/// Names of every workload, in BENCHMARK.json order.
const std::vector<std::string>& WorkloadNames();

/// Server-side layer numbers read from a daemon's public counters.
struct ServerLayer {
  double get_us = 0.0;         // GET handler mean (op_counters)
  double execute_us = 0.0;     // EXECUTE handler mean
  double invalidate_us = 0.0;  // INVALIDATE_RELATION handler mean
  double inline_share = 0.0;   // frames answered inline on the IO thread
  double ready_peak = 0.0;     // ready-queue high-water mark
};
ServerLayer ReadServer(const watchman::WatchmanServer& server);

/// Per-layer probes run after the traced window: a standalone QueryCache
/// replay of the workload's reference stream, and the latency ladder
/// (QueryCache -> ShardedQueryCache -> Watchman::GetCachedInto -> codec
/// -> loopback RTT) over the stream's GETs. Both append metrics; the
/// ladder reports its own daemon's counters in *server and counts wrong
/// payloads into *wrong.
void RunCacheReplay(const Inputs& in, uint64_t capacity,
                    std::vector<Metric>* out);
void RunLadder(const Inputs& in, std::vector<Metric>* out,
               ServerLayer* server, uint64_t* wrong);

}  // namespace e2ebench

#endif  // E2EBENCH_WORKLOADS_H_
