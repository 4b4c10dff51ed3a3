#include "workloads.h"

#include <sched.h>
#include <sys/prctl.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "server/client.h"
#include "util/random.h"

namespace e2ebench {

using watchman::MultiplexedClient;
using watchman::Status;
using watchman::StatusCode;
using watchman::StatusOr;
using watchman::Watchman;
using watchman::WatchmanClient;
using watchman::WatchmanServer;
using watchman::WireResponse;

namespace {

/// The `n` highest-numbered CPUs this process may run on.
cpu_set_t LastAllowedCpus(int n) {
  cpu_set_t set, last;
  CPU_ZERO(&set);
  CPU_ZERO(&last);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return set;
  for (int c = CPU_SETSIZE - 1; c >= 0 && n > 0; --c) {
    if (CPU_ISSET(c, &set)) {
      CPU_SET(c, &last);
      --n;
    }
  }
  return last;
}

/// Restricts the calling thread to `cpus` for the pin's lifetime;
/// threads started meanwhile keep the restriction.
class CpuPin {
 public:
  explicit CpuPin(const cpu_set_t& cpus) {
    CPU_ZERO(&saved_);
    sched_getaffinity(0, sizeof(saved_), &saved_);
    sched_setaffinity(0, sizeof(cpus), &cpus);
  }
  ~CpuPin() { sched_setaffinity(0, sizeof(saved_), &saved_); }
  CpuPin(const CpuPin&) = delete;
  CpuPin& operator=(const CpuPin&) = delete;

 private:
  cpu_set_t saved_;
};

/// Set by the benchmark's executor on the thread it ran on, so a caller
/// of Watchman::Execute learns whether its query ran the executor.
thread_local bool tl_ran_executor = false;

bool SamePayload(const std::string& got, const Query& q) {
  return got.size() == q.payload0.size() &&
         std::equal(got.begin(), got.end(), q.payload0.begin());
}

void Die(const char* what, const Status& st) {
  std::fprintf(stderr, "error: %s: %s\n", what, st.ToString().c_str());
  std::exit(1);
}

}  // namespace

watchman::Watchman::Options Workload::FacadeOptions(uint64_t capacity) {
  watchman::PolicyConfig policy;
  policy.kind = watchman::PolicyKind::kLncRA;
  policy.k = 4;
  Watchman::Options o;
  o.capacity_bytes = capacity;
  o.policy = policy;
  o.num_shards = 8;
  if (traced_) {
    auto store = std::make_unique<TracedPayloadStore>();
    traced_store_ = store.get();
    o.payload_store = std::move(store);
  }
  return o;
}

void Workload::FacadeCounters(Window* w, int sign) {
  const auto add = [sign](uint64_t* field, uint64_t v) {
    *field = sign > 0 ? *field + v : *field - v;
  };
  add(&w->lookups, facade_->stats().lookups);
  add(&w->executions, facade_->facade_metrics().executions.Value());
  add(&w->dedup_hits, facade_->facade_metrics().dedup_hits.Value());
  const auto locks = facade_->cache().total_lock_stats();
  add(&w->lock_acquisitions, locks.acquisitions);
  add(&w->lock_contended, locks.contended);
}

void Window::Start(int64_t t0, double secs) {
  t0_ns = t0;
  // One-second slices; a window shorter than two seconds is one slice.
  slice_ns = secs >= 2 ? 1000000000 : static_cast<int64_t>(secs * 1e9);
  const auto full = std::max<size_t>(
      1, static_cast<size_t>(secs * 1e9 / static_cast<double>(slice_ns) +
                             1e-6));
  slices.assign(full + 1, Slice{});
}

void Window::StartLike(const Window& o) {
  t0_ns = o.t0_ns;
  slice_ns = o.slice_ns;
  slices.assign(o.slices.size(), Slice{});
}

void Window::Record(int64_t end_ns, uint64_t ns, bool hit) {
  const auto i = static_cast<size_t>(std::max<int64_t>(0, end_ns - t0_ns) /
                                     slice_ns);
  Slice& s = slices[std::min(i, slices.size() - 1)];
  ++s.queries;
  s.query.Record(ns);
  (hit ? s.hit : s.miss).Record(ns);
}

void Window::Merge(const Window& o) {
  for (size_t i = 0; i < slices.size() && i < o.slices.size(); ++i) {
    slices[i].queries += o.slices[i].queries;
    slices[i].query.Merge(o.slices[i].query);
    slices[i].hit.Merge(o.slices[i].hit);
    slices[i].miss.Merge(o.slices[i].miss);
  }
  AddCounters(o);
}

void Window::Append(const Window& o) {
  if (slices.empty()) slices.emplace_back();  // the overflow slot
  slices.insert(slices.end() - 1, o.slices.begin(),
                o.slices.begin() + static_cast<ptrdiff_t>(o.full_slices()));
  if (!o.slices.empty()) {
    // Queries that ended past o's window still count in queries().
    Slice& rest = slices.back();
    rest.queries += o.slices.back().queries;
    rest.query.Merge(o.slices.back().query);
    rest.hit.Merge(o.slices.back().hit);
    rest.miss.Merge(o.slices.back().miss);
  }
  slice_ns = o.slice_ns;
  seconds += o.seconds;
  lookups += o.lookups;
  executions += o.executions;
  dedup_hits += o.dedup_hits;
  lock_acquisitions += o.lock_acquisitions;
  lock_contended += o.lock_contended;
  AddCounters(o);
}

void Window::AddCounters(const Window& o) {
  attempted += o.attempted;
  failed += o.failed;
  wrong += o.wrong;
  no_exec += o.no_exec;
  cost_total += o.cost_total;
  cost_exec += o.cost_exec;
  exec_calls += o.exec_calls;
  invalidate.Merge(o.invalidate);
  sched_lag.Merge(o.sched_lag);
  refreshes += o.refreshes;
  sets_dropped += o.sets_dropped;
  fills_crossed_refresh += o.fills_crossed_refresh;
  stale_answers += o.stale_answers;
  facade_hit_ns.Merge(o.facade_hit_ns);
  facade_miss_self_ns.Merge(o.facade_miss_self_ns);
}

Slice Window::Total() const {
  Slice t;
  for (const Slice& s : slices) {
    t.queries += s.queries;
    t.query.Merge(s.query);
    t.hit.Merge(s.hit);
    t.miss.Merge(s.miss);
  }
  return t;
}

// ---------------------------------------------------------------------------
// setquery_embedded
// ---------------------------------------------------------------------------

namespace {

class SetQueryEmbedded : public Workload {
 public:
  static constexpr size_t kThreads = 4;
  static constexpr size_t kTraceQueries = 60000;
  static constexpr uint64_t kCapacity = 256 << 10;

  SetQueryEmbedded(uint64_t seed, bool traced) : Workload(seed, traced) {}
  uint64_t capacity_bytes() const override { return kCapacity; }

  void Setup() override {
    inputs_ = MakeInputs(TraceKind::kSetQuery, kTraceQueries, seed_);
    for (uint32_t i = 0; i < inputs_.queries.size(); ++i) {
      by_text_.emplace(inputs_.queries[i].text, i);
    }
    facade_ = std::make_unique<Watchman>(
        FacadeOptions(kCapacity),
        [this](const std::string& text) { return Execute(text); });
    // Warm the cache with one pass of the trace so every timed window
    // starts from the policy's steady state.
    RunThreads(inputs_.stream.size(), nullptr);
  }

  Window Run(double seconds) override {
    Window w;
    FacadeCounters(&w, -1);
    const int64_t t0 = NowNs();
    w.Start(t0, seconds);
    RunThreads(0, &w, t0 + static_cast<int64_t>(seconds * 1e9));
    w.seconds = static_cast<double>(NowNs() - t0) / 1e9;
    FacadeCounters(&w, +1);
    return w;
  }

 private:
  StatusOr<Watchman::ExecutionResult> Execute(const std::string& text) {
    Span span("executor");
    const auto it = by_text_.find(text);
    if (it == by_text_.end()) return Status::NotFound("unknown query");
    const Query& q = inputs_.queries[it->second];
    tl_ran_executor = true;
    return Watchman::ExecutionResult{q.payload0, q.cost, *q.relations};
  }

  /// Runs kThreads closed-loop callers over the shared trace cursor until
  /// `count` queries were issued (count > 0) or `deadline` passes.
  void RunThreads(size_t count, Window* out, int64_t deadline = 0) {
    std::vector<Window> per(kThreads);
    std::vector<std::thread> threads;
    const uint64_t stop_at = cursor_.load() + count;
    for (size_t t = 0; t < kThreads; ++t) {
      if (out != nullptr) per[t].StartLike(*out);
      threads.emplace_back([&, t] {
        Window& w = per[t];
        for (;;) {
          const uint64_t seq = cursor_.fetch_add(1);
          if (count > 0 && seq >= stop_at) break;
          const Query& q =
              inputs_.queries[inputs_.stream[seq % inputs_.stream.size()]];
          Tracer::SetQuery(seq + 1);
          Span root("query");
          tl_ran_executor = false;
          const int64_t start = NowNs();
          Span call("watchman.execute");
          StatusOr<std::string> r = facade_->Execute(q.text);
          const Span::Times ft = call.Close();
          const int64_t end = NowNs();
          root.Close();
          ++w.attempted;
          w.cost_total += q.cost;
          if (count == 0) {
            w.Record(end, static_cast<uint64_t>(end - start),
                     !tl_ran_executor);
          }
          if (!r.ok()) {
            ++w.failed;
          } else if (!SamePayload(*r, q)) {
            ++w.wrong;
          }
          if (tl_ran_executor) {
            ++w.exec_calls;
            w.cost_exec += q.cost;
            if (Tracer::enabled()) w.facade_miss_self_ns.Record(ft.self_ns);
          } else {
            ++w.no_exec;
            if (Tracer::enabled()) w.facade_hit_ns.Record(ft.dur_ns);
          }
          if (deadline != 0 && end >= deadline) break;
        }
      });
    }
    for (std::thread& th : threads) th.join();
    if (out == nullptr) return;
    for (const Window& w : per) out->Merge(w);
  }

  std::unordered_map<std::string, uint32_t> by_text_;
  std::atomic<uint64_t> cursor_{0};
};

// ---------------------------------------------------------------------------
// Daemon workloads: the facade behind an in-process WatchmanServer on
// loopback, filled by the clients (the remote protocol: GET, and on
// NotFound an EXECUTE carrying the materialized result).
// ---------------------------------------------------------------------------

class DaemonWorkload : public Workload {
 public:
  WatchmanServer* server() override { return server_.get(); }

 protected:
  /// `cpus`: how many CPUs the daemon and the workload's threads share.
  DaemonWorkload(uint64_t seed, bool traced, int cpus)
      : Workload(seed, traced), cpus_(LastAllowedCpus(cpus)) {}

  ~DaemonWorkload() override {
    if (server_) server_->Stop();
  }

  void StartServer(uint64_t capacity) {
    const Watchman::Executor fill = WatchmanServer::MissFillExecutor();
    facade_ = std::make_unique<Watchman>(
        FacadeOptions(capacity), [fill](const std::string& text) {
          Span span("executor");
          return fill(text);
        });
    WatchmanServer::Options so;
    so.port = 0;
    so.num_workers = 2;
    server_ = std::make_unique<WatchmanServer>(facade_.get(), so);
    const Status st = server_->Start();
    if (!st.ok()) Die("start server", st);
  }

  WatchmanClient::Options ClientOptions() const {
    WatchmanClient::Options o;
    o.port = server_->port();
    return o;
  }

  std::unique_ptr<WatchmanServer> server_;
  /// The CPUs the daemon and the workload's threads are pinned to, set
  /// up and run under a CpuPin so that every thread they start inherits
  /// them. A request then hands a CPU from client to IO thread and back
  /// rather than waking an idle vCPU; on a shared host that wake-up waits
  /// for the hypervisor, and spread over all vCPUs those waits set the
  /// latencies (see README.md).
  const cpu_set_t cpus_;
};

// ---------------------------------------------------------------------------
// hot_get_daemon
// ---------------------------------------------------------------------------

class HotGetDaemon : public DaemonWorkload {
 public:
  static constexpr size_t kTraceQueries = 17000;
  static constexpr uint64_t kCapacity = 64ull << 20;
  /// One client: more would only queue for the one CPU.
  static constexpr size_t kClients = 1;

  HotGetDaemon(uint64_t seed, bool traced)
      : DaemonWorkload(seed, traced, /*cpus=*/1) {}
  uint64_t capacity_bytes() const override { return kCapacity; }

  void Setup() override {
    inputs_ = MakeInputs(TraceKind::kTpcd, kTraceQueries, seed_);
    const CpuPin pin(cpus_);
    StartServer(kCapacity);
    {
      auto c = WatchmanClient::Connect(ClientOptions());
      if (!c.ok()) Die("connect", c.status());
      for (const Query& q : inputs_.queries) {
        auto r = (*c)->Execute(q.text, q.payload0, q.cost, *q.relations);
        if (!r.ok()) Die("prefill", r.status());
      }
    }
    for (size_t i = 0; i < kClients; ++i) {
      auto c = WatchmanClient::Connect(ClientOptions());
      if (!c.ok()) Die("connect", c.status());
      clients_.push_back(std::move(*c));
    }
  }

  Window Run(double seconds) override {
    const CpuPin pin(cpus_);
    Window out;
    FacadeCounters(&out, -1);
    const size_t n = clients_.size();
    std::vector<Window> per(n);
    std::vector<std::thread> threads;
    const int64_t t0 = NowNs();
    const int64_t deadline = t0 + static_cast<int64_t>(seconds * 1e9);
    out.Start(t0, seconds);
    for (size_t t = 0; t < n; ++t) {
      per[t].StartLike(out);
      threads.emplace_back([&, t] {
        Window& w = per[t];
        WatchmanClient& client = *clients_[t];
        const size_t len = inputs_.stream.size();
        size_t pos = offset_[t] != 0 ? offset_[t] : t * len / n;
        for (int64_t end = 0; end < deadline; pos = (pos + 1) % len) {
          const Query& q = inputs_.queries[inputs_.stream[pos]];
          Tracer::SetQuery((uint64_t{t} << 48) + (++seq_[t]));
          Span root("query");
          const int64_t start = NowNs();
          bool hit = true;
          StatusOr<WatchmanClient::FetchResult> r = [&] {
            Span call("client.get");
            return client.Get(q.text);
          }();
          if (!r.ok() && r.status().code() == StatusCode::kNotFound) {
            hit = false;
            Span call("client.execute");
            r = client.Execute(q.text, q.payload0, q.cost, *q.relations);
          }
          end = NowNs();
          root.Close();
          w.Record(end, static_cast<uint64_t>(end - start), hit);
          ++w.attempted;
          w.cost_total += q.cost;
          if (!r.ok()) {
            ++w.failed;
          } else if (!SamePayload(r->payload, q)) {
            ++w.wrong;
          }
          if (hit) {
            ++w.no_exec;
          } else {
            ++w.exec_calls;
            w.cost_exec += q.cost;
          }
        }
        offset_[t] = pos;
      });
    }
    for (std::thread& th : threads) th.join();
    out.seconds = static_cast<double>(NowNs() - t0) / 1e9;
    for (const Window& w : per) out.Merge(w);
    FacadeCounters(&out, +1);
    return out;
  }

 private:
  std::vector<std::unique_ptr<WatchmanClient>> clients_;
  size_t offset_[kClients] = {};
  uint64_t seq_[kClients] = {};
};

// ---------------------------------------------------------------------------
// tpcd_refresh_daemon
// ---------------------------------------------------------------------------

/// A blocking FIFO handing due requests from the open-loop generator to
/// the completion threads.
template <typename T>
class JobQueue {
 public:
  void Push(T job) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      jobs_.push_back(std::move(job));
    }
    cv_.notify_one();
  }
  void Close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    cv_.notify_all();
  }
  /// False once closed and drained.
  bool Pop(T* job) {
    std::unique_lock<std::mutex> lock(mu_);
    while (jobs_.empty() && !closed_) cv_.wait(lock);
    if (jobs_.empty()) return false;
    *job = std::move(jobs_.front());
    jobs_.pop_front();
    return true;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<T> jobs_;
  bool closed_ = false;
};

class TpcdRefreshDaemon : public DaemonWorkload {
 public:
  /// Offered load (Poisson arrivals). Pinned to two vCPUs of a 4-vCPU
  /// Xeon VM, this workload's p50 passes 0.8 ms at 18 000-24 000/s.
  static constexpr double kRateQps = 12000.0;
  /// One UF1/UF2 refresh (orders + lineitem) every this many ms.
  static constexpr int64_t kRefreshPeriodMs = 100;
  static constexpr size_t kTraceQueries = 120000;
  static constexpr size_t kWarmupQueries = 17000;
  static constexpr uint64_t kCapacity = 1ull << 20;
  static constexpr int64_t kSpinNs = 10000;

  TpcdRefreshDaemon(uint64_t seed, bool traced)
      : DaemonWorkload(seed, traced, /*cpus=*/2),
        arrivals_(seed ^ 0xa11ce5ULL) {}
  uint64_t capacity_bytes() const override { return kCapacity; }

  void Setup() override {
    inputs_ = MakeInputs(TraceKind::kTpcd, kTraceQueries, seed_);
    const CpuPin pin(cpus_);
    StartServer(kCapacity);
    auto c = MultiplexedClient::Connect(ClientOptions());
    if (!c.ok()) Die("connect", c.status());
    client_ = std::move(*c);
    // Warm-up: the first kWarmupQueries of the trace, closed loop.
    for (; pos_ < kWarmupQueries; ++pos_) {
      const Query& q = inputs_.queries[inputs_.stream[pos_]];
      auto r = client_->Get(q.text);
      if (!r.ok() && r.status().code() == StatusCode::kNotFound) {
        r = client_->Execute(q.text, q.payload0, q.cost, *q.relations);
      }
      if (!r.ok()) Die("warm-up", r.status());
    }
  }

  Window Run(double seconds) override;

 private:
  /// One due operation, handed from the generator to the completion
  /// stages. Responses on the one connection are awaited by three
  /// threads so no stage waits behind another's round trips: GETs in
  /// send order, miss-fill EXECUTEs in issue order, and refreshes.
  struct Job {
    bool refresh = false;
    uint32_t query = 0;
    uint64_t seq = 0;
    int64_t due_ns = 0;
    int64_t sent_ns = 0;
    uint64_t epoch_done_at_send = 0;
    uint64_t epoch = 0;  // refresh: the epoch applied; fill: materialized
    MultiplexedClient::Ticket tickets[2] = {0, 0};
    Status send_error;
  };

  /// Returns true when the query finished; false when it missed and a
  /// fill was handed on (job updated for the EXECUTE stage).
  bool AwaitGet(Job& job, Window* w);
  void AwaitFill(Job& job, Window* w);
  void AwaitRefresh(Job& job, Window* w);
  /// Records a finished query's latency and checks its answer.
  void Finish(const Job& job, bool hit, const StatusOr<WireResponse>& r,
              Window* w);
  /// Checks an answer for `q`; returns false when it is no valid payload.
  bool CheckAnswer(const Query& q, const std::string& payload,
                   uint64_t epoch_done_at_send, Window* w) const;
  uint64_t EpochOf(const Query& q, uint64_t epoch) const {
    return q.refreshable ? epoch : 0;
  }

  std::unique_ptr<MultiplexedClient> client_;
  size_t pos_ = 0;
  uint64_t seq_ = 0;
  watchman::Rng arrivals_;
  /// Warehouse state: bumped when a refresh is applied (before the cache
  /// is told), and the newest refresh whose invalidations completed.
  std::atomic<uint64_t> epoch_applied_{0};
  std::atomic<uint64_t> epoch_done_{0};
};

Window TpcdRefreshDaemon::Run(double seconds) {
  const CpuPin pin(cpus_);
  Window out;
  FacadeCounters(&out, -1);
  const int64_t t0 = NowNs();
  const int64_t deadline = t0 + static_cast<int64_t>(seconds * 1e9);
  out.Start(t0, seconds);
  JobQueue<Job> gets, fills, refreshes;
  Window per[3];
  for (Window& w : per) w.StartLike(out);
  std::thread get_stage([&] {
    Job job;
    while (gets.Pop(&job)) {
      if (!AwaitGet(job, &per[0])) fills.Push(std::move(job));
    }
    fills.Close();
  });
  std::thread fill_stage([&] {
    Job job;
    while (fills.Pop(&job)) AwaitFill(job, &per[1]);
  });
  std::thread refresh_stage([&] {
    Job job;
    while (refreshes.Pop(&job)) AwaitRefresh(job, &per[2]);
  });

  const int64_t period_ns = kRefreshPeriodMs * 1000000;
  // The default 50 us timer slack would make every short sleep late.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  int64_t next_query = t0;
  int64_t next_refresh = t0 + period_ns;
  for (;;) {
    const bool refresh = next_refresh <= next_query;
    const int64_t due = refresh ? next_refresh : next_query;
    if (due >= deadline) break;
    // Sleep most of the gap and spin only the last few microseconds: at
    // this rate a generator that spun whole gaps would take a core from
    // the daemon it measures.
    for (int64_t now = NowNs(); now < due; now = NowNs()) {
      if (due - now > 2 * kSpinNs) {
        std::this_thread::sleep_for(
            std::chrono::nanoseconds(due - now - kSpinNs));
      }
    }
    Job job;
    job.refresh = refresh;
    job.due_ns = due;
    if (refresh) {
      job.epoch = epoch_applied_.fetch_add(1) + 1;
      for (int i = 0; i < 2 && job.send_error.ok(); ++i) {
        auto tk = client_->StartInvalidateRelation(RefreshRelations()[i]);
        if (tk.ok()) {
          job.tickets[i] = *tk;
        } else {
          job.send_error = tk.status();
        }
      }
      next_refresh += period_ns;
    } else {
      job.query = inputs_.stream[pos_ % inputs_.stream.size()];
      ++pos_;
      job.seq = ++seq_;
      job.epoch_done_at_send = epoch_done_.load();
      auto tk = client_->StartGet(inputs_.queries[job.query].text);
      if (tk.ok()) {
        job.tickets[0] = *tk;
      } else {
        job.send_error = tk.status();
      }
      next_query +=
          static_cast<int64_t>(arrivals_.NextExponential(kRateQps) * 1e9);
    }
    const Status flushed = client_->Flush();
    if (job.send_error.ok() && !flushed.ok()) job.send_error = flushed;
    job.sent_ns = NowNs();
    out.sched_lag.Record(static_cast<uint64_t>(job.sent_ns - due));
    (refresh ? refreshes : gets).Push(std::move(job));
  }
  gets.Close();
  refreshes.Close();
  get_stage.join();
  fill_stage.join();
  refresh_stage.join();
  out.seconds = static_cast<double>(deadline - t0) / 1e9;
  for (const Window& w : per) out.Merge(w);
  FacadeCounters(&out, +1);
  return out;
}

void TpcdRefreshDaemon::AwaitRefresh(Job& job, Window* w) {
  ++w->attempted;
  ++w->refreshes;
  Span root("refresh", job.due_ns);
  bool ok = job.send_error.ok();
  for (MultiplexedClient::Ticket tk : job.tickets) {
    if (!ok) break;
    Span call("client.invalidate_relation", job.sent_ns);
    StatusOr<WireResponse> r = client_->Await(tk);
    ok = r.ok() && r->code == StatusCode::kOk;
    if (ok) w->sets_dropped += r->dropped;
  }
  const int64_t end = NowNs();
  root.Close();
  if (!ok) {
    ++w->failed;
    return;
  }
  w->invalidate.Record(static_cast<uint64_t>(end - job.due_ns));
  uint64_t done = epoch_done_.load();
  while (done < job.epoch &&
         !epoch_done_.compare_exchange_weak(done, job.epoch)) {
  }
}

bool TpcdRefreshDaemon::AwaitGet(Job& job, Window* w) {
  const Query& q = inputs_.queries[job.query];
  ++w->attempted;
  w->cost_total += q.cost;
  if (!job.send_error.ok()) {
    Finish(job, false, job.send_error, w);
    return true;
  }
  Tracer::SetQuery(job.seq);
  Span root("query", job.due_ns);
  StatusOr<WireResponse> r = [&] {
    Span call("client.get", job.sent_ns);
    return client_->Await(job.tickets[0]);
  }();
  if (r.ok() && r->code == StatusCode::kNotFound) {
    // Miss: materialize the result at the warehouse's current state and
    // offer it with EXECUTE (the facade serves a set cached meanwhile).
    job.epoch = EpochOf(q, epoch_applied_.load());
    std::string payload = [&] {
      Span span("executor");
      return job.epoch == 0
                 ? q.payload0
                 : MakePayload(q.qhash, job.epoch, q.result_bytes);
    }();
    ++w->exec_calls;
    w->cost_exec += q.cost;
    StatusOr<MultiplexedClient::Ticket> tk =
        client_->StartExecute(q.text, payload, q.cost, *q.relations);
    if (tk.ok()) {
      job.tickets[1] = *tk;
      job.sent_ns = NowNs();
      if (Status st = client_->Flush(); !st.ok()) job.send_error = st;
    } else {
      job.send_error = tk.status();
    }
    return false;
  }
  root.Close();
  Finish(job, true, r, w);
  return true;
}

void TpcdRefreshDaemon::AwaitFill(Job& job, Window* w) {
  const Query& q = inputs_.queries[job.query];
  StatusOr<WireResponse> r = job.send_error;
  if (job.send_error.ok()) {
    Tracer::SetQuery(job.seq);
    Span call("client.execute", job.sent_ns);
    r = client_->Await(job.tickets[1]);
  }
  if (r.ok() && r->code == StatusCode::kOk &&
      job.epoch < EpochOf(q, epoch_done_.load())) {
    ++w->fills_crossed_refresh;
  }
  Finish(job, false, r, w);
}

void TpcdRefreshDaemon::Finish(const Job& job, bool hit,
                               const StatusOr<WireResponse>& r, Window* w) {
  const int64_t end = NowNs();
  w->Record(end, static_cast<uint64_t>(end - job.due_ns), hit);
  if (!r.ok() || r->code != StatusCode::kOk) {
    ++w->failed;
    return;
  }
  if (hit) ++w->no_exec;
  const Query& q = inputs_.queries[job.query];
  if (!CheckAnswer(q, r->payload, job.epoch_done_at_send, w)) ++w->wrong;
}

bool TpcdRefreshDaemon::CheckAnswer(const Query& q, const std::string& payload,
                                    uint64_t epoch_done_at_send,
                                    Window* w) const {
  uint64_t epoch = 0;
  if (!PayloadEpoch(payload, q.qhash, &epoch)) return false;
  if (epoch != EpochOf(q, epoch) || epoch > epoch_applied_.load()) {
    return false;
  }
  if (epoch < EpochOf(q, epoch_done_at_send)) ++w->stale_answers;
  if (epoch == 0) return SamePayload(payload, q);
  return payload == MakePayload(q.qhash, epoch, q.result_bytes);
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {
      "setquery_embedded", "hot_get_daemon", "tpcd_refresh_daemon"};
  return kNames;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       uint64_t seed, bool traced) {
  if (name == "setquery_embedded") {
    return std::make_unique<SetQueryEmbedded>(seed, traced);
  }
  if (name == "hot_get_daemon") {
    return std::make_unique<HotGetDaemon>(seed, traced);
  }
  if (name == "tpcd_refresh_daemon") {
    return std::make_unique<TpcdRefreshDaemon>(seed, traced);
  }
  return nullptr;
}

}  // namespace e2ebench
