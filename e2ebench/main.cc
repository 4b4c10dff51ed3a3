// watchbench: one run of one workload of the end-to-end benchmark.
//
//   watchbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//              [--out <dir>]
//
// Untraced (--trace 0): six rounds, each setting the workload up afresh,
// running half a second untimed and then measuring a sixth of --seconds;
// setup_s is the median set-up time. Rates and latency percentiles come
// from the rounds' one-second slices: the quartile of them the host
// disturbed least (see kQuietLatency). Traced
// (--trace 1): sets up once, runs half the window untraced and half
// traced (spans on), runs the per-layer probes, prints the per-layer
// metrics and writes the spans to <out>/spans-<workload>-seed<n>.jsonl.
//
// Every metric is printed as "metric <name> <value> <unit> [n=.. beyond=..]";
// the last line is "result correct=<0|1> attempted=<n> failed=<n>".

#include <malloc.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench.h"
#include "workloads.h"

namespace e2ebench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out = ".";
};

[[noreturn]] void Usage(const char* msg) {
  std::fprintf(stderr,
               "error: %s\nusage: watchbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--out <dir>]\n",
               msg);
  std::exit(2);
}

Args Parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage("missing flag value");
    const char* v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v, nullptr);
    } else if (flag == "--trace") {
      a.trace = std::strcmp(v, "1") == 0;
    } else if (flag == "--out") {
      a.out = v;
    } else {
      Usage("unknown flag");
    }
  }
  if (a.seconds <= 0) Usage("--seconds must be positive");
  return a;
}

/// Rounds per untraced run, each with its own set-up; setup_s is the
/// median set-up time.
constexpr int kRounds = 6;
/// Untimed seconds each round runs before its timed share.
constexpr double kWarmupSeconds = 0.5;

void Print(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("metric %s %.17g %s", m.name.c_str(), m.value, m.unit.c_str());
    if (m.samples != 0) {
      std::printf(" n=%" PRIu64 " beyond=%" PRIu64, m.samples, m.beyond);
    }
    std::printf("\n");
  }
}

/// Timings are taken from the quarter of one-second slices the host
/// disturbed least: the lower quartile over the slices of a latency, the
/// upper quartile of a rate. CPU that a shared host takes from the VM
/// (steal time) only ever slows a slice, and it comes in bursts of
/// seconds, while a slower program slows every slice.
constexpr double kQuietLatency = 0.25;
constexpr double kQuietRate = 0.75;

/// A latency percentile in us: over the window's full slices, the
/// kQuietLatency quantile of each slice's percentile. n counts the
/// samples of those slices and beyond is the fewest any slice had past
/// its percentile.
void AddSlicePercentile(std::vector<Metric>* out, const std::string& name,
                        const Window& w, Hist Slice::*hist, double q) {
  std::vector<double> values;
  Metric m;
  m.name = name;
  m.unit = "us";
  for (size_t i = 0; i < w.full_slices(); ++i) {
    const Hist& h = w.slices[i].*hist;
    if (h.count() == 0) continue;
    values.push_back(h.Quantile(q) * 1e-3);
    m.samples += h.count();
    m.beyond =
        values.size() == 1 ? h.Beyond(q) : std::min(m.beyond, h.Beyond(q));
  }
  if (values.empty()) return;
  m.value = SampleQuantile(values, kQuietLatency);
  out->push_back(m);
}

/// The end-to-end metrics of one untraced window.
void EndToEnd(const Window& w, std::vector<Metric>* out) {
  std::vector<double> rates;
  for (size_t i = 0; i < w.full_slices(); ++i) {
    rates.push_back(static_cast<double>(w.slices[i].queries) /
                    w.slice_seconds());
  }
  AddMetric(out, "throughput_qps", SampleQuantile(rates, kQuietRate),
            "queries/s");
  AddSlicePercentile(out, "query_p50_us", w, &Slice::query, 0.50);
  AddSlicePercentile(out, "query_p99_us", w, &Slice::query, 0.99);
  AddSlicePercentile(out, "hit_p50_us", w, &Slice::hit, 0.50);
  AddSlicePercentile(out, "hit_p99_us", w, &Slice::hit, 0.99);
  AddSlicePercentile(out, "miss_p50_us", w, &Slice::miss, 0.50);
  AddSlicePercentile(out, "miss_p99_us", w, &Slice::miss, 0.99);
  if (w.invalidate.count() > 0) {
    // One refresh per 100 ms: a 10 s window yields ~100 samples, enough
    // for p90 with ten beyond it (p99 would need 1000).
    AddPercentile(out, "invalidate_p90_us", w.invalidate, 0.90, 1e-3, "us");
  }
  AddMetric(out, "csr", 1.0 - Ratio(w.cost_exec, w.cost_total), "ratio");
  AddMetric(out, "hr", Ratio(w.no_exec, w.queries()), "ratio");
  AddMetric(out, "failed_frac", Ratio(w.failed + w.wrong, w.attempted),
            "ratio");
  if (w.sched_lag.count() > 0) {
    AddPercentile(out, "sched_lag_p99_us", w.sched_lag, 0.99, 1e-3, "us");
  }
}

int Main(int argc, char** argv) {
  const Args args = Parse(argc, argv);
  if (MakeWorkload(args.workload, args.seed, false) == nullptr) {
    Usage("unknown workload");
  }
  const std::string fingerprint = Fingerprint();
  std::printf("fingerprint %s\n", fingerprint.c_str());
  std::printf("run workload=%s seed=%" PRIu64 " seconds=%g trace=%d\n",
              args.workload.c_str(), args.seed, args.seconds,
              args.trace ? 1 : 0);
  std::vector<Metric> metrics;
  uint64_t attempted = 0, failed = 0, wrong = 0;

  if (!args.trace) {
    // Each round sets the workload up afresh (new threads, sockets and
    // memory layout) and measures its share of the window: run-to-run
    // differences in where the threads land average out within one run.
    Window win;
    std::vector<double> setups;
    uint64_t warm_attempted = 0, warm_failed = 0, warm_wrong = 0;
    for (int round = 0; round < kRounds; ++round) {
      std::unique_ptr<Workload> w =
          MakeWorkload(args.workload, args.seed, false);
      const int64_t t0 = NowNs();
      w->Setup();
      setups.push_back(static_cast<double>(NowNs() - t0) / 1e9);
      // Untimed warm-up: fresh threads and connections settle first.
      const Window warm = w->Run(kWarmupSeconds);
      warm_attempted += warm.attempted;
      warm_failed += warm.failed;
      warm_wrong += warm.wrong;
      win.Append(w->Run(args.seconds / kRounds));
      w.reset();
      // Hand the round's freed heap back, so that peak_rss_mb is one
      // round's peak and not how much of the last one the allocator kept.
      malloc_trim(0);
    }
    Metric setup;
    setup.name = "setup_s";
    setup.value = Median(setups);
    setup.unit = "s";
    setup.samples = setups.size();
    metrics.push_back(setup);
    EndToEnd(win, &metrics);
    AddMetric(&metrics, "peak_rss_mb", PeakRssMiB(), "MiB");
    attempted = win.attempted + warm_attempted;
    failed = win.failed + warm_failed;
    wrong = win.wrong + warm_wrong;
  } else {
    std::unique_ptr<Workload> w =
        MakeWorkload(args.workload, args.seed, true);
    w->Setup();
    const Window plain = w->Run(args.seconds / 2);
    Tracer::SetEnabled(true);
    const Window t = w->Run(args.seconds / 2);
    Tracer::SetEnabled(false);
    attempted = plain.attempted + t.attempted;
    failed = plain.failed + t.failed;
    wrong = plain.wrong + t.wrong;

    const double queries = static_cast<double>(t.queries());
    const double plain_qps = Ratio(plain.queries(), plain.seconds);
    const double traced_qps = Ratio(queries, t.seconds);
    const TracedPayloadStore::Totals store = w->traced_store()->totals();
    RunCacheReplay(w->inputs(), w->capacity_bytes(), &metrics);
    AddMetric(&metrics, "sharded.lock_contention_ratio",
              Ratio(t.lock_contended, t.lock_acquisitions), "ratio");
    if (t.facade_hit_ns.count() > 0) {
      AddMetric(&metrics, "watchman.hit_us", t.facade_hit_ns.mean() / 1e3,
                "us");
    }
    if (t.facade_miss_self_ns.count() > 0) {
      AddMetric(&metrics, "watchman.miss_self_us",
                t.facade_miss_self_ns.mean() / 1e3, "us");
    }
    AddMetric(&metrics, "watchman.executions", t.executions, "count");
    AddMetric(&metrics, "watchman.dedup_hits", t.dedup_hits, "count");
    AddMetric(&metrics, "watchman.lookups_per_query",
              Ratio(t.lookups, queries), "ratio");
    AddMetric(&metrics, "watchman.stale_served", t.fills_crossed_refresh,
              "count");
    AddMetric(&metrics, "watchman.stale_answers", t.stale_answers, "count");
    if (t.refreshes > 0) {
      AddMetric(&metrics, "watchman.sets_dropped_per_refresh",
                Ratio(t.sets_dropped, t.refreshes), "ratio");
    }
    AddMetric(&metrics, "payload_store.put_us",
              Ratio(store.put_ns, store.puts) / 1e3, "us");
    AddMetric(&metrics, "payload_store.get_us",
              Ratio(store.get_ns, store.gets) / 1e3, "us");
    AddMetric(&metrics, "executor.calls_per_query",
              Ratio(t.exec_calls, queries), "ratio");
    AddMetric(&metrics, "trace.overhead_frac",
              1.0 - Ratio(traced_qps, plain_qps), "ratio");

    // Daemon workloads report their own server under load; the embedded
    // workload has none, so its server numbers come from the ladder's.
    ServerLayer ladder_server;
    RunLadder(w->inputs(), &metrics, &ladder_server, &wrong);
    const ServerLayer s =
        w->server() != nullptr ? ReadServer(*w->server()) : ladder_server;
    AddMetric(&metrics, "server.get_handler_us", s.get_us, "us");
    AddMetric(&metrics, "server.execute_handler_us", s.execute_us, "us");
    AddMetric(&metrics, "server.inline_share", s.inline_share, "ratio");
    AddMetric(&metrics, "server.ready_queue_peak", s.ready_peak, "count");
    if (t.refreshes > 0) {
      AddMetric(&metrics, "watchman.invalidate_relation_us", s.invalidate_us,
                "us");
    }
    w.reset();
    const std::string path = args.out + "/spans-" + args.workload + "-seed" +
                             std::to_string(args.seed) + ".jsonl";
    if (!Tracer::WriteFile(path, "{\"fingerprint\":" + fingerprint + "}")) {
      std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
      return 1;
    }
    std::printf("spans %s recorded=%" PRIu64 " dropped=%" PRIu64 "\n",
                path.c_str(), Tracer::recorded(), Tracer::dropped());
  }

  Print(metrics);
  std::printf("result correct=%d attempted=%" PRIu64 " failed=%" PRIu64 "\n",
              wrong == 0 ? 1 : 0, attempted, failed + wrong);
  return 0;
}

}  // namespace
}  // namespace e2ebench

int main(int argc, char** argv) { return e2ebench::Main(argc, argv); }
