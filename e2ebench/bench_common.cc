#include <sys/utsname.h>

#include <algorithm>
#include <cstring>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "bench.h"
#include "storage/schemas.h"
#include "util/hash.h"
#include "workload/setquery_workload.h"
#include "workload/tpcd_workload.h"

namespace e2ebench {

// ---------------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------------

const std::vector<std::string>& RelationsOf(TraceKind kind, uint32_t tmpl) {
  static const std::vector<std::string> kBench = {"bench"};
  // TPC-D (v1/v2) query definitions: the FROM clause of each of Q1..Q17.
  static const std::vector<std::vector<std::string>> kTpcd = {
      {"lineitem"},                                                // Q1
      {"part", "supplier", "partsupp", "nation", "region"},        // Q2
      {"customer", "orders", "lineitem"},                          // Q3
      {"orders", "lineitem"},                                      // Q4
      {"customer", "orders", "lineitem", "supplier", "nation",     // Q5
       "region"},
      {"lineitem"},                                                // Q6
      {"supplier", "lineitem", "orders", "customer", "nation"},    // Q7
      {"part", "supplier", "lineitem", "orders", "customer",       // Q8
       "nation", "region"},
      {"part", "supplier", "lineitem", "partsupp", "orders",       // Q9
       "nation"},
      {"customer", "orders", "lineitem", "nation"},                // Q10
      {"partsupp", "supplier", "nation"},                          // Q11
      {"orders", "lineitem"},                                      // Q12
      {"customer", "orders"},                                      // Q13
      {"lineitem", "part"},                                        // Q14
      {"lineitem", "supplier"},                                    // Q15
      {"partsupp", "part", "supplier"},                            // Q16
      {"lineitem", "part"},                                        // Q17
  };
  if (kind == TraceKind::kSetQuery) return kBench;
  return kTpcd.at(tmpl - 1);
}

const std::vector<std::string>& RefreshRelations() {
  static const std::vector<std::string> kRefresh = {"orders", "lineitem"};
  return kRefresh;
}

std::string MakePayload(uint64_t qhash, uint64_t epoch, uint64_t bytes) {
  std::string p(std::max<uint64_t>(bytes, 16), '\0');
  std::memcpy(p.data(), &qhash, 8);
  std::memcpy(p.data() + 8, &epoch, 8);
  uint64_t state = watchman::HashCombine(qhash, epoch);
  for (size_t i = 16; i < p.size(); i += 8) {
    state = watchman::Mix64(state + 0x9e3779b97f4a7c15ULL);
    std::memcpy(p.data() + i, &state, std::min<size_t>(8, p.size() - i));
  }
  return p;
}

bool PayloadEpoch(const std::string& payload, uint64_t qhash,
                  uint64_t* epoch) {
  if (payload.size() < 16) return false;
  uint64_t h = 0;
  std::memcpy(&h, payload.data(), 8);
  std::memcpy(epoch, payload.data() + 8, 8);
  return h == qhash;
}

Inputs MakeInputs(TraceKind kind, size_t num_queries, uint64_t seed) {
  const watchman::Database db = kind == TraceKind::kSetQuery
                                    ? watchman::MakeSetQueryDatabase()
                                    : watchman::MakeTpcdDatabase();
  const watchman::WorkloadMix mix = kind == TraceKind::kSetQuery
                                        ? watchman::MakeSetQueryWorkload(db)
                                        : watchman::MakeTpcdWorkload(db);
  watchman::TraceGenOptions gen;
  gen.num_queries = num_queries;
  gen.seed = seed;
  const watchman::Trace trace = mix.GenerateTrace(gen);

  Inputs in;
  std::unordered_map<std::string, uint32_t> index;
  in.stream.reserve(trace.size());
  for (const watchman::QueryEvent& e : trace) {
    auto [it, fresh] =
        index.emplace(e.query_id, static_cast<uint32_t>(in.queries.size()));
    if (fresh) {
      Query q;
      q.text = mix.FindTemplate(e.template_id)->QueryText(e.instance);
      q.qhash = watchman::Fnv1a64(e.query_id);
      q.result_bytes = std::max<uint64_t>(e.result_bytes, 16);
      q.cost = e.cost_block_reads;
      q.relations = &RelationsOf(kind, e.template_id);
      for (const std::string& r : *q.relations) {
        for (const std::string& u : RefreshRelations()) {
          q.refreshable |= r == u;
        }
      }
      q.payload0 = MakePayload(q.qhash, 0, q.result_bytes);
      q.desc = watchman::QueryDescriptor::Make(e.query_id, q.result_bytes,
                                               q.cost);
      in.queries.push_back(std::move(q));
    }
    in.stream.push_back(it->second);
  }
  return in;
}

// ---------------------------------------------------------------------------
// Hist
// ---------------------------------------------------------------------------

size_t Hist::Index(uint64_t v) {
  if (v < kSub) return static_cast<size_t>(v);
  const int e = 63 - __builtin_clzll(v);  // >= kSubBits
  const uint64_t sub = (v >> (e - kSubBits)) - kSub;
  return static_cast<size_t>((e - kSubBits + 1) * kSub + sub);
}

uint64_t Hist::Lower(size_t idx) {
  if (idx < kSub) return idx;
  const int e = static_cast<int>(idx / kSub) - 1 + kSubBits;
  return (kSub + idx % kSub) << (e - kSubBits);
}

uint64_t Hist::Width(size_t idx) {
  if (idx < kSub) return 1;
  const int e = static_cast<int>(idx / kSub) - 1 + kSubBits;
  return uint64_t{1} << (e - kSubBits);
}

double Hist::Quantile(double q) const {
  if (n_ == 0) return 0.0;
  const double rank = q * static_cast<double>(n_ - 1);
  uint64_t cum = 0;
  for (size_t i = 0; i < counts_.size(); ++i) {
    const uint64_t c = counts_[i];
    if (c == 0) continue;
    if (static_cast<double>(cum + c) > rank) {
      const double frac = (rank - static_cast<double>(cum) + 0.5) /
                          static_cast<double>(c);
      return static_cast<double>(Lower(i)) +
             frac * static_cast<double>(Width(i));
    }
    cum += c;
  }
  return static_cast<double>(Lower(counts_.size() - 1));
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

std::atomic<bool> Tracer::enabled_{false};

namespace {

// Per-thread span buffers stay bounded: the span file keeps the first
// spans of each thread, while every span still feeds the caller's
// aggregates through Span::Close().
constexpr size_t kSpansPerThread = 1 << 15;

struct OpenSpan {
  const char* name;
  uint64_t id;
  int64_t start_ns;
  int64_t child_ns;
};

struct ThreadSpans {
  uint32_t thread = 0;
  uint64_t query = 0;
  std::vector<OpenSpan> stack;
  std::vector<SpanRecord> done;
  uint64_t dropped = 0;
};

std::mutex g_threads_mu;
std::vector<std::unique_ptr<ThreadSpans>> g_threads;
std::atomic<uint64_t> g_next_span_id{1};

ThreadSpans& Local() {
  thread_local ThreadSpans* local = [] {
    std::lock_guard<std::mutex> lock(g_threads_mu);
    g_threads.push_back(std::make_unique<ThreadSpans>());
    g_threads.back()->thread = static_cast<uint32_t>(g_threads.size());
    g_threads.back()->done.reserve(1024);
    return g_threads.back().get();
  }();
  return *local;
}

}  // namespace

void Tracer::SetQuery(uint64_t query) { Local().query = query; }

uint64_t Tracer::recorded() {
  std::lock_guard<std::mutex> lock(g_threads_mu);
  uint64_t n = 0;
  for (const auto& t : g_threads) n += t->done.size();
  return n;
}

uint64_t Tracer::dropped() {
  std::lock_guard<std::mutex> lock(g_threads_mu);
  uint64_t n = 0;
  for (const auto& t : g_threads) n += t->dropped;
  return n;
}

bool Tracer::WriteFile(const std::string& path,
                       const std::string& header_line) {
  std::ofstream out(path);
  if (!out) return false;
  out << header_line << '\n';
  std::lock_guard<std::mutex> lock(g_threads_mu);
  for (const auto& t : g_threads) {
    for (const SpanRecord& s : t->done) {
      out << "{\"name\":\"" << s.name << "\",\"id\":" << s.id
          << ",\"parent\":" << s.parent << ",\"query\":" << s.query
          << ",\"thread\":" << s.thread << ",\"start_ns\":" << s.start_ns
          << ",\"end_ns\":" << s.end_ns << "}\n";
    }
  }
  return static_cast<bool>(out);
}

Span::Span(const char* name, int64_t start_ns) {
  if (!Tracer::enabled()) return;
  ThreadSpans& t = Local();
  t.stack.push_back({name, g_next_span_id.fetch_add(1),
                     start_ns != 0 ? start_ns : NowNs(), 0});
  depth_ = t.stack.size();
  open_ = true;
}

Span::Times Span::Close() {
  if (!open_) return {};
  open_ = false;
  ThreadSpans& t = Local();
  const int64_t end = NowNs();
  const OpenSpan s = t.stack[depth_ - 1];
  t.stack.resize(depth_ - 1);
  const Times times{end - s.start_ns, end - s.start_ns - s.child_ns};
  const uint64_t parent = t.stack.empty() ? 0 : t.stack.back().id;
  if (!t.stack.empty()) t.stack.back().child_ns += times.dur_ns;
  if (t.done.size() < kSpansPerThread) {
    t.done.push_back({s.name, s.id, parent, t.query, t.thread, s.start_ns,
                      end});
  } else {
    ++t.dropped;
  }
  return times;
}

watchman::Status TracedPayloadStore::Put(const std::string& key,
                                         const std::string& payload) {
  Span span("payload_store.put");
  const int64_t t0 = NowNs();
  watchman::Status st = inner_.Put(key, payload);
  put_ns_.fetch_add(static_cast<uint64_t>(NowNs() - t0),
                    std::memory_order_relaxed);
  puts_.fetch_add(1, std::memory_order_relaxed);
  return st;
}

watchman::StatusOr<std::string> TracedPayloadStore::Get(
    const std::string& key) {
  Span span("payload_store.get");
  const int64_t t0 = NowNs();
  watchman::StatusOr<std::string> r = inner_.Get(key);
  get_ns_.fetch_add(static_cast<uint64_t>(NowNs() - t0),
                    std::memory_order_relaxed);
  gets_.fetch_add(1, std::memory_order_relaxed);
  return r;
}

watchman::Status TracedPayloadStore::GetInto(const std::string& key,
                                             std::string* out) {
  Span span("payload_store.get");
  const int64_t t0 = NowNs();
  watchman::Status st = inner_.GetInto(key, out);
  get_ns_.fetch_add(static_cast<uint64_t>(NowNs() - t0),
                    std::memory_order_relaxed);
  gets_.fetch_add(1, std::memory_order_relaxed);
  return st;
}

// ---------------------------------------------------------------------------
// Results
// ---------------------------------------------------------------------------

void AddMetric(std::vector<Metric>* out, const std::string& name, double value,
               const std::string& unit) {
  Metric m;
  m.name = name;
  m.value = value;
  m.unit = unit;
  out->push_back(m);
}

void AddPercentile(std::vector<Metric>* out, const std::string& name,
                   const Hist& h, double q, double scale,
                   const std::string& unit) {
  Metric m;
  m.name = name;
  m.value = h.Quantile(q) * scale;
  m.unit = unit;
  m.samples = h.count();
  m.beyond = h.Beyond(q);
  out->push_back(m);
}

double PeakRssMiB() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

namespace {

std::string FirstLineOf(const char* path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

}  // namespace

std::string Fingerprint() {
  utsname u{};
  uname(&u);
  std::string governor =
      FirstLineOf("/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor");
  if (governor.empty()) governor = "unavailable";
  std::ostringstream os;
  os << "{\"nproc\":" << std::thread::hardware_concurrency()
     << ",\"cpu\":\"" << JsonEscape(CpuModel()) << "\",\"kernel\":\""
     << JsonEscape(std::string(u.sysname) + " " + u.release)
     << "\",\"governor\":\"" << JsonEscape(governor) << "\",\"compiler\":\""
     << JsonEscape(__VERSION__) << "\",\"build_type\":\""
     << E2EBENCH_BUILD_TYPE << "\"}";
  return os.str();
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

double SampleQuantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const double rank = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

}  // namespace e2ebench
