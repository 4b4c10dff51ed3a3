// Per-layer probes of the traced run: a standalone policy replay of the
// workload's reference stream, and the latency ladder that sends one GET
// stream through successively more of the stack.

#include <algorithm>
#include <cstdio>
#include <unordered_set>

#include "server/client.h"
#include "server/protocol.h"
#include "sim/policy_config.h"
#include "workloads.h"

namespace e2ebench {

using watchman::PolicyConfig;
using watchman::PolicyKind;
using watchman::Status;
using watchman::Watchman;
using watchman::WatchmanClient;
using watchman::WatchmanServer;

namespace {

/// References replayed by each probe (the stream prefix).
constexpr size_t kReplayRefs = 200000;
constexpr size_t kLadderRefs = 20000;
constexpr int kPasses = 3;

PolicyConfig LncRa() {
  PolicyConfig p;
  p.kind = PolicyKind::kLncRA;
  p.k = 4;
  return p;
}

}  // namespace

void RunCacheReplay(const Inputs& in, uint64_t capacity,
                    std::vector<Metric>* out) {
  auto cache = watchman::MakeCache(LncRa(), capacity);
  Hist hit, miss;
  const size_t n = std::min(kReplayRefs, in.stream.size());
  watchman::Timestamp now = 0;
  for (size_t i = 0; i < n; ++i) {
    const watchman::QueryDescriptor& d = in.queries[in.stream[i]].desc;
    now += 1000;
    const int64_t t0 = NowNs();
    const bool was_hit = cache->Reference(d, now);
    const auto ns = static_cast<uint64_t>(NowNs() - t0);
    (was_hit ? hit : miss).Record(ns);
  }
  const watchman::CacheStats& s = cache->stats();
  AddMetric(out, "cache.reference_hit_ns", hit.mean(), "ns");
  AddPercentile(out, "cache.reference_miss_p50_ns", miss, 0.50, 1.0, "ns");
  AddPercentile(out, "cache.reference_miss_p99_ns", miss, 0.99, 1.0, "ns");
  AddMetric(out, "cache.evictions_per_admit",
            Ratio(s.evictions, s.insertions), "ratio");
  AddMetric(out, "cache.admit_ratio",
            Ratio(s.insertions, s.lookups - s.hits), "ratio");
}

ServerLayer ReadServer(const WatchmanServer& server) {
  using watchman::OpCode;
  ServerLayer s;
  s.get_us = server.op_counters(OpCode::kGet).latency_mean_us;
  s.execute_us = server.op_counters(OpCode::kExecute).latency_mean_us;
  s.invalidate_us =
      server.op_counters(OpCode::kInvalidateRelation).latency_mean_us;
  uint64_t requests = 0;
  for (OpCode op : {OpCode::kGet, OpCode::kExecute,
                    OpCode::kInvalidateRelation}) {
    requests += server.op_counters(op).requests;
  }
  s.inline_share = Ratio(server.inline_dispatched(), requests);
  s.ready_peak = static_cast<double>(server.connections_queued_peak());
  return s;
}

void RunLadder(const Inputs& in, std::vector<Metric>* out,
               ServerLayer* server_layer, uint64_t* wrong) {
  const size_t n = std::min(kLadderRefs, in.stream.size());
  std::vector<uint32_t> distinct;
  {
    std::unordered_set<uint32_t> seen;
    for (size_t i = 0; i < n; ++i) {
      if (seen.insert(in.stream[i]).second) distinct.push_back(in.stream[i]);
    }
  }
  uint64_t bytes = 0;
  for (uint32_t q : distinct) bytes += in.queries[q].result_bytes;
  const uint64_t capacity = 2 * bytes + (1 << 20);  // every set fits

  // Rung 1: the policy alone. Rung 2: the sharded, locked cache. Each
  // rung reports its fastest of kPasses passes over the stream.
  const auto timed_pass = [&](auto&& reference) {
    watchman::Timestamp now = 0;
    for (uint32_t q : distinct) reference(in.queries[q].desc, now += 1000);
    double best = 0.0;
    for (int pass = 0; pass < kPasses; ++pass) {
      const int64_t t0 = NowNs();
      for (size_t i = 0; i < n; ++i) {
        reference(in.queries[in.stream[i]].desc, now += 1000);
      }
      const double ns = static_cast<double>(NowNs() - t0) / n;
      best = pass == 0 ? ns : std::min(best, ns);
    }
    return best;
  };
  auto plain = watchman::MakeCache(LncRa(), capacity);
  const double reference_ns = timed_pass(
      [&](const auto& d, auto now) { return plain->Reference(d, now); });
  auto sharded = watchman::MakeShardedCache(LncRa(), capacity, 8);
  const double sharded_ns = timed_pass(
      [&](const auto& d, auto now) { return sharded->Reference(d, now); });

  // Rungs 3 and 5 share one prefilled facade behind a loopback daemon.
  Watchman::Options fo;
  fo.capacity_bytes = capacity;
  fo.policy = LncRa();
  fo.num_shards = 8;
  Watchman facade(std::move(fo), WatchmanServer::MissFillExecutor());
  WatchmanServer::Options so;
  so.port = 0;
  so.num_workers = 2;
  WatchmanServer server(&facade, so);
  if (Status st = server.Start(); !st.ok()) {
    std::fprintf(stderr, "error: ladder server: %s\n", st.ToString().c_str());
    std::exit(1);
  }
  WatchmanClient::Options co;
  co.port = server.port();
  auto client = WatchmanClient::Connect(co);
  if (!client.ok()) {
    std::fprintf(stderr, "error: ladder connect: %s\n",
                 client.status().ToString().c_str());
    std::exit(1);
  }
  Hist execute_rtt;
  for (uint32_t qi : distinct) {
    const Query& q = in.queries[qi];
    const int64_t t0 = NowNs();
    auto r = (*client)->Execute(q.text, q.payload0, q.cost, *q.relations);
    execute_rtt.Record(static_cast<uint64_t>(NowNs() - t0));
    if (!r.ok() || r->payload != q.payload0) ++*wrong;
  }

  // Rung 3: the facade's hit path, as the daemon's GET handler calls it.
  std::string buf;
  double get_cached_ns = 0.0;
  for (int pass = 0; pass < kPasses; ++pass) {
    const int64_t t0 = NowNs();
    for (size_t i = 0; i < n; ++i) {
      const Query& q = in.queries[in.stream[i]];
      if (!facade.GetCachedInto(q.text, &buf).ok() || buf != q.payload0) {
        ++*wrong;
      }
    }
    const double ns = static_cast<double>(NowNs() - t0) / n;
    get_cached_ns = pass == 0 ? ns : std::min(get_cached_ns, ns);
  }

  // Rung 4: codec, both directions, for the same GETs and their answers.
  int64_t encode_ns = 0, decode_ns = 0;
  uint64_t wire_bytes = 0;
  {
    watchman::WireRequest req;
    watchman::WireRequest req_in;
    watchman::WireResponse resp;
    std::string frame;
    for (size_t i = 0; i < n; ++i) {
      const Query& q = in.queries[in.stream[i]];
      req.op = watchman::OpCode::kGet;
      req.request_id = i + 1;
      req.query_text = q.text;
      resp.Reset(watchman::OpCode::kGet);
      resp.request_id = i + 1;
      resp.cache_hit = true;
      resp.payload = q.payload0;
      frame.clear();
      int64_t a = NowNs();
      watchman::AppendRequest(req, &frame);
      const size_t req_bytes = frame.size();
      watchman::AppendResponse(resp, &frame);
      int64_t b = NowNs();
      encode_ns += b - a;
      wire_bytes += frame.size();
      const std::string_view all(frame);
      std::string_view body;
      size_t size = 0;
      const auto extract = [&](std::string_view bytes) {
        auto got = watchman::ExtractFrame(bytes, frame.size(), &body, &size);
        return got.ok() && *got;
      };
      bool ok = extract(all) && watchman::DecodeRequestInto(body, &req_in).ok();
      ok = ok && extract(all.substr(req_bytes));
      auto decoded = watchman::DecodeResponse(body);
      decode_ns += NowNs() - b;
      if (!ok || !decoded.ok() || decoded->payload != q.payload0 ||
          req_in.query_text != q.text) {
        ++*wrong;
      }
    }
  }
  const double codec_ns =
      static_cast<double>(encode_ns + decode_ns) / static_cast<double>(n);

  // Rung 5: loopback round trip through the blocking client.
  const uint64_t gets_before =
      server.op_counters(watchman::OpCode::kGet).latency_count;
  Hist rtt;
  for (size_t i = 0; i < n; ++i) {
    const Query& q = in.queries[in.stream[i]];
    const int64_t a = NowNs();
    auto r = (*client)->Get(q.text);
    rtt.Record(static_cast<uint64_t>(NowNs() - a));
    if (!r.ok() || r->payload != q.payload0) ++*wrong;
  }
  if (server.op_counters(watchman::OpCode::kGet).latency_count <=
      gets_before) {
    ++*wrong;
  }
  *server_layer = ReadServer(server);
  server.Stop();

  const double rtt_us = rtt.mean() / 1000.0;
  const double codec_us = codec_ns / 1000.0;
  const double handler_us = server_layer->get_us;
  AddMetric(out, "ladder.reference_ns", reference_ns, "ns");
  AddMetric(out, "ladder.sharded_increment_ns", sharded_ns - reference_ns,
            "ns");
  AddMetric(out, "ladder.facade_increment_ns", get_cached_ns - sharded_ns,
            "ns");
  AddMetric(out, "ladder.handler_increment_us",
            handler_us - get_cached_ns / 1000.0, "us");
  AddMetric(out, "ladder.codec_us", codec_us, "us");
  AddMetric(out, "watchman.get_cached_us", get_cached_ns / 1000.0, "us");
  AddMetric(out, "protocol.encode_ns", Ratio(encode_ns, n), "ns");
  AddMetric(out, "protocol.decode_ns", Ratio(decode_ns, n), "ns");
  AddMetric(out, "protocol.bytes_per_query", Ratio(wire_bytes, n), "bytes");
  AddMetric(out, "client.get_rtt_us", rtt_us, "us");
  AddMetric(out, "client.execute_rtt_us", execute_rtt.mean() / 1000.0, "us");
  AddMetric(out, "client.wire_us", rtt_us - handler_us - codec_us, "us");
  AddMetric(out, "ladder.coverage", (handler_us + codec_us) / rtt_us, "ratio");
}

}  // namespace e2ebench
