// serve_mixed: four closed-loop client connections, one per generator
// thread, against an in-process TileServer (default options) over
// loopback. The whole workload (clients, the server's connection threads
// and the query fetch workers) runs on one core: the connections then
// take turns on it, so the figures measure the CPU cost of the request
// path. Spread over the machine's cores, every request waits for threads
// to wake on other cores, and the figures follow the scheduler and the
// host rather than the program. The store holds four 1024x1024 uint8
// row-gradient objects in 64x64 tiles (4 MiB), which fit the default
// 16 MiB pool. The request mix is 60% RangeQuery, 20% Aggregate(kSum) and
// 20% FilterQuery(v < c) at about 10% selectivity, over random boxes of at
// most a quarter of each axis.

#include <cstdlib>
#include <cstring>
#include <thread>

#include <sched.h>

#include "common/random.h"
#include "core/predicate.h"
#include "mdd/mdd_store.h"
#include "net/client.h"
#include "net/server.h"
#include "query/range_query.h"
#include "tiling/aligned.h"
#include "workload.h"

namespace perfbench {
namespace {

using namespace tilestore;  // NOLINT(build/namespaces)

constexpr int kObjects = 4;
constexpr Coord kSide = 1024;
constexpr Coord kTile = 64;
constexpr Coord kMaxBox = kSide / 4;
constexpr int kConnections = 4;
constexpr size_t kRequestsPerConnection = 128;

enum class Kind { kRange, kAggregate, kFilter };

struct Request {
  Kind kind = Kind::kRange;
  int object = 0;
  MInterval region;
  ValuePredicate predicate;
  std::vector<uint8_t> expected_bytes;  // range and filter
  double expected_sum = 0;              // aggregate
};

const char* CallName(Kind kind) {
  switch (kind) {
    case Kind::kRange:
      return "net.range_query";
    case Kind::kAggregate:
      return "net.aggregate";
    case Kind::kFilter:
      return "net.filter_query";
  }
  return "net.call";
}

std::string ObjectName(int i) { return "grid" + std::to_string(i); }

// Restricts the calling thread, and every thread it creates afterwards,
// to the core it is running on.
Status PinToCurrentCpu() {
  const int cpu = sched_getcpu();
  if (cpu < 0) return Status::Internal("sched_getcpu failed");
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  if (sched_setaffinity(0, sizeof(one), &one) != 0) {
    return Status::Internal("sched_setaffinity failed");
  }
  return Status::OK();
}

// Reads count and sum of histogram `name` out of a metrics-snapshot JSON
// document ({"histograms":{"<name>":{"count":N,"sum":S,...}}}).
HistDelta HistogramFromJson(const std::string& json, const std::string& name) {
  HistDelta h;
  const size_t at = json.find("\"" + name + "\":{\"count\":");
  if (at == std::string::npos) return h;
  const char* p = json.c_str() + at + name.size() + 12;
  char* end = nullptr;
  h.count = std::strtoull(p, &end, 10);
  const char* sum = std::strstr(end, "\"sum\":");
  if (sum != nullptr) h.sum = std::strtod(sum + 6, nullptr);
  return h;
}

class ServeMixed : public Workload {
 public:
  explicit ServeMixed(uint64_t seed) : seed_(seed) {}

  Status Setup(const std::string& dir) override {
    // Before the server, the clients and the store's pool start.
    if (Status st = PinToCurrentCpu(); !st.ok()) return st;
    MakeData();
    auto created = MDDStore::Create(dir + "/serve.db");
    if (!created.ok()) return created.status();
    store_ = std::move(created).MoveValue();
    const obs::MetricsSnapshot before = store_->metrics()->Snapshot();
    double user = 0;
    for (int i = 0; i < kObjects; ++i) {
      auto object = store_->CreateMDD(ObjectName(i), data_[i].domain(),
                                      data_[i].cell_type());
      if (!object.ok()) return object.status();
      Status st = object.value()->Load(
          data_[i], GridTiling(data_[i].domain(), {kTile, kTile}));
      if (!st.ok()) return st;
      user += static_cast<double>(data_[i].size_bytes());
    }
    if (Status st = store_->Save(); !st.ok()) return st;
    const obs::MetricsSnapshot after = store_->metrics()->Snapshot();
    write_amp_ =
        static_cast<double>(after.CounterDelta(before, "pagefile.bytes_written") +
                            after.CounterDelta(before, "wal.bytes")) /
        user;
    space_amp_ = static_cast<double>(store_->page_file()->page_count() *
                                     store_->page_file()->page_size()) /
                 user;
    // Warm the pool: every object is read once, so the timed phase runs
    // fully cached.
    RangeQueryExecutor warm(store_.get());
    for (int i = 0; i < kObjects; ++i) {
      auto object = store_->GetMDD(ObjectName(i));
      if (!object.ok()) return object.status();
      auto all = warm.Execute(object.value(), data_[i].domain());
      if (!all.ok()) return all.status();
    }
    MakeRequests();

    server_ = std::make_unique<net::TileServer>(store_.get());
    if (Status st = server_->Start(); !st.ok()) return st;
    net::TileClientOptions options;
    options.handshake = true;  // FilterQuery needs a v2 connection
    for (int c = 0; c < kConnections; ++c) {
      auto client = net::TileClient::Connect("127.0.0.1", server_->port(),
                                             options);
      if (!client.ok()) return client.status();
      clients_.push_back(std::move(client).MoveValue());
    }
    return Status::OK();
  }

  PhaseResult Run(double seconds, Tracer* tracer) override {
    PhaseResult r;
    auto stats_json = [this]() -> std::string {
      auto text = clients_[0]->Stats(0);
      return text.ok() ? text.value() : std::string();
    };
    const std::string server_before = stats_json();
    const obs::MetricsSnapshot before = store_->metrics()->Snapshot();

    std::vector<Outcome> outcomes(kConnections);
    std::vector<std::vector<Sample>> samples(kConnections);
    const Clock::time_point start = Clock::now();
    const Clock::time_point deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));
    std::vector<std::thread> threads;
    for (int c = 0; c < kConnections; ++c) {
      threads.emplace_back([&, c] {
        ClientLoop(c, start, deadline, tracer, &outcomes[c], &samples[c]);
      });
    }
    for (std::thread& t : threads) t.join();
    const obs::MetricsSnapshot after = store_->metrics()->Snapshot();
    const std::string server_after = stats_json();

    // Successful requests per 1 s window of the phase; the run reports the
    // medians over windows, p99 included (each window holds thousands of
    // requests), so a burst of interference moves one window, not the
    // run's figure. Requests that end after the deadline are not counted.
    const size_t windows = std::max<size_t>(1, static_cast<size_t>(seconds));
    const double window_s = seconds / static_cast<double>(windows);
    std::vector<std::vector<double>> window_ms(windows);
    std::vector<double> window_bytes(windows, 0.0);
    uint64_t counted = 0;
    for (int c = 0; c < kConnections; ++c) {
      r.outcome.Merge(outcomes[c]);
      for (const Sample& x : samples[c]) {
        const auto w = static_cast<size_t>(x.end_s / window_s);
        if (w >= windows) continue;
        window_ms[w].push_back(x.ms);
        window_bytes[w] += x.bytes;
        ++counted;
      }
    }
    std::vector<double> rps, p50, p99, mib_per_s;
    for (size_t w = 0; w < windows; ++w) {
      rps.push_back(static_cast<double>(window_ms[w].size()) / window_s);
      mib_per_s.push_back(window_bytes[w] / (1024.0 * 1024.0) / window_s);
      p99.push_back(P99(window_ms[w]));
      p50.push_back(Median(std::move(window_ms[w])));
    }
    r.samples["p50_ms"] = r.samples["p99_ms"] = counted;
    r.samples["windows"] = windows;
    r.e2e["ops_per_s"] = Median(rps);
    r.e2e["p50_ms"] = Median(p50);
    r.e2e["p99_ms"] = Median(p99);
    r.e2e["mib_per_s"] = Median(mib_per_s);
    r.e2e["write_amp"] = write_amp_;
    r.e2e["space_amp"] = space_amp_;

    // The deterministic cost of the request mix: every request replayed
    // in-process after the timed phase.
    QueryTotals replay = Replay(tracer, &r.outcome);
    r.e2e["model_ms"] = Ratio(replay.sum.total_cpu_model_ms(),
                              static_cast<double>(replay.queries));
    if (det_.empty()) {
      det_["model_ms"] = r.e2e["model_ms"];
      det_["replay_pages"] = static_cast<double>(replay.sum.pages_read);
      det_["replay_seeks"] = static_cast<double>(replay.sum.seeks);
      det_["replay_index_nodes"] =
          static_cast<double>(replay.sum.index_nodes_visited);
      det_["replay_summary_skips"] =
          static_cast<double>(replay.sum.summary_skips);
    }

    if (tracer) {
      r.counter_deltas_json =
          "[" + CounterDeltaJson("timed phase", after, before) + "]";
      replay.FillLayer(&r.layer);
      const auto self = tracer->SelfTimes();
      r.layer["query.execute_ms"] = MeanSelfMs(self, "query.execute");
      r.layer["query.aggregate_ms"] = MeanSelfMs(self, "query.aggregate");
      r.layer["query.filter_ms"] = MeanSelfMs(self, "query.filter");
      double client_ms = 0;
      uint64_t client_n = 0;
      HistDelta server;
      for (Kind kind : {Kind::kRange, Kind::kAggregate, Kind::kFilter}) {
        auto it = self.find(CallName(kind));
        if (it != self.end()) {
          client_ms += it->second.total_ms;
          client_n += it->second.count;
        }
      }
      for (const char* op : {"net.op.range_query_ms", "net.op.aggregate_ms",
                             "net.op.filter_query_ms"}) {
        const HistDelta a = HistogramFromJson(server_after, op);
        const HistDelta b = HistogramFromJson(server_before, op);
        server.sum += a.sum - b.sum;
        server.count += a.count - std::min(a.count, b.count);
      }
      const double client_mean = Ratio(client_ms, static_cast<double>(client_n));
      r.layer["net.client_call_ms"] = client_mean;
      r.layer["net.server_op_ms"] = server.mean();
      r.layer["net.remainder_ms"] = client_mean - server.mean();
      r.layer["net.bytes_per_request"] =
          Ratio(static_cast<double>(after.CounterDelta(before, "net.bytes_sent") +
                                    after.CounterDelta(before,
                                                       "net.bytes_received")),
                static_cast<double>(after.CounterDelta(before, "net.requests")));
      r.layer["net.rejected_overload"] = static_cast<double>(
          after.CounterDelta(before, "net.rejected_overload"));
      FillRatioLayer(after, before, &r.layer);
    }
    return r;
  }

  void Teardown() override {
    clients_.clear();
    if (server_) server_->Stop();
    server_.reset();
    store_.reset();
  }

  MetricMap Deterministic() const override {
    MetricMap d = det_;
    d["write_amp"] = write_amp_;
    d["space_amp"] = space_amp_;
    d["fingerprint"] = fingerprint_;
    return d;
  }

 private:
  // Row gradient (v ~ row / 4) plus seeded noise in [0, 3]: each 64-row
  // tile spans a narrow value band, so summaries can prune filter tiles.
  void MakeData() {
    data_.clear();
    Random rng(seed_ ^ 0x6d1dull);
    const MInterval domain({{0, kSide - 1}, {0, kSide - 1}});
    for (int i = 0; i < kObjects; ++i) {
      Array a = Array::Create(domain, CellType::Of(CellTypeId::kUInt8)).value();
      uint8_t* cells = a.mutable_data();
      for (Coord row = 0; row < kSide; ++row) {
        for (Coord col = 0; col < kSide; ++col) {
          const uint64_t v = static_cast<uint64_t>(row) / 4 + rng.Uniform(4);
          cells[row * kSide + col] = static_cast<uint8_t>(std::min<uint64_t>(v, 255));
        }
      }
      data_.push_back(std::move(a));
    }
  }

  // Each connection's fixed, seeded request list with its oracle answer.
  void MakeRequests() {
    Random rng(seed_ ^ 0x5e7eull);
    // Every property of the request list is stratified over all requests
    // (kinds in exact 60/20/20 proportion, objects evenly), then dealt
    // round-robin to the connections.
    const size_t total = kConnections * kRequestsPerConnection;
    const std::vector<double> mix = Stratified(&rng, total);
    const std::vector<double> which = Stratified(&rng, total);
    std::vector<std::vector<double>> extent_u, position_u;
    for (int axis = 0; axis < 2; ++axis) {
      extent_u.push_back(Stratified(&rng, total));
      position_u.push_back(Stratified(&rng, total));
    }
    requests_.assign(kConnections, {});
    uint64_t h = 1469598103934665603ull;
    for (size_t j = 0; j < total; ++j) {
      Request q;
      q.kind = mix[j] < 0.6 ? Kind::kRange
                            : (mix[j] < 0.8 ? Kind::kAggregate
                                            : Kind::kFilter);
      q.object = static_cast<int>(which[j] * kObjects);
      std::vector<Coord> lo(2), hi(2);
      for (int axis = 0; axis < 2; ++axis) {
        const Coord extent =
            1 + static_cast<Coord>(extent_u[axis][j] * kMaxBox);
        lo[axis] = static_cast<Coord>(position_u[axis][j] *
                                      static_cast<double>(kSide - extent + 1));
        hi[axis] = lo[axis] + extent - 1;
      }
      q.region = MInterval::Create(lo, hi).value();
      const Array& oracle = data_[q.object];
      if (q.kind == Kind::kAggregate) {
        q.expected_sum = OracleSum(oracle, q.region);
      } else {
        q.expected_bytes = Slice(oracle, q.region);
        if (q.kind == Kind::kFilter) {
          q.predicate.kind = ValuePredicate::Kind::kLess;
          q.predicate.a = TenthPercentileCut(q.expected_bytes);
          // Non-matching cells read back as the default cell (0).
          for (uint8_t& v : q.expected_bytes) {
            if (!(v < q.predicate.a)) v = 0;
          }
        }
      }
      h = HashRegion(h, q.region);
      requests_[j % kConnections].push_back(std::move(q));
    }
    fingerprint_ = static_cast<double>(h >> 11);
  }

  static std::vector<uint8_t> Slice(const Array& oracle, const MInterval& r) {
    std::vector<uint8_t> out;
    out.reserve(r.CellCountOrDie());
    for (Coord row = r.lo(0); row <= r.hi(0); ++row) {
      const uint8_t* p = oracle.data() + row * kSide + r.lo(1);
      out.insert(out.end(), p, p + r.Extent(1));
    }
    return out;
  }

  // Smallest c with at least 10% of the cells below it.
  static double TenthPercentileCut(const std::vector<uint8_t>& cells) {
    uint64_t histogram[257] = {};
    for (uint8_t v : cells) ++histogram[v];
    const uint64_t want = (cells.size() + 9) / 10;
    uint64_t below = 0;
    for (int c = 0; c <= 256; ++c) {
      if (below >= want) return c;
      below += histogram[c];
    }
    return 256;
  }

  // One successful request: when it ended (s since the phase start), its
  // latency and its result bytes.
  struct Sample {
    double end_s;
    double ms;
    double bytes;
  };

  void ClientLoop(int c, Clock::time_point start, Clock::time_point deadline,
                  Tracer* tracer, Outcome* outcome,
                  std::vector<Sample>* samples) {
    net::TileClient* client = clients_[c].get();
    const std::vector<Request>& list = requests_[c];
    for (size_t i = 0; Clock::now() < deadline; ++i) {
      const Request& q = list[i % list.size()];
      const std::string& name = ObjectName(q.object);
      Result<Array> array = Status::Internal("not executed");
      Result<double> sum = 0.0;
      double ms = 0;
      Clock::time_point end;
      {
        Watchdog::Op op("serve_mixed request");
        const uint64_t request = tracer ? tracer->NextRequestId() : 0;
        SpanScope root(tracer, "serve.request", request);
        SpanScope call(tracer, CallName(q.kind), request, root.id());
        switch (q.kind) {
          case Kind::kRange:
            array = client->RangeQuery(name, q.region);
            break;
          case Kind::kAggregate:
            sum = client->Aggregate(name, q.region, AggregateOp::kSum);
            break;
          case Kind::kFilter:
            array = client->FilterQuery(name, q.region, q.predicate);
            break;
        }
        ms = call.End();
        end = Clock::now();
      }
      // Oracle check, outside the timed spans.
      const std::string what =
          std::string(CallName(q.kind)) + " " + name + q.region.ToString();
      double bytes = 0;
      if (q.kind == Kind::kAggregate) {
        if (!sum.ok()) {
          outcome->Fail(what + ": " + sum.status().ToString());
          continue;
        }
        if (sum.value() != q.expected_sum) {
          outcome->Fail(what + ": sum differs from the oracle");
          continue;
        }
        bytes = sizeof(double);
      } else {
        if (!array.ok()) {
          outcome->Fail(what + ": " + array.status().ToString());
          continue;
        }
        if (array->domain() != q.region ||
            array->size_bytes() != q.expected_bytes.size() ||
            std::memcmp(array->data(), q.expected_bytes.data(),
                        q.expected_bytes.size()) != 0) {
          outcome->Fail(what + ": bytes differ from the oracle");
          continue;
        }
        bytes = static_cast<double>(array->size_bytes());
      }
      outcome->Ok();
      samples->push_back(
          {std::chrono::duration<double>(end - start).count(), ms, bytes});
    }
  }

  // Runs every connection's request list once in-process at the server's
  // query parallelism, oracle-checked.
  QueryTotals Replay(Tracer* tracer, Outcome* outcome) {
    QueryTotals totals;
    RangeQueryOptions options;
    options.parallelism = net::TileServerOptions().query_parallelism;
    for (int c = 0; c < kConnections; ++c) {
      for (const Request& q : requests_[c]) {
        auto object = store_->GetMDD(ObjectName(q.object));
        if (!object.ok()) {
          outcome->Fail("replay: " + object.status().ToString());
          continue;
        }
        RangeQueryOptions o = options;
        if (q.kind == Kind::kFilter) o.predicate = q.predicate;
        RangeQueryExecutor exec(store_.get(), o);
        QueryStats stats;
        Result<Array> array = Status::Internal("not executed");
        Result<double> sum = 0.0;
        {
          Watchdog::Op op("serve_mixed replay");
          const uint64_t request = tracer ? tracer->NextRequestId() : 0;
          SpanScope root(tracer, "serve.replay", request);
          const char* span = q.kind == Kind::kRange
                                 ? "query.execute"
                                 : (q.kind == Kind::kAggregate
                                        ? "query.aggregate"
                                        : "query.filter");
          SpanScope call(tracer, span, request, root.id());
          if (q.kind == Kind::kAggregate) {
            sum = exec.ExecuteAggregate(object.value(), q.region,
                                        AggregateOp::kSum, &stats);
          } else {
            array = exec.Execute(object.value(), q.region, &stats);
          }
        }
        const bool ok =
            q.kind == Kind::kAggregate
                ? sum.ok() && sum.value() == q.expected_sum
                : array.ok() &&
                      array->size_bytes() == q.expected_bytes.size() &&
                      std::memcmp(array->data(), q.expected_bytes.data(),
                                  q.expected_bytes.size()) == 0;
        if (!ok) {
          outcome->Fail("replay " + std::string(CallName(q.kind)) + " " +
                        q.region.ToString() + " differs from the oracle");
          continue;
        }
        outcome->Ok();
        totals.Add(stats);
      }
    }
    return totals;
  }

  const uint64_t seed_;
  std::vector<Array> data_;
  std::vector<std::vector<Request>> requests_;
  std::unique_ptr<MDDStore> store_;
  std::unique_ptr<net::TileServer> server_;
  std::vector<std::unique_ptr<net::TileClient>> clients_;
  double write_amp_ = 0;
  double space_amp_ = 0;
  double fingerprint_ = 0;
  MetricMap det_;
};

}  // namespace

std::unique_ptr<Workload> MakeServeMixed(uint64_t seed) {
  return std::make_unique<ServeMixed>(seed);
}

}  // namespace perfbench
