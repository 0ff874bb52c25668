/// \file
/// \brief Load generator for a running `TileServer` (`tilestore_cli serve`).
///
/// Spawns N client threads, each with its own `TileClient`, and drives a
/// mixed read workload (range queries and aggregates over random
/// subregions) against one object. Reports throughput and p50/p90/p99
/// request latency, and merges the result — together with the server's
/// final obs metrics snapshot — into `BENCH_server.json`.
///
///   tilestore_loadgen --port=7171 --bootstrap --clients=8 --requests=200
///
/// Flags:
///   --host=HOST            server host (default 127.0.0.1)
///   --port=PORT            server port (required)
///   --clients=N            concurrent client connections (default 8)
///   --requests=N           requests per client (default 200)
///   --conns-per-thread=K   connections driven round-robin by each
///                          generator thread (default 1). Raise at high
///                          --clients so the generator's own thread count
///                          doesn't become the measured bottleneck.
///   --object=NAME          object to query (default "loadgen")
///   --read-fraction=F      fraction of range queries vs aggregates (0.8)
///   --bootstrap            create+fill the object over the wire first
///   --smoke                CI mode: few clients/requests, same coverage
///   --out=PATH             JSON report path (default BENCH_server.json)
///   --label=NAME           row label (e.g. "clients_64", "conns_1024")
///   --io-backend=NAME      record which IoBackend the server runs
///                          (informational: the server picks its own via
///                          `serve --io-backend` / TILESTORE_IO_BACKEND)
///   --append               append the row to --out instead of rewriting,
///                          so mode-comparison rows accumulate in one file
///   --hotspot-drift=N      instead of uniform random boxes, draw small
///                          boxes around a hotspot that jumps to a new
///                          random center every N requests (per thread) —
///                          the shifting-hotspot workload the online
///                          re-tiler (serve --auto-retile) adapts to
///   --cluster=H:P,H:P,...  drive a sharded cluster through the routing
///                          client instead of one server: the listed
///                          endpoints are shards 0..N-1 of a uniform
///                          (hash-placement) shard map. --port is then
///                          unused (DESIGN.md §13)
///   --filter-sel=F         issue the read side of the mix as filter
///                          queries ("v < 256*F" — the bootstrap object's
///                          uint8 values are uniform, so F approximates
///                          the fraction of matching cells). Works with
///                          --cluster too: the routing client scatters
///                          the predicate and stitches the filtered
///                          sub-results (DESIGN.md §15)
///   --objects=N            spread the workload over N objects
///                          ("<object>-0".."<object>-<N-1>"); with
///                          --cluster, hash placement spreads them over
///                          the shards, which is what makes aggregate
///                          throughput scale (a single object lives on
///                          one shard)
///
/// The exit code is 0 only if every request succeeded (overload
/// rejections count as failures here: the loadgen stays below the
/// server's admission limits by construction, so seeing `Unavailable`
/// means the deployment is misconfigured for this load).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "tilestore.h"

namespace {

using tilestore::Array;
using tilestore::CellType;
using tilestore::MInterval;
using tilestore::Random;
using tilestore::Result;
using tilestore::Status;
using tilestore::cluster::RoutingClientOptions;
using tilestore::cluster::RoutingTileClient;
using tilestore::cluster::ShardEndpoint;
using tilestore::cluster::ShardMap;
using tilestore::net::ClientInterface;
using tilestore::net::TileClient;
using tilestore::net::TileClientOptions;

struct Flags {
  std::string host = "127.0.0.1";
  int port = 0;
  int clients = 8;
  int requests = 200;
  std::string object = "loadgen";
  double read_fraction = 0.8;
  bool bootstrap = false;
  bool smoke = false;
  std::string out = "BENCH_server.json";
  std::string label = "default";
  std::string io_backend = "auto";
  bool append = false;
  int conns_per_thread = 1;
  int hotspot_drift = 0;
  std::string cluster;  // "host:port,host:port,..." — empty = single server
  int objects = 1;
  double filter_sel = 0;  // 0 = plain range queries; (0,1] = filter queries
};

/// Parses the --cluster endpoint list into shard order (index = shard id).
Result<std::vector<ShardEndpoint>> ParseClusterEndpoints(
    const std::string& list) {
  std::vector<ShardEndpoint> endpoints;
  size_t begin = 0;
  while (begin <= list.size()) {
    size_t end = list.find(',', begin);
    if (end == std::string::npos) end = list.size();
    const std::string token = list.substr(begin, end - begin);
    const size_t colon = token.rfind(':');
    const int port = colon == std::string::npos
                         ? 0
                         : std::atoi(token.c_str() + colon + 1);
    if (colon == std::string::npos || colon == 0 || port <= 0 ||
        port > 65535) {
      return Status::InvalidArgument("bad --cluster endpoint '" + token +
                                     "' (want host:port)");
    }
    endpoints.push_back(
        ShardEndpoint{token.substr(0, colon), static_cast<uint16_t>(port)});
    begin = end + 1;
  }
  return endpoints;
}

/// One connection, single-server or cluster, behind the unified API.
Result<std::unique_ptr<ClientInterface>> ConnectClient(const Flags& flags) {
  if (flags.cluster.empty()) {
    Result<std::unique_ptr<TileClient>> client = TileClient::Connect(
        flags.host, static_cast<uint16_t>(flags.port));
    if (!client.ok()) return client.status();
    return std::unique_ptr<ClientInterface>(std::move(client).MoveValue());
  }
  Result<std::vector<ShardEndpoint>> endpoints =
      ParseClusterEndpoints(flags.cluster);
  if (!endpoints.ok()) return endpoints.status();
  Result<std::unique_ptr<RoutingTileClient>> client =
      RoutingTileClient::Connect(ShardMap::Uniform(std::move(*endpoints)),
                                 RoutingClientOptions());
  if (!client.ok()) return client.status();
  return std::unique_ptr<ClientInterface>(std::move(client).MoveValue());
}

/// The object names the workload spreads over. A single object keeps the
/// plain flag value (back-compatible); N > 1 numbers them so hash
/// placement can spread them across shards.
std::vector<std::string> ObjectNames(const Flags& flags) {
  if (flags.objects <= 1) return {flags.object};
  std::vector<std::string> names;
  names.reserve(static_cast<size_t>(flags.objects));
  for (int i = 0; i < flags.objects; ++i) {
    names.push_back(flags.object + "-" + std::to_string(i));
  }
  return names;
}

bool ParseFlags(int argc, char** argv, Flags* flags) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* name) -> const char* {
      const size_t len = std::strlen(name);
      if (arg.compare(0, len, name) == 0 && arg.size() > len &&
          arg[len] == '=') {
        return arg.c_str() + len + 1;
      }
      return nullptr;
    };
    if (const char* v = value("--host")) {
      flags->host = v;
    } else if (const char* v = value("--port")) {
      flags->port = std::atoi(v);
    } else if (const char* v = value("--clients")) {
      flags->clients = std::atoi(v);
    } else if (const char* v = value("--requests")) {
      flags->requests = std::atoi(v);
    } else if (const char* v = value("--object")) {
      flags->object = v;
    } else if (const char* v = value("--read-fraction")) {
      flags->read_fraction = std::atof(v);
    } else if (const char* v = value("--out")) {
      flags->out = v;
    } else if (const char* v = value("--label")) {
      flags->label = v;
    } else if (const char* v = value("--io-backend")) {
      flags->io_backend = v;
    } else if (const char* v = value("--conns-per-thread")) {
      flags->conns_per_thread = std::atoi(v);
    } else if (const char* v = value("--hotspot-drift")) {
      flags->hotspot_drift = std::atoi(v);
    } else if (const char* v = value("--cluster")) {
      flags->cluster = v;
    } else if (const char* v = value("--objects")) {
      flags->objects = std::atoi(v);
    } else if (const char* v = value("--filter-sel")) {
      flags->filter_sel = std::atof(v);
    } else if (arg == "--append") {
      flags->append = true;
    } else if (arg == "--bootstrap") {
      flags->bootstrap = true;
    } else if (arg == "--smoke") {
      flags->smoke = true;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return false;
    }
  }
  if (flags->cluster.empty() &&
      (flags->port <= 0 || flags->port > 65535)) {
    std::fprintf(stderr,
                 "usage: tilestore_loadgen --port=PORT [flags]\n"
                 "       tilestore_loadgen --cluster=H:P,H:P,... [flags]\n");
    return false;
  }
  if (flags->smoke) {
    flags->clients = std::min(flags->clients, 4);
    flags->requests = std::min(flags->requests, 25);
  }
  flags->clients = std::max(flags->clients, 1);
  flags->requests = std::max(flags->requests, 1);
  flags->conns_per_thread = std::max(flags->conns_per_thread, 1);
  flags->objects = std::max(flags->objects, 1);
  if (flags->filter_sel < 0 || flags->filter_sel > 1) {
    std::fprintf(stderr, "--filter-sel wants a selectivity in (0, 1]\n");
    return false;
  }
  return true;
}

// The bootstrap object: 256x256 uint8, filled as 16 64x64 tiles.
constexpr int64_t kSide = 256;
constexpr int64_t kTile = 64;

Status Bootstrap(const Flags& flags) {
  auto client = ConnectClient(flags);
  if (!client.ok()) return client.status();
  const MInterval domain({{0, kSide - 1}, {0, kSide - 1}});
  const CellType cell_type = CellType::Of(tilestore::CellTypeId::kUInt8);
  std::vector<Array> tiles;
  for (int64_t y = 0; y < kSide; y += kTile) {
    for (int64_t x = 0; x < kSide; x += kTile) {
      const MInterval tile_domain(
          {{y, y + kTile - 1}, {x, x + kTile - 1}});
      auto tile = Array::Create(tile_domain, cell_type);
      if (!tile.ok()) return tile.status();
      uint8_t* data = tile.value().mutable_data();
      for (int64_t r = 0; r < kTile; ++r) {
        for (int64_t c = 0; c < kTile; ++c) {
          data[r * kTile + c] =
              static_cast<uint8_t>((y + r) * 31 + (x + c) * 7);
        }
      }
      tiles.push_back(std::move(tile).MoveValue());
    }
  }
  for (const std::string& name : ObjectNames(flags)) {
    Status st = client.value()->InsertTiles(name, tiles,
                                            /*create_if_missing=*/true,
                                            domain, cell_type);
    if (!st.ok()) return st;
  }
  return Status::OK();
}

struct ClientResult {
  std::vector<double> latencies_ms;
  int range_queries = 0;
  int filter_queries = 0;
  int aggregates = 0;
  int failures = 0;
  std::string first_error;
};

/// Drives `count` connections from one OS thread, round-robin: one
/// request per connection per round, so every connection carries traffic
/// without the load generator needing a thread per connection. At high
/// connection counts (`--clients=1024`) a thread-per-connection client
/// makes the *generator's* scheduler the bottleneck on small machines;
/// `--conns-per-thread` keeps the measurement about the server.
void RunClientGroup(const Flags& flags, int first_index, int count,
                    ClientResult* result) {
  struct Conn {
    std::unique_ptr<ClientInterface> client;
    bool alive = false;
  };
  const std::vector<std::string> names = ObjectNames(flags);
  std::vector<Conn> conns(static_cast<size_t>(count));
  for (int c = 0; c < count; ++c) {
    auto client = ConnectClient(flags);
    if (!client.ok()) {
      result->failures += flags.requests;
      if (result->first_error.empty()) {
        result->first_error = client.status().ToString();
      }
      continue;
    }
    conns[c].client = std::move(client).MoveValue();
    conns[c].alive = true;
  }

  // The query space comes from the served object itself, so the loadgen
  // works against any object, not just its own bootstrap grid. One probe
  // per group: the domain is the same on every connection.
  // One probe on the first object: with --objects, all of them share the
  // bootstrap shape, so one domain serves the whole name list.
  MInterval domain;
  bool have_domain = false;
  for (Conn& conn : conns) {
    if (!conn.alive) continue;
    auto info = conn.client->OpenMDD(names.front());
    if (!info.ok()) {
      if (result->first_error.empty()) {
        result->first_error = info.status().ToString();
      }
      break;
    }
    // Prefer the current domain: definition domains may be unbounded ('*'
    // axes), and queries must stay where cells actually are.
    domain = info->current_domain.value_or(info->definition_domain);
    if (!domain.IsFixed()) {
      if (result->first_error.empty()) {
        result->first_error = "object \"" + names.front() +
                              "\" has no fixed domain to draw regions from";
      }
      break;
    }
    have_domain = true;
    break;
  }
  if (!have_domain) {
    for (Conn& conn : conns) {
      if (conn.alive) result->failures += flags.requests;
    }
    return;
  }

  const size_t dims = domain.dim();
  Random rng(0x10adu + static_cast<uint64_t>(first_index));
  // Hotspot mode: boxes cluster around a center that jumps every
  // --hotspot-drift requests, modelling an area of interest that moves.
  std::vector<int64_t> hotspot(dims);
  auto redraw_hotspot = [&] {
    for (size_t d = 0; d < dims; ++d) {
      hotspot[d] = rng.UniformInt(domain.lo(d), domain.hi(d));
    }
  };
  if (flags.hotspot_drift > 0) redraw_hotspot();
  int issued = 0;
  for (int i = 0; i < flags.requests; ++i) {
    for (int c = 0; c < count; ++c) {
      if (!conns[c].alive) continue;
      std::vector<int64_t> lo(dims), hi(dims);
      if (flags.hotspot_drift > 0) {
        if (issued > 0 && issued % flags.hotspot_drift == 0) {
          redraw_hotspot();
        }
        // Small box near the hotspot: about 1/8 of each axis, its corner
        // jittered within the same radius so boxes overlap but differ.
        for (size_t d = 0; d < dims; ++d) {
          const int64_t dlo = domain.lo(d), dhi = domain.hi(d);
          const int64_t radius = std::max<int64_t>((dhi - dlo + 1) / 8, 1);
          lo[d] = std::clamp(hotspot[d] + rng.UniformInt(-radius, radius),
                             dlo, dhi);
          hi[d] = std::min<int64_t>(dhi, lo[d] + rng.UniformInt(0, radius));
        }
      } else {
        // Random subregion, at most one quarter of each axis so responses
        // stay small and the mix exercises many distinct tile sets.
        for (size_t d = 0; d < dims; ++d) {
          const int64_t dlo = domain.lo(d), dhi = domain.hi(d);
          lo[d] = rng.UniformInt(dlo, dhi);
          hi[d] = std::min<int64_t>(
              dhi, lo[d] + rng.UniformInt(0, (dhi - dlo + 1) / 4));
        }
      }
      ++issued;
      const MInterval region =
          MInterval::Create(std::move(lo), std::move(hi)).value();
      const std::string& name =
          names.size() == 1
              ? names.front()
              : names[static_cast<size_t>(rng.UniformInt(
                    0, static_cast<int64_t>(names.size()) - 1))];
      const bool read = rng.NextDouble() < flags.read_fraction;
      const auto start = std::chrono::steady_clock::now();
      Status st;
      if (read && flags.filter_sel > 0) {
        // The bootstrap fill is uniform over the uint8 range, so this
        // predicate matches ~filter_sel of the cells and the summary
        // pruning rate tracks the requested selectivity.
        tilestore::ValuePredicate pred;
        pred.kind = tilestore::ValuePredicate::Kind::kLess;
        pred.a = 256.0 * flags.filter_sel;
        auto array = conns[c].client->FilterQuery(name, region, pred);
        st = array.status();
        ++result->filter_queries;
      } else if (read) {
        auto array = conns[c].client->RangeQuery(name, region);
        st = array.status();
        ++result->range_queries;
      } else {
        auto sum = conns[c].client->Aggregate(name, region,
                                              tilestore::AggregateOp::kSum);
        st = sum.status();
        ++result->aggregates;
      }
      const auto end = std::chrono::steady_clock::now();
      if (!st.ok()) {
        ++result->failures;
        if (result->first_error.empty()) result->first_error = st.ToString();
        // Transport gone: this connection stops, the rest keep going.
        if (!conns[c].client->healthy()) conns[c].alive = false;
        continue;
      }
      result->latencies_ms.push_back(
          std::chrono::duration<double, std::milli>(end - start).count());
    }
  }
}

double Percentile(std::vector<double>* sorted, double p) {
  if (sorted->empty()) return 0;
  const size_t idx = static_cast<size_t>(p * (sorted->size() - 1) + 0.5);
  return (*sorted)[std::min(idx, sorted->size() - 1)];
}

/// Successful requests per second: failed requests (refused connections,
/// errors, overload rejections) do no work, so a run against a dead port
/// reports 0 req/s.
double SuccessRate(int requests, int failures, double elapsed_sec) {
  const int ok = std::max(requests - failures, 0);
  return elapsed_sec > 0 ? ok / elapsed_sec : 0;
}

/// Writes the report row; the metrics snapshot JSON from the server is
/// embedded verbatim (it is single-line by design). `--append` reopens an
/// existing array and adds the row, so comparison runs (server knobs,
/// different connection counts) collect in one file.
bool WriteReport(const Flags& flags, int shards, int total_requests,
                 int filter_queries, int failures, double elapsed_sec,
                 double p50, double p90, double p99,
                 const std::string& metrics_json) {
  std::string prefix = "[\n";
  if (flags.append) {
    if (std::FILE* in = std::fopen(flags.out.c_str(), "r")) {
      std::string existing;
      char buf[4096];
      size_t n;
      while ((n = std::fread(buf, 1, sizeof(buf), in)) > 0) {
        existing.append(buf, n);
      }
      std::fclose(in);
      const size_t close = existing.rfind(']');
      if (close != std::string::npos) {
        existing.erase(close);
        while (!existing.empty() &&
               (existing.back() == '\n' || existing.back() == ' ')) {
          existing.pop_back();
        }
        if (!existing.empty() && existing.back() != '[') existing += ",";
        existing += "\n";
        prefix = std::move(existing);
      }
    }
  }
  std::FILE* out = std::fopen(flags.out.c_str(), "w");
  if (out == nullptr) return false;
  const double rps = SuccessRate(total_requests, failures, elapsed_sec);
  std::fputs(prefix.c_str(), out);
  std::fprintf(out,
               "  {\"bench\": \"tilestore_loadgen\", "
               "\"workload\": \"mixed_read_aggregate\", "
               "\"label\": \"%s\", \"io_backend\": \"%s\", "
               "\"mode\": \"%s\", \"shards\": %d, \"objects\": %d, "
               "\"clients\": %d, \"requests\": %d, \"failures\": %d, "
               "\"filter_sel\": %.4f, \"filter_queries\": %d, "
               "\"elapsed_sec\": %.3f, \"requests_per_sec\": %.3f, "
               "\"p50_ms\": %.3f, \"p90_ms\": %.3f, \"p99_ms\": %.3f, "
               "\"server_metrics\": %s}\n"
               "]\n",
               flags.label.c_str(), flags.io_backend.c_str(),
               flags.cluster.empty() ? "single" : "cluster", shards,
               flags.objects, flags.clients, total_requests, failures,
               flags.filter_sel, filter_queries,
               elapsed_sec, rps, p50, p90, p99,
               metrics_json.empty() ? "null" : metrics_json.c_str());
  return std::fclose(out) == 0;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  if (!ParseFlags(argc, argv, &flags)) return 2;

  if (flags.bootstrap) {
    Status st = Bootstrap(flags);
    if (!st.ok()) {
      std::fprintf(stderr, "bootstrap failed: %s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("bootstrapped object \"%s\" (%lldx%lld uint8)\n",
                flags.object.c_str(), static_cast<long long>(kSide),
                static_cast<long long>(kSide));
  }

  const int per_thread = flags.conns_per_thread;
  const int groups = (flags.clients + per_thread - 1) / per_thread;
  std::vector<ClientResult> results(groups);
  std::vector<std::thread> threads;
  const auto start = std::chrono::steady_clock::now();
  for (int g = 0; g < groups; ++g) {
    const int first = g * per_thread;
    const int count = std::min(per_thread, flags.clients - first);
    threads.emplace_back(RunClientGroup, flags, first, count, &results[g]);
  }
  for (std::thread& t : threads) t.join();
  const double elapsed_sec =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  std::vector<double> latencies;
  int failures = 0, range_queries = 0, filter_queries = 0, aggregates = 0;
  std::string first_error;
  for (const ClientResult& r : results) {
    latencies.insert(latencies.end(), r.latencies_ms.begin(),
                     r.latencies_ms.end());
    failures += r.failures;
    range_queries += r.range_queries;
    filter_queries += r.filter_queries;
    aggregates += r.aggregates;
    if (first_error.empty()) first_error = r.first_error;
  }
  std::sort(latencies.begin(), latencies.end());
  const double p50 = Percentile(&latencies, 0.50);
  const double p90 = Percentile(&latencies, 0.90);
  const double p99 = Percentile(&latencies, 0.99);
  const int total = flags.clients * flags.requests;

  // Final metrics snapshot (in cluster mode: the merged per-shard
  // snapshots plus the routing client's own cluster.* series).
  std::string metrics_json;
  if (auto client = ConnectClient(flags); client.ok()) {
    if (auto stats = client.value()->Stats(0); stats.ok()) {
      metrics_json = std::move(stats).MoveValue();
    }
  }
  int shards = 1;
  if (!flags.cluster.empty()) {
    if (auto endpoints = ParseClusterEndpoints(flags.cluster);
        endpoints.ok()) {
      shards = static_cast<int>(endpoints->size());
    }
  }

  std::printf(
      "loadgen: %d clients x %d requests (%d range, %d filter, "
      "%d aggregate), %d failures\n",
      flags.clients, flags.requests, range_queries, filter_queries,
      aggregates, failures);
  std::printf("  %.1f req/s, latency p50 %.2f ms, p90 %.2f ms, p99 %.2f ms\n",
              SuccessRate(total, failures, elapsed_sec), p50, p90, p99);
  if (failures > 0) {
    std::fprintf(stderr, "first error: %s\n", first_error.c_str());
  }

  if (!WriteReport(flags, shards, total, filter_queries, failures,
                   elapsed_sec, p50, p90, p99, metrics_json)) {
    std::fprintf(stderr, "could not write %s\n", flags.out.c_str());
    return 1;
  }
  std::printf("wrote %s\n", flags.out.c_str());
  return failures == 0 ? 0 : 1;
}
