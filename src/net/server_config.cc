#include "net/server_config.h"

#include <cstdint>

#include "layout/sfc.h"
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

namespace tilestore {
namespace net {

namespace {

struct Flag {
  std::string name;   // without the leading "--"
  std::string value;  // empty for bare flags
  bool has_value = false;
  bool used = false;
};

Status ParseFlags(int argc, char** argv, std::vector<Flag>* out) {
  for (int i = 0; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--", 2) != 0) {
      return Status::InvalidArgument(std::string("unexpected argument '") +
                                     arg + "' (serve takes only --flags)");
    }
    Flag flag;
    const char* eq = std::strchr(arg + 2, '=');
    if (eq != nullptr) {
      flag.name.assign(arg + 2, eq);
      flag.value = eq + 1;
      flag.has_value = true;
    } else {
      flag.name = arg + 2;
    }
    out->push_back(std::move(flag));
  }
  return Status::OK();
}

class FlagSet {
 public:
  explicit FlagSet(std::vector<Flag>* flags) : flags_(flags) {}

  /// Bare switch: present or not. A value on a switch is an error.
  Result<bool> Switch(const std::string& name) {
    Flag* flag = Find(name);
    if (flag == nullptr) return false;
    if (flag->has_value) {
      return Status::InvalidArgument("--" + name + " takes no value");
    }
    return true;
  }

  /// Valued flag; nullopt when absent.
  Result<std::optional<std::string>> String(const std::string& name) {
    Flag* flag = Find(name);
    if (flag == nullptr) return std::optional<std::string>();
    if (!flag->has_value || flag->value.empty()) {
      return Status::InvalidArgument("--" + name + " needs a value");
    }
    return std::optional<std::string>(flag->value);
  }

  template <typename T>
  Status Integer(const std::string& name, T* out, int64_t min, int64_t max) {
    Result<std::optional<std::string>> text = String(name);
    if (!text.ok()) return text.status();
    if (!text->has_value()) return Status::OK();
    int64_t v = 0;
    try {
      size_t pos = 0;
      v = std::stoll(**text, &pos);
      if (pos != (*text)->size()) throw std::invalid_argument("trailing");
    } catch (...) {
      return Status::InvalidArgument("--" + name + "=" + **text +
                                     " is not a number");
    }
    if (v < min || v > max) {
      return Status::InvalidArgument(
          "--" + name + "=" + **text + " out of range [" +
          std::to_string(min) + ", " + std::to_string(max) + "]");
    }
    *out = static_cast<T>(v);
    return Status::OK();
  }

  Status Double(const std::string& name, double* out) {
    Result<std::optional<std::string>> text = String(name);
    if (!text.ok()) return text.status();
    if (!text->has_value()) return Status::OK();
    try {
      size_t pos = 0;
      *out = std::stod(**text, &pos);
      if (pos != (*text)->size()) throw std::invalid_argument("trailing");
    } catch (...) {
      return Status::InvalidArgument("--" + name + "=" + **text +
                                     " is not a number");
    }
    return Status::OK();
  }

  /// Every flag must have been consumed by one of the accessors above.
  Status CheckAllUsed() const {
    for (const Flag& flag : *flags_) {
      if (!flag.used) {
        return Status::InvalidArgument("unknown flag --" + flag.name);
      }
    }
    return Status::OK();
  }

 private:
  Flag* Find(const std::string& name) {
    Flag* found = nullptr;
    for (Flag& flag : *flags_) {
      if (flag.name == name) {
        flag.used = true;
        found = &flag;  // last occurrence wins, like env-style overrides
      }
    }
    return found;
  }

  std::vector<Flag>* flags_;
};

}  // namespace

Result<ServerConfig> ServerConfig::FromArgs(int argc, char** argv) {
  std::vector<Flag> flags;
  Status st = ParseFlags(argc, argv, &flags);
  if (!st.ok()) return st;
  FlagSet set(&flags);
  ServerConfig config;

  // Store-side knobs.
  uint64_t tile_cache_mb = 0;
  bool have_cache = false;
  {
    Result<std::optional<std::string>> v = set.String("tile-cache-mb");
    if (!v.ok()) return v.status();
    if (v->has_value()) {
      have_cache = true;
      st = set.Integer("tile-cache-mb", &tile_cache_mb, 0, 1 << 20);
      if (!st.ok()) return st;
    }
  }
  if (have_cache) {
    config.store_options.tile_cache_bytes =
        static_cast<size_t>(tile_cache_mb) << 20;
  }
  {
    // Per-tile summary statistics (DESIGN.md §15). On by default; "off"
    // disables both maintenance and the filter-query pruning that uses
    // them (filtered queries then inspect every candidate tile).
    Result<std::optional<std::string>> v = set.String("summaries");
    if (!v.ok()) return v.status();
    if (v->has_value()) {
      if (**v == "on") {
        config.store_options.tile_summaries = true;
      } else if (**v == "off") {
        config.store_options.tile_summaries = false;
      } else {
        return Status::InvalidArgument("--summaries wants on|off, got '" +
                                       **v + "'");
      }
    }
  }
  {
    Result<std::optional<std::string>> v = set.String("io-backend");
    if (!v.ok()) return v.status();
    if (v->has_value()) {
      Result<std::unique_ptr<IoBackend>> made = MakeIoBackend(**v);
      if (!made.ok()) return made.status();
      config.io_backend = std::move(made).MoveValue();
      config.store_options.io_backend = config.io_backend.get();
    }
  }

  // Server-side knobs.
  TileServerOptions& server = config.server_options;
  st = set.Integer("port", &server.port, 0, 65535);
  if (st.ok()) st = set.Integer("threads", &server.max_connections, 1, 4096);
  if (st.ok()) {
    st = set.Integer("max-connections", &server.max_connections, 1, 65536);
  }
  if (st.ok()) {
    st = set.Integer("max-inflight", &server.max_inflight_requests, 1, 4096);
  }
  if (st.ok()) st = set.Integer("queue", &server.admission_queue_limit, 0, 65536);
  if (st.ok()) {
    st = set.Integer("request-timeout-ms", &server.request_timeout_ms, 1,
                     3600 * 1000);
  }
  if (st.ok()) {
    st = set.Integer("idle-timeout-ms", &server.idle_timeout_ms, 1,
                     24 * 3600 * 1000);
  }
  if (st.ok()) st = set.Integer("parallelism", &server.query_parallelism, 1, 256);
  if (st.ok()) {
    st = set.Integer("workers", &server.event_loop_workers, 0, 4096);
  }
  if (st.ok()) {
    st = set.Integer("debug-handler-delay-ms", &server.debug_handler_delay_ms,
                     0, 60 * 1000);
  }
  if (st.ok()) {
    st = set.Integer("max-wire-version", &server.max_wire_version,
                     kMinWireVersion, kWireVersion);
  }
  if (!st.ok()) return st;
  {
    Result<bool> v = set.Switch("all-interfaces");
    if (!v.ok()) return v.status();
    if (*v) server.loopback_only = false;
  }

  // Re-tiler knobs.
  {
    Result<bool> v = set.Switch("auto-retile");
    if (!v.ok()) return v.status();
    if (*v) server.auto_retile = true;
  }
  st = set.Integer("retile-poll-ms", &server.retile_poll_ms, 1, 3600 * 1000);
  if (st.ok()) {
    st = set.Integer("retile-min-queries", &server.retile_min_queries, 1,
                     int64_t{1} << 40);
  }
  if (st.ok()) st = set.Double("retile-min-improvement", &server.retile_min_improvement);
  if (st.ok()) {
    st = set.Integer("retile-cell-budget", &server.retile_step_cell_budget, 1,
                     int64_t{1} << 40);
  }
  if (st.ok()) {
    st = set.Double("retile-migration-cost", &server.retile_migration_cost_weight);
  }
  if (st.ok()) {
    st = set.Integer("retile-cooldown-ms", &server.retile_cooldown_ms, 0,
                     24 * 3600 * 1000);
  }
  if (!st.ok()) return st;

  // Layout knobs: SFC placement for new tile writes, plus the background
  // compactor that restores SFC-contiguity on aged stores.
  {
    Result<bool> v = set.Switch("sfc-placement");
    if (!v.ok()) return v.status();
    if (*v) config.store_options.sfc_placement = true;
  }
  {
    Result<std::optional<std::string>> v = set.String("sfc-curve");
    if (!v.ok()) return v.status();
    if (v->has_value()) {
      Result<layout::SfcCurve> curve = layout::ParseSfcCurve(**v);
      if (!curve.ok()) return curve.status();
      config.store_options.sfc_curve = *curve;
      config.store_options.sfc_placement = true;
    }
  }
  {
    Result<bool> v = set.Switch("auto-compact");
    if (!v.ok()) return v.status();
    if (*v) server.auto_compact = true;
  }
  st = set.Integer("compact-poll-ms", &server.compact_poll_ms, 1, 3600 * 1000);
  if (st.ok()) {
    st = set.Double("compact-min-frag", &server.compact_min_fragmentation);
  }
  if (st.ok()) {
    st = set.Integer("compact-step-bytes", &server.compact_step_bytes, 4096,
                     int64_t{1} << 40);
  }
  if (!st.ok()) return st;

  // Cluster identity: either from a map (authoritative endpoints and
  // count) or direct --shard-id/--shard-count for tests and launchers
  // that wire ports themselves.
  std::optional<std::string> map_path;
  {
    Result<std::optional<std::string>> v = set.String("cluster-map");
    if (!v.ok()) return v.status();
    map_path = *v;
  }
  uint32_t shard_id = 0;
  bool have_shard_id = false;
  {
    Result<std::optional<std::string>> v = set.String("shard-id");
    if (!v.ok()) return v.status();
    if (v->has_value()) {
      have_shard_id = true;
      st = set.Integer("shard-id", &shard_id, 0, 0xFFFFFFFEll);
      if (!st.ok()) return st;
    }
  }
  st = set.Integer("shard-count", &server.shard_count, 1, 0xFFFFFFFFll);
  if (!st.ok()) return st;
  if (map_path.has_value()) {
    Result<cluster::ShardMap> map = cluster::ShardMap::LoadFile(*map_path);
    if (!map.ok()) return map.status();
    if (!have_shard_id) {
      return Status::InvalidArgument(
          "--cluster-map needs --shard-id to pick this process's shard");
    }
    if (shard_id >= map->shard_count()) {
      return Status::InvalidArgument(
          "--shard-id=" + std::to_string(shard_id) + " out of range; map has " +
          std::to_string(map->shard_count()) + " shards");
    }
    server.shard_id = shard_id;
    server.shard_count = map->shard_count();
    // The map is the single source of ports; an explicit --port (e.g. 0
    // for an ephemeral test port) still wins.
    if (server.port == 0) server.port = map->endpoint(shard_id).port;
    config.cluster_map = std::move(map).MoveValue();
  } else if (have_shard_id) {
    server.shard_id = shard_id;
    if (server.shard_count <= shard_id) {
      return Status::InvalidArgument(
          "--shard-id=" + std::to_string(shard_id) +
          " needs --shard-count > it");
    }
  }

  st = set.CheckAllUsed();
  if (!st.ok()) return st;
  return config;
}

const char* ServerConfig::FlagHelp() {
  return "  serve  <db> [--port=N] [--threads=N] [--max-inflight=N]\n"
         "         [--queue=N] [--request-timeout-ms=N] [--idle-timeout-ms=N]\n"
         "         [--parallelism=N] [--tile-cache-mb=N] [--all-interfaces]\n"
         "         [--workers=N] [--max-connections=N]\n"
         "         [--io-backend=auto|pread|uring] [--summaries=on|off]\n"
         "         [--auto-retile] [--retile-poll-ms=N]\n"
         "         [--retile-min-queries=N] [--retile-min-improvement=X]\n"
         "         [--retile-cell-budget=N] [--retile-migration-cost=X]\n"
         "         [--retile-cooldown-ms=N]\n"
         "         [--sfc-placement] [--sfc-curve=hilbert|zorder]\n"
         "         [--auto-compact] [--compact-poll-ms=N]\n"
         "         [--compact-min-frag=X] [--compact-step-bytes=N]\n"
         "         [--shard-id=N] [--shard-count=N] [--cluster-map=FILE]\n"
         "         [--max-wire-version=N] [--debug-handler-delay-ms=N]\n";
}

}  // namespace net
}  // namespace tilestore
