// Repository benchmark program: runs one seeded workload against the
// tilestore library and prints one JSON result line (see README.md).
//
//   tilestore_perfbench --workload cube_scan --seed 1 --seconds 10 --trace 0
//
// --trace 0 measures the end-to-end metrics; --trace 1 runs the workload
// twice for half the time each, untraced then traced, and reports the
// per-layer metrics plus the tracing overhead. Every run also writes a
// report (deterministic quantities, failures, and with tracing the span
// tree and counter deltas) to --report.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include <unistd.h>

#include "report.h"
#include "trace.h"
#include "workload.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;

// Stall limit per operation and budget for the whole process; both stay
// below the 180 s a run may take, so a hang ends with a named failure.
constexpr double kStallSeconds = 30;
constexpr double kRunBudgetSeconds = 165;
// Spans written to the report; aggregates always use every span.
constexpr size_t kMaxReportSpans = 20000;
// Set-ups per untraced run; setup_s is their median.
constexpr int kSetups = 9;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;
  std::string report;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", flag.c_str());
      return false;
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args->seconds = std::stod(value);
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--work-dir") {
      args->work_dir = value;
    } else if (flag == "--report") {
      args->report = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0 &&
         !args->work_dir.empty();
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       uint64_t seed) {
  if (name == "cube_scan") return MakeCubeScan(seed);
  if (name == "serve_mixed") return MakeServeMixed(seed);
  if (name == "ingest_update") return MakeIngestUpdate(seed);
  return nullptr;
}

void PrintResultLine(const Outcome& outcome, const std::string& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              outcome.failed == 0 && outcome.attempted > 0 ? "true" : "false",
              static_cast<unsigned long long>(std::max<uint64_t>(
                  outcome.attempted, 1)),
              static_cast<unsigned long long>(outcome.failed),
              metrics.c_str());
  std::fflush(stdout);
}

void PrintSummary(const Args& args, const MetricMap& e2e,
                  const MetricMap& layer, const PhaseResult& measured,
                  const Outcome& outcome) {
  std::fprintf(stderr, "\n== %s seed=%llu seconds=%g trace=%d ==\n",
               args.workload.c_str(),
               static_cast<unsigned long long>(args.seed), args.seconds,
               args.trace ? 1 : 0);
  std::fprintf(stderr, "attempted %llu, failed %llu (fail_frac %.6g)\n",
               static_cast<unsigned long long>(outcome.attempted),
               static_cast<unsigned long long>(outcome.failed),
               outcome.attempted
                   ? static_cast<double>(outcome.failed) / outcome.attempted
                   : 0.0);
  for (const std::string& f : outcome.failures) {
    std::fprintf(stderr, "  FAILED: %s\n", f.c_str());
  }
  if (!args.trace) {
    for (const MetricDef& m : EndToEndMetrics()) {
      auto it = e2e.find(m.name);
      auto n = measured.samples.find(m.name);
      std::fprintf(stderr, "  %-12s %14.6g %-6s", m.name,
                   it == e2e.end() ? 0.0 : it->second, m.unit);
      if (n != measured.samples.end()) {
        std::fprintf(stderr, " (n=%llu)",
                     static_cast<unsigned long long>(n->second));
      }
      std::fprintf(stderr, "\n");
    }
    auto windows = measured.samples.find("windows");
    if (windows != measured.samples.end()) {
      std::fprintf(stderr,
                   "  (rates and p50 are medians over %llu windows of the "
                   "run; README.md says how each workload takes p99)\n",
                   static_cast<unsigned long long>(windows->second));
    }
    return;
  }
  std::fprintf(stderr, "  %-34s %14s %-6s  %s\n", "per-layer metric", "value",
               "unit", "should move");
  for (const MetricDef& m : PerLayerMetrics()) {
    auto it = layer.find(m.name);
    std::fprintf(stderr, "  %-34s %14.6g %-6s  %s\n", m.name,
                 it == layer.end() ? 0.0 : it->second, m.unit, m.moves);
  }
}

bool WriteReport(const Args& args, const MetricMap& e2e,
                 const MetricMap& layer, const PhaseResult& measured,
                 const Outcome& outcome, const MetricMap& deterministic,
                 const Tracer* tracer) {
  std::string out = "{\"workload\": ";
  AppendJsonString(args.workload, &out);
  out.append(", \"seed\": " + std::to_string(args.seed));
  out.append(", \"seconds\": ");
  AppendJsonNumber(args.seconds, &out);
  out.append(std::string(", \"trace\": ") + (args.trace ? "1" : "0"));
  out.append(", \"attempted\": " + std::to_string(outcome.attempted));
  out.append(", \"failed\": " + std::to_string(outcome.failed));
  out.append(", \"failures\": [");
  for (size_t i = 0; i < outcome.failures.size(); ++i) {
    if (i > 0) out.append(", ");
    AppendJsonString(outcome.failures[i], &out);
  }
  out.append("]");
  out.append(", \"end_to_end\": " + FlatJson(e2e));
  out.append(", \"per_layer\": " + FlatJson(layer));
  MetricMap samples;
  for (const auto& [name, n] : measured.samples) {
    samples[name] = static_cast<double>(n);
  }
  out.append(", \"samples\": " + FlatJson(samples));
  out.append(", \"deterministic\": " + FlatJson(deterministic));
  if (tracer != nullptr) {
    out.append(",\n\"counter_deltas\": " + measured.counter_deltas_json);
    const std::vector<Span> spans = tracer->Spans();
    out.append(",\n\"span_count\": " + std::to_string(spans.size()));
    out.append(",\n\"spans\": ");
    AppendSpansJson(spans, kMaxReportSpans, &out);
  }
  out.append("}\n");
  std::ofstream file(args.report, std::ios::trunc);
  file << out;
  return static_cast<bool>(file);
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: tilestore_perfbench --workload "
                 "cube_scan|serve_mixed|ingest_update --seed N --seconds S "
                 "--trace 0|1 --work-dir DIR [--report FILE]\n");
    return 2;
  }
  std::unique_ptr<Workload> workload = MakeWorkload(args.workload, args.seed);
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  Watchdog watchdog(kStallSeconds, kRunBudgetSeconds);

  const fs::path work = fs::path(args.work_dir) /
                        (args.workload + "-" + std::to_string(getpid()));
  std::error_code ec;
  fs::remove_all(work, ec);

  // Set-up, several times when measuring it: setup_s is the median.
  const int setups = args.trace ? 1 : kSetups;
  std::vector<double> setup_s;
  fs::path dir;
  for (int i = 0; i < setups; ++i) {
    if (i > 0) {
      workload->Teardown();
      fs::remove_all(dir, ec);
    }
    dir = work / ("setup" + std::to_string(i));
    fs::create_directories(dir);
    Watchdog::Op op("setup");
    const Clock::time_point t0 = Clock::now();
    tilestore::Status st = workload->Setup(dir.string());
    setup_s.push_back(
        std::chrono::duration<double>(Clock::now() - t0).count());
    if (!st.ok()) {
      std::fprintf(stderr, "setup failed: %s\n", st.ToString().c_str());
      workload->Teardown();
      fs::remove_all(work, ec);
      Outcome failed;
      failed.Fail("setup: " + st.ToString());
      PrintResultLine(failed, "{}");
      return 1;
    }
  }

  Outcome outcome;
  MetricMap e2e;
  MetricMap layer;
  PhaseResult measured;
  std::unique_ptr<Tracer> tracer;
  if (!args.trace) {
    measured = workload->Run(args.seconds, nullptr);
    e2e = measured.e2e;
    e2e["setup_s"] = Median(setup_s);
  } else {
    // Same work, untraced then traced: the gap is the tracing overhead.
    PhaseResult plain = workload->Run(args.seconds / 2, nullptr);
    outcome.Merge(plain.outcome);
    e2e = plain.e2e;
    tracer = std::make_unique<Tracer>();
    measured = workload->Run(args.seconds / 2, tracer.get());
    layer = measured.layer;
    const double traced_rate = measured.e2e["ops_per_s"];
    layer["trace.overhead_frac"] =
        traced_rate > 0 ? plain.e2e["ops_per_s"] / traced_rate - 1 : 0;
  }
  outcome.Merge(measured.outcome);
  outcome.Merge(workload->Finish());
  const MetricMap deterministic = workload->Deterministic();
  workload->Teardown();
  fs::remove_all(work, ec);
  e2e["ok_frac"] =
      outcome.attempted == 0
          ? 0
          : static_cast<double>(outcome.attempted - outcome.failed) /
                static_cast<double>(outcome.attempted);

  PrintSummary(args, e2e, layer, measured, outcome);
  if (!args.report.empty() &&
      !WriteReport(args, e2e, layer, measured, outcome, deterministic,
                   tracer.get())) {
    std::fprintf(stderr, "could not write report %s\n", args.report.c_str());
    outcome.Fail("report file");
  }
  PrintResultLine(outcome, args.trace ? MetricsJson(PerLayerMetrics(), layer)
                                      : MetricsJson(EndToEndMetrics(), e2e));
  return outcome.failed == 0 && outcome.attempted > 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
