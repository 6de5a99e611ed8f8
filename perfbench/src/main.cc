// The end-to-end PPRL benchmark (BENCHMARK.json): one workload per run.
//
//   pprl_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--out-dir <dir>] [--commit <id>] [--scale <f>]
//                  [--corrupt <result>]
//
// The last line of standard output is the result object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics untraced (--trace 0) or the per-layer metrics
// (--trace 1). The environment stamp, op accounting, extra figures and gate
// failures go to <out-dir>/<workload>-seed<n>-trace<t>.json; a traced run
// also writes its spans and per-layer self times to
// <out-dir>/<workload>-seed<n>-spans.json.
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <utility>

#include "bench.h"

#ifndef PPRL_PERFBENCH_BUILD_TYPE
#define PPRL_PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

#ifdef NDEBUG
constexpr bool kAssertions = false;
#else
constexpr bool kAssertions = true;
#endif

int Usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: pprl_perfbench --workload "
               "<link-inproc|link-daemon|online-mixed|encode-keyed> --seed <n> "
               "--seconds <s> --trace <0|1> [--out-dir <dir>] [--commit <id>] "
               "[--scale <f>] [--corrupt <result>]\n",
               why);
  return 2;
}

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string StampJson(const Args& args) {
  std::ostringstream out;
  out << "{\"nproc\": " << std::thread::hardware_concurrency() << ", \"cpu_model\": \""
      << JsonEscape(CpuModel()) << "\", \"build_type\": \"" << PPRL_PERFBENCH_BUILD_TYPE
      << "\", \"assertions\": " << (kAssertions ? "true" : "false")
      << ", \"sanitizer\": " << (kSanitized ? "true" : "false") << ", \"commit\": \""
      << JsonEscape(args.commit) << "\", \"workload\": \"" << JsonEscape(args.workload)
      << "\", \"seed\": " << args.seed << ", \"seconds\": " << args.seconds
      << ", \"trace\": " << (args.trace ? 1 : 0) << ", \"scale\": " << args.scale << "}";
  return out.str();
}

std::string SpansJson(const std::vector<Span>& spans) {
  std::ostringstream out;
  out << "[";
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    char times[96];
    std::snprintf(times, sizeof(times), "\"start_s\": %.9f, \"end_s\": %.9f", s.start_s,
                  s.end_s);
    out << (i ? ",\n  " : "\n  ") << "{\"id\": " << s.id << ", \"parent\": " << s.parent
        << ", \"name\": \"" << JsonEscape(s.name) << "\", \"request\": \""
        << JsonEscape(s.request) << "\", " << times << "}";
  }
  out << "]";
  return out.str();
}

bool WriteFile(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  out << text;
  return static_cast<bool>(out);
}

int Main(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
        have_seed = true;
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") return Usage("--trace takes 0 or 1");
        args.trace = value == "1";
      } else if (flag == "--out-dir") {
        args.out_dir = value;
      } else if (flag == "--commit") {
        args.commit = value;
      } else if (flag == "--scale") {
        args.scale = std::stod(value);
      } else if (flag == "--corrupt") {
        args.corrupt = value;
      } else {
        return Usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::exception&) {
      return Usage(("bad value for " + flag).c_str());
    }
  }
  if (!have_workload || !have_seed) return Usage("--workload and --seed are required");
  if (!(args.seconds > 0) || !(args.scale > 0 && args.scale <= 1)) {
    return Usage("--seconds must be > 0 and --scale in (0, 1]");
  }
  // Only like builds are comparable: refuse debug-assertion and sanitizer
  // builds outright rather than emit numbers nobody should compare.
  if (kAssertions || kSanitized) {
    std::fprintf(stderr, "error: refusing to run an %s build (build with -DNDEBUG, no "
                         "sanitizers)\n",
                 kSanitized ? "sanitizer" : "assertion-enabled");
    return 3;
  }
  const std::map<std::string, void (*)(const Args&, WorkloadResult&)> workloads = {
      {"link-inproc", RunLinkInproc},
      {"link-daemon", RunLinkDaemon},
      {"online-mixed", RunOnlineMixed},
      {"encode-keyed", RunEncodeKeyed},
  };
  const auto workload = workloads.find(args.workload);
  if (workload == workloads.end()) return Usage(("unknown workload " + args.workload).c_str());

  MakeDirs(args.out_dir);
  const std::string stamp = StampJson(args);
  std::printf("environment: %s\n", stamp.c_str());
  std::fflush(stdout);

  WorkloadResult result;
  try {
    workload->second(args, result);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s failed: %s\n", args.workload.c_str(), e.what());
    return 1;
  }
  if (args.trace) {
    // Layer figures only some workloads have: the program's own stage
    // timers, a service around the engine, an open-loop generator. The
    // other workloads report 0, so every traced run emits one metric set.
    static const std::pair<const char*, const char*> kWorkloadLayers[] = {
        {"pipeline.stage_s.encode", "s"},     {"pipeline.stage_s.block", "s"},
        {"pipeline.stage_s.compare", "s"},    {"pipeline.stage_s.classify", "s"},
        {"pipeline.stage_s.cluster", "s"},    {"service.overhead_s", "s"},
        {"service.query_overhead_us", "us"},  {"service.append_overhead_us", "us"},
        {"generator.late_p99_ms", "ms"},
    };
    for (const auto& [name, unit] : kWorkloadLayers) {
      result.metrics.Set(name, result.extra.Has(name) ? result.extra.Get(name) : 0, unit);
    }
  }

  const std::string base = args.out_dir + "/" + args.workload + "-seed" +
                           std::to_string(args.seed);
  const std::string results_path = base + "-trace" + (args.trace ? "1" : "0") + ".json";
  std::ostringstream gates;
  gates << "[";
  for (size_t i = 0; i < result.outcome.gate_failures().size(); ++i) {
    gates << (i ? ", " : "") << "\"" << JsonEscape(result.outcome.gate_failures()[i]) << "\"";
  }
  gates << "]";
  std::ostringstream full;
  full << "{\n\"environment\": " << stamp << ",\n\"correct\": "
       << (result.outcome.correct() ? "true" : "false")
       << ",\n\"gate_failures\": " << gates.str() << ",\n\"ops\": " << result.outcome.ToJson()
       << ",\n\"metrics\": " << result.metrics.ToJson()
       << ",\n\"extra\": " << result.extra.ToJson() << "\n}\n";
  if (!WriteFile(results_path, full.str())) {
    std::fprintf(stderr, "error: cannot write %s\n", results_path.c_str());
    return 1;
  }
  if (args.trace) {
    std::ostringstream trace;
    trace << "{\n\"environment\": " << stamp << ",\n\"layer_self_s\": {";
    bool first = true;
    for (const auto& [layer, seconds] : result.layer_self_s) {
      char number[64];
      std::snprintf(number, sizeof(number), "%.9f", seconds);
      trace << (first ? "" : ", ") << "\"" << JsonEscape(layer) << "\": " << number;
      first = false;
    }
    trace << "},\n\"spans\": " << SpansJson(result.spans) << "\n}\n";
    const std::string spans_path = base + "-spans.json";
    if (!WriteFile(spans_path, trace.str())) {
      std::fprintf(stderr, "error: cannot write %s\n", spans_path.c_str());
      return 1;
    }
    std::printf("layer self time (s):");
    for (const auto& [layer, seconds] : result.layer_self_s) {
      std::printf(" %s=%.4f", layer.c_str(), seconds);
    }
    std::printf("\ntrace artifact: %s\n", spans_path.c_str());
  }
  std::printf("ops: %s\n", result.outcome.ToJson().c_str());
  std::printf("extra: %s\n", result.extra.ToJson().c_str());
  for (const std::string& failure : result.outcome.gate_failures()) {
    std::fprintf(stderr, "error: correctness gate failed: %s\n", failure.c_str());
  }
  std::printf("results: %s\n", results_path.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              result.outcome.correct() ? "true" : "false",
              static_cast<unsigned long long>(result.outcome.attempted()),
              static_cast<unsigned long long>(result.outcome.failed()),
              result.metrics.ToJson().c_str());
  return result.outcome.correct() ? 0 : 4;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
