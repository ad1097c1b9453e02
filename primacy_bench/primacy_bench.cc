// primacy_bench: one command for the repository's end-to-end benchmark.
//
//   primacy_bench --seed S [--workload NAME|all] [--seconds T] [--json FILE]
//                 [--trace DIR] [--quick]
//
// Workloads (see README.md for why each exists): ckpt_write, ckpt_restore,
// service_cold, daemon_hot. Each runs a 3 s untimed warm-up and a measured
// window of T seconds (default 15); --quick shrinks them to 0.2 s + 1 s for
// smoke tests. With `all` the binary re-executes itself once per workload,
// so every workload starts with a fresh pool, cache, memo, registry and
// RSS. Output is one line per metric:
//
//   <workload> <metric> <value> <unit> n=<samples>
//
// --trace DIR runs each workload a second time with spans recorded around
// every call into the library, writes DIR/<workload>.trace.json
// (chrome://tracing), prints a per-layer self-time table, and adds the
// per-layer metrics; end-to-end metrics always come from the untraced pass.
// --json FILE writes {"runs": [...]} with every metric at full precision.
// The exit status is 1 if any reply failed verification, 2 on bad usage.
#include <spawn.h>
#include <sys/wait.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "kernels/kernels.h"
#include "workloads.h"

extern char** environ;

namespace primacy::bench {
namespace {

#ifndef PRIMACY_BENCH_BUILD_TYPE
#define PRIMACY_BENCH_BUILD_TYPE "unknown"
#endif

struct Args {
  std::uint64_t seed = 0;
  bool have_seed = false;
  std::string workload = "all";
  double seconds = 15.0;
  std::string json;
  std::string trace_dir;
  bool quick = false;
};

[[noreturn]] void Usage(const char* problem) {
  std::fprintf(stderr,
               "primacy_bench: %s\n"
               "usage: primacy_bench --seed S [--workload NAME|all] "
               "[--seconds T] [--json FILE] [--trace DIR] [--quick]\n"
               "workloads:",
               problem);
  for (const std::string& name : WorkloadNames()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
      return argv[++i];
    };
    if (flag == "--seed") {
      const std::string text = value();
      char* end = nullptr;
      errno = 0;
      args.seed = std::strtoull(text.c_str(), &end, 10);
      if (text.empty() || text[0] == '-' || *end != '\0' || errno != 0) {
        Usage("--seed takes an unsigned integer");
      }
      args.have_seed = true;
    } else if (flag == "--workload") {
      args.workload = value();
    } else if (flag == "--seconds") {
      const std::string text = value();
      char* end = nullptr;
      args.seconds = std::strtod(text.c_str(), &end);
      if (text.empty() || *end != '\0' || !(args.seconds > 0.0) ||
          args.seconds > 600.0) {
        Usage("--seconds takes a number in (0, 600]");
      }
    } else if (flag == "--json") {
      args.json = value();
    } else if (flag == "--trace") {
      args.trace_dir = value();
    } else if (flag == "--quick") {
      args.quick = true;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!args.have_seed) Usage("--seed is required");
  if (args.workload != "all" && MakeWorkload(args.workload) == nullptr) {
    Usage(("unknown workload " + args.workload).c_str());
  }
  return args;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.17g", v);
  return buffer;
}

std::string JsonMetrics(const std::vector<Metric>& list) {
  std::string out = "{";
  for (const Metric& m : list) {
    if (out.size() > 1) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + JsonNumber(m.value) +
           ", \"unit\": \"" + m.unit + "\", \"n\": " +
           std::to_string(m.samples) + "}";
  }
  return out + "}";
}

void PrintMetrics(const std::string& workload,
                  const std::vector<Metric>& list) {
  for (const Metric& m : list) {
    std::printf("%s %s %.10g %s n=%zu\n", workload.c_str(), m.name.c_str(),
                m.value, m.unit.c_str(), m.samples);
  }
  std::fflush(stdout);
}

/// Adds the trace-derived per-layer values and prints the self-time table.
void AddTraceLayers(const std::string& workload, const Tracer& tracer,
                    double untraced_mbps, double traced_mbps,
                    MetricValues& values) {
  const auto self = tracer.SelfTimeNs("loadgen.window");
  std::uint64_t total = 0;
  for (const auto& [layer, ns] : self) total += ns;
  const auto share = [&](const std::string& layer) {
    const auto it = self.find(layer);
    return it == self.end() || total == 0
               ? 0.0
               : 100.0 * static_cast<double>(it->second) /
                     static_cast<double>(total);
  };
  std::printf("# %s self time inside the measured window (%zu spans)\n",
              workload.c_str(), tracer.SpanCount());
  std::printf("# %-10s %12s %8s\n", "layer", "self_ms", "share");
  for (const auto& [layer, ns] : self) {
    std::printf("# %-10s %12.3f %7.2f%%\n", layer.c_str(),
                static_cast<double>(ns) * 1e-6, share(layer));
  }
  for (const char* layer : {"loadgen", "store", "service", "transport"}) {
    values[std::string("trace.self_pct.") + layer] = {share(layer),
                                                      self.size()};
  }
  values["trace.overhead_pct"] = {
      untraced_mbps > 0 ? 100.0 * (untraced_mbps - traced_mbps) / untraced_mbps
                        : 0.0,
      2};
}

int RunOne(const Args& args) {
  std::unique_ptr<Workload> workload = MakeWorkload(args.workload);
  workload->Prepare(args.seed);
  PassConfig config;
  config.warmup_s = args.quick ? 0.2 : 3.0;
  config.window_s = args.quick ? 1.0 : args.seconds;
  config.setup_repeats = args.quick ? 2 : 11;

  const PassResult plain = workload->Run(config);
  const std::vector<Metric> end_to_end =
      Tabulate(EndToEndMetrics(), plain.values);
  PrintMetrics(args.workload, end_to_end);
  std::uint64_t attempted = plain.attempted;
  std::uint64_t failed = plain.failed;

  std::string per_layer_json;
  if (!args.trace_dir.empty()) {
    Tracer tracer;
    config.tracer = &tracer;
    PassResult traced = workload->Run(config);
    attempted += traced.attempted;
    failed += traced.failed;
    AddTraceLayers(args.workload, tracer,
                   plain.values.at("throughput_mbps").first,
                   traced.values["throughput_mbps"].first, traced.values);
    const std::string path =
        args.trace_dir + "/" + args.workload + ".trace.json";
    if (!tracer.WriteChromeTrace(path)) {
      std::fprintf(stderr, "primacy_bench: cannot write %s\n", path.c_str());
      return 1;
    }
    const std::vector<Metric> per_layer =
        Tabulate(PerLayerMetrics(), traced.values);
    PrintMetrics(args.workload, per_layer);
    per_layer_json = ", \"per_layer\": " + JsonMetrics(per_layer);
  }
  std::printf("# %s attempted=%llu failed=%llu\n", args.workload.c_str(),
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));

  if (!args.json.empty()) {
    std::ofstream out(args.json);
    out << "{\"runs\": [{\"workload\": \"" << args.workload
        << "\", \"seed\": " << args.seed << ", \"isa\": \""
        << kernels::IsaName(kernels::ActiveIsa())
        << "\", \"nproc\": " << std::thread::hardware_concurrency()
        << ", \"build_type\": \"" << PRIMACY_BENCH_BUILD_TYPE
        << "\", \"warmup_s\": " << JsonNumber(config.warmup_s)
        << ", \"window_s\": " << JsonNumber(config.window_s)
        << ", \"attempted\": " << attempted << ", \"failed\": " << failed
        << ", \"end_to_end\": " << JsonMetrics(end_to_end) << per_layer_json
        << "}]}\n";
    if (!out) {
      std::fprintf(stderr, "primacy_bench: cannot write %s\n",
                   args.json.c_str());
      return 1;
    }
  }
  if (failed != 0) {
    std::fprintf(stderr, "primacy_bench: %s: %llu of %llu operations failed "
                 "verification\n", args.workload.c_str(),
                 static_cast<unsigned long long>(failed),
                 static_cast<unsigned long long>(attempted));
    return 1;
  }
  return 0;
}

/// Runs each workload in a fresh child process of this binary and merges
/// their JSON run lists.
int RunAll(const Args& args) {
  int status_out = 0;
  std::vector<std::string> runs;
  for (const std::string& name : WorkloadNames()) {
    std::vector<std::string> child = {
        "/proc/self/exe", "--seed", std::to_string(args.seed), "--workload",
        name, "--seconds", JsonNumber(args.seconds)};
    const std::string part = args.json.empty() ? "" : args.json + "." + name;
    if (!part.empty()) child.insert(child.end(), {"--json", part});
    if (!args.trace_dir.empty()) {
      child.insert(child.end(), {"--trace", args.trace_dir});
    }
    if (args.quick) child.push_back("--quick");
    std::vector<char*> argv;
    for (std::string& arg : child) argv.push_back(arg.data());
    argv.push_back(nullptr);
    std::fflush(stdout);
    pid_t pid = 0;
    if (posix_spawn(&pid, argv[0], nullptr, nullptr, argv.data(), environ) !=
        0) {
      std::fprintf(stderr, "primacy_bench: cannot start %s\n", name.c_str());
      return 1;
    }
    int status = 0;
    while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    const int code = WIFEXITED(status) ? WEXITSTATUS(status) : 1;
    if (code != 0) status_out = std::max(status_out, code);
    if (!part.empty()) {
      std::ifstream in(part);
      std::stringstream text;
      text << in.rdbuf();
      const std::string body = text.str();
      const std::size_t open = body.find('[');
      const std::size_t close = body.rfind(']');
      if (open != std::string::npos && close != std::string::npos &&
          close > open) {
        runs.push_back(body.substr(open + 1, close - open - 1));
      }
      std::remove(part.c_str());
    }
  }
  if (!args.json.empty()) {
    std::ofstream out(args.json);
    out << "{\"runs\": [";
    for (std::size_t i = 0; i < runs.size(); ++i) {
      out << (i == 0 ? "" : ",\n") << runs[i];
    }
    out << "]}\n";
  }
  return status_out;
}

}  // namespace
}  // namespace primacy::bench

int main(int argc, char** argv) {
  using namespace primacy::bench;
  const Args args = ParseArgs(argc, argv);
  try {
    return args.workload == "all" ? RunAll(args) : RunOne(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "primacy_bench: %s\n", e.what());
    return 1;
  }
}
