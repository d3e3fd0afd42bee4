// The bryql benchmark program. Usually started through perfbench/run.py, which
// builds it first:
//
//   perfbench_bin --workload suite-warm|adhoc-cold|service-mixed
//                 --seed N --seconds S --trace 0|1
//                 [--commit ID] [--trace-out FILE]
//
// Prints the build facts, one line per metric, and as its last line one
// JSON object: {"correct", "attempted", "failed", "metrics"}. Exits 0 only
// when every answer and self-check was correct (4 after a result line that
// says "correct": false).
#include <cstdlib>
#include <exception>
#include <iostream>
#include <map>
#include <string>
#include <thread>

#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_SANITIZE_FLAGS
#define PERFBENCH_SANITIZE_FLAGS 0
#endif

namespace perfbench {
namespace {

#ifdef __clang__
constexpr const char* kCompiler = "clang " __VERSION__;
#else
constexpr const char* kCompiler = "gcc " __VERSION__;
#endif

struct BuildFacts {
  bool ndebug = false;
  bool failpoints = false;
  bool sanitizers = PERFBENCH_SANITIZE_FLAGS != 0;
  std::string build_type = PERFBENCH_BUILD_TYPE;
};

BuildFacts Facts() {
  BuildFacts facts;
#ifdef NDEBUG
  facts.ndebug = true;
#endif
#ifdef BRYQL_FAILPOINTS
  facts.failpoints = true;
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  facts.sanitizers = true;
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer) ||                                   \
    __has_feature(undefined_behavior_sanitizer)
  facts.sanitizers = true;
#endif
#endif
  return facts;
}

std::string Quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

int Usage(const std::string& problem) {
  std::cerr << "perfbench: " << problem << "\n"
            << "usage: perfbench_bin --workload NAME --seed N --seconds S "
               "--trace 0|1 [--commit ID] [--trace-out FILE]\n";
  return 2;
}

int Main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) {
      return Usage("bad argument '" + key + "'");
    }
    args[key.substr(2)] = argv[++i];
  }
  for (const char* required : {"workload", "seed", "seconds", "trace"}) {
    if (args.count(required) == 0) {
      return Usage(std::string("missing --") + required);
    }
  }
  RunOptions options;
  options.workload = args["workload"];
  try {
    options.seed = std::stoull(args["seed"]);
    options.seconds = std::stod(args["seconds"]);
  } catch (const std::exception&) {
    return Usage("--seed and --seconds take numbers");
  }
  if (!(options.seconds > 0)) return Usage("--seconds must be positive");
  if (args["trace"] != "0" && args["trace"] != "1") {
    return Usage("--trace takes 0 or 1");
  }
  options.trace = args["trace"] == "1";
  options.trace_path = args["trace-out"];

  const BuildFacts facts = Facts();
  std::cout << "facts {\"nproc\": " << std::thread::hardware_concurrency()
            << ", \"compiler\": " << Quoted(kCompiler)
            << ", \"build_type\": " << Quoted(facts.build_type)
            << ", \"ndebug\": " << (facts.ndebug ? "true" : "false")
            << ", \"failpoints\": " << (facts.failpoints ? "true" : "false")
            << ", \"sanitizers\": " << (facts.sanitizers ? "true" : "false")
            << ", \"commit\": " << Quoted(args.count("commit") != 0
                                              ? args["commit"]
                                              : "unknown")
            << ", \"workload\": " << Quoted(options.workload)
            << ", \"seed\": " << options.seed
            << ", \"seconds\": " << FormatNumber(options.seconds)
            << ", \"trace\": " << (options.trace ? 1 : 0) << "}\n";
  if (!facts.ndebug || facts.failpoints || facts.sanitizers ||
      facts.build_type != "Release") {
    std::cerr << "perfbench: refusing to report from a build with "
                 "assertions, failpoints or sanitizers, or not Release\n";
    return 3;
  }

  RunResult result;
  try {
    result = RunWorkload(options);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
  for (const std::string& note : result.notes) {
    std::cout << "note " << note << "\n";
  }
  std::string metrics;
  for (const Metric& m : result.metrics) {
    std::cout << "metric " << m.name << " = " << FormatNumber(m.value) << " "
              << m.unit << "\n";
    if (!metrics.empty()) metrics += ", ";
    metrics += Quoted(m.name) + ": {\"value\": " + FormatNumber(m.value) +
               ", \"unit\": " + Quoted(m.unit) + "}";
  }
  std::cout << "{\"correct\": " << (result.correct ? "true" : "false")
            << ", \"attempted\": " << result.attempted
            << ", \"failed\": " << result.failed << ", \"metrics\": {"
            << metrics << "}}" << std::endl;
  return result.correct ? 0 : 4;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
