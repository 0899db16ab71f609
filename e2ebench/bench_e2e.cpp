// bench_e2e — the repository's end-to-end benchmark (BENCHMARK.json).
//
//   bench_e2e --workload NAME --seed N --seconds S --trace 0|1
//   bench_e2e --self-test BENCHMARK.json
//
// A run sets the workload up cold (several times; setup_s is the median),
// measures for --seconds (longer when the reported percentiles need more
// samples), verifies the answers, and prints as the last line of stdout one
// JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{NAME:{"value":..,"unit":..}}}
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
// and writes a Chrome trace. The exit status is 0 only for a correct run.
//
// --self-test runs every workload of BENCHMARK.json at smoke size, untraced
// and traced, and checks that exactly the metrics it names are reported,
// finite, with no failed request.
#include <cmath>
#include <cstdio>
#include <fstream>
#include <optional>
#include <set>
#include <sstream>
#include <string>

#include "common/cli.hpp"
#include "common/json.hpp"
#include "common/logging.hpp"
#include "workloads.hpp"

namespace {

using isop::json::Value;
using isop::e2e::RunOptions;
using isop::e2e::RunReport;

/// Marks non-finite metrics as problems: JSON cannot carry them, and a NaN
/// latency is a broken measurement, not a number.
void checkFinite(RunReport& report) {
  for (const auto& [name, metric] : report.metrics) {
    if (!std::isfinite(metric.value)) {
      report.problems.push_back("metric " + name + " is not finite");
    }
  }
}

Value resultJson(const RunReport& report) {
  Value metrics = Value::object();
  for (const auto& [name, metric] : report.metrics) {
    Value m = Value::object();
    m.set("value", Value::number(metric.value));
    m.set("unit", Value::string(metric.unit));
    metrics.set(name, std::move(m));
  }
  Value out = Value::object();
  out.set("correct", Value::boolean(report.correct()));
  out.set("attempted", Value::integer(static_cast<long long>(report.attempted)));
  out.set("failed", Value::integer(static_cast<long long>(report.failed)));
  out.set("metrics", std::move(metrics));
  return out;
}

std::set<std::string> namesOf(const Value& doc, const char* key) {
  std::set<std::string> names;
  const Value& list = doc.at(key);
  for (std::size_t i = 0; i < list.size(); ++i) names.insert(list.at(i).at("name").asString());
  return names;
}

int selfTest(const std::string& benchmarkPath) {
  std::ifstream in(benchmarkPath);
  std::stringstream text;
  text << in.rdbuf();
  const std::optional<Value> doc = Value::parse(text.str());
  if (!in || !doc) {
    std::fprintf(stderr, "self-test: cannot read %s\n", benchmarkPath.c_str());
    return 1;
  }
  const std::set<std::string> workloads = namesOf(*doc, "workloads");
  const std::set<std::string> known(isop::e2e::workloadNames().begin(),
                                    isop::e2e::workloadNames().end());
  int failures = 0;
  if (workloads != known) {
    std::fprintf(stderr, "self-test: BENCHMARK.json workloads differ from this binary's\n");
    ++failures;
  }
  for (const std::string& workload : workloads) {
    for (const bool traced : {false, true}) {
      RunOptions options;
      options.workload = workload;
      options.seconds = 0.2;
      options.traced = traced;
      options.smoke = true;
      RunReport report = isop::e2e::runWorkload(options);
      checkFinite(report);
      const std::set<std::string> expected =
          namesOf(*doc, traced ? "per_layer" : "end_to_end");
      std::set<std::string> reported;
      for (const auto& [name, metric] : report.metrics) reported.insert(name);
      if (reported != expected) {
        report.problems.push_back("reported metrics differ from BENCHMARK.json");
      }
      if (report.attempted == 0) report.problems.push_back("no request attempted");
      for (const std::string& p : report.problems) {
        std::fprintf(stderr, "self-test: %s trace=%d: %s\n", workload.c_str(), traced,
                     p.c_str());
      }
      const bool ok = report.correct() && report.failed == 0;
      std::fprintf(stderr, "self-test: %s trace=%d %s (%zu requests)\n", workload.c_str(),
                   traced, ok ? "ok" : "FAILED", report.attempted);
      if (!ok) ++failures;
    }
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  isop::log::setLevel(isop::log::Level::Warn);
  const isop::CliArgs args(argc, argv);
  try {
    if (args.has("self-test")) return selfTest(args.getString("self-test", "BENCHMARK.json"));

    RunOptions options;
    options.workload = args.getString("workload", "");
    options.seed = static_cast<std::uint64_t>(args.getInt("seed", 1));
    options.seconds = args.getDouble("seconds", 10.0);
    options.traced = args.getInt("trace", 0) != 0;

    RunReport report = isop::e2e::runWorkload(options);
    checkFinite(report);
    for (const std::string& p : report.problems) {
      std::fprintf(stderr, "bench_e2e: %s\n", p.c_str());
    }
    std::printf("%s\n", resultJson(report).dump().c_str());
    return report.correct() && report.failed == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_e2e: %s\n", e.what());
    return 2;
  }
}
