// The four end-to-end workloads of the benchmark (see README.md for why each
// exists and which layer each one stresses):
//
//   trial-oracle  closed-loop ISOP+ trials on the closed-form EM oracle
//   trial-cnn     the same loop on the paper's 1D-CNN surrogate
//   serve-mlp     open-loop + burst load on an in-process server (MLP)
//   inverse-mlp   closed-loop amortized inverse solves (MLP forward model)
//
// Everything is driven through the program's public APIs; every timing is
// taken on the benchmark side.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace isop::e2e {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< measured window (extended until enough samples)
  bool traced = false;    ///< per-layer run instead of the end-to-end run
  bool smoke = false;     ///< tiny sizes: checks plumbing, not statistics
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

struct RunReport {
  std::size_t attempted = 0;  ///< requests issued (trials, jobs, solves)
  std::size_t failed = 0;     ///< requests that failed verification or service
  std::vector<std::string> problems;  ///< why the run is not correct
  std::map<std::string, Metric> metrics;

  bool correct() const { return problems.empty(); }
};

/// The workload names, in BENCHMARK.json order.
const std::vector<std::string>& workloadNames();

/// Runs one workload. Untraced runs report the end-to-end metrics, traced
/// runs the per-layer metrics and write a Chrome trace to
/// .bench_build/e2ebench-traces/<workload>-seed<N>.json. Throws
/// std::invalid_argument on an unknown workload name.
RunReport runWorkload(const RunOptions& options);

}  // namespace isop::e2e
