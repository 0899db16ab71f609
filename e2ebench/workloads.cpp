#include "workloads.hpp"

#include <stdlib.h>

#include <algorithm>
#include <array>
#include <filesystem>
#include <iterator>
#include <limits>
#include <memory>
#include <numeric>
#include <span>
#include <stdexcept>
#include <thread>

#include "common/json.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "core/report.hpp"
#include "core/simulator_surrogate.hpp"
#include "core/surrogate_objective.hpp"
#include "core/tasks.hpp"
#include "core/trial_runner.hpp"
#include "data/cache.hpp"
#include "hpo/binary_codec.hpp"
#include "hpo/harmonica.hpp"
#include "hpo/lasso.hpp"
#include "hpo/parity_features.hpp"
#include "inverse/inverse_designer.hpp"
#include "inverse/inverse_trainer.hpp"
#include "obs/obs.hpp"
#include "serve/session_store.hpp"
#include "serve_client.hpp"
#include "stats.hpp"
#include "timed_surrogate.hpp"

namespace isop::e2e {

namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// Sizes, job streams, metric tables
// ---------------------------------------------------------------------------

/// A measured window stops here even without enough samples; the run then
/// fails instead of running into the caller's timeout.
constexpr double kMaxWindowSeconds = 120.0;

/// Where runs keep their private per-setup directories and their traces,
/// relative to the working directory (the source checkout's root).
constexpr const char* kWorkRoot = ".bench_build/e2ebench-work";
constexpr const char* kTraceDir = ".bench_build/e2ebench-traces";

/// serve-mlp phase-1 arrival rate, jobs/s. Frozen at ~50% of the phase-2
/// capacity measured when this benchmark was introduced (see README.md), so
/// every later commit is offered the same load.
constexpr double kServeRatePerSecond = 5.0;

struct Sizes {
  std::size_t setupReps = 1;  ///< set per workload; setup_s is the median
  std::size_t datasetSamples = 1000;
  std::size_t mlpEpochs = 10;
  std::size_t cnnEpochs = 20;
  std::size_t inverseSamples = 512;
  std::size_t inverseEpochs = 24;
  std::size_t trialBudget = 200;  ///< Harmonica samples per iteration (trials)
  std::size_t serveBudget = 120;  ///< Harmonica samples per iteration (serve)
  /// Fixed-seed jobs at the head of every run; the quality metrics are
  /// computed over exactly these, so they repeat across runs and seeds.
  std::size_t referenceTrials = 24;
  std::size_t referenceServeJobs = 24;
  std::size_t referenceSolves = 2000;
  std::size_t burstJobs = 64;  ///< serve-mlp phase 2, into a 64-slot queue
  std::size_t psrFits = 20;    ///< PSR replay fits in traced runs
  std::size_t minBeyond = kMinSamplesBeyond;
};

Sizes sizesFor(bool smoke) {
  Sizes s;
  if (!smoke) return s;
  s.datasetSamples = 200;
  s.mlpEpochs = 2;
  s.cnnEpochs = 2;
  s.inverseSamples = 64;
  s.inverseEpochs = 2;
  s.trialBudget = 40;
  s.serveBudget = 40;
  s.referenceTrials = 3;
  s.referenceServeJobs = 3;
  s.referenceSolves = 20;
  s.burstJobs = 4;
  s.psrFits = 2;
  s.minBeyond = 1;
  return s;
}

std::uint64_t splitmix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Seed of job i: fixed for the reference jobs, drawn from --seed after
/// them. 31 bits, so it survives the protocol's signed-integer fields.
std::uint64_t jobSeed(std::uint64_t runSeed, std::size_t i, std::size_t reference) {
  if (i < reference) return 1 + i;
  return splitmix(splitmix(runSeed) + i) >> 33;
}

/// The paper's single-metric, NEXT-bounded and NEXT-weighted tasks, round
/// robin: the three job profiles with distinct costs.
const char* taskOf(std::size_t i) {
  static constexpr const char* kTasks[] = {"T1", "T3", "T4"};
  return kTasks[i % 3];
}

struct MetricSpec {
  const char* name;
  const char* unit;
};

constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},        {"latency_s.p50", "s"},     {"latency_s.tail", "s"},
    {"throughput_rps", "1/s"}, {"success_rate", "fraction"}, {"fom_mean", "fom"},
};

constexpr MetricSpec kPerLayer[] = {
    {"serve.queue_wait_s.p50", "s"},
    {"serve.queue_wait_s.p90", "s"},
    {"serve.run_s.p50", "s"},
    {"serve.run_s.p90", "s"},
    {"serve.overhead_s.p50", "s"},
    {"serve.memo_hit_rate", "fraction"},
    {"serve.gen_lag_s.max", "s"},
    {"core.harmonica_s", "s"},
    {"core.seeds_s", "s"},
    {"core.refine_s", "s"},
    {"core.rollout_s", "s"},
    {"core.harmonica.share", "fraction"},
    {"core.seeds.share", "fraction"},
    {"core.refine.share", "fraction"},
    {"core.rollout.share", "fraction"},
    {"core.unattributed_share", "fraction"},
    {"core.eval.rows", "rows/job"},
    {"core.eval.model_rows", "rows/job"},
    {"core.eval.memo_hits", "rows/job"},
    {"core.eval.dedup_rows", "rows/job"},
    {"core.eval.rows_per_batch", "rows"},
    {"core.eval.grad_rows_per_batch", "rows"},
    {"hpo.psr.design_s.p50", "s"},
    {"hpo.lasso.fit_s.p50", "s"},
    {"hpo.lasso.fit_s.mean", "s"},
    {"hpo.lasso.sweeps.p50", "sweeps"},
    {"hpo.lasso.converged_frac", "fraction"},
    {"ml.forward.calls", "calls/job"},
    {"ml.forward.rows_per_call", "rows"},
    {"ml.forward.us_per_call", "us"},
    {"ml.forward.busy_share", "fraction"},
    {"ml.gradient.calls", "calls/job"},
    {"ml.gradient.rows_per_call", "rows"},
    {"ml.gradient.us_per_call", "us"},
    {"ml.gradient.busy_share", "fraction"},
    {"samples_seen", "queries/job"},
    {"em.validations", "calls/job"},
    {"data.dataset_s", "s"},
    {"data.train_s", "s"},
    {"inverse.train_s", "s"},
    {"obs.overhead_frac", "fraction"},
};

/// One run's metrics: every name of its table is reported (0 where the
/// workload does not exercise that layer), and nothing else.
class MetricSet {
 public:
  explicit MetricSet(std::span<const MetricSpec> specs) {
    for (const MetricSpec& spec : specs) values_[spec.name] = {0.0, spec.unit};
  }

  void set(const std::string& name, double value) {
    const auto it = values_.find(name);
    if (it == values_.end()) throw std::logic_error("unknown metric '" + name + "'");
    it->second.value = value;
  }

  std::map<std::string, Metric> take() { return std::move(values_); }

 private:
  std::map<std::string, Metric> values_;
};

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

// ---------------------------------------------------------------------------
// Setup: private directories and training
// ---------------------------------------------------------------------------

/// A fresh directory under the run's work root, removed on destruction. It
/// becomes the data cache (ISOP_CACHE_DIR), so every setup generates its
/// dataset and trains cold, and a stale or truncated cache file
/// from an earlier run can neither skew nor abort it.
class PrivateDir {
 public:
  explicit PrivateDir(const std::string& root) {
    fs::create_directories(root);
    std::string pattern = root + "/run-XXXXXX";
    if (::mkdtemp(pattern.data()) == nullptr) {
      throw std::runtime_error("cannot create a private directory under " + root);
    }
    path_ = pattern;
    ::setenv("ISOP_CACHE_DIR", (path_ + "/cache").c_str(), 1);
  }
  ~PrivateDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  PrivateDir(const PrivateDir&) = delete;
  PrivateDir& operator=(const PrivateDir&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

struct Trained {
  std::shared_ptr<const ml::Surrogate> model;
  double datasetSeconds = 0.0;
  double trainSeconds = 0.0;
};

/// Dataset generation plus surrogate training in the current (empty) cache,
/// with fixed settings: every run trains the same model.
Trained trainSurrogate(const em::EmSimulator& simulator, bool cnn, const Sizes& sz) {
  data::GenerationConfig gen;
  gen.samples = sz.datasetSamples;
  ml::nn::TrainConfig train;
  train.epochs = cnn ? sz.cnnEpochs : sz.mlpEpochs;
  train.learningRate = 3e-3;
  train.lrDecay = 0.98;

  Trained out;
  Timer timer;
  data::getOrGenerateDataset(simulator, em::spaceByName(gen.spaceName), gen);
  out.datasetSeconds = timer.lap();
  if (cnn) {
    out.model = data::getOrTrainCnnSurrogate(simulator, gen, train);
  } else {
    out.model = data::getOrTrainMlpSurrogate(simulator, gen, train);
  }
  out.trainSeconds = timer.lap();
  return out;
}

// ---------------------------------------------------------------------------
// Per-layer accounting shared by the workloads
// ---------------------------------------------------------------------------

obs::ObsConfig tracedObs() {
  obs::ObsConfig config;
  config.metrics = true;
  config.trace = true;
  return config;
}

/// The pipeline's top-level stage spans (disjoint, in run order) and the
/// histograms their durations land in while metrics are on.
constexpr std::array<std::pair<const char*, const char*>, 4> kStages = {{
    {"harmonica", "span.stage1.harmonica.seconds"},
    {"seeds", "span.stage1b.seeds.seconds"},
    {"refine", "span.stage2.refine.seconds"},
    {"rollout", "span.stage3.rollout.seconds"},
}};

using StageSums = std::array<double, kStages.size()>;

StageSums stageSums() {
  StageSums sums{};
  for (std::size_t k = 0; k < kStages.size(); ++k) {
    sums[k] = obs::registry().histogram(kStages[k].second).sum();
  }
  return sums;
}

/// Stage time spent between two stageSums() snapshots, per job and as a
/// share of the jobs' summed wall time.
void setStageMetrics(MetricSet& m, const StageSums& before, const StageSums& after,
                     double jobs, double wallSum) {
  double attributed = 0.0;
  for (std::size_t k = 0; k < kStages.size(); ++k) {
    const double seconds = after[k] - before[k];
    const std::string stage = std::string("core.") + kStages[k].first;
    m.set(stage + "_s", ratio(seconds, jobs));
    m.set(stage + ".share", ratio(seconds, wallSum));
    attributed += seconds;
  }
  m.set("core.unattributed_share", wallSum == 0.0 ? 0.0 : 1.0 - attributed / wallSum);
}

struct EvalTotals {
  double rows = 0.0, modelRows = 0.0, memoHits = 0.0, dedupRows = 0.0, batches = 0.0;
  double gradRows = 0.0, gradBatches = 0.0;

  void add(const core::EvalEngineStats& s) {
    rows += static_cast<double>(s.rows);
    modelRows += static_cast<double>(s.modelRows);
    memoHits += static_cast<double>(s.memoHits);
    dedupRows += static_cast<double>(s.dedupedRows);
    batches += static_cast<double>(s.batches);
    gradRows += static_cast<double>(s.gradRows);
    gradBatches += static_cast<double>(s.gradBatches);
  }

  /// The eval engine's obs counters (recorded while metrics are on; the
  /// serve tier keeps them on). Used where the engine itself is private.
  static EvalTotals fromRegistry() {
    obs::Registry& reg = obs::registry();
    const auto count = [&reg](const char* name) {
      return static_cast<double>(reg.counter(name).value());
    };
    EvalTotals t;
    t.rows = count("eval.rows");
    t.modelRows = count("eval.model.rows");
    t.memoHits = count("eval.memo.hits");
    t.dedupRows = count("eval.dedup.rows");
    t.batches = count("eval.batches");
    t.gradRows = count("eval.grad.rows");
    t.gradBatches = count("eval.grad.batches");
    return t;
  }

  EvalTotals operator-(const EvalTotals& o) const {
    return {rows - o.rows,           modelRows - o.modelRows, memoHits - o.memoHits,
            dedupRows - o.dedupRows, batches - o.batches,     gradRows - o.gradRows,
            gradBatches - o.gradBatches};
  }
};

void setEvalMetrics(MetricSet& m, const EvalTotals& t, double jobs) {
  m.set("core.eval.rows", ratio(t.rows, jobs));
  m.set("core.eval.model_rows", ratio(t.modelRows, jobs));
  m.set("core.eval.memo_hits", ratio(t.memoHits, jobs));
  m.set("core.eval.dedup_rows", ratio(t.dedupRows, jobs));
  m.set("core.eval.rows_per_batch", ratio(t.rows, t.batches));
  m.set("core.eval.grad_rows_per_batch", ratio(t.gradRows, t.gradBatches));
}

/// `busy_share` sums call time over every thread that made a call, so it can
/// exceed 1 when a large batch fans out across the pool.
void setMlMetrics(MetricSet& m, const std::string& direction,
                  const TimedSurrogate::Counts& c, double jobs, double wallSum) {
  const auto calls = static_cast<double>(c.calls);
  const double seconds = static_cast<double>(c.nanos) * 1e-9;
  m.set("ml." + direction + ".calls", ratio(calls, jobs));
  m.set("ml." + direction + ".rows_per_call", ratio(static_cast<double>(c.rows), calls));
  m.set("ml." + direction + ".us_per_call", ratio(seconds * 1e6, calls));
  m.set("ml." + direction + ".busy_share", ratio(seconds, wallSum));
}

void setTimedMetrics(MetricSet& m, const TimedSurrogate& timed,
                     const TimedSurrogate::Counts& forwardBefore,
                     const TimedSurrogate::Counts& gradientBefore, double jobs,
                     double wallSum) {
  setMlMetrics(m, "forward", timed.forward() - forwardBefore, jobs, wallSum);
  setMlMetrics(m, "gradient", timed.gradient() - gradientBefore, jobs, wallSum);
}

/// Replays Harmonica's PSR step at the trial shape (samplesPerIter valid
/// designs over S1's 73 free bits, degree-2 parity features = 2,701
/// columns) and times the parity design matrix and the Lasso fit directly.
/// The targets are the workload surrogate's T1 objective values, so the fit
/// sees the same kind of landscape the global stage does.
void psrReplay(const ml::Surrogate& model, std::uint64_t seed, const Sizes& sz,
               MetricSet& m) {
  const obs::ScopedSpanTag tag("psr-replay");
  const hpo::HarmonicaConfig harmonica;
  const hpo::BinaryCodec codec(em::spaceByName("S1"));
  std::vector<std::size_t> positions(codec.totalBits());
  std::iota(positions.begin(), positions.end(), std::size_t{0});
  const std::vector<hpo::Monomial> monomials =
      hpo::enumerateMonomials(positions, harmonica.polyDegree);
  core::Objective objective(core::taskByName("T1").spec);
  const core::SurrogateObjective scorer(objective, model, /*smooth=*/true);

  std::vector<double> designSeconds, fitSeconds, sweeps;
  std::size_t converged = 0;
  for (std::size_t r = 0; r < sz.psrFits; ++r) {
    Rng rng(splitmix(seed ^ (0x5052ULL << 32)) + r);
    std::vector<hpo::BitVector> samples(sz.trialBudget);
    for (hpo::BitVector& s : samples) s = codec.sampleValid(rng);
    std::vector<double> values(samples.size());
    scorer.evaluateBitsBatch(codec, samples, values);

    Timer timer;
    Matrix design;
    {
      const obs::Span span("bench.psr.design");
      design = hpo::parityDesignMatrix(samples, monomials);
    }
    designSeconds.push_back(timer.lap());
    hpo::LassoResult lasso;
    {
      const obs::Span span("bench.psr.lasso");
      lasso = hpo::lassoFit(design, values, {.lambda = harmonica.lassoLambda});
    }
    fitSeconds.push_back(timer.lap());
    sweeps.push_back(static_cast<double>(lasso.iterations));
    if (lasso.converged) ++converged;
  }
  m.set("hpo.psr.design_s.p50", median(designSeconds));
  m.set("hpo.lasso.fit_s.p50", median(fitSeconds));
  m.set("hpo.lasso.fit_s.mean", mean(fitSeconds));
  m.set("hpo.lasso.sweeps.p50", median(sweeps));
  m.set("hpo.lasso.converged_frac",
        static_cast<double>(converged) / static_cast<double>(sz.psrFits));
}

/// All entries equal and non-empty: the first job answered the same top
/// design every time it ran (bitwise — JSON numbers round-trip exactly).
void requireIdentical(RunReport& report, const std::vector<std::string>& prints) {
  for (const std::string& p : prints) {
    if (p.empty() || p != prints.front()) {
      report.problems.push_back(
          "determinism: the first job's top design differed between its runs");
      return;
    }
  }
}

void windowExpired(RunReport& report, std::size_t have, std::size_t need) {
  report.problems.push_back("measured window hit " +
                            std::to_string(static_cast<int>(kMaxWindowSeconds)) +
                            " s with " + std::to_string(have) + " of " +
                            std::to_string(need) + " required samples");
}

/// Runs one job plainly and traced, alternating by `pair` which goes first
/// so neither side always finds the warmer caches, and checks that tracing
/// left the answer bitwise unchanged. Each callable returns the job's
/// fingerprint.
template <class Plain, class Traced>
void runPair(RunReport& report, std::size_t pair, const Plain& plain, const Traced& traced) {
  std::string plainPrint, tracedPrint;
  if (pair % 2 == 0) {
    plainPrint = plain();
    tracedPrint = traced();
  } else {
    tracedPrint = traced();
    plainPrint = plain();
  }
  if (plainPrint != tracedPrint) {
    report.problems.push_back("pair " + std::to_string(pair) +
                              ": the traced run changed the result");
  }
}

// ---------------------------------------------------------------------------
// trial-oracle / trial-cnn: closed-loop ISOP+ trials, one client
// ---------------------------------------------------------------------------

std::string fingerprint(const core::TrialOutcome& outcome) {
  return outcome.candidates.empty() ? std::string()
                                    : core::toJson(outcome.candidates.front()).dump();
}

RunReport runTrials(const RunOptions& opt, const Sizes& sz, double tailQ, bool cnn) {
  RunReport report;
  MetricSet metrics(opt.traced ? std::span<const MetricSpec>(kPerLayer)
                               : std::span<const MetricSpec>(kEndToEnd));
  const em::EmSimulator simulator{{}};
  const em::ParameterSpace space = em::spaceByName("S1");

  // The bench_trial job shape.
  core::MethodSpec method;
  method.name = "ISOP+";
  method.kind = core::MethodSpec::Kind::Isop;
  method.rolloutCandidates = 3;
  method.isop.harmonica.iterations = 2;
  method.isop.harmonica.samplesPerIter = sz.trialBudget;
  method.isop.candNum = 3;

  // One trial on a fresh runner (no memo shared across trials): every
  // sample is the cold latency of a first job on a new session.
  const auto runOne = [&](const std::shared_ptr<const ml::Surrogate>& model,
                          std::size_t i, double* wall) {
    core::TrialRunner runner(simulator, model, space, core::taskByName(taskOf(i)));
    const Timer timer;
    core::TrialStats stats = runner.run(method, 1, jobSeed(opt.seed, i, sz.referenceTrials));
    *wall = timer.seconds();
    ++report.attempted;
    core::TrialOutcome outcome = std::move(stats.outcomes.front());
    if (outcome.candidates.empty() || outcome.emCalls == 0) {
      ++report.failed;
      report.problems.push_back("trial " + std::to_string(i) +
                                " returned no EM-validated design");
    }
    return outcome;
  };

  // --- Setup, repeated: fresh cache, dataset + training, first job. ---
  std::vector<double> setupSeconds, datasetSeconds, trainSeconds;
  std::vector<std::string> prints;
  std::shared_ptr<const ml::Surrogate> model;
  std::unique_ptr<PrivateDir> dir;
  for (std::size_t rep = 0; rep < sz.setupReps; ++rep) {
    dir.reset();
    dir = std::make_unique<PrivateDir>(kWorkRoot);
    const Timer timer;
    if (cnn) {
      Trained trained = trainSurrogate(simulator, /*cnn=*/true, sz);
      model = std::move(trained.model);
      datasetSeconds.push_back(trained.datasetSeconds);
      trainSeconds.push_back(trained.trainSeconds);
    } else {
      model = std::make_shared<core::SimulatorSurrogate>(simulator);
      datasetSeconds.push_back(0.0);
      trainSeconds.push_back(0.0);
    }
    double wall = 0.0;
    prints.push_back(fingerprint(runOne(model, 0, &wall)));
    setupSeconds.push_back(timer.seconds());
  }

  // --- Measured window. Traced runs run every job twice, plain and traced
  // (alternating which goes first), so obs.overhead_frac is paired. ---
  const auto timed = std::make_shared<TimedSurrogate>(model);
  const TimedSurrogate::Counts forwardBefore = timed->forward();
  const TimedSurrogate::Counts gradientBefore = timed->gradient();
  const StageSums stagesBefore = stageSums();
  std::vector<double> walls, tracedWalls;
  EvalTotals eval;
  double samplesSeen = 0.0, emCalls = 0.0, refFom = 0.0;
  std::size_t refSuccesses = 0;
  const std::size_t minJobs =
      opt.traced ? minSamplesFor(0.5, sz.minBeyond)
                 : std::max(sz.referenceTrials, minSamplesFor(tailQ, sz.minBeyond));

  const Timer window;
  for (std::size_t i = 0;; ++i) {
    if (i >= minJobs && window.seconds() >= opt.seconds) break;
    if (window.seconds() >= kMaxWindowSeconds) {
      windowExpired(report, i, minJobs);
      break;
    }
    core::TrialOutcome plain;
    const auto runPlain = [&] {
      double wall = 0.0;
      plain = runOne(model, i, &wall);
      walls.push_back(wall);
      return fingerprint(plain);
    };
    const auto runTraced = [&] {
      const obs::Session session(tracedObs());
      const obs::ScopedSpanTag tag("job-" + std::to_string(i));
      const obs::Span span("bench.trial");
      double wall = 0.0;
      const core::TrialOutcome outcome = runOne(timed, i, &wall);
      tracedWalls.push_back(wall);
      eval.add(outcome.evalStats);
      samplesSeen += static_cast<double>(outcome.samplesSeen);
      emCalls += static_cast<double>(outcome.emCalls);
      return fingerprint(outcome);
    };
    if (opt.traced) {
      runPair(report, i, runPlain, runTraced);
    } else {
      runPlain();
    }
    if (i == 0) prints.push_back(fingerprint(plain));
    if (i < sz.referenceTrials) {
      if (plain.success) ++refSuccesses;
      refFom += plain.fom;
    }
  }
  requireIdentical(report, prints);

  if (!opt.traced) {
    metrics.set("setup_s", median(setupSeconds));
    metrics.set("latency_s.p50", median(walls));
    metrics.set("latency_s.tail", quantile(walls, tailQ, sz.minBeyond));
    metrics.set("throughput_rps", static_cast<double>(walls.size()) / sum(walls));
    metrics.set("success_rate", static_cast<double>(refSuccesses) /
                                    static_cast<double>(sz.referenceTrials));
    metrics.set("fom_mean", refFom / static_cast<double>(sz.referenceTrials));
  } else {
    const auto jobs = static_cast<double>(tracedWalls.size());
    const double wallSum = sum(tracedWalls);
    setStageMetrics(metrics, stagesBefore, stageSums(), jobs, wallSum);
    setEvalMetrics(metrics, eval, jobs);
    setTimedMetrics(metrics, *timed, forwardBefore, gradientBefore, jobs, wallSum);
    metrics.set("samples_seen", samplesSeen / jobs);
    metrics.set("em.validations", emCalls / jobs);
    metrics.set("data.dataset_s", median(datasetSeconds));
    metrics.set("data.train_s", median(trainSeconds));
    metrics.set("obs.overhead_frac", median(tracedWalls) / median(walls) - 1.0);
    const obs::Session session(tracedObs());
    psrReplay(*model, opt.seed, sz, metrics);
  }
  report.metrics = metrics.take();
  return report;
}

// ---------------------------------------------------------------------------
// serve-mlp: open-loop phase at a fixed rate, then a closed burst
// ---------------------------------------------------------------------------

const serve::SessionKey kServeKey{"mlp", "S1", "stripline"};

/// A bench_loadgen-shaped optimize job on the session's MLP.
json::Value serveJob(const std::string& id, std::size_t i, std::uint64_t seed,
                     long long priority, const Sizes& sz) {
  const auto integer = [](std::size_t v) {
    return json::Value::integer(static_cast<long long>(v));
  };
  json::Value r = json::Value::object();
  r.set("type", json::Value::string("submit"));
  r.set("id", json::Value::string(id));
  r.set("task", json::Value::string(taskOf(i)));
  r.set("space", json::Value::string(kServeKey.space));
  r.set("layer", json::Value::string(kServeKey.layer));
  r.set("surrogate", json::Value::string(kServeKey.surrogate));
  r.set("budget", integer(sz.serveBudget));
  r.set("iterations", integer(2));
  r.set("hyperband_resource", integer(9));
  r.set("refine_epochs", integer(20));
  r.set("local_seeds", integer(3));
  r.set("candidates", integer(2));
  r.set("trials", integer(1));
  r.set("seed", integer(static_cast<std::size_t>(seed)));
  r.set("priority", json::Value::integer(priority));
  return r;
}

/// The top-ranked design of a done job, "" when absent.
std::string topDesign(const ServeClient::JobRecord& record) {
  const json::Value* ranked = record.result.find("ranked");
  if (record.outcome != "done" || !ranked || !ranked->isArray() || ranked->size() == 0) {
    return {};
  }
  return ranked->at(std::size_t{0}).dump();
}

double resultNumber(const json::Value& result, const char* key, const char* sub = nullptr) {
  const json::Value* v = result.find(key);
  if (v && sub) v = v->find(sub);
  return v && v->isNumeric() ? v->asNumber() : 0.0;
}

double seconds(Clock::duration d) { return std::chrono::duration<double>(d).count(); }

RunReport runServe(const RunOptions& opt, const Sizes& sz, double tailQ) {
  RunReport report;
  MetricSet metrics(opt.traced ? std::span<const MetricSpec>(kPerLayer)
                               : std::span<const MetricSpec>(kEndToEnd));
  const em::EmSimulator simulator{{}};
  const std::size_t ref = sz.referenceServeJobs;
  constexpr long long kPriorities[] = {0, 5, 9};
  constexpr auto kWaitLimit = std::chrono::seconds(120);

  // --- Setup, repeated: fresh cache + state dir, dataset + MLP training,
  // model published to the state dir, server start, first job. ---
  std::vector<double> setupSeconds, datasetSeconds, trainSeconds;
  std::vector<std::string> prints;
  std::shared_ptr<const ml::Surrogate> model;
  std::unique_ptr<ServeClient> client;
  std::unique_ptr<PrivateDir> dir;
  for (std::size_t rep = 0; rep < sz.setupReps; ++rep) {
    client.reset();
    dir.reset();
    dir = std::make_unique<PrivateDir>(kWorkRoot);
    const Timer timer;
    Trained trained = trainSurrogate(simulator, /*cnn=*/false, sz);
    model = std::move(trained.model);
    datasetSeconds.push_back(trained.datasetSeconds);
    trainSeconds.push_back(trained.trainSeconds);
    serve::ServerConfig config;
    config.scheduler.workers = 2;
    config.scheduler.queueCapacity = 64;
    config.stateDir = dir->path() + "/state";
    // Without the published model the server would train its own, at its
    // much larger default size.
    if (!serve::SessionStore(config.stateDir).saveModel(kServeKey, *model)) {
      throw std::runtime_error("serve: cannot publish the MLP to the state dir");
    }
    client = std::make_unique<ServeClient>(config);
    client->submit("warmup", serveJob("warmup", 0, jobSeed(opt.seed, 0, ref), 0, sz),
                   Clock::now());
    ++report.attempted;
    if (client->waitAll(kWaitLimit) != 0) {
      report.problems.push_back("serve: the warm-up job never finished");
    }
    prints.push_back(topDesign(client->records().at("warmup")));
    setupSeconds.push_back(timer.seconds());
  }

  // --- Phase 1: open loop at a fixed rate, timed from each job's due
  // instant. Job k is due at a uniformly random instant of the k-th slot of
  // length 1/rate: Poisson arrivals made each run's tail depend on its own
  // burst pattern (README.md). Traced runs switch span capture on halfway.
  Rng arrivals(splitmix(opt.seed ^ 0xa441ULL));
  // Enough jobs for the tail and for the per-layer p90s of traced runs.
  const std::size_t minJobs =
      std::max(ref, minSamplesFor(std::max(tailQ, 0.9), sz.minBeyond));
  const StageSums stagesBefore = stageSums();
  const EvalTotals evalBefore = EvalTotals::fromRegistry();
  std::size_t phase1 = 0;
  std::size_t tracedFrom = std::numeric_limits<std::size_t>::max();
  const Clock::time_point epoch = Clock::now();
  for (;; ++phase1) {
    const double arrival =
        (static_cast<double>(phase1) + arrivals.uniform()) / kServeRatePerSecond;
    if (phase1 >= minJobs && arrival >= opt.seconds) break;
    if (arrival >= kMaxWindowSeconds) {
      windowExpired(report, phase1, minJobs);
      break;
    }
    const Clock::time_point due =
        epoch + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(arrival));
    // Everything but the write happens before the due instant.
    const std::string id = "p1-" + std::to_string(phase1);
    const long long priority = kPriorities[arrivals.below(std::size(kPriorities))];
    const json::Value request =
        serveJob(id, phase1, jobSeed(opt.seed, phase1, ref), priority, sz);
    if (opt.traced && tracedFrom > phase1 && arrival >= opt.seconds / 2) {
      obs::tracer().setEnabled(true);
      tracedFrom = phase1;
    }
    std::this_thread::sleep_until(due);
    client->submit(id, request, due);
  }
  if (client->waitAll(kWaitLimit) != 0) {
    report.problems.push_back("serve: phase-1 jobs left unanswered");
  }
  obs::tracer().setEnabled(false);
  const StageSums stagesAfter = stageSums();
  const EvalTotals evalPhase1 = EvalTotals::fromRegistry() - evalBefore;

  // --- Phase 2: a closed burst, back to back; the queue holds all of it. ---
  const Clock::time_point burstStart = Clock::now();
  for (std::size_t k = 0; k < sz.burstJobs; ++k) {
    const std::size_t i = phase1 + k;
    const std::string id = "p2-" + std::to_string(k);
    client->submit(id, serveJob(id, i, jobSeed(opt.seed, i, ref), 0, sz), Clock::now());
  }
  if (client->waitAll(kWaitLimit) != 0) {
    report.problems.push_back("serve: phase-2 jobs left unanswered");
  }
  if (client->protocolErrors() != 0) {
    report.problems.push_back("serve: the server rejected a request line");
  }
  const std::map<std::string, ServeClient::JobRecord> records = client->records();
  client->shutdown();

  // --- Aggregate. A job that is not `done` counts as failed; its latency
  // is not a sample. ---
  std::vector<double> latency, latencyUntraced, latencyTraced, queueWait, run, overhead;
  double lagMax = 0.0, rows = 0.0, memoHits = 0.0, samplesSeen = 0.0, emCalls = 0.0;
  double refSuccesses = 0.0, refFom = 0.0;
  Clock::time_point burstEnd = burstStart;
  for (std::size_t i = 0; i < phase1 + sz.burstJobs; ++i) {
    const bool burst = i >= phase1;
    const std::string id = burst ? "p2-" + std::to_string(i - phase1)
                                 : "p1-" + std::to_string(i);
    const ServeClient::JobRecord& r = records.at(id);
    ++report.attempted;
    const std::string top = topDesign(r);
    if (top.empty() || resultNumber(r.result, "eval", "em_calls") < 1.0) {
      ++report.failed;
      report.problems.push_back("serve: job " + id + " ended '" + r.outcome + "' " +
                                r.reason + " without an EM-validated design");
      continue;
    }
    if (i == 0) prints.push_back(top);
    if (burst) {
      burstEnd = std::max(burstEnd, r.terminal);
      continue;
    }
    const double e2e = seconds(r.terminal - r.due);
    latency.push_back(e2e);
    (i >= tracedFrom ? latencyTraced : latencyUntraced).push_back(e2e);
    queueWait.push_back(r.queueWaitSeconds);
    run.push_back(r.runSeconds);
    overhead.push_back(e2e - r.queueWaitSeconds - r.runSeconds);
    lagMax = std::max(lagMax, seconds(r.written - r.due));
    rows += resultNumber(r.result, "eval", "rows");
    memoHits += resultNumber(r.result, "eval", "memo_hits");
    samplesSeen += resultNumber(r.result, "avg_samples");
    emCalls += resultNumber(r.result, "avg_em_calls");
    if (i < ref) {
      refSuccesses += resultNumber(r.result, "successes");
      refFom += resultNumber(r.result, "fom_mean");
    }
  }
  requireIdentical(report, prints);
  // Open-loop discipline: a generator that falls behind its schedule
  // offers less load than the workload claims. Latency is timed from the
  // due instant either way; the limit is a tenth of the mean arrival gap
  // and well above the few-ms wake-up lag seen on a busy 4-vCPU VM.
  constexpr double kMaxGeneratorLagSeconds = 0.025;
  if (lagMax > kMaxGeneratorLagSeconds) {
    report.problems.push_back("serve: the arrival generator ran " +
                              std::to_string(lagMax * 1e3) + " ms behind schedule");
  }

  if (!opt.traced) {
    metrics.set("setup_s", median(setupSeconds));
    metrics.set("latency_s.p50", median(latency));
    metrics.set("latency_s.tail", quantile(latency, tailQ, sz.minBeyond));
    metrics.set("throughput_rps",
                static_cast<double>(sz.burstJobs) / seconds(burstEnd - burstStart));
    metrics.set("success_rate", refSuccesses / static_cast<double>(ref));
    metrics.set("fom_mean", refFom / static_cast<double>(ref));
  } else {
    const auto jobs = static_cast<double>(run.size());
    metrics.set("serve.queue_wait_s.p50", median(queueWait));
    metrics.set("serve.queue_wait_s.p90", quantile(queueWait, 0.9, sz.minBeyond));
    metrics.set("serve.run_s.p50", median(run));
    metrics.set("serve.run_s.p90", quantile(run, 0.9, sz.minBeyond));
    metrics.set("serve.overhead_s.p50", median(overhead));
    metrics.set("serve.memo_hit_rate", ratio(memoHits, rows));
    metrics.set("serve.gen_lag_s.max", lagMax);
    setStageMetrics(metrics, stagesBefore, stagesAfter, jobs, sum(run));
    setEvalMetrics(metrics, evalPhase1, jobs);
    metrics.set("samples_seen", ratio(samplesSeen, jobs));
    metrics.set("em.validations", ratio(emCalls, jobs));
    metrics.set("data.dataset_s", median(datasetSeconds));
    metrics.set("data.train_s", median(trainSeconds));
    if (!latencyTraced.empty() && !latencyUntraced.empty()) {
      metrics.set("obs.overhead_frac",
                  median(latencyTraced) / median(latencyUntraced) - 1.0);
    }
    const obs::Session session(tracedObs());
    psrReplay(*model, opt.seed, sz, metrics);
  }
  report.metrics = metrics.take();
  return report;
}

// ---------------------------------------------------------------------------
// inverse-mlp: closed-loop amortized solves (protocol-v4 inverse path)
// ---------------------------------------------------------------------------

struct InverseJob {
  core::Task task;
  inverse::TargetSpec target;
  std::uint64_t seed = 0;
};

/// An achievable ask: a random design's surrogate-predicted metrics become
/// the target spec (the bench_inverse construction).
InverseJob inverseJob(const ml::Surrogate& model, const em::ParameterSpace& space,
                      std::uint64_t seed) {
  InverseJob job;
  job.seed = seed;
  Rng rng(seed);
  const em::StackupParams design = space.sample(rng);
  const em::PerformanceMetrics predicted =
      em::PerformanceMetrics::fromArray(model.predictVec(design.values));
  job.task = core::taskByName("T1");
  job.task.spec.outputConstraints[0].target = predicted.z;
  job.target = {predicted.z, predicted.l, predicted.next};
  return job;
}

std::string fingerprint(const inverse::InverseResult& result) {
  if (result.ranked.empty()) return {};
  const inverse::InverseCandidate& top = result.ranked.front();
  json::Value v = json::Value::object();
  v.set("params", core::toJson(top.params));
  v.set("g", json::Value::number(top.g));
  v.set("fom", json::Value::number(top.fom));
  return v.dump();
}

RunReport runInverse(const RunOptions& opt, const Sizes& sz, double tailQ) {
  RunReport report;
  MetricSet metrics(opt.traced ? std::span<const MetricSpec>(kPerLayer)
                               : std::span<const MetricSpec>(kEndToEnd));
  const em::EmSimulator simulator{{}};
  const em::ParameterSpace space = em::spaceByName("S1");
  const std::size_t ref = sz.referenceSolves;
  inverse::InverseSolveConfig solveConfig;
  solveConfig.candidates = 3;
  // The session-style shared engine: memoizes like a serve session, with an
  // LRU cap so a long window stays small.
  core::EvalEngineConfig engineConfig;
  engineConfig.maxCacheEntries = 1u << 16;

  const auto solve = [&](const inverse::InverseModel& net, const core::EvalEngine& engine,
                         const InverseJob& job, double* wall) {
    inverse::InverseSolveConfig cfg = solveConfig;
    cfg.seed = job.seed;
    const Timer timer;
    inverse::InverseResult result =
        inverse::solveInverse(net, engine, job.task, job.target, cfg);
    *wall = timer.seconds();
    ++report.attempted;
    if (result.ranked.empty()) {
      ++report.failed;
      report.problems.push_back("inverse: solve returned no design");
    }
    return result;
  };

  // --- Setup, repeated: fresh cache, dataset + MLP training, inverse-net
  // training against the frozen MLP, first solve. ---
  std::vector<double> setupSeconds, datasetSeconds, trainSeconds, inverseSeconds;
  std::vector<std::string> prints;
  std::shared_ptr<const ml::Surrogate> model;
  std::unique_ptr<inverse::InverseModel> net;
  std::unique_ptr<core::EvalEngine> engine;
  std::unique_ptr<PrivateDir> dir;
  for (std::size_t rep = 0; rep < sz.setupReps; ++rep) {
    engine.reset();
    dir.reset();
    dir = std::make_unique<PrivateDir>(kWorkRoot);
    const Timer timer;
    Trained trained = trainSurrogate(simulator, /*cnn=*/false, sz);
    model = std::move(trained.model);
    datasetSeconds.push_back(trained.datasetSeconds);
    trainSeconds.push_back(trained.trainSeconds);
    const Timer inverseTimer;
    core::EvalEngineConfig trainEngineConfig;
    trainEngineConfig.memoize = false;
    const core::EvalEngine trainEngine(*model, simulator, trainEngineConfig);
    inverse::InverseTrainConfig trainConfig;
    trainConfig.samples = sz.inverseSamples;
    trainConfig.epochs = sz.inverseEpochs;
    net = inverse::trainInverseModel(trainEngine, space, trainConfig);
    inverseSeconds.push_back(inverseTimer.seconds());
    engine = std::make_unique<core::EvalEngine>(*model, simulator, engineConfig);
    double wall = 0.0;
    prints.push_back(fingerprint(
        solve(*net, *engine, inverseJob(*model, space, jobSeed(opt.seed, 0, ref)), &wall)));
    setupSeconds.push_back(timer.seconds());
  }

  // --- Measured window; every top design is EM-validated off the clock. ---
  const auto timed = std::make_shared<TimedSurrogate>(model);
  const core::EvalEngine tracedEngine(*timed, simulator, engineConfig);
  const TimedSurrogate::Counts forwardBefore = timed->forward();
  const TimedSurrogate::Counts gradientBefore = timed->gradient();
  const std::size_t simCallsBefore = simulator.callCount();
  // Traced runs pair only every 16th solve with a traced repeat: a pair per
  // solve would make a trace of hundreds of thousands of events.
  constexpr std::size_t kPairEvery = 16;
  std::vector<double> walls, pairedWalls, tracedWalls;
  double refSuccesses = 0.0, refFom = 0.0;
  const std::size_t minJobs =
      opt.traced ? kPairEvery * minSamplesFor(0.5, sz.minBeyond)
                 : std::max(ref, minSamplesFor(tailQ, sz.minBeyond));

  const Timer window;
  for (std::size_t i = 0;; ++i) {
    if (i >= minJobs && window.seconds() >= opt.seconds) break;
    if (window.seconds() >= kMaxWindowSeconds) {
      windowExpired(report, i, minJobs);
      break;
    }
    const InverseJob job = inverseJob(*model, space, jobSeed(opt.seed, i, ref));
    const bool paired = opt.traced && i % kPairEvery == 0;
    inverse::InverseResult plain;
    const auto runPlain = [&] {
      double wall = 0.0;
      plain = solve(*net, *engine, job, &wall);
      walls.push_back(wall);
      if (paired) pairedWalls.push_back(wall);
      return fingerprint(plain);
    };
    const auto runTraced = [&] {
      const obs::Session session(tracedObs());
      const obs::ScopedSpanTag tag("solve-" + std::to_string(i));
      const obs::Span span("bench.inverse.solve");
      double wall = 0.0;
      const inverse::InverseResult result = solve(*net, tracedEngine, job, &wall);
      tracedWalls.push_back(wall);
      return fingerprint(result);
    };
    if (paired) {
      runPair(report, i / kPairEvery, runPlain, runTraced);
    } else {
      runPlain();
    }
    if (i == 0) prints.push_back(fingerprint(plain));
    if (plain.ranked.empty()) continue;
    const em::StackupParams& top = plain.ranked.front().params;
    const em::PerformanceMetrics validated = simulator.simulate(top);
    if (i < ref) {
      const core::Objective objective(job.task.spec);
      if (objective.feasible(validated, top)) refSuccesses += 1.0;
      refFom += objective.fomValue(validated);
    }
  }
  requireIdentical(report, prints);

  if (!opt.traced) {
    metrics.set("setup_s", median(setupSeconds));
    metrics.set("latency_s.p50", median(walls));
    metrics.set("latency_s.tail", quantile(walls, tailQ, sz.minBeyond));
    metrics.set("throughput_rps", static_cast<double>(walls.size()) / sum(walls));
    metrics.set("success_rate", refSuccesses / static_cast<double>(ref));
    metrics.set("fom_mean", refFom / static_cast<double>(ref));
  } else {
    const auto jobs = static_cast<double>(tracedWalls.size());
    const double wallSum = sum(tracedWalls);
    EvalTotals eval;
    eval.add(tracedEngine.stats());
    setEvalMetrics(metrics, eval, jobs);
    setTimedMetrics(metrics, *timed, forwardBefore, gradientBefore, jobs, wallSum);
    metrics.set("samples_seen", static_cast<double>(timed->queryCount()) / jobs);
    // One EM validation per answered spec (only the plain pass validates).
    metrics.set("em.validations",
                static_cast<double>(simulator.callCount() - simCallsBefore) /
                    static_cast<double>(walls.size()));
    metrics.set("data.dataset_s", median(datasetSeconds));
    metrics.set("data.train_s", median(trainSeconds));
    metrics.set("inverse.train_s", median(inverseSeconds));
    metrics.set("obs.overhead_frac", median(tracedWalls) / median(pairedWalls) - 1.0);
    const obs::Session session(tracedObs());
    psrReplay(*model, opt.seed, sz, metrics);
  }
  report.metrics = metrics.take();
  return report;
}

struct WorkloadDef {
  const char* name;
  /// The percentile latency_s.tail reports: as high as the workload's
  /// sample count supports while staying steady run to run (README.md).
  double tailQ;
  /// Setups per run: more where one setup is cheap and so noisier.
  std::size_t setupReps;
  RunReport (*run)(const RunOptions&, const Sizes&, double tailQ);
};

constexpr WorkloadDef kWorkloads[] = {
    {"trial-oracle", 0.90, 5,
     [](const RunOptions& o, const Sizes& s, double q) { return runTrials(o, s, q, false); }},
    {"trial-cnn", 0.75, 3,
     [](const RunOptions& o, const Sizes& s, double q) { return runTrials(o, s, q, true); }},
    {"serve-mlp", 0.90, 5, runServe},
    {"inverse-mlp", 0.90, 3, runInverse},
};

}  // namespace

const std::vector<std::string>& workloadNames() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    for (const WorkloadDef& w : kWorkloads) out.emplace_back(w.name);
    return out;
  }();
  return names;
}

RunReport runWorkload(const RunOptions& options) {
  for (const WorkloadDef& w : kWorkloads) {
    if (options.workload != w.name) continue;
    obs::tracer().clear();
    Sizes sizes = sizesFor(options.smoke);
    sizes.setupReps = options.smoke ? 1 : w.setupReps;
    RunReport report = w.run(options, sizes, w.tailQ);
    if (options.traced) {
      const std::string path = std::string(kTraceDir) + "/" + options.workload + "-seed" +
                               std::to_string(options.seed) + ".json";
      std::error_code ec;
      fs::create_directories(kTraceDir, ec);
      if (!obs::tracer().writeChromeTrace(path)) {
        report.problems.push_back("cannot write trace " + path);
      }
    }
    return report;
  }
  throw std::invalid_argument("unknown workload '" + options.workload + "'");
}

}  // namespace isop::e2e
