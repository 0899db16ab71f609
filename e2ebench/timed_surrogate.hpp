// Bench-side decorator that attributes time to the ml layer: forwards every
// Surrogate virtual to the wrapped model and times each call, without any
// change to the program. Used only by traced runs.
//
// Query billing: the optimizer reads "samples seen" from the surrogate it was
// handed (this wrapper), so the wrapper bills its own counter exactly as the
// wrapped model bills its own — per predicted row. Outputs are the wrapped
// model's outputs, bit for bit.
#pragma once

#include <atomic>
#include <chrono>
#include <memory>

#include "ml/surrogate.hpp"
#include "obs/trace.hpp"

namespace isop::e2e {

class TimedSurrogate final : public ml::Surrogate {
 public:
  /// Per-direction call accounting (forward = predict, gradient = input
  /// gradients). Monotone; diff two snapshots for an interval.
  struct Counts {
    std::uint64_t calls = 0;
    std::uint64_t rows = 0;
    std::uint64_t nanos = 0;
  };

  explicit TimedSurrogate(std::shared_ptr<const ml::Surrogate> inner)
      : inner_(std::move(inner)) {}

  std::size_t inputDim() const override { return inner_->inputDim(); }
  std::size_t outputDim() const override { return inner_->outputDim(); }
  bool hasInputGradient() const override { return inner_->hasInputGradient(); }

  void predict(std::span<const double> x, std::span<double> out) const override {
    const Timed timed(forward_, 1, "ml.forward");
    inner_->predict(x, out);
    countQuery(1);
  }

  void predictBatch(const Matrix& x, Matrix& out) const override {
    const Timed timed(forward_, x.rows(), "ml.forward");
    inner_->predictBatch(x, out);
    countQuery(x.rows());
  }

  void inputGradient(std::span<const double> x, std::size_t outputIndex,
                     std::span<double> grad) const override {
    const Timed timed(gradient_, 1, "ml.gradient");
    inner_->inputGradient(x, outputIndex, grad);
  }

  void inputGradientBatch(const Matrix& x, std::size_t outputIndex,
                          Matrix& grads) const override {
    const Timed timed(gradient_, x.rows(), "ml.gradient");
    inner_->inputGradientBatch(x, outputIndex, grads);
  }

  Counts forward() const { return forward_.snapshot(); }
  Counts gradient() const { return gradient_.snapshot(); }

 private:
  struct Counters {
    std::atomic<std::uint64_t> calls{0};
    std::atomic<std::uint64_t> rows{0};
    std::atomic<std::uint64_t> nanos{0};

    Counts snapshot() const {
      return {calls.load(std::memory_order_relaxed), rows.load(std::memory_order_relaxed),
              nanos.load(std::memory_order_relaxed)};
    }
  };

  /// Times one call and records it as a trace span (tagged with the calling
  /// thread's job tag, when tracing is on).
  class Timed {
   public:
    Timed(Counters& counters, std::size_t rows, const char* spanName)
        : counters_(counters),
          rows_(rows),
          span_(spanName),
          start_(std::chrono::steady_clock::now()) {}
    ~Timed() {
      const auto nanos = std::chrono::duration_cast<std::chrono::nanoseconds>(
                             std::chrono::steady_clock::now() - start_)
                             .count();
      counters_.calls.fetch_add(1, std::memory_order_relaxed);
      counters_.rows.fetch_add(rows_, std::memory_order_relaxed);
      counters_.nanos.fetch_add(static_cast<std::uint64_t>(nanos),
                                std::memory_order_relaxed);
    }
    Timed(const Timed&) = delete;
    Timed& operator=(const Timed&) = delete;

   private:
    Counters& counters_;
    std::size_t rows_;
    obs::Span span_;
    std::chrono::steady_clock::time_point start_;
  };

  std::shared_ptr<const ml::Surrogate> inner_;
  mutable Counters forward_;
  mutable Counters gradient_;
};

inline TimedSurrogate::Counts operator-(const TimedSurrogate::Counts& a,
                                        const TimedSurrogate::Counts& b) {
  return {a.calls - b.calls, a.rows - b.rows, a.nanos - b.nanos};
}

}  // namespace isop::e2e
