// In-process serve client for the serve-mlp workload: runs a serve::Server on
// its own thread over the stdio pipe transport (exactly what isop_cli
// --serve speaks), writes request lines from the caller's thread, and
// collects every job's lifecycle events on a reader thread.
//
// Open-loop timing: each job carries the instant it was *due* to be sent as
// well as the instant it was written, so latency is measured from the
// schedule, and a stalled generator shows as lag instead of silently
// shortening every later job's latency.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hpp"
#include "serve/server.hpp"

namespace isop::e2e {

class ServeClient {
 public:
  using Clock = std::chrono::steady_clock;

  struct JobRecord {
    Clock::time_point due{};
    Clock::time_point written{};
    Clock::time_point terminal{};
    std::string outcome;  ///< done|cancelled|failed|rejected; "" while pending
    std::string reason;   ///< rejected/failed cause
    double queueWaitSeconds = 0.0;  ///< from the `started` event
    double runSeconds = 0.0;        ///< from the terminal event
    json::Value result;             ///< done.result
  };

  /// Starts the server and the event reader. Throws std::runtime_error when
  /// the pipes cannot be created.
  explicit ServeClient(serve::ServerConfig config);
  /// Shuts the server down (if not done yet) and joins both threads.
  ~ServeClient();

  ServeClient(const ServeClient&) = delete;
  ServeClient& operator=(const ServeClient&) = delete;

  /// Writes one request line for job `id` (the request's "id" field). Only
  /// the owning thread may call this.
  void submit(const std::string& id, const json::Value& request, Clock::time_point due);

  /// Blocks until every submitted job has a terminal event or `timeout`
  /// passes; returns the number of jobs still without one.
  std::size_t waitAll(std::chrono::milliseconds timeout);

  /// Snapshot of the per-job records (job id order).
  std::map<std::string, JobRecord> records() const;

  /// Server-level `error` events seen (protocol errors): each one is a
  /// request the benchmark wrote that the server could not parse.
  std::size_t protocolErrors() const;

  /// Drains the server (running jobs finish) and joins its thread and the
  /// reader. Idempotent.
  void shutdown();

 private:
  void readerLoop();
  void handleEvent(const json::Value& event);
  void writeLine(const std::string& line);

  int toServer_[2] = {-1, -1};
  int fromServer_[2] = {-1, -1};
  std::FILE* serverIn_ = nullptr;
  std::FILE* serverOut_ = nullptr;
  bool stopped_ = false;

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::map<std::string, JobRecord> jobs_;
  std::size_t pending_ = 0;
  std::size_t protocolErrors_ = 0;

  // Declared last: they run against everything above.
  std::unique_ptr<serve::Server> server_;
  std::thread serverThread_;
  std::thread readerThread_;
};

}  // namespace isop::e2e
