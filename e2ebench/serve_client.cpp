#include "serve_client.hpp"

#include <unistd.h>

#include <cerrno>
#include <optional>
#include <stdexcept>

namespace isop::e2e {

namespace {

bool isTerminal(const std::string& event) {
  return event == "done" || event == "cancelled" || event == "failed" ||
         event == "rejected";
}

double numberField(const json::Value& event, const char* key) {
  const json::Value* v = event.find(key);
  return v && v->isNumeric() ? v->asNumber() : 0.0;
}

}  // namespace

ServeClient::ServeClient(serve::ServerConfig config) {
  if (::pipe(toServer_) != 0 || ::pipe(fromServer_) != 0) {
    throw std::runtime_error("serve client: pipe() failed");
  }
  serverIn_ = ::fdopen(toServer_[0], "r");
  serverOut_ = ::fdopen(fromServer_[1], "w");
  if (!serverIn_ || !serverOut_) throw std::runtime_error("serve client: fdopen() failed");
  server_ = std::make_unique<serve::Server>(std::move(config), serverIn_, serverOut_);
  serverThread_ = std::thread([this] { server_->run(); });
  readerThread_ = std::thread([this] { readerLoop(); });
}

ServeClient::~ServeClient() { shutdown(); }

void ServeClient::writeLine(const std::string& line) {
  std::size_t off = 0;
  while (off < line.size()) {
    const ssize_t n = ::write(toServer_[1], line.data() + off, line.size() - off);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return;  // server gone; the job stays pending and is counted
    off += static_cast<std::size_t>(n);
  }
}

void ServeClient::submit(const std::string& id, const json::Value& request,
                         Clock::time_point due) {
  const std::string line = request.dump() + "\n";
  {
    std::lock_guard<std::mutex> lock(mutex_);
    JobRecord& record = jobs_[id];
    record.due = due;
    record.written = Clock::now();
    ++pending_;
  }
  writeLine(line);
}

std::size_t ServeClient::waitAll(std::chrono::milliseconds timeout) {
  std::unique_lock<std::mutex> lock(mutex_);
  cv_.wait_for(lock, timeout, [this] { return pending_ == 0; });
  return pending_;
}

std::map<std::string, ServeClient::JobRecord> ServeClient::records() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return jobs_;
}

std::size_t ServeClient::protocolErrors() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return protocolErrors_;
}

void ServeClient::handleEvent(const json::Value& event) {
  const json::Value* kind = event.find("event");
  if (!kind || kind->kind() != json::Value::Kind::String) return;
  const std::string& name = kind->asString();
  std::lock_guard<std::mutex> lock(mutex_);
  if (name == "error") {
    ++protocolErrors_;
    return;
  }
  const json::Value* id = event.find("id");
  if (!id || id->kind() != json::Value::Kind::String) return;
  auto it = jobs_.find(id->asString());
  if (it == jobs_.end()) return;
  JobRecord& record = it->second;
  if (name == "started") {
    record.queueWaitSeconds = numberField(event, "queue_wait_seconds");
    return;
  }
  if (!isTerminal(name) || !record.outcome.empty()) return;
  record.outcome = name;
  record.terminal = Clock::now();
  record.runSeconds = numberField(event, "run_seconds");
  if (const json::Value* reason = event.find("reason");
      reason && reason->kind() == json::Value::Kind::String) {
    record.reason = reason->asString();
  }
  if (const json::Value* result = event.find("result")) record.result = *result;
  --pending_;
  cv_.notify_all();
}

void ServeClient::readerLoop() {
  std::string buffer;
  char chunk[8192];
  for (;;) {
    const ssize_t n = ::read(fromServer_[0], chunk, sizeof chunk);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return;
    buffer.append(chunk, static_cast<std::size_t>(n));
    std::size_t start = 0;
    for (std::size_t pos; (pos = buffer.find('\n', start)) != std::string::npos;
         start = pos + 1) {
      if (pos == start) continue;
      if (const std::optional<json::Value> event =
              json::Value::parse(std::string_view(buffer).substr(start, pos - start))) {
        handleEvent(*event);
      }
    }
    buffer.erase(0, start);
  }
}

void ServeClient::shutdown() {
  if (stopped_) return;
  stopped_ = true;
  // A shutdown request drains the server (queued jobs are rejected, running
  // ones finish); closing the request pipe is the same signal (stdin EOF)
  // and also covers a server that stopped reading.
  writeLine("{\"type\":\"shutdown\"}\n");
  ::close(toServer_[1]);
  serverThread_.join();
  std::fclose(serverIn_);
  // Closing the server's write end is what EOFs the reader; join after.
  std::fclose(serverOut_);
  readerThread_.join();
  ::close(fromServer_[0]);
}

}  // namespace isop::e2e
