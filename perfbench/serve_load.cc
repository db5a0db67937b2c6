#include "serve_load.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <mutex>
#include <thread>

namespace perfbench {

using muds::Result;
using muds::Status;

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

bool SendAll(int fd, const char* data, size_t n) {
  while (n > 0) {
    const ssize_t wrote = ::send(fd, data, n, MSG_NOSIGNAL);
    if (wrote <= 0) return false;
    data += wrote;
    n -= static_cast<size_t>(wrote);
  }
  return true;
}

bool RecvAll(int fd, char* data, size_t n) {
  while (n > 0) {
    const ssize_t got = ::recv(fd, data, n, 0);
    if (got <= 0) return false;
    data += got;
    n -= static_cast<size_t>(got);
  }
  return true;
}

// Waits up to `timeout_ms` for `pid` to exit; true once it has been reaped.
bool WaitExit(pid_t pid, int timeout_ms) {
  for (int waited = 0; waited <= timeout_ms; waited += 10) {
    int status = 0;
    const pid_t done = ::waitpid(pid, &status, WNOHANG);
    if (done == pid || done < 0) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return false;
}

double Number(const muds::json::Value& object, const char* key) {
  const muds::json::Value* value = object.Find(key);
  return value != nullptr && value->IsNumber() ? value->number : 0.0;
}

}  // namespace

const char* JobKindName(JobKind kind) {
  switch (kind) {
    case JobKind::kFresh:
      return "fresh";
    case JobKind::kRepeat:
      return "repeat";
    case JobKind::kAppend:
      return "append";
  }
  return "unknown";
}

// ---------------------------------------------------------------- Daemon --

Result<std::unique_ptr<Daemon>> Daemon::Start(const std::string& binary,
                                              int threads) {
  int out[2];
  if (::pipe(out) != 0) return Status::IoError("pipe failed");
  const std::string threads_flag = "--threads=" + std::to_string(threads);
  const pid_t pid = ::fork();
  if (pid < 0) return Status::IoError("fork failed");
  if (pid == 0) {
    ::dup2(out[1], STDOUT_FILENO);
    ::close(out[0]);
    ::close(out[1]);
    // No admission rejects: an overloaded ladder step must show up as a
    // growing backlog, not as refused jobs.
    ::execl(binary.c_str(), binary.c_str(), "--port=0", threads_flag.c_str(),
            "--max-jobs=1000000", static_cast<char*>(nullptr));
    ::_exit(127);
  }
  ::close(out[1]);
  std::unique_ptr<Daemon> daemon(new Daemon());
  daemon->pid_ = pid;
  // The daemon prints exactly one handshake line, then nothing on stdout.
  std::string line;
  char c = 0;
  while (::read(out[0], &c, 1) == 1 && c != '\n') line += c;
  ::close(out[0]);
  const std::string prefix = "MUDS_SERVE_PORT=";
  if (line.rfind(prefix, 0) != 0) {
    return Status::IoError("no port handshake from " + binary);
  }
  daemon->port_ = std::atoi(line.c_str() + prefix.size());
  return daemon;
}

Daemon::~Daemon() {
  if (pid_ > 0) {
    (void)Stop();
  }
}

Status Daemon::Stop() {
  if (pid_ <= 0) return Status::Ok();
  {
    Result<std::unique_ptr<Connection>> connection = Connection::Open(port_);
    if (connection.ok()) (void)connection.value()->Call("{\"cmd\":\"shutdown\"}");
  }
  const bool exited = WaitExit(pid_, 20000);
  if (!exited) {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, nullptr, 0);
  }
  pid_ = -1;
  return exited ? Status::Ok() : Status::IoError("daemon had to be killed");
}

int64_t Daemon::StatusFieldKb(const char* field) const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string key;
  while (in >> key) {
    if (key == field) {
      int64_t kb = -1;
      in >> kb;
      return kb;
    }
    std::getline(in, key);
  }
  return -1;
}

int64_t Daemon::RssKb() const { return StatusFieldKb("VmRSS:"); }
int64_t Daemon::PeakRssKb() const { return StatusFieldKb("VmHWM:"); }

// ------------------------------------------------------------ Connection --

Result<std::unique_ptr<Connection>> Connection::Open(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::IoError("socket failed");
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(static_cast<uint16_t>(port));
  address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&address), sizeof(address)) !=
      0) {
    ::close(fd);
    return Status::IoError("connect to port " + std::to_string(port) +
                           " failed");
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return std::unique_ptr<Connection>(new Connection(fd));
}

Connection::~Connection() {
  if (fd_ >= 0) ::close(fd_);
}

Result<std::string> Connection::Call(const std::string& request) {
  const uint32_t length = htonl(static_cast<uint32_t>(request.size()));
  if (!SendAll(fd_, reinterpret_cast<const char*>(&length), 4) ||
      !SendAll(fd_, request.data(), request.size())) {
    return Status::IoError("send failed");
  }
  // The daemon writes a frame as two sends (length, then payload) without
  // TCP_NODELAY, so a delayed ACK from this side would hold the payload
  // back by Nagle's algorithm for up to ~40 ms per response. Acknowledge
  // immediately instead; the flag is one-shot, so re-arm it per call.
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_QUICKACK, &one, sizeof(one));
  uint32_t response_length = 0;
  if (!RecvAll(fd_, reinterpret_cast<char*>(&response_length), 4)) {
    return Status::IoError("connection closed");
  }
  std::string response(ntohl(response_length), '\0');
  if (!RecvAll(fd_, response.data(), response.size())) {
    return Status::IoError("connection closed mid-frame");
  }
  return response;
}

// ----------------------------------------------------------------- Phase --

PhaseResult RunPhase(Connection& submitter,
                     std::vector<std::unique_ptr<Connection>>& collectors,
                     size_t num_jobs, const std::vector<double>& due_s,
                     const std::function<Job(size_t)>& prepare,
                     const ResultDigester& digest) {
  PhaseResult phase;
  phase.jobs.resize(num_jobs);

  struct Pending {
    size_t index;
    int64_t id;
    std::string expected;
  };
  std::mutex mutex;
  std::condition_variable ready;
  std::deque<Pending> pending;
  bool submitting = true;
  const Clock::time_point start = Clock::now();

  auto collect = [&](Connection* connection) {
    for (;;) {
      Pending job;
      {
        std::unique_lock<std::mutex> lock(mutex);
        ready.wait(lock, [&] { return !pending.empty() || !submitting; });
        if (pending.empty()) return;
        job = std::move(pending.front());
        pending.pop_front();
      }
      JobOutcome& outcome = phase.jobs[job.index];
      Result<std::string> response = connection->Call(
          "{\"cmd\":\"result\",\"job\":" + std::to_string(job.id) +
          ",\"timeout_ms\":120000}");
      outcome.latency_ms =
          (SecondsSince(start) - due_s[job.index]) * 1e3;
      if (!response.ok()) {
        outcome.error = response.status().ToString();
        continue;
      }
      outcome.response_bytes = response.value().size();
      Result<muds::json::Value> parsed = muds::json::Parse(response.value());
      if (!parsed.ok()) {
        outcome.error = "unparsable result frame";
        continue;
      }
      const muds::json::Value& root = parsed.value();
      const muds::json::Value* state = root.Find("state");
      if (state == nullptr || !state->IsString() || state->string != "done") {
        const muds::json::Value* error = root.Find("error");
        outcome.error = error != nullptr && error->IsString()
                            ? error->string
                            : "job did not finish";
        continue;
      }
      outcome.queue_wait_ms = Number(root, "queue_wait_ns") / 1e6;
      const muds::json::Value* hit = root.Find("catalog_hit");
      outcome.catalog_hit = hit != nullptr && hit->boolean;
      const muds::json::Value* result = root.Find("result");
      if (result == nullptr) {
        outcome.error = "done without a result document";
        continue;
      }
      if (const muds::json::Value* counters = result->Find("counters")) {
        outcome.screened_out = static_cast<int64_t>(
            Number(*counters, "incremental_screened_out"));
        outcome.revalidated = static_cast<int64_t>(
            Number(*counters, "incremental_revalidated"));
      }
      outcome.mismatch = digest(*result) != job.expected;
      outcome.ok = !outcome.mismatch;
      if (outcome.mismatch) outcome.error = "result mismatch";
    }
  };
  std::vector<std::thread> threads;
  for (auto& connection : collectors) {
    threads.emplace_back(collect, connection.get());
  }

  for (size_t i = 0; i < num_jobs; ++i) {
    const Job job = prepare(i);
    JobOutcome& outcome = phase.jobs[i];
    outcome.kind = job.kind;
    const Clock::time_point due =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(due_s[i]));
    std::this_thread::sleep_until(due);
    outcome.late_ms = (SecondsSince(start) - due_s[i]) * 1e3;
    Result<std::string> ack = submitter.Call(*job.request);
    Result<muds::json::Value> parsed =
        ack.ok() ? muds::json::Parse(ack.value())
                 : Result<muds::json::Value>(ack.status());
    const muds::json::Value* id =
        parsed.ok() ? parsed.value().Find("job") : nullptr;
    if (id == nullptr || !id->IsNumber()) {
      outcome.error = ack.ok() ? "submit rejected: " + ack.value()
                               : ack.status().ToString();
      continue;
    }
    {
      std::lock_guard<std::mutex> lock(mutex);
      pending.push_back({i, static_cast<int64_t>(id->number), job.expected});
    }
    ready.notify_one();
  }
  phase.backlog_at_end = Backlog(submitter);
  {
    std::lock_guard<std::mutex> lock(mutex);
    submitting = false;
  }
  ready.notify_all();
  for (std::thread& thread : threads) thread.join();
  phase.elapsed_s = SecondsSince(start);
  return phase;
}

double StatsRoundTripMs(Connection& connection, int count) {
  std::vector<double> samples;
  for (int i = 0; i < count; ++i) {
    const Clock::time_point start = Clock::now();
    if (!connection.Call("{\"cmd\":\"stats\"}").ok()) break;
    samples.push_back(SecondsSince(start) * 1e3);
  }
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

int64_t Backlog(Connection& connection) {
  Result<std::string> response = connection.Call("{\"cmd\":\"stats\"}");
  if (!response.ok()) return -1;
  Result<muds::json::Value> parsed = muds::json::Parse(response.value());
  if (!parsed.ok()) return -1;
  const muds::json::Value* scheduler = parsed.value().Find("scheduler");
  if (scheduler == nullptr) return -1;
  return static_cast<int64_t>(Number(*scheduler, "queued") +
                              Number(*scheduler, "running"));
}

}  // namespace perfbench
