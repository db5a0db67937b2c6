// Open-loop load against a muds_serve daemon: the child process, the framed
// JSON client, and the timed traffic phases of the end-to-end benchmark.
#ifndef PERFBENCH_SERVE_LOAD_H_
#define PERFBENCH_SERVE_LOAD_H_

#include <sys/types.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/status.h"

namespace perfbench {

/// A muds_serve child process on an ephemeral loopback port. The destructor
/// stops it (protocol shutdown, then SIGKILL if it does not exit) and reaps
/// it, so no daemon outlives the benchmark.
class Daemon {
 public:
  static muds::Result<std::unique_ptr<Daemon>> Start(const std::string& binary,
                                                     int threads);
  ~Daemon();

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  int port() const { return port_; }

  /// Current and peak resident set size from /proc, in KiB (-1 if gone).
  int64_t RssKb() const;
  int64_t PeakRssKb() const;

  /// Graceful shutdown over the protocol; waits for the process to exit.
  muds::Status Stop();

 private:
  Daemon() = default;
  int64_t StatusFieldKb(const char* field) const;

  pid_t pid_ = -1;
  int port_ = 0;
};

/// One persistent connection speaking the daemon's frame format (4-byte
/// big-endian length + JSON). Blocking; one request in flight at a time.
class Connection {
 public:
  static muds::Result<std::unique_ptr<Connection>> Open(int port);
  ~Connection();

  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Sends one request frame and returns the response frame.
  muds::Result<std::string> Call(const std::string& request);

 private:
  explicit Connection(int fd) : fd_(fd) {}
  int fd_ = -1;
};

enum class JobKind { kFresh, kRepeat, kAppend };
const char* JobKindName(JobKind kind);

/// One job of an open-loop schedule. `request` is the complete submit frame;
/// `expected` the canonical dependency digest its result must have.
struct Job {
  JobKind kind = JobKind::kFresh;
  std::shared_ptr<const std::string> request;
  std::string expected;
};

/// What happened to one job, as seen by the client.
struct JobOutcome {
  JobKind kind = JobKind::kFresh;
  bool ok = false;         // Accepted, done, and the result matched.
  bool mismatch = false;   // Done, but the dependency sets differ.
  std::string error;       // Rejection / failure / client error detail.
  double latency_ms = 0;   // Due time -> result received.
  double late_ms = 0;      // Submission time - due time (generator lag).
  double queue_wait_ms = 0;
  bool catalog_hit = false;
  size_t response_bytes = 0;
  int64_t screened_out = 0;  // Incremental counters of append results.
  int64_t revalidated = 0;
};

struct PhaseResult {
  std::vector<JobOutcome> jobs;
  /// queued + running jobs (daemon `stats`) right after the last submit.
  int64_t backlog_at_end = 0;
  /// Phase start -> last result received.
  double elapsed_s = 0;
};

/// Canonical digest of the dependency sets in one daemon `result` document
/// (the muds_profile --json object the response carries).
using ResultDigester =
    std::function<std::string(const muds::json::Value& result)>;

/// Replays `schedule` open-loop: one submitter connection sends each job at
/// its due time (`prepare` builds the job just before, outside the due-time
/// path), and `collectors` further connections each block on the oldest
/// outstanding job's `result`. Latency is charged from the due time, so a
/// late submitter or a stalled daemon shows up in the jobs behind it.
PhaseResult RunPhase(Connection& submitter,
                     std::vector<std::unique_ptr<Connection>>& collectors,
                     size_t num_jobs, const std::vector<double>& due_s,
                     const std::function<Job(size_t)>& prepare,
                     const ResultDigester& digest);

/// Median round trip of `count` `stats` requests on an idle daemon, in ms.
double StatsRoundTripMs(Connection& connection, int count);

/// queued + running from one `stats` call (-1 on error).
int64_t Backlog(Connection& connection);

}  // namespace perfbench

#endif  // PERFBENCH_SERVE_LOAD_H_
