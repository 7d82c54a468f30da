#ifndef MEDVAULT_SERVER_ADMISSION_H_
#define MEDVAULT_SERVER_ADMISSION_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>

#include "obs/metrics.h"

namespace medvault::server {

/// Admission policy for one connection pool (after NaviServer's design:
/// a bounded wait queue in front of a fixed worker pool, with explicit
/// shedding instead of unbounded queueing).
struct AdmissionOptions {
  /// Connections allowed to wait for a worker. An accept beyond this is
  /// shed immediately (503 + Retry-After) — the queue never grows
  /// without bound, so latency for admitted work stays bounded too.
  size_t max_queue = 64;
};

/// Hand-off point between the acceptor thread and the worker pool.
///
/// The acceptor Offer()s each accepted socket; workers block in
/// Dequeue() for the next one. Offer never blocks: when the queue is
/// full the socket is refused (shed) and the *acceptor* writes the 503,
/// so overload costs one syscall per shed connection instead of a
/// worker. A connection that waited longer than the fixed 2 s wait
/// limit before a worker picked it up is handed out `timed_out`: its
/// client has likely given up, and serving it would only delay fresher
/// work. Telemetry: server.queued / server.shed_timeout counters and
/// the server.queue_depth gauge.
class AdmissionController {
 public:
  AdmissionController(const AdmissionOptions& options,
                      obs::MetricsRegistry* metrics);

  AdmissionController(const AdmissionController&) = delete;
  AdmissionController& operator=(const AdmissionController&) = delete;

  /// Queues `fd` for a worker. False = queue full (or stopped): the
  /// caller still owns the socket and must shed it.
  bool Offer(int fd);

  /// One admitted connection, as handed to a worker.
  struct Ticket {
    int fd = -1;
    uint64_t waited_micros = 0;
    /// Exceeded the wait limit: respond 503 and close instead of
    /// serving.
    bool timed_out = false;
  };

  /// Blocks until a connection is available or Stop() was called.
  /// False = stopped and drained; the worker loop should exit.
  bool Dequeue(Ticket* out);

  /// Wakes every waiting worker and closes any sockets still queued
  /// (their clients get a reset — shutdown is not graceful for work
  /// that never started).
  void Stop();

 private:
  using TimePoint = std::chrono::steady_clock::time_point;

  AdmissionOptions options_;
  obs::Counter* queued_;
  obs::Counter* shed_timeout_;
  obs::Gauge* depth_;

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::pair<int, TimePoint>> queue_;
  bool stopped_ = false;
};

}  // namespace medvault::server

#endif  // MEDVAULT_SERVER_ADMISSION_H_
