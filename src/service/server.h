// The fastofd cleaning service: a resident daemon answering NDJSON requests
// over a UNIX-domain or TCP socket.
//
// Threading model (docs/architecture.md "Service layer" has the diagram,
// docs/protocol.md the wire format): a listener thread accepts, one reader
// thread per connection parses and admits requests, and every request runs
// as a task on the shared work-stealing ThreadPool. Admission is
// server-wide: queue_depth queued requests, then an arrival-ordered wait
// list of max_parked (shed 503 once a deadline passes), then 503. Each
// session has a mailbox that exists only while it has work: reads at its
// head run concurrently, a mutation runs alone once they drained, and at
// most max(1, workers/2) mutations run at once. Completions pump the
// scheduler, so nothing blocks waiting for work. NotifyShutdown() drains
// gracefully: admission closes, every admitted request is still answered,
// then connections close. Metrics land under `serve.*`.

#ifndef FASTOFD_SERVICE_SERVER_H_
#define FASTOFD_SERVICE_SERVER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <list>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "common/sync.h"
#include "exec/task_group.h"
#include "exec/thread_pool.h"
#include "relation/partition.h"
#include "service/json.h"
#include "service/session.h"

namespace fastofd {

/// Service tunables, mirrored by `fastofd serve` flags.
struct ServerConfig {
  /// Path for a UNIX-domain socket; empty selects TCP.
  std::string unix_socket;
  /// TCP port on 127.0.0.1 (0 = ephemeral, see ServiceServer::port()).
  int tcp_port = 0;
  /// Worker threads of the shared execution pool. The pool always has at
  /// least 2 workers: a serial pool would run requests inline on the reader
  /// threads, stalling admission and the queued-deadline clock.
  int threads = 1;
  /// Admission control: maximum queued (admitted, not yet dispatched)
  /// requests, server-wide.
  int queue_depth = 64;
  /// Server-wide wait list: requests that find the queue full park here
  /// until capacity frees or their deadline can no longer be met (shed
  /// 503). 0 disables parking (hard 503 at queue_depth).
  int max_parked = 1024;
  /// Default per-request deadline in ms (0 = none); requests may override
  /// with a `deadline_ms` field. The deadline covers time spent queued.
  double default_deadline_ms = 0.0;
  /// Maximum consecutive same-session `update` requests coalesced into one
  /// dispatched batch.
  int max_update_batch = 64;
  /// Partition-cache budget per session, in bytes.
  int64_t cache_budget_bytes = PartitionCache::kUnbounded;
  /// Directory for compiled session snapshots (service/snapshot.h); empty
  /// disables them. When set, `load` first tries
  /// `<dir>/<session>.fofdsnap` (falling back to a cold compile when the
  /// snapshot is absent, stale, or invalid) and writes a fresh snapshot
  /// after every cold load. Only session names matching
  /// [A-Za-z0-9_.-]+ participate (anything else cold-loads, so a hostile
  /// name can never escape the directory).
  std::string snapshot_dir;
};

class ServiceServer {
 public:
  /// `metrics` must outlive the server.
  ServiceServer(ServerConfig config, MetricsRegistry* metrics);
  ~ServiceServer();

  ServiceServer(const ServiceServer&) = delete;
  ServiceServer& operator=(const ServiceServer&) = delete;

  /// Binds, listens, and spawns the listener thread.
  Status Start();

  /// Begins a graceful drain. Async-signal-safe (writes one byte to an
  /// internal pipe); idempotent.
  void NotifyShutdown();

  /// Blocks until the drain completes and all threads are joined.
  void Wait();

  /// Bound TCP port (valid after Start() when configured for TCP).
  int port() const { return port_; }

  /// Executes one request inline on the calling thread, bypassing the
  /// socket and the scheduler — the deterministic core the wire path wraps.
  /// Exposed for tests and the in-process bench. Not safe concurrently
  /// with itself or with a started server's traffic.
  Json Execute(const Json& request);

 private:
  // write_mu serializes writers and guards fd against the reader's close.
  // Lock order: always taken *inside* conns_mu_ (Wait() iterates conns_
  // under conns_mu_ and locks each write_mu nested) — not expressible as an
  // attribute across classes, so stated here. The owning reader snapshots
  // fd into a local for its recv loop: it is the only thread that ever
  // closes the fd, so the snapshot cannot go stale under it.
  struct Connection {
    Mutex write_mu;
    int fd GUARDED_BY(write_mu) = -1;
  };

  struct Request {
    Json msg;
    std::string op;
    std::string session;
    std::shared_ptr<Connection> conn;
    double enqueue_seconds = 0.0;
    double deadline_seconds = 0.0;  // Absolute; 0 = none.
  };

  /// One dispatched task's worth of requests: a single snapshot read, or an
  /// exclusive unit (one mutating request, or a micro-batched run of
  /// updates).
  using Batch = std::vector<Request>;

  /// A session's admitted requests in arrival order, plus what of the
  /// session is running. Exists only while it has queued or running work;
  /// reads at the head fan out concurrently, a mutation waits for them to
  /// finish and then for a mutating slot.
  struct Mailbox {
    std::deque<Request> queue;  // Admitted, not yet dispatched.
    int readers = 0;            // Snapshot reads in flight.
    bool writer = false;        // A mutating batch in flight.
    bool awaiting_slot = false; // Listed in slot_waiters_.
  };

  void ListenerLoop();
  /// `self` is this reader's handle in readers_; on exit the reader moves it
  /// to finished_readers_ for the listener (or Wait) to join.
  void ReaderLoop(std::shared_ptr<Connection> conn,
                  std::list<std::thread>::iterator self);
  void BeginDrain();
  /// Joins every reader thread that has finished its loop. Cheap: joined
  /// threads have already exited.
  void ReapFinishedReaders();

  /// Admission (reader threads): queue, else park, else reject (false).
  /// The request is only consumed on success; on rejection the caller's
  /// object is untouched so it can still build the 503 (echoing the id).
  bool Admit(Request&& request) EXCLUDES(sched_mu_);
  /// A dispatched batch finished: releases its hold on the session, then
  /// pumps the scheduler (slot hand-off, mailbox, shedding, promotion).
  /// Returns a mutating batch for the caller to run next, or an empty one.
  Batch Complete(const std::string& session, bool is_read) EXCLUDES(sched_mu_);
  /// Appends `request` to its session's mailbox and pumps it.
  void EnqueueLocked(Request&& request, std::vector<Batch>* out)
      REQUIRES(sched_mu_);
  /// Moves into *out whatever the mailbox head may dispatch now.
  void PumpLocked(Mailbox& box, std::vector<Batch>* out) REQUIRES(sched_mu_);
  /// Takes a mutating slot for the mailbox head.
  void StartWriterLocked(Mailbox& box, std::vector<Batch>* out)
      REQUIRES(sched_mu_);
  /// Moves parked requests whose deadline has passed into *shed.
  void ShedExpiredLocked(std::vector<Request>* shed) REQUIRES(sched_mu_);
  /// Writes the 503 shed responses, then submits each batch to the pool.
  void Flush(std::vector<Request>& shed, std::vector<Batch>& work)
      EXCLUDES(sched_mu_);

  /// Pool task body: runs the batch, then whatever Complete hands back.
  void RunBatch(Batch batch);
  /// Executes the batch's requests in order (expired deadline → 504) and
  /// writes each response.
  void ExecuteBatch(Batch& batch);
  void WriteResponse(Connection& conn, const Json& response);

  /// Deep invariant audit (common/audit.h) after every admission and
  /// completion: no writer beside readers, writers within their slots,
  /// queued/parked within bounds, and every dispatched batch well-shaped.
  Status AuditSchedulerLocked(const std::vector<Batch>& dispatched) const
      REQUIRES(sched_mu_);

  /// Snapshot file for a session name, or "" when snapshots are disabled
  /// or the name contains characters unsafe for a filename.
  std::string SnapshotPathFor(const std::string& session) const;

  // --- Handlers (pool workers) ---
  Json HandlePing(const Json& request);
  Json HandleLoad(const Json& request);
  Json HandleUnload(const Json& request);
  Json HandleList(const Json& request);
  Json HandleVerify(const Json& request);
  Json HandleDiscover(const Json& request);
  Json HandleClean(const Json& request);
  Json HandleUpdate(const Json& request);
  Json HandleStats(const Json& request);
  Json HandleSleep(const Json& request);

  const ServerConfig config_;
  MetricsRegistry* const metrics_;
  ThreadPool pool_;
  // At most this many mutating batches run at once: max(1, workers/2). Half
  // the workers stay free for snapshot reads, and concurrent `load`s — each
  // holding a whole session's load-time memory — stay bounded.
  const int mutating_slots_;
  // Long-lived group for every dispatched batch. Declared after pool_ so its
  // destructor (which waits for the batches) runs before the pool's.
  TaskGroup group_;
  SessionRegistry sessions_;

  // The scheduler. A leaf lock: nothing else is ever acquired under it, and
  // it is never held across Execute, WriteResponse or Submit.
  Mutex sched_mu_;
  std::unordered_map<std::string, Mailbox> mailboxes_ GUARDED_BY(sched_mu_);
  // Arrival-ordered wait list; at most config.max_parked entries.
  std::deque<Request> parked_ GUARDED_BY(sched_mu_);
  // Mailboxes whose head mutation waits for a mutating slot, in order
  // (unordered_map nodes are stable, and a waiting mailbox is never idle).
  std::deque<Mailbox*> slot_waiters_ GUARDED_BY(sched_mu_);
  // Requests in mailbox queues; at most config.queue_depth.
  size_t queued_ GUARDED_BY(sched_mu_) = 0;
  int mutating_ GUARDED_BY(sched_mu_) = 0;
  bool closed_ GUARDED_BY(sched_mu_) = false;
  // Wait() sleeps here until a closed scheduler has no work left (no
  // mailbox: each exists only while it has queued or running work).
  CondVar idle_cv_;

  // listen_fd_ is single-threaded by phase: written by Start() before any
  // thread exists, then owned by the listener thread (ListenerLoop /
  // BeginDrain), and read by the destructor only after every thread joined.
  int listen_fd_ = -1;
  int port_ = 0;
  int shutdown_pipe_[2] = {-1, -1};
  std::atomic<bool> shutdown_requested_{false};

  std::thread listener_;

  // Guards the connection registry and reader-thread accounting. Lock order:
  // conns_mu_ before any Connection::write_mu (see Connection above).
  Mutex conns_mu_;
  std::vector<std::shared_ptr<Connection>> conns_ GUARDED_BY(conns_mu_);
  // Reader threads are joined, never detached: live handles sit in readers_,
  // and each reader moves its own handle to finished_readers_ on exit.
  std::list<std::thread> readers_ GUARDED_BY(conns_mu_);
  std::list<std::thread> finished_readers_ GUARDED_BY(conns_mu_);
  int readers_active_ GUARDED_BY(conns_mu_) = 0;
  CondVar readers_cv_;

  bool started_ = false;
  bool joined_ = false;
};

}  // namespace fastofd

#endif  // FASTOFD_SERVICE_SERVER_H_
