#ifndef MEDVAULT_SERVER_SERVER_H_
#define MEDVAULT_SERVER_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/result.h"
#include "common/worker_pool.h"
#include "core/sharded_vault.h"
#include "obs/metrics.h"
#include "server/admission.h"
#include "server/http.h"
#include "server/session.h"

namespace medvault::core {
class ShardedReplicationSource;
class ShardedTransparencyService;
}  // namespace medvault::core

namespace medvault::server {

/// Configuration of the HTTP front door.
struct ServerOptions {
  /// TCP port on 127.0.0.1; 0 picks an ephemeral port (tests/benches
  /// read it back via port()).
  uint16_t port = 0;
  /// Worker threads serving admitted connections — the pool's
  /// max-connections limit in NaviServer terms: at most this many
  /// connections are in service at once; the rest wait in the
  /// admission queue or are shed. Clamped to >= 1.
  unsigned worker_threads = 4;
  AdmissionOptions admission;
  /// Shared API secret required by POST /v1/login alongside a known
  /// principal id. Empty refuses every login (health-only server).
  std::string api_secret;
  /// Entropy for session-token generation (required non-empty).
  std::string session_entropy;
  /// Clock for session expiry. Null uses the vault's clock (tests pass
  /// the same ManualClock they opened the vault with).
  const Clock* clock = nullptr;
  /// Sync the vault after every mutating endpoint before answering —
  /// an acknowledged write survives power failure. Concurrent handlers
  /// coalesce into one group-commit wave, so durability costs one
  /// fsync per window, not per request.
  bool durable_writes = true;
  /// Blocking-read timeout on connection sockets: an idle keep-alive
  /// connection is closed after this long. 0 = no timeout.
  uint64_t idle_timeout_micros = 30ull * 1000 * 1000;
  /// Replication source of a primary (borrowed; may be null). When set,
  /// the server serves POST /v1/replication/cut/<shard> and reports
  /// posture on GET /v1/replication and in /v1/health's `repl` section.
  core::ShardedReplicationSource* repl_source = nullptr;
  /// Audit-transparency service (borrowed; may be null). When set, the
  /// server serves GET /v1/transparency* — latest cosigned checkpoint,
  /// inclusion/consistency proofs, and per-patient disclosure reports —
  /// and /v1/health gains a `transparency` section.
  core::ShardedTransparencyService* transparency = nullptr;
};

/// HTTP/1.1 front-end for one ShardedVault: record lifecycle, audit
/// access, and break-glass as JSON over REST, with NaviServer-style
/// admission control in front of a fixed worker pool.
///
/// Architecture: one acceptor thread accepts and either queues the
/// socket (AdmissionController) or sheds it with 503 + Retry-After;
/// `worker_threads` long-running loop tasks on a WorkerPool each
/// dequeue admitted connections and serve them to completion
/// (keep-alive supported). All handler work happens on workers, so a
/// saturated vault back-pressures into the bounded queue and then into
/// shedding — memory and admitted-request latency stay bounded under
/// any offered load.
///
/// Trust boundary: the server authenticates sessions and maps them to
/// RBAC principals, but transport security (TLS) is outside this
/// process — and outside the vault's tamper-evidence boundary (see
/// DESIGN.md). Bind is loopback-only by construction.
///
/// Status -> HTTP mapping is deterministic (MapStatusToHttp): policy
/// denials 403, retention/WORM conflicts 409, crypto-shredded content
/// 410, quarantined shards 503, integrity failures 500.
class MedVaultServer {
 public:
  /// Binds, spawns acceptor + workers, returns once the port is
  /// listening. `vault` is borrowed and must outlive the server.
  static Result<std::unique_ptr<MedVaultServer>> Start(
      core::ShardedVault* vault, const ServerOptions& options);

  ~MedVaultServer();

  MedVaultServer(const MedVaultServer&) = delete;
  MedVaultServer& operator=(const MedVaultServer&) = delete;

  /// Bound port (useful with options.port == 0).
  uint16_t port() const { return port_; }

  /// Stops accepting, sheds the queue, interrupts in-flight
  /// connections, joins everything. Idempotent.
  void Stop();

  /// Serves one parsed request through the route table (kRoutes in
  /// server.cc): finds the path's rows, authenticates when the row needs
  /// a session, answers 405 from the path's methods, times the handler
  /// in "server.req.<route>", and holds a durable route's 2xx until the
  /// group-commit barrier has synced. Access checks and audit happen in
  /// the vault. Public so tests and benches can drive it without sockets.
  HttpResponse Handle(const HttpRequest& request);

  SessionManager* sessions() { return sessions_.get(); }

  /// Deterministic Status -> HTTP status code mapping.
  static int MapStatusToHttp(const Status& status);

 private:
  MedVaultServer(core::ShardedVault* vault, const ServerOptions& options);

  Status Init();
  void AcceptLoop();
  void WorkerLoop();
  void ServeConnection(const AdmissionController::Ticket& ticket);

  /// First healthy shard (principals are replicated to every shard);
  /// null only when ALL shards are quarantined.
  core::Vault* AnyShard() const;
  /// Group-committed durability barrier after a mutation (no-op when
  /// durable_writes is off). Handle runs it for durable routes only.
  Status CommitIfDurable();

  /// What every route handler receives: the request, the session's
  /// principal (empty on public routes) and the remainder a prefix route
  /// leaves over (a record id or a replication shard index).
  struct Call {
    const HttpRequest& request;
    const core::PrincipalId& actor;
    const std::string& param;
  };
  /// One row of the route table: method, path, access and durability.
  struct Route;
  static const Route kRoutes[];

  // ---- Route handlers: which are public and which durable is kRoutes'
  // business, not theirs.
  HttpResponse HandleHealth(const Call& call);
  HttpResponse HandleReplicationStatus(const Call& call);
  HttpResponse HandleReplicationCut(const Call& call);
  HttpResponse HandleLogin(const Call& call);
  HttpResponse HandleLogout(const Call& call);
  HttpResponse HandleCreateRecord(const Call& call);
  HttpResponse HandleReadRecord(const Call& call);
  HttpResponse HandleCorrectRecord(const Call& call);
  HttpResponse HandleHistory(const Call& call);
  HttpResponse HandleDispose(const Call& call);
  HttpResponse HandleSearch(const Call& call);
  HttpResponse HandleRecordAudit(const Call& call);
  HttpResponse HandleAuditTrail(const Call& call);
  HttpResponse HandleCheckpoint(const Call& call);
  HttpResponse HandleBreakGlass(const Call& call);
  // Patient-driven sharing: grant/revoke/list delegated consent.
  HttpResponse HandleConsentGrant(const Call& call);
  HttpResponse HandleConsentRevoke(const Call& call);
  HttpResponse HandleConsentList(const Call& call);
  // Transparency endpoints: posture, checkpoints and consistency proofs
  // (public), inclusion proofs and disclosure reports (RBAC inside).
  HttpResponse HandleTransparencyStatus(const Call& call);
  HttpResponse HandleTransparencyCheckpoint(const Call& call);
  HttpResponse HandleTransparencyConsistency(const Call& call);
  HttpResponse HandleTransparencyProof(const Call& call);
  HttpResponse HandleDisclosures(const Call& call);

  core::ShardedVault* vault_;
  ServerOptions options_;
  obs::MetricsRegistry* metrics_;
  std::unique_ptr<SessionManager> sessions_;
  std::unique_ptr<AdmissionController> admission_;

  int listen_fd_ = -1;
  uint16_t port_ = 0;

  obs::Counter* conns_total_;
  obs::Counter* accepted_;
  obs::Counter* shed_;
  obs::Counter* requests_;
  obs::Gauge* active_;
  /// Latency histogram of each kRoutes row ("server.req.<name>"),
  /// resolved once at construction so the hot path never takes the
  /// registry mutex.
  std::vector<obs::Histogram*> route_latency_;

  std::unique_ptr<WorkerPool> pool_;
  std::unique_ptr<TaskGroup> workers_;
  std::thread acceptor_;
  std::atomic<bool> stopping_{false};
  bool started_ = false;

  /// Sockets currently being served; Stop() shutdown()s them so
  /// workers blocked in recv return promptly.
  std::mutex active_fds_mu_;
  std::set<int> active_fds_;
};

}  // namespace medvault::server

#endif  // MEDVAULT_SERVER_SERVER_H_
