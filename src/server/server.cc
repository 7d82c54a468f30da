#include "server/server.h"

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <charconv>
#include <cstring>
#include <iterator>
#include <optional>
#include <string_view>

#include "common/hex.h"
#include "core/replication.h"
#include "core/transparency.h"
#include "crypto/hmac.h"
#include "obs/health.h"
#include "obs/json.h"

namespace medvault::server {

namespace {

using obs::json::Value;

/// Lifetime of a login session: 8 hours.
constexpr uint64_t kSessionTtlMicros = 8ull * 3600 * 1000 * 1000;
/// Seconds suggested to shed clients via Retry-After.
constexpr unsigned kRetryAfterSeconds = 1;
/// Header and body caps of every request the server reads.
constexpr HttpLimits kHttpLimits;

/// The answer to each request the framer refuses; the connection is
/// then closed. kEof, kTimeout and kError close it without an answer.
struct FramingRefusal {
  ReadOutcome outcome;
  int status;
  const char* message;
};
constexpr FramingRefusal kFramingRefusals[] = {
    {ReadOutcome::kMalformed, 400, "malformed HTTP request"},
    {ReadOutcome::kHeadersTooLarge, 431, "request headers too large"},
    {ReadOutcome::kBodyTooLarge, 413, "request body too large"},
    {ReadOutcome::kVersionNotSupported, 505, "HTTP version not supported"},
};

HttpResponse JsonResponse(int status, const Value& v) {
  HttpResponse r;
  r.status = status;
  r.body = v.Dump() + "\n";
  return r;
}

HttpResponse ErrorResponse(int status, const std::string& message) {
  Value::Object o;
  o["error"] = Value(message);
  return JsonResponse(status, Value(std::move(o)));
}

HttpResponse ErrorFromStatus(const Status& s) {
  return ErrorResponse(MedVaultServer::MapStatusToHttp(s), s.ToString());
}

Result<Value> ParseJsonObject(const std::string& body) {
  MEDVAULT_ASSIGN_OR_RETURN(Value v, Value::Parse(body));
  if (!v.is_object()) {
    return Status::InvalidArgument("request body must be a JSON object");
  }
  return v;
}

Result<std::string> RequireString(const Value::Object& o, const char* key) {
  auto it = o.find(key);
  if (it == o.end() || !it->second.is_string()) {
    return Status::InvalidArgument(std::string("missing string field \"") +
                                   key + "\"");
  }
  return it->second.as_string();
}

Result<int64_t> RequireInt(const Value::Object& o, const char* key) {
  auto it = o.find(key);
  if (it == o.end() || !it->second.is_int()) {
    return Status::InvalidArgument(std::string("missing integer field \"") +
                                   key + "\"");
  }
  return it->second.as_int();
}

std::string OptionalString(const Value::Object& o, const char* key,
                           const std::string& fallback) {
  auto it = o.find(key);
  if (it == o.end() || !it->second.is_string()) return fallback;
  return it->second.as_string();
}

Result<std::vector<std::string>> StringArray(const Value::Object& o,
                                             const char* key) {
  std::vector<std::string> out;
  auto it = o.find(key);
  if (it == o.end()) return out;
  if (!it->second.is_array()) {
    return Status::InvalidArgument(std::string("field \"") + key +
                                   "\" must be an array of strings");
  }
  for (const Value& v : it->second.as_array()) {
    if (!v.is_string()) {
      return Status::InvalidArgument(std::string("field \"") + key +
                                     "\" must be an array of strings");
    }
    out.push_back(v.as_string());
  }
  return out;
}

Value VersionHeaderJson(const core::VersionHeader& h) {
  Value::Object o;
  o["record_id"] = Value(h.record_id);
  o["version"] = Value(static_cast<uint64_t>(h.version));
  o["author"] = Value(h.author);
  o["created_at"] = Value(h.created_at);
  o["content_type"] = Value(h.content_type);
  o["reason"] = Value(h.reason);
  o["prev_version_hash"] = Value(HexEncode(h.prev_version_hash));
  return Value(std::move(o));
}

Value AuditEventJson(const core::AuditEvent& e) {
  Value::Object o;
  o["seq"] = Value(e.seq);
  o["timestamp"] = Value(e.timestamp);
  o["actor"] = Value(e.actor);
  o["action"] = Value(core::AuditActionName(e.action));
  o["record_id"] = Value(e.record_id);
  o["details"] = Value(e.details);
  o["prev_hash"] = Value(HexEncode(e.prev_hash));
  return Value(std::move(o));
}

Value CheckpointJson(const core::SignedCheckpoint& cp) {
  Value::Object o;
  o["tree_size"] = Value(cp.tree_size);
  o["root"] = Value(HexEncode(cp.root));
  o["timestamp"] = Value(cp.timestamp);
  o["signature"] = Value(HexEncode(cp.signature));
  return Value(std::move(o));
}

Value CosignedCheckpointJson(const core::CosignedCheckpoint& cc) {
  Value::Object o = CheckpointJson(cc.checkpoint).as_object();
  Value::Array sigs;
  for (const core::WitnessCosignature& cosig : cc.cosignatures) {
    Value::Object s;
    s["witness_id"] = Value(cosig.witness_id);
    s["signature"] = Value(HexEncode(cosig.signature));
    sigs.push_back(Value(std::move(s)));
  }
  o["cosignatures"] = Value(std::move(sigs));
  return Value(std::move(o));
}

Value HexPathJson(const std::vector<std::string>& path) {
  Value::Array arr;
  for (const std::string& node : path) arr.push_back(Value(HexEncode(node)));
  return Value(std::move(arr));
}

/// Strict unsigned decimal: digits only, no sign, no trailing junk, and
/// in range for T.
template <typename T>
std::optional<T> ParseDecimal(const std::string& s) {
  T n = 0;
  auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), n, 10);
  if (ec != std::errc() || ptr != s.data() + s.size()) return std::nullopt;
  return n;
}

/// Decimal query parameter. Absent and empty both yield 0 when
/// `required` is false; anything else that is not a T is a 400.
template <typename T>
Result<T> DecimalParam(const HttpRequest& request, const char* name,
                       bool required) {
  const std::string v = request.QueryParam(name);
  if (v.empty()) {
    if (required) {
      return Status::InvalidArgument(std::string("missing query parameter \"") +
                                     name + "\"");
    }
    return T{0};
  }
  std::optional<T> n = ParseDecimal<T>(v);
  if (!n) {
    return Status::InvalidArgument(std::string("query parameter \"") + name +
                                   "\" must be a " +
                                   std::to_string(sizeof(T) * 8) +
                                   "-bit decimal integer");
  }
  return *n;
}

}  // namespace

/// One row of the route table. `path` is an exact path or, ending in
/// '/', a prefix whose remainder becomes the call's `param`; a non-empty
/// `suffix` then requires the remainder to end in "/<suffix>" and strips
/// it. Rows of one resource (same path and suffix) sit together, in the
/// order their methods are listed in a 405.
struct MedVaultServer::Route {
  const char* method;
  const char* path;
  const char* suffix;
  const char* name;  ///< latency histogram "server.req.<name>"
  bool auth;         ///< requires a live session
  bool durable;      ///< a 2xx is sent only after the durability barrier
  HttpResponse (MedVaultServer::*handler)(const Call&);

  bool SameResource(const Route& other) const {
    return std::strcmp(path, other.path) == 0 &&
           std::strcmp(suffix, other.suffix) == 0;
  }

  bool Matches(std::string_view target, std::string* param) const {
    const std::string_view prefix = path;
    if (prefix.back() != '/') return target == prefix;
    if (target.substr(0, prefix.size()) != prefix) return false;
    std::string_view rest = target.substr(prefix.size());
    if (*suffix != '\0') {
      const size_t sub_at = rest.rfind('/');
      if (sub_at == rest.npos || rest.substr(sub_at + 1) != suffix) {
        return false;
      }
      rest = rest.substr(0, sub_at);
    }
    param->assign(rest);
    return true;
  }
};

namespace {
constexpr bool kPublic = false, kSession = true;
constexpr bool kDurable = true, kNotDurable = false;
}  // namespace

// Every route, its access rule, and whether its acknowledgement waits
// for a durable sync. `durable` is the one place to review which acks
// survive a crash: every mutation the client must be able to rely on
// (records, audit checkpoints, break-glass and consent grants, consent
// revocations) is durable. Reads are not (yet): a read's audit event
// may still be buffered when the plaintext is sent.
const MedVaultServer::Route MedVaultServer::kRoutes[] = {
    // Public: load balancers probe health, and logging in is how a
    // session starts.
    {"GET", "/v1/health", "", "health", kPublic, kNotDurable,
     &MedVaultServer::HandleHealth},
    {"POST", "/v1/login", "", "login", kPublic, kNotDurable,
     &MedVaultServer::HandleLogin},
    {"GET", "/v1/replication", "", "replication", kPublic, kNotDurable,
     &MedVaultServer::HandleReplicationStatus},
    // Cut requests authenticate themselves: the cursor in the body is
    // HMAC-signed under the replication key, which only a legitimate
    // replica (same vault entropy) can produce.
    {"POST", "/v1/replication/cut/", "", "repl_cut", kPublic, kNotDurable,
     &MedVaultServer::HandleReplicationCut},
    // Transparency posture, checkpoints, and consistency proofs are
    // public by design: they disclose only tree sizes, roots, and
    // signatures, and external witnesses/monitors must be able to fetch
    // them without holding a clinical session. Inclusion proofs and
    // disclosure reports carry event contents, so those two need a
    // session (below).
    {"GET", "/v1/transparency", "", "transparency", kPublic, kNotDurable,
     &MedVaultServer::HandleTransparencyStatus},
    {"GET", "/v1/transparency/checkpoint", "", "transparency_checkpoint",
     kPublic, kNotDurable, &MedVaultServer::HandleTransparencyCheckpoint},
    {"GET", "/v1/transparency/consistency", "", "transparency_consistency",
     kPublic, kNotDurable, &MedVaultServer::HandleTransparencyConsistency},

    {"POST", "/v1/logout", "", "logout", kSession, kNotDurable,
     &MedVaultServer::HandleLogout},
    {"POST", "/v1/records", "", "create_record", kSession, kDurable,
     &MedVaultServer::HandleCreateRecord},
    {"POST", "/v1/search", "", "search", kSession, kNotDurable,
     &MedVaultServer::HandleSearch},
    {"GET", "/v1/audit", "", "audit", kSession, kNotDurable,
     &MedVaultServer::HandleAuditTrail},
    {"POST", "/v1/audit/checkpoint", "", "checkpoint", kSession, kDurable,
     &MedVaultServer::HandleCheckpoint},
    // Break-glass and consent grants are audited and state-logged (consent
    // grants also signed); the barrier makes a grant survive a crash the
    // instant the client sees its id.
    {"POST", "/v1/break-glass", "", "break_glass", kSession, kDurable,
     &MedVaultServer::HandleBreakGlass},
    {"POST", "/v1/consent", "", "consent_grant", kSession, kDurable,
     &MedVaultServer::HandleConsentGrant},
    {"GET", "/v1/consent", "", "consent_list", kSession, kNotDurable,
     &MedVaultServer::HandleConsentList},
    // Revocation must be durable before it is acknowledged: once the
    // client sees the response, no crash may resurrect the grant.
    {"POST", "/v1/consent/revoke", "", "consent_revoke", kSession, kDurable,
     &MedVaultServer::HandleConsentRevoke},
    {"GET", "/v1/transparency/proof", "", "transparency_proof", kSession,
     kNotDurable, &MedVaultServer::HandleTransparencyProof},
    {"GET", "/v1/transparency/disclosures", "", "disclosures", kSession,
     kNotDurable, &MedVaultServer::HandleDisclosures},

    // /v1/records/<id>/<action>; any other remainder is a record id.
    {"POST", "/v1/records/", "correct", "correct", kSession, kDurable,
     &MedVaultServer::HandleCorrectRecord},
    {"GET", "/v1/records/", "history", "history", kSession, kNotDurable,
     &MedVaultServer::HandleHistory},
    {"POST", "/v1/records/", "dispose", "dispose", kSession, kDurable,
     &MedVaultServer::HandleDispose},
    {"GET", "/v1/records/", "audit", "record_audit", kSession, kNotDurable,
     &MedVaultServer::HandleRecordAudit},
    {"GET", "/v1/records/", "", "read_record", kSession, kNotDurable,
     &MedVaultServer::HandleReadRecord},
};

int MedVaultServer::MapStatusToHttp(const Status& status) {
  switch (status.code()) {
    case Status::Code::kOk: return 200;
    case Status::Code::kNotFound: return 404;
    case Status::Code::kAlreadyExists: return 409;
    case Status::Code::kInvalidArgument: return 400;
    case Status::Code::kIoError: return 500;
    case Status::Code::kCorruption: return 500;
    case Status::Code::kTamperDetected: return 500;
    case Status::Code::kPermissionDenied: return 403;
    case Status::Code::kWormViolation: return 409;
    case Status::Code::kRetentionViolation: return 409;
    case Status::Code::kKeyDestroyed: return 410;
    case Status::Code::kNotSupported: return 501;
    // The request conflicts with the record's state and will keep
    // failing as sent (already disposed, signer exhausted).
    case Status::Code::kFailedPrecondition: return 409;
    case Status::Code::kBackupChainBroken: return 500;
    // A quarantined shard is a temporary capacity loss, not a client
    // error: clients should retry once the shard rejoins.
    case Status::Code::kUnavailable: return 503;
  }
  return 500;
}

Result<std::unique_ptr<MedVaultServer>> MedVaultServer::Start(
    core::ShardedVault* vault, const ServerOptions& options) {
  if (vault == nullptr) {
    return Status::InvalidArgument("server requires a vault");
  }
  if (options.session_entropy.empty()) {
    return Status::InvalidArgument("server requires session entropy");
  }
  std::unique_ptr<MedVaultServer> server(new MedVaultServer(vault, options));
  MEDVAULT_RETURN_IF_ERROR(server->Init());
  return server;
}

MedVaultServer::MedVaultServer(core::ShardedVault* vault,
                               const ServerOptions& options)
    : vault_(vault),
      options_(options),
      metrics_(vault->metrics_registry()),
      conns_total_(metrics_->GetCounter("server.conns")),
      accepted_(metrics_->GetCounter("server.accepted")),
      shed_(metrics_->GetCounter("server.shed")),
      requests_(metrics_->GetCounter("server.requests")),
      active_(metrics_->GetGauge("server.active")) {
  if (options_.worker_threads == 0) options_.worker_threads = 1;
  for (const Route& route : kRoutes) {
    route_latency_.push_back(
        metrics_->GetHistogram(std::string("server.req.") + route.name));
  }
}

MedVaultServer::~MedVaultServer() { Stop(); }

core::Vault* MedVaultServer::AnyShard() const {
  for (uint32_t k = 0; k < vault_->num_shards(); ++k) {
    if (core::Vault* shard = vault_->shard(k)) return shard;
  }
  return nullptr;
}

Status MedVaultServer::Init() {
  const Clock* clock = options_.clock;
  if (clock == nullptr) {
    core::Vault* shard = AnyShard();
    if (shard == nullptr) {
      return Status::FailedPrecondition("all shards quarantined");
    }
    clock = shard->options().clock;
  }
  sessions_ = std::make_unique<SessionManager>(
      options_.session_entropy, clock, kSessionTtlMicros);
  admission_ =
      std::make_unique<AdmissionController>(options_.admission, metrics_);

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return Status::IoError("socket: " + std::string(strerror(errno)));
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(options_.port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    Status s = Status::IoError("bind: " + std::string(strerror(errno)));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return s;
  }
  if (::listen(listen_fd_, 128) < 0) {
    Status s = Status::IoError("listen: " + std::string(strerror(errno)));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return s;
  }
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);

  pool_ = std::make_unique<WorkerPool>(options_.worker_threads);
  workers_ = std::make_unique<TaskGroup>(pool_.get());
  for (unsigned i = 0; i < options_.worker_threads; ++i) {
    workers_->Submit([this] { WorkerLoop(); });
  }
  acceptor_ = std::thread([this] { AcceptLoop(); });
  started_ = true;
  return Status::OK();
}

void MedVaultServer::Stop() {
  if (!started_ || stopping_.exchange(true)) return;
  // Wake the acceptor out of accept(2), then the workers out of both
  // the admission queue and any in-flight recv.
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (acceptor_.joinable()) acceptor_.join();
  admission_->Stop();
  {
    std::lock_guard<std::mutex> lock(active_fds_mu_);
    for (int fd : active_fds_) ::shutdown(fd, SHUT_RDWR);
  }
  workers_->Wait();
  workers_.reset();
  pool_.reset();
  ::close(listen_fd_);
  listen_fd_ = -1;
}

void MedVaultServer::AcceptLoop() {
  while (!stopping_.load(std::memory_order_relaxed)) {
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      if (stopping_.load(std::memory_order_relaxed)) break;
      // Transient accept failure (EMFILE and friends): shed by doing
      // nothing; the kernel backlog absorbs the blip.
      continue;
    }
    conns_total_->Increment();
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    if (options_.idle_timeout_micros > 0) {
      struct timeval tv;
      tv.tv_sec = static_cast<time_t>(options_.idle_timeout_micros / 1000000);
      tv.tv_usec =
          static_cast<suseconds_t>(options_.idle_timeout_micros % 1000000);
      ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    }
    if (!admission_->Offer(fd)) {
      // Overload shedding happens HERE, on the acceptor: a full queue
      // costs one serialized 503 write, never a worker slot.
      shed_->Increment();
      HttpResponse r = ErrorResponse(503, "server overloaded, retry later");
      r.headers["Retry-After"] = std::to_string(kRetryAfterSeconds);
      r.close = true;
      WriteAll(fd, SerializeHttpResponse(r));
      ::close(fd);
    }
  }
}

void MedVaultServer::WorkerLoop() {
  AdmissionController::Ticket ticket;
  while (admission_->Dequeue(&ticket)) {
    ServeConnection(ticket);
  }
}

void MedVaultServer::ServeConnection(
    const AdmissionController::Ticket& ticket) {
  const int fd = ticket.fd;
  active_->Add(1);
  {
    std::lock_guard<std::mutex> lock(active_fds_mu_);
    active_fds_.insert(fd);
  }

  if (ticket.timed_out) {
    // Waited past the queue limit: its client has likely timed out
    // already — answer 503 rather than spend vault work on it.
    shed_->Increment();
    HttpResponse r = ErrorResponse(503, "queue wait exceeded, retry later");
    r.headers["Retry-After"] = std::to_string(kRetryAfterSeconds);
    r.close = true;
    WriteAll(fd, SerializeHttpResponse(r));
  } else {
    accepted_->Increment();
    std::string leftover;
    while (!stopping_.load(std::memory_order_relaxed)) {
      HttpRequest request;
      ReadOutcome rc = ReadHttpRequest(fd, kHttpLimits, &leftover, &request);
      if (rc == ReadOutcome::kOk) {
        // RFC 9112 §3.2: an HTTP/1.1 request without a Host field is a
        // client error. The framer leaves it to here, so its verdicts
        // stay those of a well-framed request.
        if (request.version == "HTTP/1.1" &&
            request.headers.count("host") == 0) {
          HttpResponse r = ErrorResponse(400, "HTTP/1.1 request without Host");
          r.close = true;
          WriteAll(fd, SerializeHttpResponse(r));
          break;
        }
        HttpResponse response = Handle(request);
        response.close = response.close || !request.KeepAlive() ||
                         stopping_.load(std::memory_order_relaxed);
        if (!WriteAll(fd, SerializeHttpResponse(response))) break;
        if (response.close) break;
        continue;
      }
      for (const FramingRefusal& refusal : kFramingRefusals) {
        if (refusal.outcome != rc) continue;
        HttpResponse r = ErrorResponse(refusal.status, refusal.message);
        r.close = true;
        WriteAll(fd, SerializeHttpResponse(r));
      }
      break;
    }
  }

  {
    std::lock_guard<std::mutex> lock(active_fds_mu_);
    active_fds_.erase(fd);
  }
  ::close(fd);
  active_->Add(-1);
}

Status MedVaultServer::CommitIfDurable() {
  if (!options_.durable_writes) return Status::OK();
  // Group commit: concurrent handlers coalesce into one sync wave per
  // commit window, so per-request durability does not mean
  // per-request fsync.
  return vault_->SyncAll();
}

HttpResponse MedVaultServer::Handle(const HttpRequest& request) {
  requests_->Increment();
  const std::string path = request.Path();
  constexpr size_t kNumRoutes = std::size(kRoutes);

  std::string param;
  size_t first = 0;
  while (first < kNumRoutes && !kRoutes[first].Matches(path, &param)) ++first;
  // The path's rows are `first` and the rows after it for the same
  // resource; the one for this method, if any, is `row`.
  size_t end = first;
  const Route* row = nullptr;
  for (; end < kNumRoutes && kRoutes[end].SameResource(kRoutes[first]);
       ++end) {
    if (request.method == kRoutes[end].method) row = &kRoutes[end];
  }

  // Unknown paths need a session too: without one, a client cannot
  // even learn which endpoints exist.
  core::PrincipalId actor;
  if (first == kNumRoutes || kRoutes[first].auth) {
    auto it = request.headers.find("authorization");
    if (it == request.headers.end() || it->second.rfind("Bearer ", 0) != 0) {
      HttpResponse r = ErrorResponse(401, "missing bearer token");
      r.headers["WWW-Authenticate"] = "Bearer";
      return r;
    }
    Result<core::PrincipalId> who = sessions_->Lookup(it->second.substr(7));
    if (!who.ok()) {
      HttpResponse r = ErrorResponse(401, who.status().ToString());
      r.headers["WWW-Authenticate"] = "Bearer";
      return r;
    }
    actor = *std::move(who);
  }
  if (first == kNumRoutes) {
    return ErrorResponse(404, "no such endpoint: " + path);
  }
  if (row == nullptr) {
    std::string allowed = "use ";
    for (size_t i = first; i < end; ++i) {
      if (i > first) allowed += " or ";
      allowed += kRoutes[i].method;
    }
    return ErrorResponse(405, allowed);
  }

  obs::ScopedOpTimer timer(metrics_, route_latency_[row - kRoutes],
                           row->name);
  HttpResponse response = (this->*row->handler)(Call{request, actor, param});
  if (row->durable && response.status >= 200 && response.status < 300) {
    Status durable = CommitIfDurable();
    if (!durable.ok()) return ErrorFromStatus(durable);
  }
  return response;
}

HttpResponse MedVaultServer::HandleHealth(const Call&) {
  obs::HealthReport report = obs::CollectHealth(*vault_);
  obs::FillReplicationHealth(&report, options_.repl_source, nullptr);
  obs::FillTransparencyHealth(&report, options_.transparency);
  return JsonResponse(200, report.ToJson());
}

HttpResponse MedVaultServer::HandleReplicationStatus(const Call&) {
  const core::ShardedReplicationSource* source = options_.repl_source;
  if (source == nullptr) {
    return ErrorResponse(404, "replication not configured");
  }
  Value::Object o;
  o["role"] = Value("primary");
  o["num_shards"] = Value(static_cast<uint64_t>(source->num_shards()));
  o["shipped_batches"] = Value(source->batches_shipped());
  o["shipped_bytes"] = Value(source->bytes_shipped());
  o["lag_bytes"] = Value(source->lag_bytes());
  return JsonResponse(200, Value(std::move(o)));
}

HttpResponse MedVaultServer::HandleReplicationCut(const Call& call) {
  if (options_.repl_source == nullptr) {
    return ErrorResponse(404, "this endpoint does not ship batches");
  }
  std::optional<uint32_t> shard = ParseDecimal<uint32_t>(call.param);
  if (!shard) return ErrorResponse(400, "bad shard index: " + call.param);
  if (*shard >= options_.repl_source->num_shards()) {
    return ErrorResponse(404, "no such shard: " + call.param);
  }
  Result<std::string> batch = options_.repl_source->HandleCutRequest(
      *shard, Slice(call.request.body));
  if (!batch.ok()) return ErrorFromStatus(batch.status());
  HttpResponse r;
  r.status = 200;
  r.content_type = "application/octet-stream";
  r.body = *std::move(batch);
  return r;
}

HttpResponse MedVaultServer::HandleLogin(const Call& call) {
  Result<Value> body = ParseJsonObject(call.request.body);
  if (!body.ok()) return ErrorFromStatus(body.status());
  const Value::Object& o = body->as_object();
  Result<std::string> principal = RequireString(o, "principal");
  if (!principal.ok()) return ErrorFromStatus(principal.status());
  Result<std::string> secret = RequireString(o, "secret");
  if (!secret.ok()) return ErrorFromStatus(secret.status());

  // Deliberately one failure mode: whether the secret is wrong, the
  // principal unknown, or logins disabled, the client learns only
  // "login failed".
  bool ok = !options_.api_secret.empty() &&
            crypto::ConstantTimeEqual(*secret, options_.api_secret);
  core::Principal who;
  if (ok) {
    core::Vault* shard = AnyShard();
    if (shard == nullptr) {
      return ErrorResponse(503, "all shards quarantined");
    }
    Result<core::Principal> found = shard->GetPrincipal(*principal);
    if (!found.ok()) {
      ok = false;
    } else {
      who = *std::move(found);
    }
  }
  if (!ok) return ErrorResponse(403, "login failed");

  Value::Object out;
  out["token"] = Value(sessions_->Issue(who.id));
  out["principal"] = Value(who.id);
  out["role"] = Value(core::RoleName(who.role));
  return JsonResponse(200, Value(std::move(out)));
}

HttpResponse MedVaultServer::HandleLogout(const Call& call) {
  auto it = call.request.headers.find("authorization");
  // Authenticated already, so the header is present and well-formed.
  sessions_->Revoke(it->second.substr(7));
  Value::Object out;
  out["ok"] = Value(true);
  return JsonResponse(200, Value(std::move(out)));
}

HttpResponse MedVaultServer::HandleCreateRecord(const Call& call) {
  Result<Value> body = ParseJsonObject(call.request.body);
  if (!body.ok()) return ErrorFromStatus(body.status());
  const Value::Object& o = body->as_object();
  Result<std::string> patient = RequireString(o, "patient_id");
  if (!patient.ok()) return ErrorFromStatus(patient.status());
  Result<std::string> content = RequireString(o, "content");
  if (!content.ok()) return ErrorFromStatus(content.status());
  Result<std::vector<std::string>> keywords = StringArray(o, "keywords");
  if (!keywords.ok()) return ErrorFromStatus(keywords.status());

  Result<core::RecordId> id = vault_->CreateRecord(
      call.actor, *patient, OptionalString(o, "content_type", "text/plain"),
      *content, *keywords, OptionalString(o, "retention_policy", "hipaa-6y"));
  if (!id.ok()) return ErrorFromStatus(id.status());

  Value::Object out;
  out["record_id"] = Value(*id);
  return JsonResponse(201, Value(std::move(out)));
}

HttpResponse MedVaultServer::HandleReadRecord(const Call& call) {
  Result<core::RecordVersion> version = [&]() -> Result<core::RecordVersion> {
    const std::string v = call.request.QueryParam("version");
    if (v.empty()) return vault_->ReadRecord(call.actor, call.param);
    std::optional<uint32_t> n = ParseDecimal<uint32_t>(v);
    if (!n) return Status::InvalidArgument("version must be a 32-bit number");
    return vault_->ReadRecordVersion(call.actor, call.param, *n);
  }();
  if (!version.ok()) return ErrorFromStatus(version.status());

  Value header = VersionHeaderJson(version->header);
  Value::Object out = header.as_object();
  out["content"] = Value(version->plaintext);
  return JsonResponse(200, Value(std::move(out)));
}

HttpResponse MedVaultServer::HandleCorrectRecord(const Call& call) {
  Result<Value> body = ParseJsonObject(call.request.body);
  if (!body.ok()) return ErrorFromStatus(body.status());
  const Value::Object& o = body->as_object();
  Result<std::string> content = RequireString(o, "content");
  if (!content.ok()) return ErrorFromStatus(content.status());
  Result<std::string> reason = RequireString(o, "reason");
  if (!reason.ok()) return ErrorFromStatus(reason.status());
  Result<std::vector<std::string>> keywords = StringArray(o, "keywords");
  if (!keywords.ok()) return ErrorFromStatus(keywords.status());

  Result<core::VersionHeader> header = vault_->CorrectRecord(
      call.actor, call.param, *content, *reason, *keywords);
  if (!header.ok()) return ErrorFromStatus(header.status());
  return JsonResponse(200, VersionHeaderJson(*header));
}

HttpResponse MedVaultServer::HandleHistory(const Call& call) {
  Result<std::vector<core::VersionHeader>> history =
      vault_->RecordHistory(call.actor, call.param);
  if (!history.ok()) return ErrorFromStatus(history.status());
  Value::Array versions;
  for (const core::VersionHeader& h : *history) {
    versions.push_back(VersionHeaderJson(h));
  }
  Value::Object out;
  out["versions"] = Value(std::move(versions));
  return JsonResponse(200, Value(std::move(out)));
}

HttpResponse MedVaultServer::HandleDispose(const Call& call) {
  Result<core::DisposalCertificate> cert =
      vault_->DisposeRecord(call.actor, call.param);
  if (!cert.ok()) return ErrorFromStatus(cert.status());

  Value::Object out;
  out["record_id"] = Value(cert->record_id);
  out["authorizer"] = Value(cert->authorizer);
  out["policy"] = Value(cert->policy);
  out["disposed_at"] = Value(cert->disposed_at);
  out["custody_head"] = Value(HexEncode(cert->custody_head));
  out["signature"] = Value(HexEncode(cert->signature));
  return JsonResponse(200, Value(std::move(out)));
}

HttpResponse MedVaultServer::HandleSearch(const Call& call) {
  Result<Value> body = ParseJsonObject(call.request.body);
  if (!body.ok()) return ErrorFromStatus(body.status());
  Result<std::vector<std::string>> terms =
      StringArray(body->as_object(), "terms");
  if (!terms.ok()) return ErrorFromStatus(terms.status());
  if (terms->empty()) {
    return ErrorResponse(400, "search requires at least one term");
  }

  Result<std::vector<core::RecordId>> ids =
      terms->size() == 1 ? vault_->SearchKeyword(call.actor, terms->front())
                         : vault_->SearchKeywordsAll(call.actor, *terms);
  if (!ids.ok()) return ErrorFromStatus(ids.status());
  Value::Array arr;
  for (const core::RecordId& id : *ids) arr.push_back(Value(id));
  Value::Object out;
  out["record_ids"] = Value(std::move(arr));
  return JsonResponse(200, Value(std::move(out)));
}

HttpResponse MedVaultServer::HandleRecordAudit(const Call& call) {
  Result<std::vector<core::AuditEvent>> events =
      vault_->ReadAuditTrail(call.actor, call.param);
  if (!events.ok()) return ErrorFromStatus(events.status());
  Value::Array arr;
  for (const core::AuditEvent& e : *events) arr.push_back(AuditEventJson(e));
  Value::Object out;
  out["events"] = Value(std::move(arr));
  return JsonResponse(200, Value(std::move(out)));
}

HttpResponse MedVaultServer::HandleAuditTrail(const Call& call) {
  // One page of the merged trail, shard by shard in seq order: at most
  // `limit` (capped at kAuditPageCap) events from shard `shard`, after
  // seq `after`, then on into the next shards. `next` is the query
  // string of the following page; it is absent once the walk is done.
  constexpr uint64_t kAuditPageCap = 1000;
  Result<uint32_t> shard =
      DecimalParam<uint32_t>(call.request, "shard", /*required=*/false);
  if (!shard.ok()) return ErrorFromStatus(shard.status());
  if (*shard >= vault_->num_shards()) {
    return ErrorResponse(400, "query parameter \"shard\" out of range");
  }
  uint64_t begin = 0;
  if (!call.request.QueryParam("after").empty()) {
    Result<uint64_t> after =
        DecimalParam<uint64_t>(call.request, "after", /*required=*/true);
    if (!after.ok()) return ErrorFromStatus(after.status());
    if (*after == ~uint64_t{0}) {
      return ErrorResponse(400, "query parameter \"after\" out of range");
    }
    begin = *after + 1;
  }
  Result<uint64_t> limit =
      DecimalParam<uint64_t>(call.request, "limit", /*required=*/false);
  if (!limit.ok()) return ErrorFromStatus(limit.status());
  const uint64_t page =
      *limit == 0 ? kAuditPageCap : std::min(*limit, kAuditPageCap);

  Value::Array arr;
  Value::Object out;
  bool any_shard = false;
  for (uint32_t k = *shard; k < vault_->num_shards(); ++k, begin = 0) {
    core::Vault* s = vault_->shard(k);
    if (s == nullptr) continue;  // quarantined: skipped, as in every merge
    any_shard = true;
    const uint64_t want = page - arr.size();
    Result<std::vector<core::AuditEvent>> events =
        s->ReadAuditRange(call.actor, begin, want);
    if (!events.ok()) return ErrorFromStatus(events.status());
    for (const core::AuditEvent& e : *events) {
      Value event = AuditEventJson(e);
      event.as_object()["shard"] = Value(k);
      arr.push_back(std::move(event));
    }
    if (events->size() == want) {
      out["next"] = Value("shard=" + std::to_string(k) +
                          "&after=" + std::to_string(events->back().seq));
      break;
    }
  }
  if (!any_shard) return ErrorResponse(503, "all shards quarantined");
  out["events"] = Value(std::move(arr));
  return JsonResponse(200, Value(std::move(out)));
}

HttpResponse MedVaultServer::HandleCheckpoint(const Call& call) {
  // Checkpointing is an auditor/admin act; the vault has no per-shard
  // access gate for it, so enforce the kReadAudit role here. (This
  // replaces an earlier gate that materialized the entire merged audit
  // trail just to learn "yes/no".)
  core::Vault* shard = AnyShard();
  if (shard == nullptr) {
    return ErrorResponse(503, "all shards quarantined");
  }
  Status gate = shard->CheckAuditAccess(call.actor);
  if (!gate.ok()) return ErrorFromStatus(gate);

  Result<std::vector<core::SignedCheckpoint>> checkpoints =
      vault_->CheckpointAudit();
  if (!checkpoints.ok()) return ErrorFromStatus(checkpoints.status());

  Value::Array arr;
  for (size_t i = 0; i < checkpoints->size(); ++i) {
    const core::SignedCheckpoint& cp = (*checkpoints)[i];
    Value::Object o;
    o["shard"] = Value(static_cast<uint64_t>(i));
    o["tree_size"] = Value(cp.tree_size);
    o["root"] = Value(HexEncode(cp.root));
    o["timestamp"] = Value(cp.timestamp);
    o["signature"] = Value(HexEncode(cp.signature));
    arr.push_back(Value(std::move(o)));
  }
  Value::Object out;
  out["checkpoints"] = Value(std::move(arr));
  return JsonResponse(200, Value(std::move(out)));
}

HttpResponse MedVaultServer::HandleBreakGlass(const Call& call) {
  Result<Value> body = ParseJsonObject(call.request.body);
  if (!body.ok()) return ErrorFromStatus(body.status());
  const Value::Object& o = body->as_object();
  Result<std::string> patient = RequireString(o, "patient_id");
  if (!patient.ok()) return ErrorFromStatus(patient.status());
  Result<std::string> justification = RequireString(o, "justification");
  if (!justification.ok()) return ErrorFromStatus(justification.status());
  Result<int64_t> duration = RequireInt(o, "duration_micros");
  if (!duration.ok()) return ErrorFromStatus(duration.status());

  Result<std::string> grant =
      vault_->BreakGlass(call.actor, *patient, *justification, *duration);
  if (!grant.ok()) return ErrorFromStatus(grant.status());
  Value::Object out;
  out["grant_id"] = Value(*grant);
  return JsonResponse(200, Value(std::move(out)));
}

HttpResponse MedVaultServer::HandleConsentGrant(const Call& call) {
  Result<Value> body = ParseJsonObject(call.request.body);
  if (!body.ok()) return ErrorFromStatus(body.status());
  const Value::Object& o = body->as_object();
  Result<std::string> grantee = RequireString(o, "grantee");
  if (!grantee.ok()) return ErrorFromStatus(grantee.status());
  Result<std::string> purpose = RequireString(o, "purpose");
  if (!purpose.ok()) return ErrorFromStatus(purpose.status());
  Result<int64_t> duration = RequireInt(o, "duration_micros");
  if (!duration.ok()) return ErrorFromStatus(duration.status());
  // Omitting record_id makes the grant patient-scoped (all of the
  // caller's records, current and future).
  const std::string record_id = OptionalString(o, "record_id", "");

  Result<core::ConsentGrant> grant = vault_->GrantConsent(
      call.actor, *grantee, record_id, *purpose, *duration);
  if (!grant.ok()) return ErrorFromStatus(grant.status());
  Value::Object out;
  out["grant_id"] = Value(grant->grant_id);
  out["grantee"] = Value(grant->grantee);
  out["scope"] = Value(core::ConsentScopeName(grant->scope));
  out["expires_at"] = Value(grant->expires_at);
  return JsonResponse(201, Value(std::move(out)));
}

HttpResponse MedVaultServer::HandleConsentRevoke(const Call& call) {
  Result<Value> body = ParseJsonObject(call.request.body);
  if (!body.ok()) return ErrorFromStatus(body.status());
  const Value::Object& o = body->as_object();
  Result<std::string> grant_id = RequireString(o, "grant_id");
  if (!grant_id.ok()) return ErrorFromStatus(grant_id.status());

  Status revoked = vault_->RevokeConsent(call.actor, *grant_id);
  if (!revoked.ok()) return ErrorFromStatus(revoked);
  Value::Object out;
  out["ok"] = Value(true);
  out["grant_id"] = Value(*grant_id);
  return JsonResponse(200, Value(std::move(out)));
}

HttpResponse MedVaultServer::HandleConsentList(const Call& call) {
  // Defaults to the caller's own grants; ?patient= lets auditors and
  // admins pull another patient's (the vault's RBAC refuses everyone
  // else).
  std::string patient = call.request.QueryParam("patient");
  if (patient.empty()) patient = call.actor;
  Result<std::vector<core::ConsentGrant>> grants =
      vault_->ListConsents(call.actor, patient);
  if (!grants.ok()) return ErrorFromStatus(grants.status());
  Value::Array arr;
  for (const core::ConsentGrant& g : *grants) {
    Value::Object o;
    o["grant_id"] = Value(g.grant_id);
    o["patient"] = Value(g.patient);
    o["grantee"] = Value(g.grantee);
    if (!g.record_id.empty()) o["record_id"] = Value(g.record_id);
    o["scope"] = Value(core::ConsentScopeName(g.scope));
    o["purpose"] = Value(g.purpose);
    o["issued_at"] = Value(g.issued_at);
    o["expires_at"] = Value(g.expires_at);
    arr.push_back(Value(std::move(o)));
  }
  Value::Object out;
  out["patient"] = Value(patient);
  out["grants"] = Value(std::move(arr));
  return JsonResponse(200, Value(std::move(out)));
}

HttpResponse MedVaultServer::HandleTransparencyStatus(const Call&) {
  core::ShardedTransparencyService* svc = options_.transparency;
  if (svc == nullptr) {
    return ErrorResponse(404, "transparency not configured");
  }
  Value::Array shards;
  for (uint32_t k = 0; k < svc->num_shards(); ++k) {
    Value::Object o;
    o["shard"] = Value(static_cast<uint64_t>(k));
    Result<core::TransparencyLog*> log = svc->log(k);
    if (!log.ok()) {
      o["quarantined"] = Value(true);
      shards.push_back(Value(std::move(o)));
      continue;
    }
    Result<core::CosignedCheckpoint> latest = svc->LatestCosigned(k);
    if (latest.ok()) {
      o["tree_size"] = Value(latest->checkpoint.tree_size);
      o["root"] = Value(HexEncode(latest->checkpoint.root));
      o["cosignatures"] =
          Value(static_cast<uint64_t>(latest->cosignatures.size()));
    } else {
      o["tree_size"] = Value(static_cast<uint64_t>(0));
    }
    shards.push_back(Value(std::move(o)));
  }
  Value::Object out;
  out["num_shards"] = Value(static_cast<uint64_t>(svc->num_shards()));
  out["witnesses"] = Value(static_cast<uint64_t>(svc->witness_count()));
  out["shards"] = Value(std::move(shards));
  return JsonResponse(200, Value(std::move(out)));
}

HttpResponse MedVaultServer::HandleTransparencyCheckpoint(const Call& call) {
  core::ShardedTransparencyService* svc = options_.transparency;
  if (svc == nullptr) {
    return ErrorResponse(404, "transparency not configured");
  }
  Result<uint32_t> shard =
      DecimalParam<uint32_t>(call.request, "shard", /*required=*/false);
  if (!shard.ok()) return ErrorFromStatus(shard.status());
  Result<core::CosignedCheckpoint> latest = svc->LatestCosigned(*shard);
  if (!latest.ok()) return ErrorFromStatus(latest.status());
  Value::Object out = CosignedCheckpointJson(*latest).as_object();
  out["shard"] = Value(*shard);
  return JsonResponse(200, Value(std::move(out)));
}

HttpResponse MedVaultServer::HandleTransparencyConsistency(const Call& call) {
  core::ShardedTransparencyService* svc = options_.transparency;
  if (svc == nullptr) {
    return ErrorResponse(404, "transparency not configured");
  }
  Result<uint32_t> shard =
      DecimalParam<uint32_t>(call.request, "shard", /*required=*/false);
  if (!shard.ok()) return ErrorFromStatus(shard.status());
  Result<uint64_t> from =
      DecimalParam<uint64_t>(call.request, "from", /*required=*/true);
  if (!from.ok()) return ErrorFromStatus(from.status());
  Result<uint64_t> to =
      DecimalParam<uint64_t>(call.request, "to", /*required=*/true);
  if (!to.ok()) return ErrorFromStatus(to.status());

  Result<core::ConsistencyBundle> bundle =
      svc->ConsistencyBetween(*shard, *from, *to);
  if (!bundle.ok()) return ErrorFromStatus(bundle.status());
  Value::Object out;
  out["shard"] = Value(*shard);
  out["from"] = CheckpointJson(bundle->from);
  out["to"] = CheckpointJson(bundle->to);
  out["proof"] = HexPathJson(bundle->proof);
  return JsonResponse(200, Value(std::move(out)));
}

HttpResponse MedVaultServer::HandleTransparencyProof(const Call& call) {
  core::ShardedTransparencyService* svc = options_.transparency;
  if (svc == nullptr) {
    return ErrorResponse(404, "transparency not configured");
  }
  Result<uint32_t> shard =
      DecimalParam<uint32_t>(call.request, "shard", /*required=*/false);
  if (!shard.ok()) return ErrorFromStatus(shard.status());
  Result<uint64_t> seq =
      DecimalParam<uint64_t>(call.request, "seq", /*required=*/true);
  if (!seq.ok()) return ErrorFromStatus(seq.status());

  Result<core::TransparencyLog*> log = svc->log(*shard);
  if (!log.ok()) return ErrorFromStatus(log.status());

  // Default to the latest *published* size: proofs are only servable
  // against checkpointed sizes, where the client holds a signed root.
  Result<uint64_t> size =
      DecimalParam<uint64_t>(call.request, "size", /*required=*/false);
  if (!size.ok()) return ErrorFromStatus(size.status());
  if (*size == 0) {
    Result<core::CosignedCheckpoint> latest = svc->LatestCosigned(*shard);
    if (!latest.ok()) return ErrorFromStatus(latest.status());
    size = latest->checkpoint.tree_size;
  }

  Result<core::EventProof> proof = svc->ProveEventAt(*shard, *seq, *size);
  if (!proof.ok()) return ErrorFromStatus(proof.status());

  // RBAC: the proof carries the event's contents. Patients may prove
  // events about themselves — their own actions, or disclosures of
  // their own records; everyone else needs audit-read privileges
  // (checked and audited by the shard, denial included).
  core::Vault* any = AnyShard();
  if (any == nullptr) return ErrorResponse(503, "all shards quarantined");
  Result<core::Principal> who = any->GetPrincipal(call.actor);
  if (!who.ok()) return ErrorFromStatus(who.status());
  bool own_event = false;
  if (who->role == core::Role::kPatient) {
    const core::AuditEvent& e = proof->event;
    if (e.actor == call.actor) {
      own_event = true;
    } else if (!e.record_id.empty()) {
      Result<core::RecordMeta> meta = vault_->GetRecordMeta(e.record_id);
      own_event = meta.ok() && meta->patient_id == call.actor;
    }
  }
  if (!own_event) {
    Status gate = (*log)->vault()->CheckAuditAccess(call.actor);
    if (!gate.ok()) return ErrorFromStatus(gate);
  }

  Value::Object out;
  out["shard"] = Value(*shard);
  out["event"] = AuditEventJson(proof->event);
  out["tree_size"] = Value(proof->tree_size);
  out["path"] = HexPathJson(proof->path);
  // Ship the matching signed checkpoint so the client can verify the
  // proof end-to-end from this one response.
  Result<core::SignedCheckpoint> cp =
      (*log)->vault()->audit()->CheckpointAt(proof->tree_size);
  if (cp.ok()) out["checkpoint"] = CheckpointJson(*cp);
  return JsonResponse(200, Value(std::move(out)));
}

HttpResponse MedVaultServer::HandleDisclosures(const Call& call) {
  // HIPAA §164.528 accounting of disclosures. Defaults to the caller's
  // own accounting; ?patient= lets auditors/admins pull another
  // patient's (the vault's RBAC refuses everyone else).
  std::string patient = call.request.QueryParam("patient");
  if (patient.empty()) patient = call.actor;
  Result<std::vector<core::AuditEvent>> events =
      vault_->AccountingOfDisclosures(call.actor, patient);
  if (!events.ok()) return ErrorFromStatus(events.status());
  Value::Array arr;
  for (const core::AuditEvent& e : *events) arr.push_back(AuditEventJson(e));
  Value::Object out;
  out["patient"] = Value(patient);
  out["events"] = Value(std::move(arr));
  return JsonResponse(200, Value(std::move(out)));
}

}  // namespace medvault::server
