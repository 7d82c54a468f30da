#include "server/http_client.h"

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <strings.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <charconv>
#include <cstring>
#include <limits>

namespace medvault::server {

HttpClient::~HttpClient() { Close(); }

void HttpClient::Close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  leftover_.clear();
}

Status HttpClient::Connect(uint16_t port, uint64_t timeout_micros) {
  Close();
  port_ = port;
  timeout_micros_ = timeout_micros;
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return Status::IoError("socket: " + std::string(strerror(errno)));
  if (timeout_micros_ > 0) {
    struct timeval tv;
    tv.tv_sec = static_cast<time_t>(timeout_micros_ / 1000000);
    tv.tv_usec = static_cast<suseconds_t>(timeout_micros_ % 1000000);
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  }
  int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    Status s = Status::IoError("connect: " + std::string(strerror(errno)));
    Close();
    return s;
  }
  return Status::OK();
}

Status HttpClient::SendRaw(const std::string& data) {
  if (fd_ < 0) return Status::FailedPrecondition("not connected");
  if (!WriteAll(fd_, data)) {
    return Status::IoError("send failed");
  }
  return Status::OK();
}

Result<ClientResponse> HttpClient::ReadResponse() {
  if (fd_ < 0) return Status::FailedPrecondition("not connected");
  // A replication cut response carries a whole batch: no body cap.
  constexpr HttpLimits kResponseLimits{HttpLimits{}.max_header_bytes,
                                       std::numeric_limits<size_t>::max()};
  ClientResponse out;
  std::string status_line;
  const ReadOutcome rc = ReadHttpFrame(fd_, kResponseLimits, &leftover_,
                                       &status_line, &out.headers, &out.body);
  if (rc == ReadOutcome::kEof || rc == ReadOutcome::kTimeout ||
      rc == ReadOutcome::kError) {
    return Status::IoError("no response: connection closed or recv failed");
  }
  if (rc != ReadOutcome::kOk) return Status::Corruption("malformed response");

  const size_t sp = status_line.find(' ');
  if (sp == std::string::npos) {
    return Status::Corruption("malformed status line");
  }
  auto [ptr, ec] = std::from_chars(status_line.data() + sp + 1,
                                   status_line.data() + status_line.size(),
                                   out.status, 10);
  if (ec != std::errc()) return Status::Corruption("malformed status code");

  auto conn = out.headers.find("connection");
  if (conn != out.headers.end() &&
      ::strcasecmp(conn->second.c_str(), "close") == 0) {
    Close();
  }
  return out;
}

Result<ClientResponse> HttpClient::DoOnce(const std::string& wire) {
  MEDVAULT_RETURN_IF_ERROR(SendRaw(wire));
  return ReadResponse();
}

Result<ClientResponse> HttpClient::Do(const std::string& method,
                                      const std::string& target,
                                      const std::string& body,
                                      const std::string& bearer) {
  std::string wire = method + " " + target + " HTTP/1.1\r\n";
  wire += "Host: 127.0.0.1\r\n";
  if (!bearer.empty()) wire += "Authorization: Bearer " + bearer + "\r\n";
  if (!body.empty() || method == "POST") {
    wire += "Content-Type: application/json\r\n";
    wire += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  }
  wire += "\r\n";
  wire += body;

  if (fd_ < 0) MEDVAULT_RETURN_IF_ERROR(Connect(port_, timeout_micros_));
  Result<ClientResponse> first = DoOnce(wire);
  if (first.ok()) return first;
  // The server may have dropped an idle keep-alive connection between
  // requests; one reconnect covers that without masking real failures.
  MEDVAULT_RETURN_IF_ERROR(Connect(port_, timeout_micros_));
  return DoOnce(wire);
}

}  // namespace medvault::server
