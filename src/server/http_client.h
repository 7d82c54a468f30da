#ifndef MEDVAULT_SERVER_HTTP_CLIENT_H_
#define MEDVAULT_SERVER_HTTP_CLIENT_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>

#include "common/result.h"
#include "server/http.h"

namespace medvault::server {

/// A response as seen by the client.
struct ClientResponse {
  int status = 0;
  std::map<std::string, std::string> headers;  ///< lowercased names
  std::string body;
};

/// Minimal blocking HTTP/1.1 client over a single keep-alive
/// connection — just enough for server_test and bench_serve to drive
/// the front door without external tooling. Responses are framed by the
/// server's own reader (ReadHttpFrame), with no body cap. Not
/// thread-safe; one client per thread.
class HttpClient {
 public:
  HttpClient() = default;
  ~HttpClient();

  HttpClient(const HttpClient&) = delete;
  HttpClient& operator=(const HttpClient&) = delete;

  // Movable: the moved-from client is disconnected, not double-closed.
  HttpClient(HttpClient&& other) noexcept { *this = std::move(other); }
  HttpClient& operator=(HttpClient&& other) noexcept {
    if (this != &other) {
      Close();
      fd_ = other.fd_;
      port_ = other.port_;
      timeout_micros_ = other.timeout_micros_;
      leftover_ = std::move(other.leftover_);
      other.fd_ = -1;
      other.leftover_.clear();
    }
    return *this;
  }

  /// Connects to 127.0.0.1:`port`. `timeout_micros` bounds connect and
  /// every subsequent socket read (0 = no timeout).
  Status Connect(uint16_t port, uint64_t timeout_micros = 5 * 1000 * 1000);

  bool connected() const { return fd_ >= 0; }
  void Close();

  /// One request/response round trip. `bearer` non-empty adds an
  /// Authorization header. Reconnects transparently if the server
  /// closed the previous keep-alive exchange.
  Result<ClientResponse> Do(const std::string& method,
                            const std::string& target,
                            const std::string& body = "",
                            const std::string& bearer = "");

  /// Sends raw bytes on the connection without reading a response
  /// (tests use this to park a connection mid-request in a worker).
  Status SendRaw(const std::string& data);

  /// Reads one response off the wire (pairs with SendRaw).
  Result<ClientResponse> ReadResponse();

 private:
  Result<ClientResponse> DoOnce(const std::string& wire);

  int fd_ = -1;
  uint16_t port_ = 0;
  uint64_t timeout_micros_ = 0;
  std::string leftover_;
};

}  // namespace medvault::server

#endif  // MEDVAULT_SERVER_HTTP_CLIENT_H_
