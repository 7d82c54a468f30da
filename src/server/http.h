#ifndef MEDVAULT_SERVER_HTTP_H_
#define MEDVAULT_SERVER_HTTP_H_

#include <cstddef>
#include <map>
#include <string>

namespace medvault::server {

/// One parsed HTTP/1.1 request. Header names are lowercased (HTTP
/// headers are case-insensitive); values keep their bytes, leading and
/// trailing whitespace stripped.
struct HttpRequest {
  std::string method;   ///< "GET", "POST", ...
  std::string target;   ///< request target as sent ("/v1/records/r-1?v=2")
  std::string version;  ///< "HTTP/1.1"
  std::map<std::string, std::string> headers;
  std::string body;

  /// `target` split at the first '?': path and raw query string.
  std::string Path() const;
  std::string Query() const;
  /// Value of query parameter `key` ("" when absent; no %-decoding —
  /// the API's ids and numbers never need it).
  std::string QueryParam(const std::string& key) const;
  /// True unless the client asked for "Connection: close" (or speaks
  /// HTTP/1.0 without "keep-alive").
  bool KeepAlive() const;
};

/// One HTTP response to serialize. Content-Length is derived from
/// `body`; `headers` carries anything extra (Retry-After, ...).
struct HttpResponse {
  int status = 200;
  std::string content_type = "application/json";
  std::map<std::string, std::string> headers;
  std::string body;
  bool close = false;  ///< emit "Connection: close"
};

/// Standard reason phrase for the handful of codes the server emits.
const char* HttpReasonPhrase(int status);

/// Full wire form of `response` (status line, headers, body).
std::string SerializeHttpResponse(const HttpResponse& response);

/// Input caps. Oversized inputs are rejected *deterministically* (413 /
/// 431), never buffered without bound — an unauthenticated client must
/// not be able to balloon server memory.
struct HttpLimits {
  size_t max_header_bytes = 8 * 1024;
  size_t max_body_bytes = 1 * 1024 * 1024;
};

/// Outcome of reading one request off a connection.
enum class ReadOutcome {
  kOk = 0,
  kEof,           ///< peer closed cleanly between requests
  kMalformed,     ///< unparsable request (-> 400, close)
  kHeadersTooLarge,  ///< header block over the cap (-> 431, close)
  kBodyTooLarge,  ///< declared body over the cap (-> 413, close)
  kVersionNotSupported,  ///< well-formed HTTP/x.y, not 1.0/1.1 (-> 505)
  kTimeout,       ///< blocking read timed out (idle connection)
  kError,         ///< socket error
};

/// Reads one HTTP/1.1 message off blocking socket `fd`: the frame reader
/// behind ReadHttpRequest and HttpClient. It reads until the head's
/// CRLFCRLF (kHeadersTooLarge once that cannot end within the cap),
/// parses the head once, refuses a body over the cap before reading any
/// of it, then reads the rest of the frame. `buffer` is the connection's
/// carry-over: pass the same string for every message on a connection
/// (start empty). On kOk the frame is consumed from it and bytes of the
/// next pipelined message stay there.
ReadOutcome ReadHttpFrame(int fd, const HttpLimits& limits,
                          std::string* buffer, std::string* start_line,
                          std::map<std::string, std::string>* headers,
                          std::string* body);

/// Reads and parses one request from blocking socket `fd`: ReadHttpFrame
/// plus the request line.
ReadOutcome ReadHttpRequest(int fd, const HttpLimits& limits,
                            std::string* leftover, HttpRequest* out);

/// Parses a request already in memory, whose head ends at `header_end`
/// (the position of its CRLFCRLF), with the same head parser as the
/// reader above. Returns kOk, kMalformed (also when `buffer` is short of
/// the frame), kHeadersTooLarge or kBodyTooLarge; kOk consumes the frame
/// from `buffer`.
ReadOutcome ParseHttpRequest(std::string* buffer, size_t header_end,
                             const HttpLimits& limits, HttpRequest* out);

/// Writes all of `data` to blocking socket `fd`; false on error.
bool WriteAll(int fd, const std::string& data);

}  // namespace medvault::server

#endif  // MEDVAULT_SERVER_HTTP_H_
