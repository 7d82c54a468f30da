#include "server/http.h"

#include <errno.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdint>
#include <string_view>

namespace medvault::server {

namespace {

std::string_view Trim(std::string_view s) {
  size_t b = s.find_first_not_of(" \t");
  if (b == std::string_view::npos) return {};
  return s.substr(b, s.find_last_not_of(" \t") - b + 1);
}

std::string ToLower(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return out;
}

// The one head parser: `head` is a message head without its CRLFCRLF.
// Names are lowercased; the last copy of a repeated field wins, except
// Content-Length. Every refusal below is a framing two parsers could
// disagree on (RFC 9112 sections 5 and 6.3), so none is tolerated.
ReadOutcome ParseHead(std::string_view head, const HttpLimits& limits,
                      std::string* start_line,
                      std::map<std::string, std::string>* headers,
                      size_t* content_length) {
  if (head.size() > limits.max_header_bytes) {
    return ReadOutcome::kHeadersTooLarge;
  }
  size_t pos = 0;
  auto next_line = [&] {
    const size_t eol = std::min(head.find("\r\n", pos), head.size());
    std::string_view line = head.substr(pos, eol - pos);
    pos = eol + 2;
    return line;
  };
  // A bare CR or LF is a line end to some parsers and not to others.
  const std::string_view first = next_line();
  if (first.find_first_of("\r\n") != std::string_view::npos) {
    return ReadOutcome::kMalformed;
  }
  start_line->assign(first);

  headers->clear();
  *content_length = 0;
  bool has_length = false;
  while (pos < head.size()) {
    const std::string_view line = next_line();
    const size_t colon = line.find(':');
    // No colon, an empty name, whitespace before the colon, a line that
    // starts with SP/HTAB (obs-fold), or a bare CR or LF.
    if (colon == std::string_view::npos || colon == 0 ||
        line.find_first_of(" \t") < colon ||
        line.find_first_of("\r\n") != std::string_view::npos) {
      return ReadOutcome::kMalformed;
    }
    std::string name = ToLower(line.substr(0, colon));
    const std::string_view value = Trim(line.substr(colon + 1));
    // Transfer-Encoding is unsupported: a compliance API has no use for
    // chunked uploads, and refusing it leaves Content-Length the only
    // framing, so no TE+CL pair can be read two ways.
    if (name == "transfer-encoding") return ReadOutcome::kMalformed;
    if (name == "content-length") {
      // Even an identical second copy is refused: it buys nothing.
      if (has_length) return ReadOutcome::kMalformed;
      has_length = true;
      auto [ptr, ec] = std::from_chars(value.data(),
                                       value.data() + value.size(),
                                       *content_length, 10);
      if (ec != std::errc() || ptr != value.data() + value.size()) {
        return ReadOutcome::kMalformed;
      }
    }
    (*headers)[std::move(name)] = std::string(value);
  }
  // The second bound keeps the frame size, head + 4 + body, in a size_t.
  if (*content_length > limits.max_body_bytes ||
      *content_length > SIZE_MAX - 4 - head.size()) {
    return ReadOutcome::kBodyTooLarge;
  }
  return ReadOutcome::kOk;
}

// Moves the body of the complete frame at the front of `buffer` into
// `body` and consumes the frame.
void TakeBody(std::string* buffer, size_t header_end, size_t content_length,
              std::string* body) {
  body->assign(*buffer, header_end + 4, content_length);
  buffer->erase(0, header_end + 4 + content_length);
}

// Appends what one recv() returns to `buffer`: the only socket read
// under src/server/. kEof is an orderly shutdown by the peer.
ReadOutcome RecvMore(int fd, std::string* buffer) {
  char chunk[4096];
  while (true) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n > 0) {
      buffer->append(chunk, static_cast<size_t>(n));
      return ReadOutcome::kOk;
    }
    if (n == 0) return ReadOutcome::kEof;
    if (errno == EINTR) continue;
    return errno == EAGAIN || errno == EWOULDBLOCK ? ReadOutcome::kTimeout
                                                   : ReadOutcome::kError;
  }
}

ReadOutcome ParseRequestLine(std::string_view line, HttpRequest* out) {
  const size_t sp1 = line.find(' ');
  const size_t sp2 = line.rfind(' ');
  if (sp1 == std::string_view::npos || sp2 == sp1) {
    return ReadOutcome::kMalformed;
  }
  out->method = line.substr(0, sp1);
  out->target = line.substr(sp1 + 1, sp2 - sp1 - 1);
  out->version = line.substr(sp2 + 1);
  // HTTP-version = "HTTP/" DIGIT "." DIGIT (RFC 9112 section 2.3).
  const std::string& v = out->version;
  const auto digit = [&](size_t i) {
    return std::isdigit(static_cast<unsigned char>(v[i])) != 0;
  };
  if (out->method.empty() || out->target.empty() || v.size() != 8 ||
      v.compare(0, 5, "HTTP/") != 0 || !digit(5) || v[6] != '.' ||
      !digit(7)) {
    return ReadOutcome::kMalformed;
  }
  if (v != "HTTP/1.1" && v != "HTTP/1.0") {
    return ReadOutcome::kVersionNotSupported;
  }
  return ReadOutcome::kOk;
}

}  // namespace

std::string HttpRequest::Path() const {
  size_t q = target.find('?');
  return q == std::string::npos ? target : target.substr(0, q);
}

std::string HttpRequest::Query() const {
  size_t q = target.find('?');
  return q == std::string::npos ? "" : target.substr(q + 1);
}

std::string HttpRequest::QueryParam(const std::string& key) const {
  std::string query = Query();
  size_t pos = 0;
  while (pos < query.size()) {
    size_t amp = query.find('&', pos);
    if (amp == std::string::npos) amp = query.size();
    size_t eq = query.find('=', pos);
    if (eq != std::string::npos && eq < amp &&
        query.compare(pos, eq - pos, key) == 0) {
      return query.substr(eq + 1, amp - eq - 1);
    }
    pos = amp + 1;
  }
  return "";
}

bool HttpRequest::KeepAlive() const {
  auto it = headers.find("connection");
  std::string conn = it == headers.end() ? "" : ToLower(it->second);
  if (version == "HTTP/1.0") return conn == "keep-alive";
  return conn != "close";
}

const char* HttpReasonPhrase(int status) {
  switch (status) {
    case 200: return "OK";
    case 201: return "Created";
    case 204: return "No Content";
    case 400: return "Bad Request";
    case 401: return "Unauthorized";
    case 403: return "Forbidden";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 409: return "Conflict";
    case 410: return "Gone";
    case 413: return "Payload Too Large";
    case 431: return "Request Header Fields Too Large";
    case 500: return "Internal Server Error";
    case 501: return "Not Implemented";
    case 503: return "Service Unavailable";
    case 505: return "HTTP Version Not Supported";
    default: return "Unknown";
  }
}

std::string SerializeHttpResponse(const HttpResponse& response) {
  std::string out = "HTTP/1.1 " + std::to_string(response.status) + " " +
                    HttpReasonPhrase(response.status) + "\r\n";
  if (!response.content_type.empty()) {
    out += "Content-Type: " + response.content_type + "\r\n";
  }
  out += "Content-Length: " + std::to_string(response.body.size()) + "\r\n";
  for (const auto& [name, value] : response.headers) {
    out += name + ": " + value + "\r\n";
  }
  if (response.close) out += "Connection: close\r\n";
  out += "\r\n";
  out += response.body;
  return out;
}

ReadOutcome ParseHttpRequest(std::string* buffer, size_t header_end,
                             const HttpLimits& limits, HttpRequest* out) {
  if (header_end > buffer->size()) return ReadOutcome::kMalformed;
  std::string start_line;
  size_t content_length;
  ReadOutcome rc =
      ParseHead(std::string_view(*buffer).substr(0, header_end), limits,
                &start_line, &out->headers, &content_length);
  if (rc != ReadOutcome::kOk) return rc;
  rc = ParseRequestLine(start_line, out);
  if (rc != ReadOutcome::kOk) return rc;
  if (buffer->size() - header_end < 4 + content_length) {
    return ReadOutcome::kMalformed;
  }
  TakeBody(buffer, header_end, content_length, &out->body);
  return ReadOutcome::kOk;
}

ReadOutcome ReadHttpFrame(int fd, const HttpLimits& limits,
                          std::string* buffer, std::string* start_line,
                          std::map<std::string, std::string>* headers,
                          std::string* body) {
  size_t header_end;
  size_t scan_from = 0;
  while ((header_end = buffer->find("\r\n\r\n", scan_from)) ==
         std::string::npos) {
    // A terminator still to come would start past the cap.
    scan_from = buffer->size() < 3 ? 0 : buffer->size() - 3;
    if (scan_from > limits.max_header_bytes) {
      return ReadOutcome::kHeadersTooLarge;
    }
    const ReadOutcome rc = RecvMore(fd, buffer);
    // A clean EOF only between messages; mid-head it is malformed.
    if (rc == ReadOutcome::kEof && !buffer->empty()) {
      return ReadOutcome::kMalformed;
    }
    if (rc != ReadOutcome::kOk) return rc;
  }
  size_t content_length;
  ReadOutcome rc =
      ParseHead(std::string_view(*buffer).substr(0, header_end), limits,
                start_line, headers, &content_length);
  if (rc != ReadOutcome::kOk) return rc;
  while (buffer->size() - header_end - 4 < content_length) {
    rc = RecvMore(fd, buffer);
    if (rc == ReadOutcome::kEof) return ReadOutcome::kMalformed;  // truncated
    if (rc != ReadOutcome::kOk) return rc;
  }
  TakeBody(buffer, header_end, content_length, body);
  return ReadOutcome::kOk;
}

ReadOutcome ReadHttpRequest(int fd, const HttpLimits& limits,
                            std::string* leftover, HttpRequest* out) {
  std::string start_line;
  const ReadOutcome rc = ReadHttpFrame(fd, limits, leftover, &start_line,
                                       &out->headers, &out->body);
  if (rc != ReadOutcome::kOk) return rc;
  return ParseRequestLine(start_line, out);
}

bool WriteAll(int fd, const std::string& data) {
  size_t off = 0;
  while (off < data.size()) {
    ssize_t n = ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<size_t>(n);
  }
  return true;
}

}  // namespace medvault::server
