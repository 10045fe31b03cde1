#ifndef ALPHAEVOLVE_SERVICE_PROTOCOL_H_
#define ALPHAEVOLVE_SERVICE_PROTOCOL_H_

#include <cstddef>
#include <functional>
#include <istream>
#include <optional>
#include <string>

#include "util/json.h"

namespace alphaevolve::service {

/// Structured error codes — stable wire strings asserted by tests and the
/// CI smokes. An op past its deadline or rejected at admission always
/// carries one of these, never a free-form message alone.
inline constexpr char kErrBadRequest[] = "bad_request";
inline constexpr char kErrInvalidArgument[] = "invalid_argument";
inline constexpr char kErrQueueFull[] = "queue_full";
inline constexpr char kErrDraining[] = "draining";
inline constexpr char kErrDeadlineExceeded[] = "deadline_exceeded";
inline constexpr char kErrNotFound[] = "not_found";
inline constexpr char kErrInternal[] = "internal";

/// Longest request line the service accepts, in bytes (newline excluded).
/// A longer line is answered with invalid_argument and never parsed.
inline constexpr size_t kMaxRequestBytes = size_t{1} << 20;

/// Longest relative deadline an op may carry, in milliseconds: one day. A
/// larger `deadline_ms` is answered with invalid_argument and never
/// admitted (past ~9.2e12 ms its steady_clock conversion would overflow).
inline constexpr double kMaxDeadlineMs = 24.0 * 60 * 60 * 1000;

/// Reads one '\n'-terminated request line from `in` into `*line` (newline
/// stripped), buffering at most kMaxRequestBytes + 1 bytes — enough for
/// AlphaService::Submit to see that the line is over the cap — and
/// discarding the rest of the line, so one endless line cannot grow the
/// reader's memory. Returns false at end of input with nothing read.
bool ReadRequestLine(std::istream& in, std::string* line);

/// One parsed protocol line:
///   {"op":"submit_search","id":"r1","deadline_ms":500,"params":{...}}
/// `id` is the client's correlation id, echoed verbatim in the response so
/// requests and (asynchronous) responses pair up over one stream.
struct Request {
  std::string op;
  std::string id;
  double deadline_ms = 0.0;  ///< relative intake deadline; 0 = none
  JsonValue params;          ///< the "params" object; null when absent
};

/// Parses one line. Returns nullopt (and fills *error) on malformed JSON or
/// a missing/mistyped field; never throws — a bad client must cost the
/// daemon exactly one error response.
std::optional<Request> ParseRequest(const std::string& line,
                                    std::string* error);

/// `{"id":...,"ok":false,"error":{"code":...,"message":...}}`
std::string ErrorResponse(const std::string& id, const std::string& code,
                          const std::string& message);

/// `{"id":...,"ok":true,"result":{...}}` — `fill` writes the members of the
/// result object (the braces are the envelope's).
std::string OkResponse(const std::string& id,
                       const std::function<void(JsonWriter&)>& fill);

/// Like OkResponse but splices `raw_json` (a complete JSON value, e.g. the
/// metrics-registry snapshot) verbatim as the result.
std::string OkResponseRaw(const std::string& id, const std::string& raw_json);

}  // namespace alphaevolve::service

#endif  // ALPHAEVOLVE_SERVICE_PROTOCOL_H_
