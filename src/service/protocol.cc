#include "service/protocol.h"

#include "util/check.h"

namespace alphaevolve::service {

bool ReadRequestLine(std::istream& in, std::string* line) {
  line->clear();
  std::streambuf* buf = in.rdbuf();
  bool read_any = false;
  for (int c = buf->sbumpc(); c != std::char_traits<char>::eof();
       c = buf->sbumpc()) {
    if (c == '\n') return true;
    read_any = true;
    if (line->size() <= kMaxRequestBytes) line->push_back(static_cast<char>(c));
  }
  in.setstate(std::ios::eofbit);
  return read_any;
}

std::optional<Request> ParseRequest(const std::string& line,
                                    std::string* error) {
  JsonValue doc;
  try {
    doc = JsonValue::Parse(line);
  } catch (const CheckError& e) {
    if (error != nullptr) *error = e.what();
    return std::nullopt;
  }
  if (!doc.is_object()) {
    if (error != nullptr) *error = "request must be a JSON object";
    return std::nullopt;
  }
  if (!doc.Contains("op") || !doc.At("op").is_string()) {
    if (error != nullptr) *error = "missing string field \"op\"";
    return std::nullopt;
  }
  Request req;
  req.op = doc.At("op").AsString();
  if (doc.Contains("id")) {
    if (!doc.At("id").is_string()) {
      if (error != nullptr) *error = "\"id\" must be a string";
      return std::nullopt;
    }
    req.id = doc.At("id").AsString();
  }
  if (doc.Contains("deadline_ms")) {
    if (!doc.At("deadline_ms").is_number()) {
      if (error != nullptr) *error = "\"deadline_ms\" must be a number";
      return std::nullopt;
    }
    req.deadline_ms = doc.At("deadline_ms").AsDouble();
  }
  if (doc.Contains("params")) {
    if (!doc.At("params").is_object()) {
      if (error != nullptr) *error = "\"params\" must be an object";
      return std::nullopt;
    }
    req.params = doc.At("params");
  }
  return req;
}

std::string ErrorResponse(const std::string& id, const std::string& code,
                          const std::string& message) {
  JsonWriter w;
  w.BeginObject();
  w.Key("id").Value(id);
  w.Key("ok").Value(false);
  w.Key("error").BeginObject();
  w.Key("code").Value(code);
  w.Key("message").Value(message);
  w.EndObject();
  w.EndObject();
  return w.TakeString();
}

std::string OkResponse(const std::string& id,
                       const std::function<void(JsonWriter&)>& fill) {
  JsonWriter w;
  w.BeginObject();
  w.Key("id").Value(id);
  w.Key("ok").Value(true);
  w.Key("result").BeginObject();
  fill(w);
  w.EndObject();
  w.EndObject();
  return w.TakeString();
}

std::string OkResponseRaw(const std::string& id,
                          const std::string& raw_json) {
  // The envelope is built by the writer (so `id` is escaped correctly),
  // then the pre-rendered result value is spliced in before the closing
  // brace.
  JsonWriter w;
  w.BeginObject();
  w.Key("id").Value(id);
  w.Key("ok").Value(true);
  w.EndObject();
  std::string out = w.TakeString();
  out.pop_back();  // '}'
  out += ",\"result\":";
  out += raw_json;
  out += '}';
  return out;
}

}  // namespace alphaevolve::service
