#include "service/protocol.hpp"

#include <limits>

namespace hoval::service {

namespace {

[[noreturn]] void reject(const std::string& what) {
  throw ServiceError("service message: " + what);
}

/// Extracts a bounded integer member or rejects; `minimum` lets "id"
/// accept the connection-level -1 while counters stay non-negative.
long long required_integer(const Json& message, const char* key,
                           long long minimum) {
  const Json* value = message.find(key);
  if (!value || !value->is_integer())
    reject(std::string("\"") + key + "\" must be an integer");
  long long parsed = std::numeric_limits<long long>::min();
  try {
    parsed = value->as_int64();
  } catch (const JsonError&) {
    // uint64 beyond int64: out of range below either way.
  }
  if (parsed < minimum)
    reject(std::string("\"") + key + "\" must be >= " +
           std::to_string(minimum));
  return parsed;
}

int required_id(const Json& message, long long minimum = 0) {
  const long long value = required_integer(message, "id", minimum);
  if (value > std::numeric_limits<int>::max()) reject("\"id\" out of range");
  return static_cast<int>(value);
}

const Json& required_member(const Json& message, const char* key) {
  const Json* value = message.find(key);
  if (!value) reject(std::string("missing \"") + key + "\"");
  return *value;
}

bool required_bool(const Json& message, const char* key) {
  const Json& value = required_member(message, key);
  if (!value.is_bool()) reject(std::string("\"") + key + "\" must be a bool");
  return value.as_bool();
}

/// Rejects members outside the allowed set for this message type; `extras`
/// is a null-terminated list of keys beyond the universal "type".
void check_keys(const Json& message, const char* type,
                std::initializer_list<const char*> extras) {
  for (const auto& member : message.members()) {
    if (member.first == "type") continue;
    bool known = false;
    for (const char* key : extras)
      if (member.first == key) known = true;
    if (!known)
      reject("unknown key \"" + member.first + "\" in \"" + type +
             "\" message");
  }
}

Json parse_object_payload(std::string_view payload) {
  Json message;
  try {
    message = Json::parse(payload);
  } catch (const JsonError& e) {
    reject(std::string("payload is not JSON: ") + e.what());
  }
  if (!message.is_object()) reject("payload must be a JSON object");
  return message;
}

const std::string& required_type(const Json& message) {
  const Json* type = message.find("type");
  if (!type || !type->is_string()) reject("missing string \"type\"");
  return type->as_string();
}

}  // namespace

// --- client -> server ------------------------------------------------------

std::string encode_hello() {
  Json message = Json::object();
  message.set("type", "hello");
  message.set("version", kProtocolVersion);
  return message.dump();
}

std::string encode_submit(int id, bool sweep, const Json& spec,
                          bool progress) {
  Json message = Json::object();
  message.set("type", "submit");
  message.set("id", id);
  message.set("kind", sweep ? "sweep" : "scenario");
  message.set("spec", spec);
  if (progress) message.set("progress", true);
  return message.dump();
}

std::string encode_cancel(int id) {
  Json message = Json::object();
  message.set("type", "cancel");
  message.set("id", id);
  return message.dump();
}

ClientMessage parse_client_message(std::string_view payload) try {
  const Json message = parse_object_payload(payload);
  const std::string& name = required_type(message);

  ClientMessage parsed;
  if (name == "hello") {
    check_keys(message, "hello", {"version"});
    parsed.type = ClientMessage::Type::kHello;
    const long long version = required_integer(message, "version", 0);
    if (version > std::numeric_limits<int>::max())
      reject("\"version\" out of range");
    parsed.version = static_cast<int>(version);
  } else if (name == "submit") {
    check_keys(message, "submit", {"id", "kind", "spec", "progress"});
    parsed.type = ClientMessage::Type::kSubmit;
    parsed.id = required_id(message);
    const Json& kind = required_member(message, "kind");
    if (!kind.is_string() ||
        (kind.as_string() != "scenario" && kind.as_string() != "sweep"))
      reject("\"kind\" must be \"scenario\" or \"sweep\"");
    parsed.sweep = kind.as_string() == "sweep";
    parsed.spec = required_member(message, "spec");
    if (!parsed.spec.is_object()) reject("\"spec\" must be an object");
    if (message.contains("progress"))
      parsed.progress = required_bool(message, "progress");
  } else if (name == "cancel") {
    check_keys(message, "cancel", {"id"});
    parsed.type = ClientMessage::Type::kCancel;
    parsed.id = required_id(message);
  } else {
    reject("unknown type \"" + name + "\"");
  }
  return parsed;
} catch (const JsonError& e) {
  // Backstop: whatever a hostile frame makes the Json layer throw, callers
  // only ever see ServiceError.
  reject(std::string("malformed payload: ") + e.what());
}

// --- server -> client ------------------------------------------------------

std::string encode_server_hello() { return encode_hello(); }

std::string encode_progress(int id, long long completed, long long total) {
  Json message = Json::object();
  message.set("type", "progress");
  message.set("id", id);
  message.set("completed", completed);
  message.set("total", total);
  return message.dump();
}

std::string encode_result(int id, bool cache_hit, const Json& result) {
  Json message = Json::object();
  message.set("type", "result");
  message.set("id", id);
  message.set("cache_hit", cache_hit);
  message.set("result", result);
  return message.dump();
}

std::string encode_result_text(int id, bool cache_hit,
                               std::string_view result_text) {
  // The envelope fields dump identically to encode_result(); the result
  // value is spliced verbatim so cached replies repeat the original bytes.
  std::string out = "{\"type\":\"result\",\"id\":";
  out += std::to_string(id);
  out += ",\"cache_hit\":";
  out += cache_hit ? "true" : "false";
  out += ",\"result\":";
  out.append(result_text.data(), result_text.size());
  out += '}';
  return out;
}

std::string encode_error(int id, const std::string& what,
                         int retry_after_ms) {
  Json message = Json::object();
  message.set("type", "error");
  message.set("id", id);
  message.set("what", what);
  if (retry_after_ms >= 0) message.set("retry_after_ms", retry_after_ms);
  return message.dump();
}

ServerMessage parse_server_message(std::string_view payload) try {
  const Json message = parse_object_payload(payload);
  const std::string& name = required_type(message);

  ServerMessage parsed;
  if (name == "hello") {
    check_keys(message, "hello", {"version"});
    parsed.type = ServerMessage::Type::kHello;
    const long long version = required_integer(message, "version", 0);
    if (version > std::numeric_limits<int>::max())
      reject("\"version\" out of range");
    parsed.version = static_cast<int>(version);
  } else if (name == "progress") {
    check_keys(message, "progress", {"id", "completed", "total"});
    parsed.type = ServerMessage::Type::kProgress;
    parsed.id = required_id(message);
    parsed.completed = required_integer(message, "completed", 0);
    parsed.total = required_integer(message, "total", 0);
  } else if (name == "result") {
    check_keys(message, "result", {"id", "cache_hit", "result"});
    parsed.type = ServerMessage::Type::kResult;
    parsed.id = required_id(message);
    parsed.cache_hit = required_bool(message, "cache_hit");
    parsed.result = required_member(message, "result");
    if (!parsed.result.is_object() && !parsed.result.is_array())
      reject("\"result\" must be an object or an array");
  } else if (name == "error") {
    check_keys(message, "error", {"id", "what", "retry_after_ms"});
    parsed.type = ServerMessage::Type::kError;
    parsed.id = required_id(message, /*minimum=*/-1);
    const Json& what = required_member(message, "what");
    if (!what.is_string()) reject("\"what\" must be a string");
    parsed.what = what.as_string();
    if (message.contains("retry_after_ms")) {
      const long long hint = required_integer(message, "retry_after_ms", 0);
      if (hint > std::numeric_limits<int>::max())
        reject("\"retry_after_ms\" out of range");
      parsed.retry_after_ms = static_cast<int>(hint);
    }
  } else {
    reject("unknown type \"" + name + "\"");
  }
  return parsed;
} catch (const JsonError& e) {
  reject(std::string("malformed payload: ") + e.what());
}

}  // namespace hoval::service
