#pragma once

/// \file protocol.hpp
/// The one wire protocol of the repo: type-tagged JSON messages, one per
/// dispatch::wire frame, spoken by hovald and its clients over a
/// Unix-domain or TCP socket (src/service/socket.hpp) and by every
/// dispatch host to its workers over a socketpair (each worker is a
/// service::Server; dispatch/dispatch.hpp).  Every message is encoded and
/// parsed here.  Parsing is strict — unknown types, unknown keys, missing
/// fields and type mismatches throw ServiceError, so a garbage frame is
/// rejected with a diagnostic, never accepted-then-misparsed.
///
/// Conversation shape (client `>` / server `<`):
///   > {"type": "hello", "version": 2}                    (must be first)
///   < {"type": "hello", "version": 2}
///   > {"type": "submit", "id": k, "kind": "scenario"|"sweep",
///      "spec": {...}, "progress": true?}
///   < {"type": "progress", "id": k, "completed": c, "total": t}   (opt-in)
///   < {"type": "result", "id": k, "cache_hit": b, "result": {...}|[...]}
///   < {"type": "error", "id": k, "what": "...",
///      "retry_after_ms": n?}                      (id -1: whole connection)
///   > {"type": "cancel", "id": k}
///
/// A client need not wait for the server's hello before submitting; the
/// dispatch host sends its hello and first submit back to back, with one
/// "scenario" submit per sweep point (id = point index) in flight per
/// worker.
///
/// `retry_after_ms` appears only on *retryable* errors — today the
/// daemon's admission-queue `busy` shed — and tells a well-behaved client
/// when to resubmit the identical spec (safe: the spec-hash cache makes
/// repeats byte-identical).  Errors without it are deterministic spec
/// failures that retrying cannot fix.
///
/// `id` is chosen by the client and scopes one job within its connection;
/// ids may be reused once answered, but a duplicate among unanswered jobs
/// is a protocol violation (the server could not route the responses).  A
/// "scenario" submit carries a ScenarioSpec document and is answered with
/// one campaign-result object; a "sweep" submit carries a SweepSpec and is
/// answered with the per-point result array — both in the canonical
/// sim/result_json.hpp form, so daemon-served bytes are comparable against
/// local `hoval_cli --out` files.  `cache_hit` reports whether the result
/// was served from the spec-hash cache (src/service/cache.hpp) without
/// executing any runs.  Neither side signals shutdown beyond closing the
/// connection.

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

#include "util/json.hpp"

namespace hoval::service {

/// Thrown on malformed protocol messages and transport-level failures
/// (connect errors, truncated streams, handshake mismatches).
class ServiceError : public std::runtime_error {
 public:
  explicit ServiceError(const std::string& what) : std::runtime_error(what) {}
};

/// Bumped on any incompatible protocol change; hello frames carry it and
/// both sides reject a peer speaking a different version.  Version 2:
/// CRC-32 in the wire frame header (dispatch/wire.hpp) and the optional
/// `retry_after_ms` hint on error messages.
constexpr int kProtocolVersion = 2;

// --- client -> server ------------------------------------------------------

struct ClientMessage {
  enum class Type { kHello, kSubmit, kCancel };
  Type type = Type::kHello;
  int version = 0;        ///< kHello
  int id = -1;            ///< kSubmit / kCancel
  bool sweep = false;     ///< kSubmit: "kind" was "sweep"
  bool progress = false;  ///< kSubmit: stream progress frames for this job
  Json spec;              ///< kSubmit: the scenario / sweep document
};

std::string encode_hello();
std::string encode_submit(int id, bool sweep, const Json& spec, bool progress);
std::string encode_cancel(int id);

/// Parses and validates one client frame payload.  \throws ServiceError on
/// anything but a well-formed protocol message.
ClientMessage parse_client_message(std::string_view payload);

// --- server -> client ------------------------------------------------------

struct ServerMessage {
  enum class Type { kHello, kProgress, kResult, kError };
  Type type = Type::kHello;
  int version = 0;          ///< kHello
  int id = -1;              ///< job id; -1 only on connection-level kError
  long long completed = 0;  ///< kProgress: runs finished across the job
  long long total = 0;      ///< kProgress: the job's configured run budget
  bool cache_hit = false;   ///< kResult
  Json result;              ///< kResult: object (scenario) or array (sweep)
  std::string what;         ///< kError
  int retry_after_ms = -1;  ///< kError: resubmit hint; -1 = not retryable
};

std::string encode_server_hello();
std::string encode_progress(int id, long long completed, long long total);
std::string encode_result(int id, bool cache_hit, const Json& result);
/// Splices an already-serialised result document into the envelope without
/// reparsing it — the server stores canonical result text in its cache, and
/// this keeps a cached reply byte-identical to the first one.  `result_text`
/// must be a valid compact JSON value (the cache only ever holds dumps).
std::string encode_result_text(int id, bool cache_hit,
                               std::string_view result_text);
/// `retry_after_ms >= 0` marks the error retryable (the admission-queue
/// `busy` shed); the default omits the key entirely.
std::string encode_error(int id, const std::string& what,
                         int retry_after_ms = -1);

/// Parses and validates one server frame payload.  \throws ServiceError.
ServerMessage parse_server_message(std::string_view payload);

}  // namespace hoval::service
