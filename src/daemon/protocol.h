// NWDaemon wire protocol: newline-delimited JSON over the control
// socket. Each request is ONE flat JSON object on ONE line; each
// response is one JSON object on one line. Five operations:
//
//   {"op":"SUBMIT","doc":"<a>..</a>","format":"xml","label":"doc-1"}
//   {"op":"ADMIT","query":"//b"}
//   {"op":"RETIRE","qid":3}
//   {"op":"STATS"}
//   {"op":"SHUTDOWN"}
//
// `format` (xml | json | trace, default xml) and `label` are optional
// on SUBMIT; everything else shown is required for its op. Unknown ops
// and unknown keys are errors — the daemon never silently drops part of
// a request (the same fail-fast contract the CLI's enum flags hold).
// Full grammar and the response shapes are documented in docs/DAEMON.md.
//
// The parser here is deliberately NOT a general JSON parser: requests
// are flat (no nested objects/arrays), values are strings, unsigned
// integers, or booleans, and strings support the standard escapes
// including \uXXXX with surrogate pairs (Python's json.dumps default
// ensure_ascii output must round-trip document bytes exactly).
#ifndef NW_DAEMON_PROTOCOL_H_
#define NW_DAEMON_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "stream/token_stream.h"
#include "support/result.h"

namespace nw {

/// The five control-socket operations.
enum class DaemonOp : uint8_t {
  kSubmit,    ///< evaluate one document against the current epoch
  kAdmit,     ///< compile a new query into the live bank, online
  kRetire,    ///< drop an admitted query from the bank, online
  kStats,     ///< per-epoch serving metrics as a JSON object
  kShutdown,  ///< drain in-flight documents and exit the server loop
};

/// Canonical uppercase wire name ("SUBMIT", ...).
const char* DaemonOpName(DaemonOp op);

/// One decoded request. Fields beyond `op` are meaningful only for the
/// ops that carry them (see the header comment).
struct DaemonRequest {
  DaemonOp op = DaemonOp::kStats;
  std::string doc;                         ///< SUBMIT payload
  InputFormat format = InputFormat::kXml;  ///< SUBMIT front end
  bool has_format = false;                 ///< format key present?
  std::string label;                       ///< SUBMIT echo label
  std::string query;                       ///< ADMIT query text
  uint64_t qid = 0;                        ///< RETIRE target
  bool has_qid = false;                    ///< qid key present?
};

/// Decodes one request line. Errors carry a one-line human message the
/// server echoes back verbatim as {"ok":false,"error":...}; nothing is
/// ever half-applied — a request with any unknown op/key/value fails
/// whole. `line` is read in place (no copy); only the decoded strings
/// are allocated.
Result<DaemonRequest> ParseDaemonRequest(std::string_view line);

}  // namespace nw

#endif  // NW_DAEMON_PROTOCOL_H_
