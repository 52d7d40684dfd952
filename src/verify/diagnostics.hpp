// Stable diagnostic vocabulary of the static design verifier (DESIGN.md §13).
//
// Every problem the verifier can name has a stable code (DF001…), a default
// severity and a *named location* — the FIFO, process, layer or device the
// problem lives at — so tooling (CI gates, editor integrations) can key on
// codes instead of parsing prose. Codes are grouped by family and are never
// renumbered:
//
//   DF0xx  graph structure   (dangling channels, duplicate names, dead stages)
//   DF1xx  shape & ports     (tensor propagation, interleave divisibility)
//   DF2xx  rate consistency  (Eq. 4 II propagation, throttling FIFOs/links)
//   DF3xx  deadlock freedom  (feedback cycles, starved joins, sink demand)
//   DF4xx  resources         (Table I budget, partition legality)
//
// Header-only on purpose: core's spec and partition rules
// (core::check_spec, core::check_partition) speak this vocabulary, and
// NetworkSpec::validate() / core::elaborate throw it as VerifyError, without
// linking the verifier library — the dependency graph stays acyclic
// (verify -> core, never core -> verify).
#pragma once

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"

namespace dfc::verify {

enum class Severity { kError, kWarning, kInfo };

inline const char* severity_name(Severity s) {
  switch (s) {
    case Severity::kError: return "error";
    case Severity::kWarning: return "warning";
    case Severity::kInfo: return "info";
  }
  return "?";
}

/// Stable diagnostic codes. The enumerator name is the code; never renumber.
enum class Code {
  // --- graph structure -------------------------------------------------------
  DF001,  ///< channel has no producer (a consumer would starve forever)
  DF002,  ///< channel has no consumer (fills up and wedges its producer)
  DF003,  ///< duplicate channel or process name
  DF004,  ///< stage unreachable from any source
  // --- shape & ports ---------------------------------------------------------
  DF101,  ///< tensor shape mismatch between consecutive layers
  DF102,  ///< port-count / interleave divisibility violation
  DF103,  ///< weight or bias table size mismatch
  DF104,  ///< element-level filter chain combined with zero-padding
  DF105,  ///< classifier input count does not match upstream volume
  DF106,  ///< core parameter out of range (accumulator count, activation, op latency)
  // --- rate consistency ------------------------------------------------------
  DF201,  ///< FIFO too shallow to sustain one transfer per cycle
  DF202,  ///< inter-device link statically throttles the design interval
  DF203,  ///< link credit window below the credit round trip
  // --- deadlock freedom ------------------------------------------------------
  DF301,  ///< sink demands more words per image than the design delivers
  DF302,  ///< channel cycle (feedback loop) with no initial tokens
  // --- resources & partition -------------------------------------------------
  DF401,  ///< device resource budget exceeded
  DF402,  ///< utilization above the headroom threshold
  DF403,  ///< illegal partition cut (coverage / monotonicity / device count)
};

inline const char* code_name(Code c) {
  switch (c) {
    case Code::DF001: return "DF001";
    case Code::DF002: return "DF002";
    case Code::DF003: return "DF003";
    case Code::DF004: return "DF004";
    case Code::DF101: return "DF101";
    case Code::DF102: return "DF102";
    case Code::DF103: return "DF103";
    case Code::DF104: return "DF104";
    case Code::DF105: return "DF105";
    case Code::DF106: return "DF106";
    case Code::DF201: return "DF201";
    case Code::DF202: return "DF202";
    case Code::DF203: return "DF203";
    case Code::DF301: return "DF301";
    case Code::DF302: return "DF302";
    case Code::DF401: return "DF401";
    case Code::DF402: return "DF402";
    case Code::DF403: return "DF403";
  }
  return "DF???";
}

inline Severity default_severity(Code c) {
  switch (c) {
    case Code::DF004:
    case Code::DF201:
    case Code::DF202:
    case Code::DF203:
    case Code::DF402:
      return Severity::kWarning;
    default:
      return Severity::kError;
  }
}

/// One verifier finding: what (code), how bad (severity), where (entity —
/// the stable FIFO/process/layer/device name) and why (message).
struct Diagnostic {
  Code code = Code::DF001;
  Severity severity = Severity::kError;
  std::string entity;
  std::string message;

  Diagnostic() = default;
  Diagnostic(Code c, std::string where, std::string what)
      : code(c), severity(default_severity(c)), entity(std::move(where)),
        message(std::move(what)) {}

  /// "error DF102 at L2: IN_FM not divisible by IN_PORTS"
  std::string str() const {
    std::string s = severity_name(severity);
    s += " ";
    s += code_name(code);
    s += " at ";
    s += entity.empty() ? "<design>" : entity;
    s += ": ";
    s += message;
    return s;
  }
};

/// Thrown by NetworkSpec::validate() and the builders when a design carries
/// error-severity diagnostics (all of them, not just the first). A
/// ConfigError subclass, so every existing catch site keeps working — but
/// callers that know about the verifier can recover the structured findings
/// instead of parsing what().
class VerifyError : public ConfigError {
 public:
  explicit VerifyError(std::vector<Diagnostic> diagnostics)
      : ConfigError(join(diagnostics)), diagnostics_(std::move(diagnostics)) {}
  explicit VerifyError(Diagnostic d) : VerifyError(std::vector<Diagnostic>{std::move(d)}) {}

  const std::vector<Diagnostic>& diagnostics() const { return diagnostics_; }

 private:
  static std::string join(const std::vector<Diagnostic>& ds) {
    std::string s = "design verification failed";
    for (const Diagnostic& d : ds) {
      s += "\n  ";
      s += d.str();
    }
    return s;
  }
  std::vector<Diagnostic> diagnostics_;
};

}  // namespace dfc::verify
