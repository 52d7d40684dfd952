// Error handling primitives used across the dfcnn library.
//
// The library reports contract violations and unrecoverable configuration
// errors through exceptions derived from dfc::Error. Hot simulation paths use
// DFC_ASSERT, which compiles to a cheap check that can be disabled with
// DFCNN_DISABLE_ASSERTS for maximum-speed sweeps.
#pragma once

#include <cstdio>
#include <stdexcept>
#include <string>

namespace dfc {

/// Base class for all errors thrown by the dfcnn library.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// Invalid user-supplied configuration (layer shapes, port counts, ...).
class ConfigError : public Error {
 public:
  explicit ConfigError(const std::string& what) : Error("config error: " + what) {}
};

/// Internal invariant violation; indicates a bug in the library itself.
class InternalError : public Error {
 public:
  explicit InternalError(const std::string& what) : Error("internal error: " + what) {}
};

/// Simulation-level failure (deadlock, FIFO protocol violation, ...).
class SimError : public Error {
 public:
  explicit SimError(const std::string& what) : Error("simulation error: " + what) {}
};

/// run_until exhausted its cycle budget before the predicate was satisfied.
/// A SimError subclass so existing catch sites keep working; harnesses catch
/// it specifically to return a structured partial result (RunStatus::kTimeout)
/// instead of aborting a whole fault campaign or DSE loop.
class TimeoutError : public SimError {
 public:
  explicit TimeoutError(const std::string& what) : SimError(what) {}
};

/// The idle watchdog declared a deadlock/livelock (no FIFO transferred for
/// idle_limit cycles with the run_until predicate unsatisfied). Also a
/// SimError subclass; harnesses map it to RunStatus::kDeadlock.
class DeadlockError : public SimError {
 public:
  explicit DeadlockError(const std::string& what) : SimError(what) {}
};

namespace detail {
[[noreturn]] inline void throw_check_failure(const char* kind, const char* expr,
                                             const char* file, int line,
                                             const std::string& msg) {
  std::string full = std::string(kind) + " failed: " + expr + " at " + file + ":" +
                     std::to_string(line);
  if (!msg.empty()) full += " — " + msg;
  if (std::string(kind) == "DFC_REQUIRE") throw ConfigError(full);
  throw InternalError(full);
}
}  // namespace detail

}  // namespace dfc

/// Validates user-facing preconditions; throws dfc::ConfigError on failure.
#define DFC_REQUIRE(cond, msg)                                                     \
  do {                                                                             \
    if (!(cond)) {                                                                 \
      ::dfc::detail::throw_check_failure("DFC_REQUIRE", #cond, __FILE__, __LINE__, \
                                         (msg));                                   \
    }                                                                              \
  } while (0)

/// Validates internal invariants; throws dfc::InternalError on failure.
#define DFC_CHECK(cond, msg)                                                     \
  do {                                                                           \
    if (!(cond)) {                                                               \
      ::dfc::detail::throw_check_failure("DFC_CHECK", #cond, __FILE__, __LINE__, \
                                         (msg));                                 \
    }                                                                            \
  } while (0)

/// Cheap assertion for hot paths; disabled by defining DFCNN_DISABLE_ASSERTS.
#ifdef DFCNN_DISABLE_ASSERTS
#define DFC_ASSERT(cond, msg) ((void)0)
#else
#define DFC_ASSERT(cond, msg) DFC_CHECK(cond, msg)
#endif
