// Request-scoped tracing for the serving path (DESIGN.md §15). A
// RequestContext travels with one request through the daemon: it carries
// the wire-propagated request id (or a daemon-assigned one when the client
// sent none), whether the client asked for a trace echo, and a Trace that
// collects both the serving phases (queue_wait, admission, decode,
// evaluate, encode, write) and the engine's query phases (threaded in via
// QueryOptions::trace) — so a single slow request is attributable end to
// end from one record. Both kinds are obs::Phase spans (obs/trace.h), so
// each also feeds its process-wide histogram and the aggregate breakdown
// is visible without tracing a single request.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "obs/trace.h"

namespace colgraph::obs {

/// \brief Per-request identity + trace collector for the serving path.
///
/// Constructed by the connection handler before the request's first byte
/// is decoded; MarkStart() re-anchors the clock (and replaces the Trace)
/// when the request actually begins, so keep-alive idle time between
/// requests on one connection is excluded. Not thread-safe except through
/// trace() (which is): one request is handled by one worker.
class RequestContext {
 public:
  RequestContext() { MarkStart(); }

  RequestContext(const RequestContext&) = delete;
  RequestContext& operator=(const RequestContext&) = delete;

  /// Re-anchors the request start time and discards any previously
  /// recorded events. Call at the moment the request's first byte arrives.
  void MarkStart() {
    start_us_ = NowMicros();
    trace_ = std::make_unique<Trace>();
    request_id_ = 0;
    trace_requested_ = false;
  }

  /// Adopts the identity the client sent in the wire context extension.
  void AdoptWireContext(uint64_t request_id, bool trace_requested) {
    request_id_ = request_id;
    trace_requested_ = trace_requested;
  }

  /// Daemon-assigned fallback id for clients that sent no context (old
  /// protocol); keeps every slow-query record keyed.
  void set_request_id(uint64_t id) { request_id_ = id; }

  uint64_t request_id() const { return request_id_; }
  /// True when the client asked for the trace to be echoed in the
  /// response (wire context flag bit 0).
  bool trace_requested() const { return trace_requested_; }

  Trace& trace() { return *trace_; }
  const Trace& trace() const { return *trace_; }

  uint64_t ElapsedUs() const { return NowMicros() - start_us_; }

  /// Renders the joined trace as one JSON object:
  /// {"request_id":...,"snapshot_epoch":...,"total_us":...,
  ///  "events":[{"name":...,"start_us":...,"duration_us":...},...]}.
  /// This is the trace echoed to the client; event start times are
  /// relative to the request start.
  std::string ToJson(uint64_t snapshot_epoch) const;

 private:
  uint64_t request_id_ = 0;
  bool trace_requested_ = false;
  uint64_t start_us_ = 0;
  // unique_ptr (not inline) so MarkStart can discard stale events: Trace
  // anchors its origin at construction and is deliberately not resettable.
  std::unique_ptr<Trace> trace_;
};

}  // namespace colgraph::obs
