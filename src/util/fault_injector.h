// Deterministic, seeded fault injection for robustness tests.
//
// The injector is a process-wide singleton that is compiled in always and
// disarmed by default: every site reduces to a single branch on a bool, so
// production paths pay (almost) nothing. Tests arm it with a FaultPlan —
// which site to fail, after how many eligible hits, with what probability
// under which seed — run the pipeline, and assert that the forced failure
// surfaces as a clean Status (never a crash, never a leak).
//
// Sites decide their own failure semantics at the call point:
//   relation.alloc       operators fail relation materialization with
//                        kResourceExhausted (simulated allocation failure)
//   stats.lookup         the Estimator behaves as if the relation had no
//                        gathered statistics (degrades to defaults)
//   governor.checkpoint  the ResourceGovernor trips kDeadlineExceeded
//   spill.open           SpillManager fails to create a partition temp file
//   spill.write          a buffered spill write fails (retried, bounded)
//   spill.read           a spilled partition read fails (retried, bounded)
//   trace.write          Tracer::WriteChromeTrace fails; callers warn, the
//                        query result is unaffected
//   metrics.export       MetricsRegistry::WritePrometheus fails; same deal
//   cache.insert         DecompCache fails to retain a computed entry; the
//                        query keeps its freshly computed decomposition and
//                        only the caching degrades (to a future miss)
//   server.accept        QueryServer's accept loop drops the incoming
//                        connection (simulated accept(2) failure); the
//                        server keeps serving existing sessions
//   server.read          a session read fails as if the peer vanished; the
//                        session closes cleanly, shared state untouched
//   server.write         a session write fails mid-response (broken pipe);
//                        the session closes cleanly after the query's
//                        admission slot and metrics are settled
//   admission.enqueue    the admission controller fails to enqueue a query
//                        that would have waited; the client sees an
//                        admission-shed rejection with a retry-after hint
//   stats.feedback       FeedbackCollector fails to refresh a relation's
//                        statistics after reconciliation; the refresh (and
//                        its epoch bump) is skipped, the query result that
//                        produced the trace is unaffected
//   replan.checkpoint    checkpointing a completed subtree result during a
//                        mid-query replan fails; that node is recomputed by
//                        the replanned tree instead of reused
//   obs.flightrec.dump   FlightRecorder::DumpToFile fails (exporter I/O);
//                        the in-memory ring and the query results that fed
//                        it are unaffected, callers warn

#ifndef HTQO_UTIL_FAULT_INJECTOR_H_
#define HTQO_UTIL_FAULT_INJECTOR_H_

#include <atomic>
#include <cstdint>
#include <limits>
#include <mutex>
#include <string>
#include <vector>

#include "util/rng.h"
#include "util/status.h"

namespace htqo {

// Canonical site names (the sweep in tests/fault_injection_test.cc iterates
// FaultInjector::KnownSites(); add new sites there too).
inline constexpr const char kFaultSiteRelationAlloc[] = "relation.alloc";
inline constexpr const char kFaultSiteStatsLookup[] = "stats.lookup";
inline constexpr const char kFaultSiteGovernorCheckpoint[] =
    "governor.checkpoint";
inline constexpr const char kFaultSiteSpillOpen[] = "spill.open";
inline constexpr const char kFaultSiteSpillWrite[] = "spill.write";
inline constexpr const char kFaultSiteSpillRead[] = "spill.read";
inline constexpr const char kFaultSiteTraceWrite[] = "trace.write";
inline constexpr const char kFaultSiteMetricsExport[] = "metrics.export";
inline constexpr const char kFaultSiteCacheInsert[] = "cache.insert";
inline constexpr const char kFaultSiteServerAccept[] = "server.accept";
inline constexpr const char kFaultSiteServerRead[] = "server.read";
inline constexpr const char kFaultSiteServerWrite[] = "server.write";
inline constexpr const char kFaultSiteAdmissionEnqueue[] = "admission.enqueue";
inline constexpr const char kFaultSiteStatsFeedback[] = "stats.feedback";
inline constexpr const char kFaultSiteReplanCheckpoint[] = "replan.checkpoint";
inline constexpr const char kFaultSiteFlightRecDump[] = "obs.flightrec.dump";

struct FaultPlan {
  // Exact site to target; the empty string targets every site.
  std::string site;
  uint64_t seed = 1;
  // Chance that an eligible hit fires (evaluated with a SplitMix64 stream
  // derived from `seed`, so a plan replays bit-for-bit).
  double probability = 1.0;
  // Eligible hits to let pass before any can fire.
  std::size_t skip_first = 0;
  // Stop firing after this many injected faults.
  std::size_t max_fires = std::numeric_limits<std::size_t>::max();
};

class FaultInjector {
 public:
  static FaultInjector& Instance();

  // Arms the plan. A plan naming a site that is not in KnownSites() (and is
  // not the match-everything empty string) returns kInvalidArgument and
  // leaves the injector disarmed — a typo'd site in a chaos configuration
  // must fail loudly, not silently never fire.
  Status Arm(const FaultPlan& plan);
  void Disarm();
  bool armed() const { return armed_.load(std::memory_order_relaxed); }

  // Called at an injection site; true when the site must fail now.
  // Disarmed: a single atomic branch. Armed evaluations serialize on a
  // mutex so the hit/fire bookkeeping and the seeded RNG stream stay exact
  // when sites are reached from pool workers. (Which worker consumes which
  // RNG draw is scheduling-dependent, but plans used by the multithreaded
  // tests pin probability to 0 or 1, where the stream order is irrelevant.)
  bool ShouldFail(const char* site) {
    if (!armed()) return false;
    return ShouldFailSlow(site);
  }

  // Eligible evaluations / injected faults since the last Arm.
  std::size_t hits() const {
    std::lock_guard<std::mutex> lock(mu_);
    return hits_;
  }
  std::size_t fires() const {
    std::lock_guard<std::mutex> lock(mu_);
    return fires_;
  }

  // Every canonical site, for exhaustive sweeps.
  static std::vector<std::string> KnownSites();

 private:
  FaultInjector() = default;
  bool ShouldFailSlow(const char* site);

  std::atomic<bool> armed_{false};
  mutable std::mutex mu_;  // guards plan_, rng_, hits_, fires_
  FaultPlan plan_;
  Rng rng_{0};
  std::size_t hits_ = 0;
  std::size_t fires_ = 0;
};

// Arms on construction, disarms on destruction. `status()` reports whether
// the plan was accepted (kInvalidArgument for unknown sites).
class ScopedFaultInjection {
 public:
  explicit ScopedFaultInjection(const FaultPlan& plan)
      : status_(FaultInjector::Instance().Arm(plan)) {}
  ~ScopedFaultInjection() { FaultInjector::Instance().Disarm(); }

  const Status& status() const { return status_; }

  ScopedFaultInjection(const ScopedFaultInjection&) = delete;
  ScopedFaultInjection& operator=(const ScopedFaultInjection&) = delete;

 private:
  Status status_;
};

}  // namespace htqo

#endif  // HTQO_UTIL_FAULT_INJECTOR_H_
