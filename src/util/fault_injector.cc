#include "util/fault_injector.h"

#include <algorithm>
#include <cstring>

namespace htqo {

FaultInjector& FaultInjector::Instance() {
  static FaultInjector instance;
  return instance;
}

Status FaultInjector::Arm(const FaultPlan& plan) {
  if (!plan.site.empty()) {
    const std::vector<std::string> known = KnownSites();
    if (std::find(known.begin(), known.end(), plan.site) == known.end()) {
      Disarm();
      return Status::InvalidArgument("unknown fault site '" + plan.site +
                                     "' (see FaultInjector::KnownSites)");
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  plan_ = plan;
  rng_ = Rng(plan.seed);
  hits_ = 0;
  fires_ = 0;
  armed_.store(true, std::memory_order_release);
  return Status::Ok();
}

void FaultInjector::Disarm() {
  armed_.store(false, std::memory_order_release);
}

bool FaultInjector::ShouldFailSlow(const char* site) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!plan_.site.empty() && std::strcmp(site, plan_.site.c_str()) != 0) {
    return false;
  }
  std::size_t hit = hits_++;
  if (hit < plan_.skip_first) return false;
  if (fires_ >= plan_.max_fires) return false;
  if (plan_.probability < 1.0 && rng_.NextDouble() >= plan_.probability) {
    return false;
  }
  ++fires_;
  return true;
}

std::vector<std::string> FaultInjector::KnownSites() {
  return {kFaultSiteRelationAlloc,     kFaultSiteStatsLookup,
          kFaultSiteGovernorCheckpoint, kFaultSiteSpillOpen,
          kFaultSiteSpillWrite,         kFaultSiteSpillRead,
          kFaultSiteTraceWrite,         kFaultSiteMetricsExport,
          kFaultSiteCacheInsert,        kFaultSiteServerAccept,
          kFaultSiteServerRead,         kFaultSiteServerWrite,
          kFaultSiteAdmissionEnqueue,   kFaultSiteStatsFeedback,
          kFaultSiteReplanCheckpoint,   kFaultSiteFlightRecDump};
}

}  // namespace htqo
