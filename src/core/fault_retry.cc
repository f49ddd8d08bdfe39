#include "core/fault_retry.h"

#include "common/backoff.h"

namespace deepsea {

uint64_t BackoffSeed(int64_t t, int32_t tenant_ord) {
  return static_cast<uint64_t>(t) * 0x9e3779b97f4a7c15ull +
         static_cast<uint64_t>(tenant_ord);
}

RetryOutcome RetryWithBackoff(const std::function<Status()>& attempt,
                              EngineStage stage, EngineObserver* observer,
                              const std::string& tenant,
                              const std::string& fault_view,
                              const FaultHandlingConfig& fault, int64_t t,
                              int32_t tenant_ord) {
  const DeterministicBackoff backoff(fault.Backoff(),
                                     BackoffSeed(t, tenant_ord));
  RetryOutcome out;
  for (int n = 0;; ++n) {
    out.status = attempt();
    if (out.status.ok()) return out;
    ++out.faults;
    if (observer != nullptr) {
      observer->OnFault(stage, fault_view, out.status, n, tenant);
    }
    if (!out.status.IsTransient() || n >= fault.max_retries) return out;
    ++out.retries;
    out.backoff_seconds += backoff.DelaySeconds(n);
    if (observer != nullptr) observer->OnRetry(stage, n + 1, tenant);
  }
}

}  // namespace deepsea
