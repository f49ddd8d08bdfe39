#ifndef DEEPSEA_CORE_FAULT_RETRY_H_
#define DEEPSEA_CORE_FAULT_RETRY_H_

#include <cstdint>
#include <functional>
#include <string>

#include "common/status.h"
#include "core/engine_observer.h"
#include "core/engine_options.h"

namespace deepsea {

/// Seed of the retry-backoff jitter stream: a pure function of the
/// commit tick and the tenant ordinal, so replays (and a background
/// worker retrying the decision its query planned) draw identical
/// jitter regardless of thread interleaving.
uint64_t BackoffSeed(int64_t t, int32_t tenant_ord);

/// What one RetryWithBackoff run did.
struct RetryOutcome {
  Status status;                 ///< the last attempt's status
  int faults = 0;                ///< failed attempts
  int retries = 0;               ///< failed attempts that were retried
  double backoff_seconds = 0.0;  ///< simulated backoff of those retries
};

/// The fault-retry loop shared by inline decision execution, the merge
/// pass and background materialization jobs (see DESIGN.md, "Failure
/// model and recovery"). Runs `attempt` until it succeeds, fails
/// permanently, or has failed transiently `fault.max_retries` + 1
/// times; the attempt must roll its own effects back on failure. Every
/// failed attempt fires OnFault(stage, fault_view, ...) — `fault_view`
/// is re-read after each attempt, so it may name a field the attempt
/// sets — and every retry fires OnRetry and charges the capped
/// exponential backoff seeded by BackoffSeed(t, tenant_ord). Degrading
/// on a final failure is the caller's business.
RetryOutcome RetryWithBackoff(const std::function<Status()>& attempt,
                              EngineStage stage, EngineObserver* observer,
                              const std::string& tenant,
                              const std::string& fault_view,
                              const FaultHandlingConfig& fault, int64_t t,
                              int32_t tenant_ord);

}  // namespace deepsea

#endif  // DEEPSEA_CORE_FAULT_RETRY_H_
