#ifndef KPJ_UTIL_CONCURRENCY_H_
#define KPJ_UTIL_CONCURRENCY_H_

namespace kpj {

/// Shared hardware-clamp policy for every component that takes a thread
/// count: the engine's worker pool, the parallel landmark builder, and the
/// CLI's --threads/--intra-threads validation. Having
/// one implementation keeps "how many workers does N really mean" identical
/// everywhere.

/// Advisory clamp for an explicit thread-count request: the request clamped
/// to `std::thread::hardware_concurrency()`. When hardware concurrency is
/// unknown (reported as 0) the clamp falls back to 2 so explicit
/// parallelism requests still overlap. `threads <= 1` is always 1.
unsigned EffectiveWorkers(unsigned threads);

/// Resolves a worker-count option the way KpjEngine does: `requested == 0`
/// picks the hardware concurrency (fallback 2 when unknown); an explicit
/// request is clamped by EffectiveWorkers only when `clamp_to_hardware` is
/// set (determinism and sanitizer tests deliberately oversubscribe).
unsigned ResolveWorkerCount(unsigned requested, bool clamp_to_hardware);

}  // namespace kpj

#endif  // KPJ_UTIL_CONCURRENCY_H_
