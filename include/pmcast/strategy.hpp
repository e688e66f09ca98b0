#pragma once
/// \file pmcast/strategy.hpp
/// Stable identifiers for the solver strategies a SolveRequest may allow
/// and a SolveResponse reports on. Mirrors the runtime's internal Strategy
/// enum one-to-one (checked by a static_assert in the Service
/// implementation) so the facade stays decoupled from runtime headers.
///
/// This header is self-contained (standard library only).

#include <optional>
#include <string_view>
#include <vector>

namespace pmcast {

enum class StrategyId {
  Mcph = 0,            ///< paper Fig. 9 tree heuristic
  PrunedDijkstra,      ///< Steiner baseline
  Kmb,                 ///< Steiner baseline (distance network)
  MulticastUb,         ///< LP scatter bound, always reconstructible
  AugmentedSources,    ///< paper Fig. 8 multisource heuristic
  ReducedBroadcast,    ///< paper Fig. 6 platform heuristic
  AugmentedMulticast,  ///< paper Fig. 7 platform heuristic
  Exact,               ///< tree-enumeration LP (small instances only)
};

/// Stable lowercase token ("mcph", "pruned_dijkstra", ...). These strings
/// are part of the v1 contract (they appear in BENCH_*.json and logs).
inline const char* strategy_id_name(StrategyId id) {
  switch (id) {
    case StrategyId::Mcph: return "mcph";
    case StrategyId::PrunedDijkstra: return "pruned_dijkstra";
    case StrategyId::Kmb: return "kmb";
    case StrategyId::MulticastUb: return "multicast_ub";
    case StrategyId::AugmentedSources: return "augmented_sources";
    case StrategyId::ReducedBroadcast: return "reduced_broadcast";
    case StrategyId::AugmentedMulticast: return "augmented_multicast";
    case StrategyId::Exact: return "exact";
  }
  return "?";
}

/// All strategies in launch order: cheap and certain first, so tight
/// budgets still produce a certified answer.
inline std::vector<StrategyId> all_strategy_ids() {
  return {StrategyId::Mcph,
          StrategyId::PrunedDijkstra,
          StrategyId::Kmb,
          StrategyId::MulticastUb,
          StrategyId::AugmentedSources,
          StrategyId::ReducedBroadcast,
          StrategyId::AugmentedMulticast,
          StrategyId::Exact};
}

inline std::optional<StrategyId> strategy_id_from_name(std::string_view name) {
  for (StrategyId id : all_strategy_ids()) {
    if (name == strategy_id_name(id)) return id;
  }
  return std::nullopt;
}

/// How the portfolio may use cross-strategy incumbent bounds to cut work
/// (mirrors the runtime's PruningPolicy one-to-one; checked by a
/// static_assert in the Service implementation). Every cut is *sound* —
/// the pruned work provably could not have produced a better certified
/// period — so the response's period is the same under both policies.
enum class PruningPolicy {
  Off = 0,        ///< blind-to-completion: run every allowed strategy
  Deterministic,  ///< staged race: pruning decisions read barrier-fenced
                  ///< snapshots only, so per-strategy outcomes are
                  ///< bit-identical across thread counts and the winner
                  ///< and period match Off exactly
};

inline const char* pruning_policy_id_name(PruningPolicy policy) {
  switch (policy) {
    case PruningPolicy::Off: return "off";
    case PruningPolicy::Deterministic: return "deterministic";
  }
  return "?";
}

}  // namespace pmcast
