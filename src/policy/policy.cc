#include "policy/policy.hh"

#include "policy/least_loaded.hh"
#include "policy/profile_guided.hh"
#include "policy/residency_aware.hh"
#include "sim/logging.hh"

namespace flick
{

const char *
placementKindName(PlacementKind kind)
{
    switch (kind) {
      case PlacementKind::staticPlacement:
        return "static";
      case PlacementKind::leastLoaded:
        return "least-loaded";
      case PlacementKind::profileGuided:
        return "profile-guided";
      case PlacementKind::residencyAware:
        return "residency-aware";
    }
    return "unknown";
}

std::shared_ptr<PlacementPolicy>
makePlacementPolicy(PlacementKind kind)
{
    switch (kind) {
      case PlacementKind::staticPlacement:
        return std::make_shared<StaticPlacement>();
      case PlacementKind::leastLoaded:
        return std::make_shared<LeastLoadedPlacement>();
      case PlacementKind::profileGuided:
        return std::make_shared<ProfileGuidedPlacement>();
      case PlacementKind::residencyAware:
        return std::make_shared<ResidencyAwarePlacement>();
    }
    panic("unknown placement kind");
}

} // namespace flick
