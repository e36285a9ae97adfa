"""Figure-2-style outcome distributions split by fault family.

The paper's Figure 2 normalizes outcomes over the *activated* runs of
one parameter-corruption campaign.  With the sustained fault families
(:mod:`repro.core.windowed`) the same workload can be measured under
several fault spaces; this module lines their distributions up so the
families are directly comparable — how a server that degrades
gracefully under corrupted arguments behaves when the disk fills up or
its allocator starts failing is exactly the comparison the
resource-exhaustion extension exists to make.
"""

from __future__ import annotations

from typing import Mapping

from ..core.campaign import WorkloadSetResult
from ..core.families import FAMILIES, get_family
from .figures import OutcomeDistribution


class FamilyComparison:
    """Per-family outcome distributions for one workload set label."""

    def __init__(self, label: str,
                 distributions: Mapping[str, OutcomeDistribution]):
        self.label = label
        self.distributions = dict(distributions)

    @property
    def families(self) -> list[str]:
        return [family.name for family in FAMILIES.values()
                if family.name in self.distributions]

    def render(self) -> str:
        lines = [f"Outcome distributions by fault family — {self.label}"]
        for family in self.families:
            lines.append(self.distributions[family].render())
        return "\n".join(lines)


def build_family_comparison(
        label: str,
        results: Mapping[str, WorkloadSetResult]) -> FamilyComparison:
    """``results`` maps family name → its workload-set result."""
    distributions = {
        family: OutcomeDistribution.from_result(
            get_family(family).label, result)
        for family, result in results.items()
    }
    return FamilyComparison(label, distributions)
