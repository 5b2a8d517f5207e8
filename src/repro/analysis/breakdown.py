"""Training-time breakdowns in the paper's category scheme.

The stacked-bar figures (3, 4, 5, 20) report the fraction of training time
spent in: MLP forward, embedding forward, backward, optimizer,
CPU-GPU / inter-GPU communication, and the all-to-all collective.  Timelines
produced by the execution models use the same category keys, so converting a
timeline into a figure row is a normalisation step.
"""

from __future__ import annotations

from repro.hwsim.trace import Timeline

#: Category keys in the order the paper's legends list them.
BREAKDOWN_CATEGORIES: tuple[str, ...] = (
    "mlp",
    "embedding",
    "backward",
    "optimizer",
    "comm",
    "alltoall",
    "overhead",
)


def normalised_breakdown(timeline: Timeline) -> dict[str, float]:
    """Per-category fractions of a timeline, with every category present."""
    fractions = timeline.category_fractions()
    full = {category: fractions.get(category, 0.0) for category in BREAKDOWN_CATEGORIES}
    # Any category the timeline used beyond the standard set is kept too.
    for key, value in fractions.items():
        if key not in full:
            full[key] = value
    return full


def embedding_related_fraction(breakdown: dict[str, float]) -> float:
    """Fraction of time spent on embedding work + communication.

    This is the quantity the paper highlights in Figure 3 (up to 75 % for
    Criteo Terabyte in the hybrid mode) — the portion Hotline targets.
    """
    return (
        breakdown.get("embedding", 0.0)
        + breakdown.get("comm", 0.0)
        + breakdown.get("alltoall", 0.0)
        + breakdown.get("optimizer", 0.0)
    )
