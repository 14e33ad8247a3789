"""The ``combined`` rank-fusion score function -- the plugin seam, proven.

A weighted blend of citation and text prestige, in the spirit of the
related citation-context ranking work (C-Rank, Doslu & Bingol): citation
links carry endorsement, text similarity carries topicality, and a
convex combination hedges each one's failure mode (sparse in-context
subgraphs for citation, representative drift for text).

This module is deliberately *only* a registration: it builds entirely on
the public plugin API (:class:`~repro.scoring.registry.ScoreFunctionSpec`,
:func:`~repro.scoring.registry.register`, :func:`~repro.scoring.registry.get`)
and touches no core module.
Deleting the registration below removes the function from the CLI, the
workspace, and every evaluation sweep -- which is the proof that adding
a ranking function is a one-file change.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence, Tuple

from repro.core.context import Context, ContextPaperSet
from repro.core.scores import NORMALIZERS, PrestigeScoreFunction
from repro.scoring.registry import ScoreFunctionSpec, get, register


class CombinedPrestige(PrestigeScoreFunction):
    """Weighted blend of component prestige functions.

    Each component's raw per-context scores are put through that
    component's *own* normaliser first (PageRank keeps its teleport
    floor, text similarity stays raw), so the blend mixes commensurable
    [0, 1] values; the weighted sum is then used as-is.  Hierarchy
    max-propagation happens once, at the blend level, via the inherited
    :meth:`~repro.core.scores.base.PrestigeScoreFunction.score_all`.

    ``memos`` optionally gives each component's already-computed
    pre-propagation scores over ``memo_paper_set`` (aligned with
    ``components``, None where a component has none).  A memo entry is
    exactly the normalised raw score times the context's decay, so it
    replaces the component call for a context that belongs to
    ``memo_paper_set`` and does not decay: ``(sum w*n)*d`` and
    ``sum w*(n*d)`` are not bit-equal.  Every other context calls the
    component scorer, inside the same blend loop.
    """

    name = "combined"
    #: Components are normalised individually; the convex blend of [0, 1]
    #: values needs no second rescale.
    normalization = "none"

    def __init__(
        self,
        components: Sequence[Tuple[PrestigeScoreFunction, float]],
        memos: Sequence[Optional[Mapping[str, Mapping[str, float]]]] = (),
        memo_paper_set: Optional[ContextPaperSet] = None,
    ) -> None:
        if not components:
            raise ValueError("combined prestige needs at least one component")
        total = sum(weight for _, weight in components)
        if total <= 0.0:
            raise ValueError("component weights must sum to a positive value")
        if memos and len(memos) != len(components):
            raise ValueError("memos must align with components")
        # Store convex weights so the blend stays in [0, 1].
        self.components = tuple(
            (scorer, weight / total) for scorer, weight in components
        )
        self.memos = tuple(memos) or (None,) * len(self.components)
        self.memo_paper_set = memo_paper_set

    def _memo_applies(self, context: Context) -> bool:
        paper_set = self.memo_paper_set
        return (
            paper_set is not None
            and context.decay == 1.0
            and context.term_id in paper_set
            and paper_set.context(context.term_id) == context
        )

    def score_context(self, context: Context) -> Dict[str, float]:
        blended: Dict[str, float] = {}
        memo_applies = self._memo_applies(context)
        for (scorer, weight), memo in zip(self.components, self.memos):
            if memo_applies and memo is not None:
                # Absent = the component could not score this context.
                normalised = memo.get(context.term_id)
                if not normalised:
                    continue
            else:
                raw = scorer.score_context(context)
                if not raw:
                    continue
                normalised = NORMALIZERS[scorer.normalization](raw)
            for paper_id, value in normalised.items():
                blended[paper_id] = blended.get(paper_id, 0.0) + weight * value
        return blended


#: The blend weights: citation endorsement vs text topicality.
CITATION_WEIGHT = 0.5
TEXT_WEIGHT = 0.5


def _combined_factory(substrates) -> CombinedPrestige:
    """Blend the memoised ``citation/text`` and ``text/text`` tables.

    The component scores are query-independent pre-processing the
    substrate store computes (or installs) once; the blend reads their
    pre-propagation maps instead of scoring both functions again.  The
    fallback scorers come from the same registered specs as the memos.
    """
    parts = (("citation", CITATION_WEIGHT), ("text", TEXT_WEIGHT))
    return CombinedPrestige(
        [(get(name).factory(substrates), weight) for name, weight in parts],
        memos=[
            substrates.prestige(name, "text").pre_propagation for name, _ in parts
        ],
        memo_paper_set=substrates.text_paper_set,
    )


register(
    ScoreFunctionSpec(
        name="combined",
        factory=_combined_factory,
        # The union of the citation and text substrate chains.
        substrates=("citation_graph", "vectors", "representatives"),
        paper_sets=("text",),
        description="rank fusion: convex blend of citation and text prestige",
    )
)
