"""Common prestige-score machinery.

Every score function maps ``(context, paper) -> prestige in [0, 1]``.
This module provides:

- the :class:`PrestigeScoreFunction` interface;
- :class:`PrestigeScores`, the computed result over a whole context paper
  set;
- min-max normalisation (each function's raw scale differs wildly --
  PageRank probabilities vs. pattern sums -- and the relevancy formula of
  section 3 needs them commensurable);
- hierarchy max-propagation: section 3 modifies p's score in context ci to
  ``max(s_i, s_k, ..., s_n)`` over ci's descendant contexts containing p,
  because high prestige in a more specific descendant implies high
  relevance to the ancestor.
"""

from __future__ import annotations

import abc
import re
from typing import Dict, Iterable, Mapping, Optional, Tuple

from repro.core.context import Context, ContextPaperSet
from repro.obs import get_registry, span

_METRIC_SEGMENT_SUB = re.compile(r"[^a-z0-9_]+")


def min_max_normalize(scores: Mapping[str, float]) -> Dict[str, float]:
    """Rescale to [0, 1] by (x - min) / (max - min).

    Constant inputs map to 0.0 for every paper: a context whose raw
    scores are all equal carries no *relative* evidence, and min-max is
    the spread-only view.  Use :func:`max_normalize` when the raw floor is
    meaningful (PageRank's teleport floor keeps every paper at a positive
    baseline -- the paper's "small number of unique scores" regime, where
    tied papers are equally important rather than all unimportant).
    """
    if not scores:
        return {}
    values = scores.values()
    low, high = min(values), max(values)
    spread = high - low
    if spread == 0.0:
        return {paper_id: 0.0 for paper_id in scores}
    return {pid: (value - low) / spread for pid, value in scores.items()}


def max_normalize(scores: Mapping[str, float]) -> Dict[str, float]:
    """Rescale to [0, 1] by x / max, preserving the raw score *floor*.

    The section-3 relevancy formula mixes prestige with text matching, so
    the absolute level of a context's scores matters: per-context PageRank
    on a sparse citation subgraph leaves most papers at the teleport
    floor, and dividing by the max keeps them at a high shared value --
    "papers with the same scores are considered equally important", which
    is exactly the ranking weakness (everyone survives the relevancy
    threshold together) the paper attributes to citation-based scores.
    All-zero or negative-max inputs map to 0.0.
    """
    if not scores:
        return {}
    high = max(scores.values())
    if high <= 0.0:
        return {paper_id: 0.0 for paper_id in scores}
    return {pid: max(value, 0.0) / high for pid, value in scores.items()}


#: Normalisation registry for :meth:`PrestigeScoreFunction.score_all`.
NORMALIZERS = {
    "minmax": min_max_normalize,
    "max": max_normalize,
    "none": dict,
}


class PrestigeScores:
    """Prestige of every paper in every context, for one score function.

    ``pre_propagation`` optionally retains the per-context scores as they
    were *before* hierarchy max-propagation.  Incremental prestige
    patching needs them: propagation mixes descendant scores into
    ancestors, so patching a changed context requires re-running the
    propagation pass over pre-propagation values, not the merged ones.
    Scores loaded from a workspace artifact carry ``None`` here (the
    artifact stores only final scores) and fall back to full recompute.
    """

    def __init__(
        self,
        function_name: str,
        by_context: Dict[str, Dict[str, float]],
        pre_propagation: Optional[Dict[str, Dict[str, float]]] = None,
    ) -> None:
        self.function_name = function_name
        self._by_context = by_context
        self.pre_propagation = pre_propagation

    def of(self, context_id: str) -> Dict[str, float]:
        """``paper_id -> prestige`` within one context (empty if unknown)."""
        return dict(self._by_context.get(context_id, {}))

    def score(self, context_id: str, paper_id: str, default: float = 0.0) -> float:
        """Prestige of one paper in one context."""
        return self._by_context.get(context_id, {}).get(paper_id, default)

    def context_ids(self):
        return list(self._by_context)

    def __contains__(self, context_id: str) -> bool:
        return context_id in self._by_context

    def __len__(self) -> int:
        return len(self._by_context)


def propagate_max_over_descendants(
    paper_set: ContextPaperSet, by_context: Dict[str, Dict[str, float]]
) -> Dict[str, Dict[str, float]]:
    """Apply section 3's max-over-descendant-contexts score modification.

    For each context ci and paper p in ci, the final score is the maximum
    of p's scores over ci and every descendant context of ci that contains
    p.  Contexts missing from ``by_context`` contribute nothing.
    """
    result: Dict[str, Dict[str, float]] = {}
    for context_id, scores in by_context.items():
        merged = dict(scores)
        for descendant_id in paper_set.descendants_in_set(context_id):
            descendant_scores = by_context.get(descendant_id)
            if not descendant_scores:
                continue
            for paper_id in merged:
                candidate = descendant_scores.get(paper_id)
                if candidate is not None and candidate > merged[paper_id]:
                    merged[paper_id] = candidate
        result[context_id] = merged
    return result


class PrestigeScoreFunction(abc.ABC):
    """Interface of the three section-3 score functions."""

    #: Short name used in experiment tables ("citation", "text", "pattern").
    name: str = "abstract"

    @abc.abstractmethod
    def score_context(self, context: Context) -> Dict[str, float]:
        """Raw (pre-normalisation) scores for every paper in ``context``.

        Implementations may return an empty mapping when the context
        cannot be scored (e.g. no representative paper).
        """

    #: Default per-context normaliser; subclasses override when the raw
    #: scale calls for it (citation scores keep their teleport floor).
    normalization: str = "minmax"

    def score_all(
        self,
        paper_set: ContextPaperSet,
        normalize: Optional[str] = None,
        propagate: bool = True,
    ) -> PrestigeScores:
        """Score every context; normalise and max-propagate.

        ``normalize`` is a :data:`NORMALIZERS` key ("minmax", "max",
        "none"); None uses the function's own default.  Normalisation
        happens per context *before* propagation so that a descendant's
        scores are commensurable with the ancestor's when the max is
        taken -- both live in [0, 1].
        """
        registry = get_registry()
        # Score-function names are free-form ("citation-xctx"); fold them
        # into one valid metric segment so the dotted convention holds.
        metric_name = (
            _METRIC_SEGMENT_SUB.sub("_", self.name.lower()).lstrip("_0123456789")
            or "unnamed"
        )
        with span(
            f"scores.{metric_name}.score_all"
        ) as trace, registry.timer(f"scores.{metric_name}.seconds"):
            key, by_context, papers_scored = self._score_normalized(
                paper_set, normalize
            )
            pre_propagation = None
            if propagate:
                pre_propagation = by_context
                by_context = propagate_max_over_descendants(paper_set, by_context)
            trace.set(
                normalize=key,
                contexts_scored=len(by_context),
                papers_scored=papers_scored,
            )
        registry.counter(f"scores.{metric_name}.contexts_scored").inc(len(by_context))
        registry.counter(f"scores.{metric_name}.papers_scored").inc(papers_scored)
        return PrestigeScores(self.name, by_context, pre_propagation=pre_propagation)

    def score_contexts(
        self,
        paper_set: ContextPaperSet,
        context_ids,
        normalize: Optional[str] = None,
    ) -> Dict[str, Dict[str, float]]:
        """Pre-propagation scores for a subset of contexts.

        The incremental-update path scores only the contexts whose paper
        sets changed, then merges the result into an existing
        :attr:`PrestigeScores.pre_propagation` map and re-runs
        propagation.  Normalisation and decay match :meth:`score_all`
        exactly.  Contexts that cannot be scored map to an *absent* entry,
        mirroring ``score_all``'s skip of empty raw scores.
        """
        wanted = set(context_ids)
        _, by_context, _ = self._score_normalized(
            (context for context in paper_set if context.term_id in wanted),
            normalize,
        )
        return by_context

    def _score_normalized(
        self, contexts: Iterable[Context], normalize: Optional[str]
    ) -> Tuple[str, Dict[str, Dict[str, float]], int]:
        """Score, normalise and decay each context.

        ``normalize`` is a :data:`NORMALIZERS` key or None for the
        function's default; an unknown key raises ``ValueError``.
        Returns the resolved key, the per-context scores (unscorable
        contexts absent) and the number of raw paper scores computed.
        """
        key = normalize if normalize is not None else self.normalization
        try:
            normalizer = NORMALIZERS[key]
        except KeyError:
            raise ValueError(
                f"unknown normalization {key!r}; expected one of "
                f"{sorted(NORMALIZERS)}"
            ) from None
        by_context: Dict[str, Dict[str, float]] = {}
        papers_scored = 0
        for context in contexts:
            raw = self.score_context(context)
            if not raw:
                continue
            papers_scored += len(raw)
            scored = normalizer(raw)
            if context.decay != 1.0:
                scored = {pid: s * context.decay for pid, s in scored.items()}
            by_context[context.term_id] = scored
        return key, by_context, papers_scored
