"""Per-section TF-IDF vector store.

One shared component builds and caches every paper vector the text
machinery needs: per-section vectors for the section 3.2 similarity
facets, and whole-paper vectors for representative selection, context
assignment, and AC-answer-set centroid expansion.

Each textual section gets its *own* TF-IDF model (title term statistics
differ wildly from body statistics), plus one model over concatenated
text.  Vectors are computed lazily and memoised -- contexts overlap
heavily, so most papers are vectorised once but consumed many times.

One-vs-many similarities (:meth:`PaperVectorStore.similarities`) run on
a per-model :class:`~repro.text.vectorize.SparseRows` copy of the cached
vectors, bit-identical to the scalar :meth:`section_similarity` /
:meth:`full_similarity`.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence

from repro.corpus.corpus import Corpus
from repro.corpus.paper import Paper, Section, TEXT_SECTIONS
from repro.obs import get_registry
from repro.text.analyze import Analyzer, default_analyzer
from repro.text.vectorize import SparseRows, SparseVector, TfidfModel, centroid


class PaperVectorStore:
    """Lazy per-section and whole-paper TF-IDF vectors for a corpus."""

    def __init__(self, corpus: Corpus, analyzer: Optional[Analyzer] = None) -> None:
        self.corpus = corpus
        self.analyzer = analyzer if analyzer is not None else default_analyzer()
        self._section_models: Dict[Section, TfidfModel] = {}
        self._full_model: Optional[TfidfModel] = None
        self._section_vectors: Dict[Section, Dict[str, SparseVector]] = {
            section: {} for section in TEXT_SECTIONS
        }
        self._full_vectors: Dict[str, SparseVector] = {}
        # Ordered term->count maps of each paper's full text, keyed in
        # first-occurrence token order.  Analysis is the dominant cost of
        # (re)vectorisation; after an incremental IDF update every cached
        # vector is stale but these counts stay valid, so re-weighting a
        # paper is O(distinct terms) instead of O(tokens).
        self._full_counts: Dict[str, Dict[str, int]] = {}
        # Batched-similarity arrays per model (None = whole paper), rows in
        # ``corpus.paper_ids()`` order; dropped with the vector caches.
        self._rows: Dict[Optional[Section], SparseRows] = {}
        self._row_of: Dict[str, int] = {}

    # -- models -----------------------------------------------------------------

    @staticmethod
    def _ordered_counts(terms: Iterable[str]) -> Dict[str, int]:
        """Term counts keyed in first-occurrence order of the stream."""
        counts: Dict[str, int] = {}
        for term in terms:
            counts[term] = counts.get(term, 0) + 1
        return counts

    def full_counts(self, paper_id: str) -> Mapping[str, int]:
        """Cached ordered term counts of one paper's full text."""
        counts = self._full_counts.get(paper_id)
        if counts is None:
            counts = self._ordered_counts(
                self.analyzer.analyze(self.corpus.paper(paper_id).all_text())
            )
            self._full_counts[paper_id] = counts
        return counts

    def section_model(self, section: Section) -> TfidfModel:
        """The TF-IDF model fit over one section of every corpus paper."""
        model = self._section_models.get(section)
        if model is None:
            model = TfidfModel()
            model.fit(
                self.analyzer.analyze(paper.section_text(section))
                for paper in self.corpus
            )
            self._section_models[section] = model
        return model

    @property
    def full_model(self) -> TfidfModel:
        """The TF-IDF model over whole-paper (all sections) text.

        Fitting from the ordered count maps assigns the same term ids and
        document frequencies as fitting from the raw token streams (ids
        come from first-occurrence order, frequencies from distinct
        terms), while caching the counts for cheap re-vectorisation.
        """
        if self._full_model is None:
            model = TfidfModel()
            for paper in self.corpus:
                model.vocabulary.add_document(self.full_counts(paper.paper_id))
            self._full_model = model
        return self._full_model

    # -- vectors ----------------------------------------------------------------

    def section_vector(self, paper_id: str, section: Section) -> SparseVector:
        """Unit TF-IDF vector of one paper section (empty if no text)."""
        cache = self._section_vectors[section]
        vector = cache.get(paper_id)
        if vector is None:
            model = self.section_model(section)
            text = self.corpus.paper(paper_id).section_text(section)
            vector = model.vectorize(self.analyzer.analyze(text))
            cache[paper_id] = vector
        return vector

    def full_vector(self, paper_id: str) -> SparseVector:
        """Unit TF-IDF vector of the paper's full text."""
        vector = self._full_vectors.get(paper_id)
        if vector is None:
            vector = self.full_model.vectorize_counts(self.full_counts(paper_id))
            self._full_vectors[paper_id] = vector
        return vector

    def query_vector(self, text: str) -> SparseVector:
        """Vectorise free text against the whole-paper model."""
        return self.full_model.vectorize(self.analyzer.analyze(text))

    def centroid_of(self, paper_ids: Iterable[str]) -> SparseVector:
        """Centroid of the whole-paper vectors of ``paper_ids``."""
        return centroid(self.full_vector(pid) for pid in paper_ids)

    def section_similarity(
        self, paper_a: str, paper_b: str, section: Section
    ) -> float:
        """Cosine similarity of one section across two papers."""
        return self.section_vector(paper_a, section).cosine(
            self.section_vector(paper_b, section)
        )

    def full_similarity(self, paper_a: str, paper_b: str) -> float:
        """Cosine similarity of whole-paper vectors."""
        return self.full_vector(paper_a).cosine(self.full_vector(paper_b))

    def similarities(
        self,
        paper_ids: Sequence[str],
        other_id: str,
        section: Optional[Section] = None,
    ) -> List[float]:
        """Batched :meth:`section_similarity` (or :meth:`full_similarity`
        when ``section`` is None) of each paper against ``other_id``.

        Equal, float for float, to ``[section_similarity(p, other_id,
        section) for p in paper_ids]``; one numpy pass instead of one dict
        walk per pair.
        """
        rows = self._rows.get(section)
        if rows is None:
            rows = self._build_rows(section)
        if section is None:
            query = self.full_vector(other_id)
        else:
            query = self.section_vector(other_id, section)
        get_registry().counter("vectors.similarity.pairs").inc(len(paper_ids))
        return rows.cosines([self._row_of[pid] for pid in paper_ids], query)

    def _build_rows(self, section: Optional[Section]) -> SparseRows:
        paper_ids = self.corpus.paper_ids()
        if not self._row_of:
            self._row_of = {pid: row for row, pid in enumerate(paper_ids)}
        if section is None:
            vectors = [self.full_vector(pid) for pid in paper_ids]
        else:
            vectors = [self.section_vector(pid, section) for pid in paper_ids]
        rows = SparseRows(vectors)
        self._rows[section] = rows
        get_registry().counter("vectors.kernel.builds").inc()
        return rows

    # -- incremental updates ------------------------------------------------------

    def apply_delta(
        self, added: Sequence[Paper], removed: Sequence[Paper]
    ) -> None:
        """Splice a corpus delta into every fitted model.

        ``removed`` takes the :class:`Paper` objects (already popped from
        the corpus) because their text is needed to reverse the document
        statistics.  Fitted vocabularies are updated exactly -- removal
        leaves "ghost" terms with zero document frequency which
        vectorisation skips, so the updated models produce the same
        vectors as models fitted from scratch on the surviving papers.
        Every cached vector is dropped (a corpus-wide IDF shift stales
        them all); whole-paper vectors rebuild cheaply from the retained
        count maps.  Models not yet fitted stay lazy and simply see the
        mutated corpus when first requested.
        """
        if self._full_model is not None:
            vocabulary = self._full_model.vocabulary
            for paper in removed:
                counts = self._full_counts.pop(paper.paper_id, None)
                if counts is None:
                    counts = self._ordered_counts(
                        self.analyzer.analyze(paper.all_text())
                    )
                vocabulary.remove_document(counts)
            for paper in added:
                counts = self._ordered_counts(
                    self.analyzer.analyze(paper.all_text())
                )
                self._full_counts[paper.paper_id] = counts
                vocabulary.add_document(counts)
        else:
            for paper in removed:
                self._full_counts.pop(paper.paper_id, None)
        for section, model in self._section_models.items():
            vocabulary = model.vocabulary
            for paper in removed:
                vocabulary.remove_document(
                    self.analyzer.analyze(paper.section_text(section))
                )
            for paper in added:
                vocabulary.add_document(
                    self.analyzer.analyze(paper.section_text(section))
                )
        for cache in self._section_vectors.values():
            cache.clear()
        self._full_vectors.clear()
        self._rows.clear()
        self._row_of = {}

    # -- (de)serialisation --------------------------------------------------------

    def warm(self) -> None:
        """Fit every model and vectorise every paper's full text.

        The workspace builder calls this before serialising so a loaded
        store serves queries (which need the full model) and centroid /
        representative work (full vectors) without touching the analyzer.
        Per-section vectors stay lazy: only score *building* reads them.
        """
        for section in TEXT_SECTIONS:
            self.section_model(section)
        for paper_id in self.corpus.paper_ids():
            self.full_vector(paper_id)

    def to_payload(self) -> Dict[str, object]:
        """JSON-able snapshot: fitted models + cached whole-paper vectors."""
        return {
            "section_models": {
                section.value: model.to_payload()
                for section, model in self._section_models.items()
            },
            "full_model": (
                self._full_model.to_payload()
                if self._full_model is not None
                else None
            ),
            "full_vectors": {
                paper_id: {
                    str(term_id): weight
                    for term_id, weight in vector.weights.items()
                }
                for paper_id, vector in self._full_vectors.items()
            },
        }

    @classmethod
    def from_payload(
        cls, payload: Dict, corpus: Corpus, analyzer: Optional[Analyzer] = None
    ) -> "PaperVectorStore":
        """Rebuild a warmed store from :meth:`to_payload` output."""
        store = cls(corpus, analyzer)
        for section_value, model_payload in payload["section_models"].items():
            store._section_models[Section(section_value)] = TfidfModel.from_payload(
                model_payload
            )
        if payload.get("full_model") is not None:
            store._full_model = TfidfModel.from_payload(payload["full_model"])
        store._full_vectors = {
            paper_id: SparseVector(
                {int(term_id): float(w) for term_id, w in weights.items()}
            )
            for paper_id, weights in payload["full_vectors"].items()
        }
        return store
