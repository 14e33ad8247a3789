"""Unit tests for the paper vector store."""

import pytest

from repro.core.vectors import PaperVectorStore
from repro.corpus.paper import Section, TEXT_SECTIONS


@pytest.fixture(scope="module")
def store(request):
    corpus = request.getfixturevalue("tiny_corpus")
    return PaperVectorStore(corpus)


class TestSectionVectors:
    def test_unit_norm(self, store):
        vector = store.section_vector("M1", Section.TITLE)
        assert vector.norm == pytest.approx(1.0)

    def test_empty_section_empty_vector(self, store, tiny_corpus):
        # All tiny_corpus papers have all sections; check via a paper with
        # minimal body text instead: vector still built, possibly non-empty.
        vector = store.section_vector("X1", Section.INDEX_TERMS)
        assert vector is not None

    def test_caching_returns_same_object(self, store):
        a = store.section_vector("M1", Section.BODY)
        b = store.section_vector("M1", Section.BODY)
        assert a is b

    def test_related_papers_more_similar(self, store):
        same_topic = store.section_similarity("M1", "M2", Section.BODY)
        cross_topic = store.section_similarity("M1", "S1", Section.BODY)
        off_topic = store.section_similarity("M1", "X1", Section.BODY)
        assert same_topic > cross_topic
        assert cross_topic >= off_topic

    def test_self_similarity_is_one(self, store):
        assert store.section_similarity("M1", "M1", Section.ABSTRACT) == pytest.approx(
            1.0
        )


class TestFullVectors:
    def test_full_similarity_topical(self, store):
        assert store.full_similarity("M1", "M2") > store.full_similarity("M1", "X1")

    def test_query_vector_matches_topic(self, store):
        query = store.query_vector("glucose metabolic glycolysis")
        m1 = store.full_vector("M1")
        x1 = store.full_vector("X1")
        assert query.cosine(m1) > query.cosine(x1)

    def test_query_vector_unknown_words_empty(self, store):
        assert len(store.query_vector("xylophone zeppelin")) == 0

    def test_centroid_of(self, store):
        center = store.centroid_of(["M1", "M2"])
        assert center.cosine(store.full_vector("M1")) > center.cosine(
            store.full_vector("X1")
        )

    def test_centroid_of_empty(self, store):
        assert len(store.centroid_of([])) == 0


class TestBatchedSimilarities:
    MODELS = (None,) + tuple(TEXT_SECTIONS)

    @staticmethod
    def _scalar(store, paper_ids, other, section):
        if section is None:
            return [store.full_similarity(pid, other) for pid in paper_ids]
        return [store.section_similarity(pid, other, section) for pid in paper_ids]

    def test_equal_to_scalar_path(self, store, tiny_corpus):
        paper_ids = tiny_corpus.paper_ids()
        paper_ids = paper_ids + paper_ids[:2]  # repeats are allowed
        for section in self.MODELS:
            for other in ("M1", "S2", "X1"):
                assert store.similarities(paper_ids, other, section) == (
                    self._scalar(store, paper_ids, other, section)
                )

    def test_after_delta_equals_fresh_store(self, tiny_corpus):
        from repro.corpus.corpus import Corpus
        from repro.corpus.paper import Paper
        from repro.obs import get_registry

        corpus = Corpus(list(tiny_corpus))
        store = PaperVectorStore(corpus)
        before = corpus.paper_ids()
        for section in self.MODELS:
            store.similarities(before, "M1", section)
        builds = get_registry().counter("vectors.kernel.builds")
        assert builds.value == len(self.MODELS)

        removed = corpus.remove("M3")
        added = Paper(
            paper_id="N1",
            title="glucose sensing kinase cascade",
            abstract="a glucose sensing kinase cascade in signaling",
            body="kinase cascade signaling responds to glucose sensing stress",
            index_terms=("glucose", "signaling"),
            authors=("D. Delta",),
        )
        corpus.add(added)
        store.apply_delta([added], [removed])
        fresh = PaperVectorStore(corpus)
        after = corpus.paper_ids()
        for section in self.MODELS:
            for other in ("M1", "N1"):
                assert store.similarities(after, other, section) == (
                    fresh.similarities(after, other, section)
                )
        assert builds.value == 3 * len(self.MODELS)
        assert get_registry().counter("vectors.similarity.pairs").value == (
            len(before) * len(self.MODELS) + 4 * len(after) * len(self.MODELS)
        )
