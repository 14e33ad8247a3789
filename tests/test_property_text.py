"""Property-based tests (hypothesis) for the text substrate."""

import math
import string

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.text.analyze import Analyzer
from repro.text.similarity import dice_coefficient, jaccard_similarity
from repro.text.stem import PorterStemmer
from repro.text.tokenize import ngrams, tokenize
from repro.text.vectorize import SparseRows, SparseVector, TfidfModel, centroid

words = st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=12)
texts = st.text(
    alphabet=string.ascii_letters + string.digits + " .,;-'!?()",
    max_size=300,
)
weight_maps = st.dictionaries(
    st.integers(min_value=0, max_value=50),
    st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
    max_size=20,
)
#: Ordinary TF-IDF-range weights plus subnormal and huge magnitudes, whose
#: norm products under- or overflow into the scalar fallback.
kernel_weights = st.one_of(
    st.floats(min_value=0.0, max_value=100.0),
    st.floats(min_value=1e-312, max_value=1e-305),
    st.floats(min_value=1e299, max_value=1e302),
)
#: Row vectors hold term ids 0..30; queries reach up to 60, so some query
#: terms appear in no row.  Few ids keep length ties and overlaps common.
row_maps = st.dictionaries(
    st.integers(min_value=0, max_value=30), kernel_weights, max_size=12
)
query_maps = st.dictionaries(
    st.integers(min_value=0, max_value=60), kernel_weights, max_size=12
)


class TestTokenizeProperties:
    @given(texts)
    def test_tokens_are_lowercase_and_nonempty(self, text):
        for token in tokenize(text):
            assert token
            assert token == token.lower()

    @given(texts)
    def test_tokenize_idempotent_on_joined_output(self, text):
        tokens = tokenize(text)
        assert tokenize(" ".join(tokens)) == tokens

    @given(st.lists(words, max_size=20), st.integers(min_value=1, max_value=5))
    def test_ngram_count(self, tokens, n):
        grams = ngrams(tokens, n)
        assert len(grams) == max(len(tokens) - n + 1, 0)
        for gram in grams:
            assert len(gram) == n


class TestStemmerProperties:
    @given(words)
    def test_stem_idempotent(self, word):
        stemmer = PorterStemmer()
        once = stemmer.stem(word)
        assert stemmer.stem(once) == stemmer.stem(once)

    @given(words)
    def test_stem_never_longer_and_lowercase(self, word):
        stem = PorterStemmer().stem(word)
        assert len(stem) <= len(word)
        assert stem == stem.lower()

    @given(words)
    def test_stem_of_alpha_stays_alpha(self, word):
        assert PorterStemmer().stem(word).isalpha()


class TestAnalyzerProperties:
    @given(texts)
    def test_no_stopwords_survive(self, text):
        analyzer = Analyzer()
        stems_of_stopwords = set()  # stems may coincide; check raw removal
        for term in analyzer.analyze(text):
            assert len(term) >= analyzer.min_token_length

    @given(texts)
    def test_analysis_deterministic(self, text):
        analyzer = Analyzer()
        assert analyzer.analyze(text) == analyzer.analyze(text)


class TestSparseVectorProperties:
    @given(weight_maps, weight_maps)
    def test_cosine_bounds_and_symmetry(self, a, b):
        va, vb = SparseVector(a), SparseVector(b)
        value = va.cosine(vb)
        assert 0.0 <= value <= 1.0
        assert math.isclose(value, vb.cosine(va), rel_tol=1e-9, abs_tol=1e-12)

    @given(weight_maps)
    def test_self_cosine_is_one_or_zero(self, a):
        v = SparseVector(a)
        value = v.cosine(v)
        if v.norm == 0.0:
            assert value == 0.0
        else:
            assert math.isclose(value, 1.0, rel_tol=1e-9)

    @given(weight_maps)
    def test_normalized_has_unit_norm(self, a):
        v = SparseVector(a).normalized()
        if v:
            assert math.isclose(v.norm, 1.0, rel_tol=1e-9)

    @given(weight_maps, weight_maps)
    def test_dot_commutes(self, a, b):
        va, vb = SparseVector(a), SparseVector(b)
        assert math.isclose(va.dot(vb), vb.dot(va), rel_tol=1e-9, abs_tol=1e-12)

    def test_dot_adds_left_to_right(self):
        # Compensated summation (float ``sum()`` on Python >= 3.12) would
        # return 1.0000000000000002 here.
        a = SparseVector({0: 1.0, 1: 1e-16, 2: 1e-16})
        assert a.dot(SparseVector({0: 1.0, 1: 1.0, 2: 1.0})) == 1.0

    @given(st.lists(weight_maps, max_size=6))
    def test_centroid_weights_bounded_by_max(self, maps):
        vectors = [SparseVector(m) for m in maps]
        center = centroid(vectors)
        for term, weight in center.weights.items():
            biggest = max(v.weights.get(term, 0.0) for v in vectors)
            assert weight <= biggest + 1e-9


class TestSparseRowsKernel:
    """The batched kernel behind ``PaperVectorStore.similarities``."""

    @staticmethod
    def _bits(values):
        return [value.hex() for value in values]

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(row_maps, min_size=1, max_size=8),
        query_maps,
        st.lists(st.integers(min_value=0, max_value=7), max_size=16),
    )
    def test_similarities_equal_scalar_cosine_bit_for_bit(self, rows, query, picks):
        vectors = [SparseVector(weights) for weights in rows]
        kernel = SparseRows(vectors)
        q = SparseVector(query)
        row_ids = [pick % len(vectors) for pick in picks]  # repeats allowed
        expected = [vectors[row].cosine(q) for row in row_ids]
        assert self._bits(kernel.cosines(row_ids, q)) == self._bits(expected)

    def test_equal_length_tie_walks_the_row(self):
        row = SparseVector({0: 1.0, 1: 1e-16, 2: 1e-16})
        query = SparseVector({2: 1.0, 1: 1.0, 0: 1.0})
        # The two walk orders round differently, so the tie rule shows.
        assert row.cosine(query) != query.cosine(row)
        assert SparseRows([row]).cosines([0], query) == [row.cosine(query)]

    def test_shorter_query_is_walked(self):
        row = SparseVector({0: 1.0, 1: 1e-16, 2: 1e-16, 3: 0.5})
        query = SparseVector({2: 1.0, 1: 1.0, 0: 1.0})
        expected = row.cosine(query)
        assert SparseRows([row]).cosines([0], query) == [expected]

    def test_long_rows_add_left_to_right(self):
        # 1.0 followed by many tiny products: a left-to-right sum drops
        # every tiny term, pairwise or blocked summation keeps some.
        weights = {0: 1.0, **{term: 1e-16 for term in range(1, 40)}}
        row = SparseVector(weights)
        query = SparseVector({term: 1.0 for term in range(40)})
        assert row.dot(query) == 1.0
        assert SparseRows([row, row]).cosines([0, 1], query) == [row.cosine(query)] * 2

    def test_empty_rows_queries_and_batches(self):
        kernel = SparseRows([SparseVector(), SparseVector({3: 2.0})])
        assert kernel.cosines([0, 1], SparseVector({3: 1.0})) == [0.0, 1.0]
        assert kernel.cosines([0, 1], SparseVector()) == [0.0, 0.0]
        assert kernel.cosines([], SparseVector({3: 1.0})) == []
        assert SparseRows([]).cosines([], SparseVector({3: 1.0})) == []
        assert SparseRows([SparseVector()]).cosines([0, 0], SparseVector({9: 1.0})) == [
            0.0,
            0.0,
        ]

    def test_subnormal_and_huge_weights_take_the_fallback(self):
        tiny = SparseVector({0: 1e-310, 1: 2e-310})
        huge = SparseVector({0: 1e300, 1: 2e300})
        kernel = SparseRows([tiny, huge])
        for query in (tiny, huge):
            expected = [tiny.cosine(query), huge.cosine(query)]
            assert kernel.cosines([0, 1], query) == expected
            assert expected[0] > 0.99


class TestSetSimilarityProperties:
    sets = st.sets(words, max_size=15)

    @given(sets, sets)
    def test_jaccard_bounds_symmetry(self, a, b):
        value = jaccard_similarity(a, b)
        assert 0.0 <= value <= 1.0
        assert value == jaccard_similarity(b, a)

    @given(sets)
    def test_jaccard_identity(self, a):
        assert jaccard_similarity(a, a) == (1.0 if a else 0.0)

    @given(sets, sets)
    def test_dice_ge_jaccard(self, a, b):
        # Dice >= Jaccard always (2x/(s) vs x/(s-x) relation).
        assert dice_coefficient(a, b) >= jaccard_similarity(a, b) - 1e-12


class TestTfidfProperties:
    documents = st.lists(st.lists(words, min_size=1, max_size=10), min_size=1, max_size=8)

    @given(documents)
    @settings(max_examples=50)
    def test_vectorize_known_document_nonempty(self, docs):
        model = TfidfModel().fit(docs)
        vector = model.vectorize(docs[0])
        assert len(vector) == len(set(docs[0]))

    @given(documents)
    @settings(max_examples=50)
    def test_idf_positive_and_anti_monotone_in_df(self, docs):
        model = TfidfModel().fit(docs)
        vocab = model.vocabulary
        idfs = {tid: model.idf(tid) for _, tid in vocab.items()}
        assert all(value > 0 for value in idfs.values())
        for term_a, tid_a in vocab.items():
            for term_b, tid_b in vocab.items():
                if vocab.doc_freq(term_a) < vocab.doc_freq(term_b):
                    assert idfs[tid_a] >= idfs[tid_b]
