"""Component performance microbenchmarks.

Unlike the figure benches (single-round experiment regeneration), these
use pytest-benchmark's repeated timing to track the throughput of the
hot components: analysis, indexing, vectorisation, PageRank, pattern
construction and scoring, and the search path.  Regressions here show up as timing shifts
in the benchmark table rather than assertion failures.
"""

import pytest

from repro.citations.pagerank import pagerank
from repro.core.patterns import PatternSetBuilder, score_paper_against_patterns
from repro.text.analyze import Analyzer


@pytest.fixture(scope="module")
def sample_text(dataset):
    paper = next(iter(dataset.corpus))
    return paper.all_text()


def test_perf_analyzer(benchmark, sample_text):
    """Tokenise + stopword + stem one full paper."""
    analyzer = Analyzer()
    result = benchmark(analyzer.analyze, sample_text)
    assert result


def test_perf_keyword_search(benchmark, pipeline, queries):
    """One ranked keyword query over the full corpus."""
    engine = pipeline.keyword_engine
    query = queries[0]
    result = benchmark(engine.search, query)
    assert isinstance(result, list)


def test_perf_full_vector(benchmark, pipeline):
    """Whole-paper TF-IDF vectorisation (cold cache each round)."""
    from repro.core.vectors import PaperVectorStore

    paper_id = pipeline.corpus.paper_ids()[0]
    _ = pipeline.vectors.full_model  # fit once outside the timer

    def vectorise():
        store = PaperVectorStore(pipeline.corpus, pipeline.index.analyzer)
        store._full_model = pipeline.vectors.full_model
        return store.full_vector(paper_id)

    result = benchmark(vectorise)
    assert len(result) > 0


def test_perf_context_pagerank(benchmark, pipeline):
    """PageRank on the largest context's citation subgraph."""
    biggest = max(pipeline.pattern_paper_set, key=lambda c: c.size)
    subgraph = pipeline.citation_graph.subgraph(biggest.paper_ids)
    result = benchmark(pagerank, subgraph)
    assert result.scores


def test_perf_pattern_scoring(benchmark, pipeline):
    """Score one paper against one context's pattern set."""
    assigner = pipeline.pattern_assigner
    term_id, pattern_set = next(
        (tid, ps) for tid, ps in assigner.pattern_sets.items() if len(ps) > 0
    )
    paper_id = pipeline.pattern_paper_set.context(term_id).paper_ids[0]
    result = benchmark(
        score_paper_against_patterns,
        pattern_set.by_first_middle_word(),
        pipeline.tokens,
        paper_id,
        True,
    )
    assert result >= 0.0


def test_perf_pattern_build(benchmark, pipeline):
    """Mine, score and select the pattern set of the context with the most
    training papers, with a fresh builder (cold coverage memo).

    One round, so the ``patterns.builder.mined`` / ``kept`` counter deltas
    in ``BENCH_test_perf_pattern_build.json`` are those of one build.
    """
    training_papers = {
        term_id: [pid for pid in ids if pid in pipeline.corpus]
        for term_id, ids in pipeline.training_papers.items()
    }
    term_id, training = max(
        training_papers.items(), key=lambda item: (len(item[1]), item[0])
    )
    for paper_id in training:
        pipeline.tokens.all_tokens(paper_id)  # analyse outside the timer

    def fresh_builder():
        builder = PatternSetBuilder(
            pipeline.ontology,
            pipeline.corpus,
            pipeline.index,
            token_cache=pipeline.tokens,
            build_extended=False,
        )
        return (builder,), {}

    pattern_set = benchmark.pedantic(
        lambda builder: builder.build(term_id, training),
        setup=fresh_builder,
        rounds=1,
        iterations=1,
    )
    assert len(pattern_set) > 0


def test_perf_context_search(benchmark, pipeline, queries):
    """The full context-based search path for one query."""
    engine = pipeline.search_engine("text", "text")
    query = queries[1]
    result = benchmark(engine.search, query)
    assert isinstance(result, list)
