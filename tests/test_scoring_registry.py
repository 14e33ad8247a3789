"""Tests for the pluggable score-function registry.

The acceptance test of the plugin seam: registering a toy score
function must surface it in the CLI ``--function`` choices, the
workspace artifact list, and the evaluation sweeps *without modifying
any core module* -- and unregistering must remove every trace.
"""

from typing import Dict

import pytest

from repro import scoring
from repro.cli import build_parser
from repro.core.context import Context
from repro.core.scores import (
    CitationPrestige,
    NORMALIZERS,
    PrestigeScoreFunction,
    PrestigeScores,
    TextPrestige,
)
from repro.corpus.corpus import Corpus
from repro.corpus.paper import Paper
from repro.pipeline import Pipeline, build_demo_pipeline
from repro.scoring import CombinedPrestige, ScoreFunctionSpec
from repro.workspace import ARTIFACTS, open_workspace


class ToyPrestige(PrestigeScoreFunction):
    """Every paper equally prestigious -- the minimal valid scorer."""

    name = "toy"
    normalization = "none"

    def score_context(self, context: Context) -> Dict[str, float]:
        return {paper_id: 1.0 for paper_id in context.paper_ids}


def _toy_spec(**overrides) -> ScoreFunctionSpec:
    fields = dict(
        name="toy",
        factory=lambda substrates: ToyPrestige(),
        substrates=(),
        paper_sets=("text",),
        description="uniform prestige (test fixture)",
    )
    fields.update(overrides)
    return ScoreFunctionSpec(**fields)


class TestRegistryBasics:
    def test_builtins_registered_in_order(self):
        assert scoring.function_names() == (
            "text", "citation", "pattern", "hits", "combined",
        )

    def test_evaluation_arms_follow_registration_order(self):
        assert scoring.evaluation_arms() == (
            ("text", "text"),
            ("citation", "text"),
            ("citation", "pattern"),
            ("pattern", "pattern"),
            ("combined", "text"),
        )

    def test_hits_is_searchable_but_not_swept(self):
        spec = scoring.get("hits")
        assert spec.paper_sets == ()
        assert spec.arms() == []
        assert "hits" in scoring.function_names()
        assert all(fn != "hits" for fn, _ in scoring.evaluation_arms())

    def test_overlap_pairs_are_the_figure_53_grid(self):
        assert scoring.overlap_pairs() == (
            ("text", "citation"),
            ("text", "pattern"),
            ("citation", "pattern"),
        )

    def test_get_unknown_names_known_functions(self):
        with pytest.raises(ValueError, match="unknown prestige function"):
            scoring.get("pagerank2")
        with pytest.raises(ValueError, match="citation"):
            scoring.get("pagerank2")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            scoring.register(_toy_spec(name="text"))

    def test_unregister_unknown_rejected(self):
        with pytest.raises(ValueError, match="not registered"):
            scoring.unregister("nope")

    def test_invalid_names_rejected(self):
        for bad in ("", "Text", "9lives", "has-dash", "has space"):
            with pytest.raises(ValueError, match="must match"):
                _toy_spec(name=bad)

    def test_unknown_paper_set_rejected(self):
        with pytest.raises(ValueError, match="unknown paper set"):
            _toy_spec(paper_sets=("full",))

    def test_non_callable_factory_rejected(self):
        with pytest.raises(ValueError, match="not callable"):
            _toy_spec(factory=None)


class TestTemporaryRegistration:
    def test_revision_bumps_on_mutation(self):
        before = scoring.registry_revision()
        with scoring.temporary_registration(_toy_spec()):
            assert scoring.registry_revision() > before
        assert scoring.registry_revision() > before

    def test_restores_shadowed_spec(self):
        original = scoring.get("text")
        with scoring.temporary_registration(
            _toy_spec(name="text"), replace=True
        ):
            assert scoring.get("text").description == "uniform prestige (test fixture)"
        assert scoring.get("text") is original

    def test_shadowing_requires_replace(self):
        with pytest.raises(ValueError, match="already registered"):
            with scoring.temporary_registration(_toy_spec(name="text")):
                pass  # pragma: no cover

    def test_unregisters_on_exception(self):
        with pytest.raises(RuntimeError):
            with scoring.temporary_registration(_toy_spec()):
                raise RuntimeError("boom")
        assert not scoring.is_registered("toy")


class TestPluginSeam:
    """One registration, zero core edits -- everything derives."""

    def test_toy_function_joins_every_derived_surface(self):
        assert not scoring.is_registered("toy")
        assert "scores_toy_text" not in ARTIFACTS
        with scoring.temporary_registration(_toy_spec()):
            # CLI: both --function choice lists accept it.
            parser = build_parser()
            for subcommand in ("search", "tune"):
                args = parser.parse_args(
                    [subcommand, "--data", "d", "--query", "q",
                     "--function", "toy"]
                    if subcommand == "search"
                    else [subcommand, "--data", "d", "--function", "toy"]
                )
                assert args.function == "toy"
            # Evaluation sweep: the toy arm is appended.
            assert ("toy", "text") in scoring.evaluation_arms()
            # Workspace: a fingerprinted score artifact is derived.
            artifact = ARTIFACTS["scores_toy_text"]
            assert artifact.deps == ("text_paper_set",)
            assert "scores_toy_text" in ARTIFACTS
        # Teardown removes every trace.
        assert "scores_toy_text" not in ARTIFACTS
        assert ("toy", "text") not in scoring.evaluation_arms()
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["search", "--data", "d", "--query", "q", "--function", "toy"]
            )

    def test_substrates_become_artifact_deps(self):
        spec = _toy_spec(substrates=("citation_graph", "vectors"))
        with scoring.temporary_registration(spec):
            artifact = ARTIFACTS["scores_toy_text"]
            assert artifact.deps == (
                "text_paper_set", "citation_graph", "vectors",
            )

    def test_toy_function_searches_end_to_end(self):
        pipeline = build_demo_pipeline(seed=11, n_papers=60, n_terms=20)
        with scoring.temporary_registration(_toy_spec()):
            scores = pipeline.prestige("toy", "text")
            assert scores.function_name == "toy"
            assert len(scores) > 0
            engine = pipeline.search_engine("toy", "text")
            assert engine is not None
        # The computed scores stay memoised under their key, but new
        # lookups of the now-unknown function fail loudly.
        with pytest.raises(ValueError, match="unknown prestige function"):
            pipeline.prestige("toy", "pattern")


class TestCombinedFunction:
    """The worked example: rank fusion registered purely via the plugin API."""

    def test_registered_with_union_substrates(self):
        spec = scoring.get("combined")
        assert spec.substrates == ("citation_graph", "vectors", "representatives")
        assert spec.paper_sets == ("text",)
        assert not spec.in_overlap

    def test_workspace_artifact_derived(self):
        artifact = ARTIFACTS["scores_combined_text"]
        assert artifact.deps == (
            "text_paper_set", "citation_graph", "vectors", "representatives",
        )

    def test_blend_is_convex_combination_of_normalised_components(self):
        pipeline = build_demo_pipeline(seed=11, n_papers=80, n_terms=25)
        store = pipeline.substrates
        citation = CitationPrestige(store.citation_graph)
        text = TextPrestige(
            store.corpus, store.vectors, store.citation_graph,
            store.representatives,
        )
        combined = CombinedPrestige([(citation, 1.0), (text, 3.0)])
        checked = 0
        for context in store.paper_set("text"):
            raw = combined.score_context(context)
            if not raw:
                continue
            c_norm = NORMALIZERS[citation.normalization](
                citation.score_context(context)
            )
            t_norm = NORMALIZERS[text.normalization](text.score_context(context))
            for paper_id, value in raw.items():
                expected = (
                    0.25 * c_norm.get(paper_id, 0.0)
                    + 0.75 * t_norm.get(paper_id, 0.0)
                )
                assert value == pytest.approx(expected, abs=1e-12)
                assert 0.0 <= value <= 1.0
            checked += 1
            if checked >= 5:
                break
        assert checked > 0

    def test_component_validation(self):
        with pytest.raises(ValueError, match="at least one component"):
            CombinedPrestige([])
        with pytest.raises(ValueError, match="positive"):
            CombinedPrestige([(ToyPrestige(), 0.0)])
        with pytest.raises(ValueError, match="align"):
            CombinedPrestige([(ToyPrestige(), 1.0)], memos=[None, None])

    def test_combined_searches_end_to_end(self):
        pipeline = build_demo_pipeline(seed=7, n_papers=80, n_terms=25)
        scores = pipeline.prestige("combined", "text")
        assert scores.function_name == "combined"
        assert len(scores) > 0
        hits = pipeline.search(
            "gene expression regulation", function="combined",
            paper_set_name="text",
        )
        for hit in hits:
            assert 0.0 <= hit.prestige <= 1.0


def _hex_tables(scores: PrestigeScores):
    """Final and pre-propagation scores as ordered ``float.hex`` rows."""

    def rows(by_context):
        return [
            (cid, [(pid, value.hex()) for pid, value in row.items()])
            for cid, row in by_context.items()
        ]

    final = {cid: scores.of(cid) for cid in scores.context_ids()}
    return rows(final), rows(scores.pre_propagation)


def _scratch_combined(store, paper_set_name="text") -> PrestigeScores:
    """``combined`` scored from scratch: both components called per context."""
    text = TextPrestige(
        store.corpus, store.vectors, store.citation_graph, store.representatives
    )
    blend = CombinedPrestige(
        [(CitationPrestige(store.citation_graph), 0.5), (text, 0.5)]
    )
    return blend.score_all(store.paper_set(paper_set_name))


def _refuse(self, context):
    raise AssertionError(f"{self.name} re-scored {context.term_id}")


class TestCombinedMemoParity:
    """``combined/text`` blends the memoised component tables bit-for-bit.

    Each case compares every float (``float.hex``) and the key order of
    both the final and the pre-propagation scores with a from-scratch
    blend, so reading a component's propagated scores -- or any change of
    summation order -- fails.
    """

    @pytest.fixture()
    def pipeline(self):
        return build_demo_pipeline(seed=11, n_papers=120, n_terms=30)

    def test_fresh_build_reads_the_memos(self, pipeline, monkeypatch):
        store = pipeline.substrates
        store.prestige("citation", "text")
        store.prestige("text", "text")
        final, pre = expected = _hex_tables(_scratch_combined(store))
        assert final != pre, "fixture must exercise max-propagation"
        monkeypatch.setattr(CitationPrestige, "score_context", _refuse)
        monkeypatch.setattr(TextPrestige, "score_context", _refuse)
        assert _hex_tables(store.prestige("combined", "text")) == expected

    def test_after_delta_matches_scratch_store(self, pipeline):
        store = pipeline.substrates
        for function in ("citation", "text", "combined"):
            store.prestige(function, "text")
        training = {pid for ids in pipeline.training_papers.values() for pid in ids}
        papers = list(pipeline.corpus)
        removed = [p.paper_id for p in papers if p.paper_id not in training][:3]
        added = Paper(
            paper_id="PCOMBINED01",
            title=papers[0].title,
            abstract=papers[1].abstract,
            body=papers[2].body,
            references=(papers[0].paper_id, papers[3].paper_id),
        )
        report = store.apply_delta(added_papers=[added], removed_ids=removed)
        # The patched citation memo, not a recompute, feeds the blend.
        assert "citation/text" in report.scores_patched
        assert "combined/text" in report.scores_dropped

        final = Corpus()
        for paper in pipeline.corpus:
            final.add(paper)
        scratch = Pipeline(
            corpus=final,
            ontology=pipeline.ontology,
            training_papers=pipeline.training_papers,
        ).substrates
        assert _hex_tables(store.prestige("combined", "text")) == _hex_tables(
            _scratch_combined(scratch)
        )

    @pytest.mark.parametrize("keep_memo", [True, False], ids=["memo", "none"])
    def test_components_installed_from_a_workspace(
        self, pipeline, tmp_path, keep_memo
    ):
        pipeline.build_workspace(
            tmp_path, only=["scores_citation_text", "scores_text_text"]
        )
        reopened = Pipeline(
            corpus=pipeline.corpus,
            ontology=pipeline.ontology,
            training_papers=pipeline.training_papers,
        )
        open_workspace(reopened, tmp_path, strict=False)
        store = reopened.substrates
        assert "combined/text" not in store.scores
        for key in ("citation/text", "text/text"):
            installed = store.scores[key]
            assert installed.pre_propagation is not None
            if not keep_memo:
                store.install_scores(key, PrestigeScores(
                    installed.function_name,
                    {cid: installed.of(cid) for cid in installed.context_ids()},
                ))
        assert _hex_tables(store.prestige("combined", "text")) == _hex_tables(
            _scratch_combined(pipeline.substrates)
        )

    def test_other_paper_sets_score_from_scratch(self, pipeline):
        """Text-set memos never leak into a pattern-set blend."""
        store = pipeline.substrates
        assert _hex_tables(store.prestige("combined", "pattern")) == _hex_tables(
            _scratch_combined(store, "pattern")
        )

    def test_decayed_contexts_bypass_their_memo(self, pipeline):
        """A memo holds normalised score * decay; a decayed context is re-scored."""
        store = pipeline.substrates
        pattern_set = store.paper_set("pattern")
        assert any(c.decay != 1.0 for c in pattern_set)
        expected = _scratch_combined(store, "pattern")
        components = [
            (scoring.get(name).factory(store), 0.5) for name in ("citation", "text")
        ]
        blend = CombinedPrestige(
            components,
            memos=[scorer.score_all(pattern_set).pre_propagation
                   for scorer, _ in components],
            memo_paper_set=pattern_set,
        )
        assert _hex_tables(blend.score_all(pattern_set)) == _hex_tables(expected)
