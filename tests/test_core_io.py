"""Unit tests for artefact persistence (context sets, prestige scores)."""

import pytest

from repro.core.context import Context, ContextPaperSet
from repro.core.io import (
    read_context_paper_set,
    read_prestige_scores,
    write_context_paper_set,
    write_prestige_scores,
)
from repro.core.scores.base import PrestigeScores


@pytest.fixture
def paper_set(tiny_ontology):
    return ContextPaperSet(
        tiny_ontology,
        [
            Context(
                "met",
                ("M1", "M2", "M3"),
                training_paper_ids=("M1",),
            ),
            Context(
                "glu",
                ("M1", "M2"),
                inherited_from="met",
                decay=0.37,
            ),
        ],
    )


#: Files no codec wrote: a non-object payload and truncated JSON.  Both
#: must raise ``ValueError`` naming the file.
MALFORMED = [
    pytest.param("[]", "expected format", id="non-object"),
    pytest.param('{"format": ', "corrupt JSON", id="corrupt-json"),
]


class TestContextPaperSetRoundTrip:
    def test_round_trip(self, paper_set, tiny_ontology, tmp_path):
        path = tmp_path / "set.json"
        write_context_paper_set(paper_set, path)
        loaded = read_context_paper_set(path, tiny_ontology)
        assert len(loaded) == 2
        met = loaded.context("met")
        assert met.paper_ids == ("M1", "M2", "M3")
        assert met.training_paper_ids == ("M1",)
        glu = loaded.context("glu")
        assert glu.inherited_from == "met"
        assert glu.decay == pytest.approx(0.37)

    def test_wrong_format_rejected(self, tiny_ontology, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text('{"format": "something-else"}', encoding="utf-8")
        with pytest.raises(ValueError, match="expected format"):
            read_context_paper_set(path, tiny_ontology)

    @pytest.mark.parametrize("text, message", MALFORMED)
    def test_malformed_file_names_path(self, tiny_ontology, tmp_path, text, message):
        path = tmp_path / "junk.json"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match=message) as excinfo:
            read_context_paper_set(path, tiny_ontology)
        assert str(path) in str(excinfo.value)

    def test_unknown_term_rejected_on_load(self, paper_set, tmp_path):
        from repro.ontology import Ontology
        from repro.ontology.term import Term

        path = tmp_path / "set.json"
        write_context_paper_set(paper_set, path)
        other_ontology = Ontology([Term("different", "thing")])
        with pytest.raises(ValueError):
            read_context_paper_set(path, other_ontology)


class TestPrestigeScoresRoundTrip:
    def test_round_trip(self, tmp_path):
        scores = PrestigeScores(
            "text", {"met": {"M1": 1.0, "M2": 0.25}, "glu": {"M1": 0.5}}
        )
        path = tmp_path / "scores.json"
        write_prestige_scores(scores, path)
        loaded = read_prestige_scores(path)
        assert loaded.function_name == "text"
        assert loaded.of("met") == {"M1": 1.0, "M2": 0.25}
        assert loaded.score("glu", "M1") == 0.5
        assert loaded.score("glu", "missing", default=-1.0) == -1.0

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text('{"format": "nope"}', encoding="utf-8")
        with pytest.raises(ValueError, match="expected format"):
            read_prestige_scores(path)

    @pytest.mark.parametrize("text, message", MALFORMED)
    def test_malformed_file_names_path(self, tmp_path, text, message):
        path = tmp_path / "junk.json"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match=message) as excinfo:
            read_prestige_scores(path)
        assert str(path) in str(excinfo.value)

    def test_empty_scores(self, tmp_path):
        path = tmp_path / "empty.json"
        write_prestige_scores(PrestigeScores("citation", {}), path)
        loaded = read_prestige_scores(path)
        assert len(loaded) == 0
        assert loaded.function_name == "citation"
