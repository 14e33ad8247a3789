"""Unit tests for artefact persistence (context sets, prestige scores)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.context import Context, ContextPaperSet
from repro.core.io import (
    read_context_paper_set,
    read_prestige_scores,
    read_tagged_json,
    write_atomic,
    write_context_paper_set,
    write_prestige_scores,
    write_tagged_json,
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


class TestAtomicWriter:
    PAYLOAD = {
        "floats": [1e-310, 0.1, -0.0, 1e300, 2.5e-8],
        "text": "Müller–Ångström \u00e9\u4e2d\U0001f9ec",
        "nested": {"b": [1, {"c": None, "d": [True, False]}], "a": {}},
    }

    def test_bytes_match_json_dump(self, tmp_path):
        reference = tmp_path / "reference.json"
        with open(reference, "w", encoding="utf-8") as handle:
            json.dump({"format": "repro/test/v1", **self.PAYLOAD}, handle)
        written = tmp_path / "written.json"
        write_tagged_json(self.PAYLOAD, written, "repro/test/v1")
        assert written.read_bytes() == reference.read_bytes()
        loaded = read_tagged_json(written, "repro/test/v1")
        assert [v.hex() for v in loaded["floats"]] == [
            v.hex() for v in self.PAYLOAD["floats"]
        ]

    def test_encoding_failure_keeps_the_previous_file(self, tmp_path):
        path = tmp_path / "artifact.json"
        write_tagged_json({"generation": 1}, path, "repro/test/v1")
        before = path.read_bytes()
        with pytest.raises(TypeError):
            write_tagged_json({"bad": object()}, path, "repro/test/v1")
        assert path.read_bytes() == before
        assert not list(tmp_path.glob("*.tmp"))

    def test_failed_replace_removes_the_temp_file(self, tmp_path, monkeypatch):
        path = tmp_path / "index.bin"
        write_atomic(path, b"old")

        def refuse(src, dst):
            raise OSError("replace refused")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="replace refused"):
            write_atomic(path, b"new")
        assert path.read_bytes() == b"old"
        assert not list(tmp_path.glob("*.tmp"))


class TestAtomicWriteLint:
    TOOL = Path(__file__).resolve().parent.parent / "tools" / "check_atomic_writes.py"

    def _run(self, *paths):
        return subprocess.run(
            [sys.executable, str(self.TOOL), *map(str, paths)],
            capture_output=True, text=True, timeout=60,
        )

    def test_artifact_modules_pass(self):
        result = self._run()
        assert result.returncode == 0, result.stdout

    def test_direct_writes_are_flagged(self, tmp_path):
        module = tmp_path / "writer.py"
        module.write_text(
            "import json\n"
            "def write_atomic(path, data):\n"
            "    open(path, 'wb').write(data)\n"
            "def save(path, payload):\n"
            "    with open(path, 'w') as handle:\n"
            "        json.dump(payload, handle)\n"
            "    path.write_bytes(b'')\n"
            "    open(path).read()\n",
            encoding="utf-8",
        )
        result = self._run(module)
        assert result.returncode == 1
        flagged = [line for line in result.stdout.splitlines() if "writer.py:" in line]
        assert [line.split("writer.py:")[1].split(":")[0] for line in flagged] == [
            "5", "6", "7",
        ]
