"""Integration tests for the command-line interface."""

import json

import pytest

from repro.cli import main


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    """A small generated dataset directory, shared by the CLI tests."""
    directory = tmp_path_factory.mktemp("cli-data")
    code = main(
        [
            "generate",
            "--papers", "150",
            "--terms", "40",
            "--seed", "5",
            "--out", str(directory),
        ]
    )
    assert code == 0
    return directory


class TestGenerate:
    def test_files_written(self, data_dir):
        assert (data_dir / "corpus.jsonl").exists()
        assert (data_dir / "ontology.obo").exists()
        assert (data_dir / "training.json").exists()

    def test_training_map_valid(self, data_dir):
        with open(data_dir / "training.json", encoding="utf-8") as handle:
            training = json.load(handle)
        assert isinstance(training, dict)
        assert any(papers for papers in training.values())

    def test_preset_generation(self, tmp_path, capsys):
        code = main(
            ["generate", "--preset", "tiny", "--seed", "2",
             "--out", str(tmp_path / "p")]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "wrote 200 papers, 40 terms" in output

    def test_deterministic(self, tmp_path):
        for out in ("a", "b"):
            main(
                [
                    "generate", "--papers", "40", "--terms", "15",
                    "--seed", "9", "--out", str(tmp_path / out),
                ]
            )
        content_a = (tmp_path / "a" / "corpus.jsonl").read_text(encoding="utf-8")
        content_b = (tmp_path / "b" / "corpus.jsonl").read_text(encoding="utf-8")
        assert content_a == content_b


class TestSearch:
    def test_search_runs(self, data_dir, capsys):
        # Derive a query that must hit: words from a term name.
        obo_text = (data_dir / "ontology.obo").read_text(encoding="utf-8")
        name_line = next(
            line for line in obo_text.splitlines()
            if line.startswith("name: ") and len(line.split()) > 3
        )
        query = " ".join(name_line.split()[1:3])
        code = main(["search", "--data", str(data_dir), "--query", query])
        output = capsys.readouterr().out
        if code == 0:
            assert "prestige=" in output
        else:
            assert "no results" in output

    def test_missing_data_dir_fails(self, tmp_path):
        with pytest.raises(SystemExit, match="not found"):
            main(["search", "--data", str(tmp_path), "--query", "x"])

    def test_selection_strategy_flag(self, data_dir, capsys):
        code = main([
            "search", "--data", str(data_dir), "--query", "anything goes",
            "--selection-strategy", "name",
        ])
        capsys.readouterr()
        assert code in (0, 1)  # parsed and served (1 = no results)

    def test_selection_strategy_rejects_unknown(self, data_dir, capsys):
        with pytest.raises(SystemExit):
            main([
                "search", "--data", str(data_dir), "--query", "x",
                "--selection-strategy", "oracle",
            ])

    def test_queries_file_batch(self, data_dir, tmp_path, capsys):
        obo_text = (data_dir / "ontology.obo").read_text(encoding="utf-8")
        names = [
            " ".join(line.split()[1:3])
            for line in obo_text.splitlines()
            if line.startswith("name: ") and len(line.split()) > 3
        ]
        queries_file = tmp_path / "queries.txt"
        queries_file.write_text(
            "# validation queries\n" + "\n".join(names[:3]) + "\n\n",
            encoding="utf-8",
        )
        code = main([
            "search", "--data", str(data_dir),
            "--queries-file", str(queries_file),
        ])
        output = capsys.readouterr().out
        assert code in (0, 1)
        for query in names[:3]:
            assert f"== {query}" in output

    def test_queries_file_missing_fails(self, data_dir):
        with pytest.raises(SystemExit, match="queries file"):
            main([
                "search", "--data", str(data_dir),
                "--queries-file", "/nonexistent/queries.txt",
            ])

    def test_query_and_queries_file_are_exclusive(self, data_dir, tmp_path):
        queries_file = tmp_path / "q.txt"
        queries_file.write_text("x\n", encoding="utf-8")
        with pytest.raises(SystemExit):
            main([
                "search", "--data", str(data_dir), "--query", "x",
                "--queries-file", str(queries_file),
            ])

    def test_one_query_source_required(self, data_dir):
        with pytest.raises(SystemExit):
            main(["search", "--data", str(data_dir)])


class TestBuild:
    def test_workspace_written(self, data_dir, capsys):
        # `build` targets the artifact workspace under <data>/workspace.
        code = main(["build", "--data", str(data_dir)])
        assert code == 0
        output = capsys.readouterr().out
        from repro.workspace import ARTIFACTS

        assert f"built {len(ARTIFACTS)}" in output
        workspace = data_dir / "workspace"
        assert (workspace / "manifest.json").exists()
        assert (workspace / "text_paper_set.json").exists()
        assert (workspace / "pattern_paper_set.json").exists()
        assert (workspace / "scores_text_text.json").exists()
        assert (workspace / "scores_citation_pattern.json").exists()

    def test_artifacts_load_back(self, data_dir):
        from repro.core.io import read_prestige_scores

        scores = read_prestige_scores(
            data_dir / "workspace" / "scores_text_text.json"
        )
        assert scores.function_name == "text"
        assert len(scores) > 0

    def test_second_build_is_noop(self, data_dir, capsys):
        code = main(["build", "--data", str(data_dir)])
        assert code == 0
        output = capsys.readouterr().out
        assert "workspace is up to date (no-op)" in output

    def test_only_flag_limits_build(self, tmp_path, capsys):
        main(
            ["generate", "--papers", "60", "--terms", "15",
             "--seed", "8", "--out", str(tmp_path)]
        )
        code = main(
            ["build", "--data", str(tmp_path), "--only", "citation_graph"]
        )
        assert code == 0
        workspace = tmp_path / "workspace"
        assert (workspace / "citation_graph.json").exists()
        assert not (workspace / "index.json").exists()


class TestWorkspaceStatus:
    def test_fresh_workspace_reports_clean(self, data_dir, capsys):
        code = main(["workspace", "status", "--data", str(data_dir)])
        assert code == 0
        output = capsys.readouterr().out
        assert "all artifacts fresh" in output

    def test_unbuilt_workspace_reports_stale(self, tmp_path, capsys):
        main(
            ["generate", "--papers", "60", "--terms", "15",
             "--seed", "8", "--out", str(tmp_path)]
        )
        code = main(["workspace", "status", "--data", str(tmp_path)])
        assert code == 1
        output = capsys.readouterr().out
        assert "missing" in output
        assert "need `repro build`" in output


class TestServe:
    def test_serve_banner_reports_actual_bound_port(self, data_dir, capsys):
        """``--port 0`` must surface the resolved ephemeral port in the
        banner, never the literal 0 that was asked for.  The flags and the
        banner pattern are exactly the ones the repository benchmark
        (``perfbench/server.py``) uses to start the service and find it."""
        import re

        code = main([
            "serve", "--data", str(data_dir), "--host", "127.0.0.1",
            "--port", "0", "--no-result-cache", "--for-seconds", "0.01",
        ])
        assert code == 0
        output = capsys.readouterr().out
        match = re.search(r"on http://([\d.]+):(\d+) ", output)
        assert match is not None, output
        assert match.group(1) == "127.0.0.1"
        assert int(match.group(2)) != 0
        assert "/search" in output and "/admin/reload" in output

    def test_serve_answers_search_over_http(self, data_dir, capsys):
        import json
        import re
        import threading
        import time
        import urllib.request

        thread = threading.Thread(
            target=lambda: main([
                "serve", "--data", str(data_dir), "--port", "0",
                "--for-seconds", "3", "--warmup", "2",
            ]),
            daemon=True,
        )
        thread.start()
        # Poll captured output for the banner (the server thread prints
        # it once the pipeline is loaded and the socket is bound).
        deadline = time.monotonic() + 30
        port = None
        captured = ""
        while port is None and time.monotonic() < deadline:
            captured += capsys.readouterr().out
            match = re.search(r"on http://127\.0\.0\.1:(\d+)", captured)
            if match:
                port = int(match.group(1))
            else:
                time.sleep(0.05)
        assert port is not None, captured
        with urllib.request.urlopen(
            f"http://127.0.0.1:{port}/search?q=anything+goes&top_k=3",
            timeout=10,
        ) as response:
            payload = json.loads(response.read())
        assert response.status == 200
        assert payload["query"] == "anything goes"
        assert isinstance(payload["hits"], list)
        thread.join(timeout=30)
        assert not thread.is_alive()

    def test_serve_warmup_smoke(self, data_dir, capsys):
        from repro.obs import get_registry

        code = main([
            "serve", "--data", str(data_dir),
            "--port", "0", "--warmup", "3", "--for-seconds", "0",
        ])
        output = capsys.readouterr().out
        assert code == 0
        assert "warmed up with 3 queries" in output
        assert "/metrics /health /slo /slowlog on http://" in output
        # Warmup exercised both request kinds, so a scrape would expose
        # both latency histograms (routes themselves are covered by
        # tests/test_obs_server.py).
        registry = get_registry()
        assert registry.histogram("search.run.latency").count >= 3
        assert registry.histogram("search.batch.latency").count == 1


class TestEvaluate:
    def test_evaluate_runs(self, data_dir, capsys):
        code = main(["evaluate", "--data", str(data_dir), "--queries", "4"])
        assert code == 0
        output = capsys.readouterr().out
        assert "precision[text]" in output
        assert "separability[" in output


class TestValidate:
    def test_clean_generated_corpus_passes(self, data_dir, capsys):
        code = main(["validate", "--data", str(data_dir)])
        assert code == 0
        output = capsys.readouterr().out
        assert "validated" in output

    def test_dirty_corpus_fails(self, tmp_path, capsys):
        (tmp_path / "corpus.jsonl").write_text(
            '{"paper_id": "BAD", "title": ""}\n', encoding="utf-8"
        )
        code = main(["validate", "--data", str(tmp_path), "--verbose"])
        assert code == 1
        output = capsys.readouterr().out
        assert "no-text" in output

    def test_missing_corpus_file(self, tmp_path):
        with pytest.raises(SystemExit, match="not found"):
            main(["validate", "--data", str(tmp_path)])


class TestTune:
    def test_tune_runs(self, data_dir, capsys):
        code = main(["tune", "--data", str(data_dir), "--queries", "4"])
        assert code == 0
        output = capsys.readouterr().out
        assert "best: w_prestige=" in output
        assert "F1=" in output


class TestIngest:
    def test_end_to_end(self, tmp_path, capsys):
        medline = tmp_path / "export.xml"
        medline.write_text(
            """<?xml version="1.0"?>
            <PubmedArticleSet>
              <PubmedArticle><MedlineCitation><PMID>100</PMID>
                <Article><ArticleTitle>metabolic process work</ArticleTitle>
                <Abstract><AbstractText>metabolic process details</AbstractText></Abstract>
                </Article></MedlineCitation></PubmedArticle>
            </PubmedArticleSet>""",
            encoding="utf-8",
        )
        obo = tmp_path / "go.obo"
        obo.write_text(
            "[Term]\nid: GO:0008150\nname: biological process\n\n"
            "[Term]\nid: GO:0008152\nname: metabolic process\n"
            "is_a: GO:0008150\n",
            encoding="utf-8",
        )
        gaf = tmp_path / "goa.gaf"
        gaf.write_text(
            "!gaf-version: 2.2\n"
            "DB\tID\tSYM\t\tGO:0008152\tPMID:100\tIDA\t\tP\t\t\tp\tt\td\ts\t\t\n"
            "DB\tID\tSYM\t\tGO:9999999\tPMID:100\tIDA\t\tP\t\t\tp\tt\td\ts\t\t\n",
            encoding="utf-8",
        )
        out = tmp_path / "data"
        code = main(
            [
                "ingest",
                "--medline", str(medline),
                "--obo", str(obo),
                "--gaf", str(gaf),
                "--out", str(out),
            ]
        )
        assert code == 0
        assert (out / "corpus.jsonl").exists()
        with open(out / "training.json", encoding="utf-8") as handle:
            training = json.load(handle)
        # Unknown GO:9999999 dropped; known term kept with the PMID.
        assert training == {"GO:0008152": ["PMID:100"]}
        # The ingested directory loads into a pipeline and searches.
        from repro.pipeline import Pipeline

        pipeline = Pipeline.from_directory(out, min_context_size=1)
        hits = pipeline.search("metabolic process")
        assert [h.paper_id for h in hits] == ["PMID:100"]


class TestObsTelemetry:
    def _queries(self, data_dir, n=3):
        obo_text = (data_dir / "ontology.obo").read_text(encoding="utf-8")
        names = [
            " ".join(line.split()[1:3])
            for line in obo_text.splitlines()
            if line.startswith("name: ") and len(line.split()) > 3
        ]
        return names[:n]

    @pytest.fixture()
    def telemetry_dump(self, data_dir, tmp_path, capsys):
        """Run a batch search with --telemetry-out and return the dump path."""
        queries_file = tmp_path / "queries.txt"
        queries_file.write_text(
            "\n".join(self._queries(data_dir)) + "\n", encoding="utf-8"
        )
        out = tmp_path / "telemetry.json"
        code = main([
            "search", "--data", str(data_dir),
            "--queries-file", str(queries_file),
            "--telemetry-out", str(out), "--sample-rate", "1.0",
        ])
        capsys.readouterr()
        assert code in (0, 1)
        return out

    def test_telemetry_out_written_with_spans(self, telemetry_dump):
        data = json.loads(telemetry_dump.read_text(encoding="utf-8"))
        assert data["enabled"] is True
        assert data["window_events"] >= 1
        (entry,) = data["slowlog"]
        assert entry["kind"] == "search_many"
        assert entry["spans"]["name"] == "request.search_many"
        assert {status["name"] for status in data["slo"]} >= {
            "search-latency-p95", "search-errors",
        }

    def test_obs_slowlog_renders_dump(self, telemetry_dump, capsys):
        code = main(["obs", "slowlog", "--file", str(telemetry_dump)])
        output = capsys.readouterr().out
        assert code == 0
        assert "#1" in output and "search_many" in output
        assert "request.search_many" in output  # span tree included

    def test_obs_slo_renders_dump(self, telemetry_dump, capsys):
        code = main(["obs", "slo", "--file", str(telemetry_dump)])
        output = capsys.readouterr().out
        assert code == 0
        assert "search-latency-p95" in output
        assert "OK" in output or "VIOLATED" in output or "no data" in output

    def test_obs_slowlog_json_format(self, telemetry_dump, capsys):
        code = main([
            "obs", "slowlog", "--file", str(telemetry_dump),
            "--format", "json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        (entry,) = payload["slowlog"]
        assert entry["kind"] == "search_many"
        assert entry["spans"]["name"] == "request.search_many"

    def test_obs_slo_json_format(self, telemetry_dump, capsys):
        code = main([
            "obs", "slo", "--file", str(telemetry_dump), "--format", "json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        names = {status["name"] for status in payload["slo"]}
        assert {"search-latency-p95", "search-errors"} <= names

    def _analytics_payload(self):
        return {
            "analytics": {
                "window_s": 600.0, "queries": 4, "qps": 0.5,
                "zero_results": 1, "counted_results": 4,
                "zero_result_rate": 0.25,
                "by_kind": {"search": 4},
                "by_function": {"text": 4},
            },
            "shadow": {
                "functions": ["citation"], "sample_rate": 1.0, "k": 10,
                "agreement": {
                    "citation": {
                        "samples": 2, "mean_jaccard": 0.9,
                        "mean_kendall_tau": 0.8,
                    },
                },
            },
            "drift": None,
        }

    def test_obs_analytics_renders_saved_payload(self, tmp_path, capsys):
        saved = tmp_path / "analytics.json"
        saved.write_text(
            json.dumps(self._analytics_payload()), encoding="utf-8"
        )
        code = main(["obs", "analytics", "--file", str(saved)])
        output = capsys.readouterr().out
        assert code == 0
        assert "zero-result rate" in output and "25.00%" in output
        assert "citation" in output and "jaccard=0.900" in output

    def test_obs_analytics_json_format_round_trips(self, tmp_path, capsys):
        saved = tmp_path / "analytics.json"
        saved.write_text(
            json.dumps(self._analytics_payload()), encoding="utf-8"
        )
        code = main([
            "obs", "analytics", "--file", str(saved), "--format", "json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["analytics"]["zero_result_rate"] == 0.25
        assert payload["shadow"]["agreement"]["citation"]["samples"] == 2

    def test_obs_analytics_requires_exactly_one_source(self):
        """CLI errors raise ``SystemExit``: from the shell that is exit
        status 1 with the message on stderr."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro

        src = str(Path(repro.__file__).resolve().parent.parent)
        result = subprocess.run(
            [sys.executable, "-m", "repro.cli", "obs", "analytics"],
            capture_output=True, text=True, timeout=60,
            env=dict(os.environ, PYTHONPATH=src),
        )
        assert result.returncode == 1
        assert result.stderr == "error: pass exactly one of --url or --file\n"

    def test_custom_slo_spec_flows_into_dump(
        self, data_dir, tmp_path, capsys
    ):
        out = tmp_path / "telemetry.json"
        query = self._queries(data_dir, n=1)[0]
        main([
            "search", "--data", str(data_dir), "--query", query,
            "--telemetry-out", str(out),
            "--slo", "my-p99:latency:2s:99%:60s",
        ])
        capsys.readouterr()
        data = json.loads(out.read_text(encoding="utf-8"))
        assert [status["name"] for status in data["slo"]] == ["my-p99"]

    def test_bad_slo_spec_fails_fast(self, data_dir, tmp_path):
        with pytest.raises(SystemExit, match="bad SLO spec"):
            main([
                "search", "--data", str(data_dir), "--query", "x",
                "--telemetry-out", str(tmp_path / "t.json"),
                "--slo", "nope:latency:95%",
            ])

    def test_obs_slowlog_missing_file_fails(self, tmp_path):
        with pytest.raises(SystemExit, match="not found"):
            main(["obs", "slowlog", "--file", str(tmp_path / "absent.json")])


def _opt(dest, default=None, action="_StoreAction", type=None, choices=None,
         required=False):
    """Expected shape of one option: what argparse records for it."""
    return (dest, default, choices, required, action, type)


def _flags(**options):
    """``--some-flag`` keyword spelling: ``some_flag=_opt(...)``."""
    return {"--" + name.replace("_", "-"): spec for name, spec in options.items()}


HELP = {"-h --help": _opt("help", "==SUPPRESS==", "_HelpAction")}
DUMP = _flags(
    trace_out=_opt("trace_out"),
    metrics_out=_opt("metrics_out"),
    telemetry_out=_opt("telemetry_out"),
    log_json=_opt("log_json", False, "_StoreTrueAction"),
)
TELEMETRY = _flags(
    sample_rate=_opt("sample_rate", 0.05, type="float"),
    slow_ms=_opt("slow_ms", 100.0, type="float"),
    slo=_opt("slo", action="_AppendAction"),
)
DATA = _flags(data=_opt("data", "data"))
NO_WORKSPACE = _flags(no_workspace=_opt("no_workspace", False, "_StoreTrueAction"))
NO_RESULT_CACHE = _flags(
    no_result_cache=_opt("no_result_cache", False, "_StoreTrueAction")
)
FORMAT = _flags(format=_opt("format", "table", choices=("table", "json")))
DUMP_FILE = _flags(file=_opt("file", "telemetry.json"))


def _index_backend():
    from repro.index import backends

    return _flags(index_backend=_opt(
        "index_backend", backends.DEFAULT_BACKEND,
        choices=tuple(backends.backend_names()),
    ))


def _scoring_choice():
    from repro import scoring

    return _flags(
        function=_opt(
            "function", "text", choices=tuple(scoring.function_names())
        ),
        paper_set=_opt(
            "paper_set", "text", choices=tuple(scoring.PAPER_SET_NAMES)
        ),
    )


def _expected_surface():
    """Every subcommand path's exact option surface, pinned by hand."""
    from repro.core.search import SELECTION_STRATEGIES

    index_backend = _index_backend()
    scoring_choice = _scoring_choice()
    obs_flags = {**HELP, **DUMP, **TELEMETRY}
    return {
        (): HELP,
        ("generate",): {**obs_flags, **_flags(
            papers=_opt("papers", 1200, type="int"),
            terms=_opt("terms", 250, type="int"),
            max_depth=_opt("max_depth", 7, type="int"),
            preset=_opt("preset", choices=(
                "tiny", "small", "default", "large", "paper",
            )),
            seed=_opt("seed", 0, type="int"),
            out=_opt("out", "data"),
        )},
        ("search",): {
            **obs_flags, **DATA, **NO_WORKSPACE, **index_backend,
            **NO_RESULT_CACHE, **scoring_choice, **_flags(
                query=_opt("query"),
                queries_file=_opt("queries_file"),
                selection_strategy=_opt(
                    "selection_strategy", "probe", choices=SELECTION_STRATEGIES
                ),
                limit=_opt("limit", 10, type="int"),
                threshold=_opt("threshold", 0.0, type="float"),
            ),
        },
        ("serve",): {
            **HELP, **TELEMETRY, **DATA, **NO_WORKSPACE, **index_backend,
            **NO_RESULT_CACHE, **_flags(
                host=_opt("host", "127.0.0.1"),
                port=_opt("port", 8977, type="int"),
                max_in_flight=_opt("max_in_flight", 8, type="int"),
                queue_depth=_opt("queue_depth", 16, type="int"),
                retry_after_s=_opt("retry_after_s", 1.0, type="float"),
                warmup=_opt("warmup", 0, type="int"),
                for_seconds=_opt("for_seconds", type="float"),
                shadow_functions=_opt("shadow_function", action="_AppendAction"),
                shadow_sample_rate=_opt(
                    "shadow_sample_rate", 0.1, type="float"
                ),
                shadow_k=_opt("shadow_k", 10, type="int"),
                probe_queries=_opt("probe_queries"),
                probe_functions=_opt("probe_function", action="_AppendAction"),
                probe_k=_opt("probe_k", 10, type="int"),
                max_drift=_opt("max_drift", type="float"),
                ready_max_age_s=_opt("ready_max_age_s", type="float"),
            ),
        },
        ("evaluate",): {**obs_flags, **DATA, **NO_WORKSPACE, **_flags(
            queries=_opt("queries", 30, type="int"),
            report=_opt("report"),
        )},
        ("build",): {**obs_flags, **DATA, **index_backend, **_flags(
            only=_opt("only", action="_AppendAction"),
            force=_opt("force", False, "_StoreTrueAction"),
        )},
        ("workspace",): obs_flags,
        ("workspace", "status"): {**HELP, **DATA, **index_backend},
        ("ingest-delta",): {**obs_flags, **DATA, **index_backend, **_flags(
            add=_opt("add"),
            remove=_opt("remove", action="_AppendAction"),
            out_corpus=_opt("out_corpus"),
        )},
        ("tune",): {
            **obs_flags, **DATA, **NO_WORKSPACE, **scoring_choice,
            **_flags(queries=_opt("queries", 20, type="int")),
        },
        ("ingest",): {**obs_flags, **_flags(
            medline=_opt("medline", required=True),
            obo=_opt("obo", required=True),
            gaf=_opt("gaf", required=True),
            max_training_per_term=_opt(
                "max_training_per_term", 10, type="int"
            ),
            out=_opt("out", "data"),
        )},
        ("validate",): {**obs_flags, **DATA, **_flags(
            verbose=_opt("verbose", False, "_StoreTrueAction"),
        )},
        ("obs",): HELP,
        ("obs", "report"): {**HELP, **_flags(
            trace=_opt("trace"), metrics=_opt("metrics"),
        )},
        ("obs", "slowlog"): {
            **HELP, **DUMP_FILE, **FORMAT,
            **_flags(limit=_opt("limit", 0, type="int")),
        },
        ("obs", "slo"): {**HELP, **DUMP_FILE, **FORMAT},
        ("obs", "analytics"): {**HELP, **FORMAT, **_flags(
            url=_opt("url"), file=_opt("file"),
        )},
    }


#: Subcommand paths that branch further: (dest, nested names).
EXPECTED_SUBCOMMANDS = {
    (): ("command", {
        "generate", "search", "serve", "evaluate", "build", "workspace",
        "ingest-delta", "tune", "ingest", "validate", "obs",
    }),
    ("workspace",): ("workspace_command", {"status"}),
    ("obs",): ("obs_command", {"report", "slowlog", "slo", "analytics"}),
}


def _walk_surface(parser, path=(), surface=None, branches=None):
    """Recursively record each parser's options and nested subcommands."""
    import argparse

    surface = {} if surface is None else surface
    branches = {} if branches is None else branches
    options = {}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            assert action.required, path
            branches[path] = (action.dest, set(action.choices))
            for name, nested in action.choices.items():
                _walk_surface(nested, path + (name,), surface, branches)
            continue
        key = " ".join(action.option_strings)
        assert key not in options, f"{path}: {key} declared twice"
        options[key] = _opt(
            action.dest,
            action.default,
            type(action).__name__,
            getattr(action.type, "__name__", action.type),
            tuple(action.choices) if action.choices is not None else None,
            action.required,
        )
    surface[path] = options
    return surface, branches


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_flag_surface_is_pinned(self):
        """Every subcommand path (nested ones too) exposes exactly these
        options with exactly these dests, defaults, choices, required
        flags and action types -- refactoring the parser must not move
        a single one."""
        from repro.cli import build_parser

        surface, branches = _walk_surface(build_parser())
        assert branches == EXPECTED_SUBCOMMANDS
        expected = _expected_surface()
        assert sorted(surface) == sorted(expected)
        for path, options in expected.items():
            assert surface[path] == options, " ".join(path) or "<root>"
