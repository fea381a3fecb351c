"""Tests for the command-line interface."""

import json
import os

import pytest

from repro.cli import main, read_workload_file
from repro.storage.persist import load_database

QUERY = "for $s in X('SDOC')/Security where $s/Yield > 9 return $s/Symbol"


@pytest.fixture()
def dbdir(tmp_path):
    path = str(tmp_path / "db")
    assert main(["generate", path, "--benchmark", "tpox", "--scale", "30",
                 "--seed", "3"]) == 0
    return path


class TestGenerate:
    def test_generate_tpox(self, tmp_path, capsys):
        path = str(tmp_path / "fresh")
        assert main(["generate", path, "--benchmark", "tpox",
                     "--scale", "30", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "generated tpox database" in out
        db = load_database(path)
        assert len(db.collection("SDOC")) == 30

    def test_generate_xmark(self, tmp_path, capsys):
        path = str(tmp_path / "xm")
        assert main(["generate", path, "--benchmark", "xmark", "--scale", "10"]) == 0
        db = load_database(path)
        assert set(db.collections) == {"IDOC", "PDOC", "ADOC"}


class TestQueryAndExplain:
    def test_query(self, dbdir, capsys):
        assert main(["query", dbdir, QUERY]) == 0
        out = capsys.readouterr().out
        assert "rows" in out
        assert "documents examined" in out

    def test_query_limit(self, dbdir, capsys):
        assert main(["query", dbdir, "COLLECTION('SDOC')/Security/Symbol",
                     "--limit", "2"]) == 0
        out = capsys.readouterr().out
        assert "(truncated)" in out

    def test_explain(self, dbdir, capsys):
        assert main(["explain", dbdir, QUERY, "--enumerate"]) == 0
        out = capsys.readouterr().out
        assert "COLLECTION SCAN" in out
        assert "/Security/Yield (numerical)" in out

    def test_stats(self, dbdir, capsys):
        assert main(["stats", dbdir, "SDOC", "--limit", "3"]) == 0
        out = capsys.readouterr().out
        assert "30 documents" in out
        assert "/Security" in out


class TestLoad:
    def test_load_new_collection(self, dbdir, tmp_path, capsys):
        doc = tmp_path / "d.xml"
        doc.write_text("<Thing><V>1</V></Thing>")
        assert main(["load", dbdir, "NEW", str(doc)]) == 0
        db = load_database(dbdir)
        assert len(db.collection("NEW")) == 1


class TestRecommend:
    def write_workload(self, tmp_path):
        path = tmp_path / "wl.xq"
        path.write_text(
            f"{QUERY}\n;\n"
            "for $s in X('SDOC')/Security where $s/Symbol = \"AA0001\" return $s\n"
            "; @ 5\n"
        )
        return str(path)

    def test_recommend(self, dbdir, tmp_path, capsys):
        workload = self.write_workload(tmp_path)
        assert main(["recommend", dbdir, "--workload", workload,
                     "--budget", "20000", "--algorithm", "greedy_heuristics"]) == 0
        out = capsys.readouterr().out
        assert "CREATE INDEX" in out
        assert "Estimated speedup" in out

    def test_recommend_create_persists(self, dbdir, tmp_path, capsys):
        workload = self.write_workload(tmp_path)
        assert main(["recommend", dbdir, "--workload", workload,
                     "--budget", "20000", "--create"]) == 0
        db = load_database(dbdir)
        assert db.indexes  # rebuilt from the saved catalog

    def test_workload_file_frequencies(self, tmp_path):
        path = tmp_path / "wl.xq"
        path.write_text("COLLECTION('SDOC')/Security\n; @ 7\n")
        workload = read_workload_file(str(path))
        assert len(workload) == 1
        assert workload.entries[0].frequency == 7.0


class TestReproduce:
    def test_reproduce_table3(self, dbdir, capsys):
        assert main(["reproduce", dbdir, "table3"]) == 0
        out = capsys.readouterr().out
        assert "Table III" in out

    def test_reproduce_unknown(self, dbdir, capsys):
        assert main(["reproduce", dbdir, "nope"]) == 2

    def test_reproduce_requires_tpox(self, tmp_path, capsys):
        path = str(tmp_path / "xm")
        main(["generate", path, "--benchmark", "xmark", "--scale", "5"])
        assert main(["reproduce", path, "table3"]) == 2


class TestErrors:
    def test_missing_database(self, tmp_path, capsys):
        assert main(["stats", str(tmp_path / "nope"), "SDOC"]) == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_collection(self, dbdir, capsys):
        assert main(["stats", dbdir, "NOPE"]) == 1


class TestJsonOutput:
    def test_recommend_json(self, dbdir, tmp_path, capsys):
        import json

        workload = tmp_path / "wl.xq"
        workload.write_text(f"{QUERY}\n;\n")
        assert main(["recommend", dbdir, "--workload", str(workload),
                     "--budget", "20000", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["algorithm"] == "topdown_full"
        assert payload["budget_bytes"] == 20000
        assert isinstance(payload["indexes"], list)
        for index in payload["indexes"]:
            assert set(index) == {
                "pattern", "value_type", "collection", "general", "size_bytes"
            }
        assert payload["estimated_speedup"] >= 1.0


class TestPathStats:
    def test_path_stats(self, dbdir, capsys):
        assert main(["path-stats", dbdir, "SDOC", "/Security/Yield",
                     "--probe", "5.0"]) == 0
        out = capsys.readouterr().out
        assert "matches 1 distinct rooted paths" in out
        assert "virtual numerical index" in out
        assert "selectivity" in out

    def test_path_stats_wildcard(self, dbdir, capsys):
        assert main(["path-stats", dbdir, "SDOC", "/Security//*"]) == 0
        out = capsys.readouterr().out
        assert "distinct rooted paths" in out

    def test_path_stats_bad_pattern(self, dbdir, capsys):
        assert main(["path-stats", dbdir, "SDOC", "not-absolute"]) == 1


class TestReviewCommand:
    def prepare(self, dbdir, tmp_path):
        # build two indexes: one the workload uses, one nothing uses
        from repro.storage import IndexDefinition, IndexValueType
        from repro.storage.persist import save_database
        from repro.xpath import parse_pattern

        db = load_database(dbdir)
        db.create_index(IndexDefinition(
            "used", "SDOC", parse_pattern("/Security/Yield"),
            IndexValueType.NUMERIC,
        ))
        db.create_index(IndexDefinition(
            "dead", "SDOC", parse_pattern("/Security/Price/Bid"),
            IndexValueType.NUMERIC,
        ))
        save_database(db, dbdir)
        workload = tmp_path / "wl.xq"
        workload.write_text(f"{QUERY}\n;\n")
        return str(workload)

    def test_review_lists_verdicts(self, dbdir, tmp_path, capsys):
        workload = self.prepare(dbdir, tmp_path)
        assert main(["review", dbdir, "--workload", workload]) == 0
        out = capsys.readouterr().out
        assert "KEEP used" in out
        assert "DROP dead" in out

    def test_review_drop_persists(self, dbdir, tmp_path, capsys):
        workload = self.prepare(dbdir, tmp_path)
        assert main(["review", dbdir, "--workload", workload, "--drop"]) == 0
        db = load_database(dbdir)
        assert "used" in db.indexes
        assert "dead" not in db.indexes

    def test_review_no_indexes(self, dbdir, tmp_path, capsys):
        workload = tmp_path / "wl.xq"
        workload.write_text(f"{QUERY}\n;\n")
        assert main(["review", dbdir, "--workload", str(workload)]) == 0
        assert "no physical indexes" in capsys.readouterr().out


class TestWhatifCommand:
    def test_whatif_report(self, dbdir, tmp_path, capsys):
        workload = tmp_path / "wl.xq"
        workload.write_text(f"{QUERY}\n;\n")
        assert main([
            "whatif", dbdir, "SDOC", "--workload", str(workload),
            "--patterns", "/Security/Yield:numeric", "/Security/Price/Bid:numeric",
        ]) == 0
        out = capsys.readouterr().out
        assert "total benefit" in out
        assert "unused indexes" in out  # the Bid index serves nothing


class TestRecommendValidation:
    """Robustness satellite: actionable input validation and the
    anytime/checkpoint flags."""

    def write_workload(self, tmp_path, text=None):
        path = tmp_path / "wl.xq"
        path.write_text(
            text
            if text is not None
            else "for $s in X('SDOC')/Security return $s/Symbol\n;\n"
        )
        return str(path)

    def test_zero_budget_is_rejected_with_hint(self, dbdir, tmp_path, capsys):
        workload = self.write_workload(tmp_path)
        assert main(["recommend", dbdir, "--workload", workload,
                     "--budget", "0"]) == 2
        err = capsys.readouterr().err
        assert "--budget must be a positive" in err
        assert "--budget 200000" in err  # actionable example

    def test_negative_budget_is_rejected(self, dbdir, tmp_path, capsys):
        workload = self.write_workload(tmp_path)
        assert main(["recommend", dbdir, "--workload", workload,
                     "--budget", "-5"]) == 2
        assert "--budget" in capsys.readouterr().err

    def test_bad_deadline_is_rejected(self, dbdir, tmp_path, capsys):
        workload = self.write_workload(tmp_path)
        assert main(["recommend", dbdir, "--workload", workload,
                     "--budget", "20000", "--deadline", "-1"]) == 2
        assert "--deadline" in capsys.readouterr().err

    def test_empty_workload_is_rejected_with_hint(self, dbdir, tmp_path, capsys):
        workload = self.write_workload(tmp_path, text="\n\n")
        assert main(["recommend", dbdir, "--workload", workload,
                     "--budget", "20000"]) == 2
        err = capsys.readouterr().err
        assert "no parseable statements" in err

    def test_malformed_statement_warns_and_continues(
        self, dbdir, tmp_path, capsys
    ):
        workload = self.write_workload(
            tmp_path,
            text="not a statement at all\n;\n"
                 "for $s in X('SDOC')/Security return $s/Symbol\n;\n",
        )
        assert main(["recommend", dbdir, "--workload", workload,
                     "--budget", "20000"]) == 0
        captured = capsys.readouterr()
        assert "warning: statement 1 skipped" in captured.err
        assert "Diagnostic" in captured.out

    def test_strict_mode_fails_on_malformed_statement(
        self, dbdir, tmp_path, capsys
    ):
        workload = self.write_workload(
            tmp_path,
            text="not a statement at all\n;\n"
                 "for $s in X('SDOC')/Security return $s/Symbol\n;\n",
        )
        assert main(["recommend", dbdir, "--workload", workload,
                     "--budget", "20000", "--strict"]) == 1
        assert "statement 1" in capsys.readouterr().err

    def test_anytime_flags_flow_through(self, dbdir, tmp_path, capsys):
        import json as json_module

        workload = self.write_workload(tmp_path)
        checkpoint = str(tmp_path / "search.ckpt")
        assert main(["recommend", dbdir, "--workload", workload,
                     "--budget", "20000", "--deadline", "60",
                     "--call-budget", "100000",
                     "--checkpoint", checkpoint, "--json"]) == 0
        payload = json_module.loads(capsys.readouterr().out)
        assert payload["truncated"] is False
        assert payload["degraded"] is False
        assert os.path.exists(checkpoint)

    def test_tiny_call_budget_reports_truncation(self, dbdir, tmp_path, capsys):
        import json as json_module

        workload = self.write_workload(tmp_path)
        assert main(["recommend", dbdir, "--workload", workload,
                     "--budget", "20000", "--call-budget", "1",
                     "--json"]) == 0
        payload = json_module.loads(capsys.readouterr().out)
        assert payload["truncated"] is True
        assert "optimizer-call budget" in payload["truncated_reason"]

    def test_zero_call_budget_is_rejected_as_config_error(
        self, dbdir, tmp_path, capsys
    ):
        """PR 8 satellite: a zero budget can never evaluate a single
        configuration, so it is typed operator error (ConfigError),
        matching the REPRO_SHARDS/REPRO_DEADLINE treatment."""
        workload = self.write_workload(tmp_path)
        assert main(["recommend", dbdir, "--workload", workload,
                     "--budget", "20000", "--call-budget", "0"]) == 2
        assert "--call-budget" in capsys.readouterr().err

    def test_junk_deadline_env_fallback_is_rejected(
        self, dbdir, tmp_path, capsys, monkeypatch
    ):
        workload = self.write_workload(tmp_path)
        monkeypatch.setenv("REPRO_DEADLINE", "soon")
        assert main(["recommend", dbdir, "--workload", workload,
                     "--budget", "20000"]) == 2
        assert "REPRO_DEADLINE" in capsys.readouterr().err

    def test_negative_call_budget_env_fallback_is_rejected(
        self, dbdir, tmp_path, capsys, monkeypatch
    ):
        workload = self.write_workload(tmp_path)
        monkeypatch.setenv("REPRO_CALL_BUDGET", "-3")
        assert main(["recommend", dbdir, "--workload", workload,
                     "--budget", "20000"]) == 2
        assert "REPRO_CALL_BUDGET" in capsys.readouterr().err

    def test_env_deadline_none_means_unbounded(self, dbdir, tmp_path, capsys,
                                               monkeypatch):
        import json as json_module

        workload = self.write_workload(tmp_path)
        monkeypatch.setenv("REPRO_DEADLINE", "none")
        monkeypatch.setenv("REPRO_CALL_BUDGET", "")
        assert main(["recommend", dbdir, "--workload", workload,
                     "--budget", "20000", "--json"]) == 0
        payload = json_module.loads(capsys.readouterr().out)
        assert payload["truncated"] is False

    @pytest.mark.parametrize("flag", ["--workers", "--executor"])
    def test_worker_pool_flags_are_unrecognized(
        self, dbdir, tmp_path, capsys, flag
    ):
        """There is one what-if execution path: the worker pool's flags
        are argparse errors, not silently ignored knobs."""
        workload = self.write_workload(tmp_path)
        with pytest.raises(SystemExit) as excinfo:
            main(["recommend", dbdir, "--workload", workload,
                  "--budget", "20000", flag, "2"])
        assert excinfo.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    def test_worker_pool_env_is_not_read(
        self, dbdir, tmp_path, capsys, monkeypatch
    ):
        """Junk ``REPRO_WORKERS``/``REPRO_EXECUTOR`` change nothing: the
        JSON recommendation equals the one printed without them."""
        import json as json_module

        workload = self.write_workload(tmp_path)
        argv = ["recommend", dbdir, "--workload", workload,
                "--budget", "20000", "--json"]
        monkeypatch.setenv("REPRO_DEADLINE", "none")
        assert main(argv) == 0
        plain = json_module.loads(capsys.readouterr().out)
        monkeypatch.setenv("REPRO_WORKERS", "many")
        monkeypatch.setenv("REPRO_EXECUTOR", "forkbomb")
        assert main(argv) == 0
        with_env = json_module.loads(capsys.readouterr().out)
        for payload in (plain, with_env):
            payload.pop("elapsed_seconds", None)
            payload["session"].pop("phase_seconds", None)
            assert "workers" not in payload["session"]
        assert with_env["indexes"] == plain["indexes"]
        assert with_env["benefit"] == plain["benefit"]


class TestServe:
    """The online daemon's CLI front end (PR 8 tentpole)."""

    STREAM = (
        "for $s in X('SDOC')/Security where $s/Symbol = \"AA0001\" return $s\n"
        "; @ 8\n"
        "for $s in X('SDOC')/Security where $s/Yield > 4.5 return $s/Name\n"
        "; @ 8\n"
        "this is not parseable\n"
        ";\n"
        "for $s in X('SDOC')/Security"
        " where $s/SecInfo/*/Sector = \"Energy\" return $s/Symbol\n"
        "; @ 7\n"
    )

    def write_stream(self, tmp_path):
        path = tmp_path / "stream.xq"
        path.write_text(self.STREAM)
        return str(path)

    def test_read_stream_file_expands_repeats(self, tmp_path):
        from repro.cli import read_stream_file

        texts = read_stream_file(self.write_stream(tmp_path))
        assert len(texts) == 24  # 8 + 8 + 1 unparseable + 7
        assert texts[0] == texts[7]

    def test_serve_smoke(self, dbdir, tmp_path, capsys):
        stream = self.write_stream(tmp_path)
        journal = str(tmp_path / "daemon.journal")
        assert main(["serve", dbdir, "--workload", stream,
                     "--budget", "200000", "--journal", journal,
                     "--cycle-interval", "10", "--cooldown", "0"]) == 0
        captured = capsys.readouterr()
        assert "applied" in captured.out
        assert "materialized configuration:" in captured.out
        assert "statement skipped (unparseable)" in captured.err
        assert os.path.exists(journal)

    def test_serve_resume_continues_from_the_journal(
        self, dbdir, tmp_path, capsys
    ):
        stream = self.write_stream(tmp_path)
        journal = str(tmp_path / "daemon.journal")
        base = ["serve", dbdir, "--workload", stream, "--budget", "200000",
                "--journal", journal, "--cycle-interval", "10",
                "--cooldown", "0"]
        assert main(base) == 0
        capsys.readouterr()
        assert main(base + ["--resume", "--json"]) == 0
        status = json.loads(capsys.readouterr().out)
        assert status["configuration_keys"]
        assert status["counters"]["applies"] >= 1
        # Resumed over the same traffic: no drift, nothing re-applied.
        resumed_cycles = status["cycles"]
        assert {c["action"] for c in resumed_cycles} == {"skip-no-drift"}

    def test_serve_synthetic_stream(self, dbdir, capsys):
        assert main(["serve", dbdir, "--synthetic", "40", "--budget",
                     "200000", "--cycle-interval", "20", "--json"]) == 0
        status = json.loads(capsys.readouterr().out)
        assert status["statements_seen"] == 40

    def test_resume_requires_journal(self, dbdir, tmp_path, capsys):
        stream = self.write_stream(tmp_path)
        assert main(["serve", dbdir, "--workload", stream,
                     "--budget", "200000", "--resume"]) == 2
        assert "--journal" in capsys.readouterr().err

    def test_exactly_one_stream_source(self, dbdir, tmp_path, capsys):
        assert main(["serve", dbdir, "--budget", "200000"]) == 2
        assert "stream source" in capsys.readouterr().err

    def test_bad_policy_knob_is_a_config_error(self, dbdir, tmp_path, capsys):
        stream = self.write_stream(tmp_path)
        assert main(["serve", dbdir, "--workload", stream,
                     "--budget", "200000", "--drift-threshold", "2.0"]) == 2
        assert "drift-threshold" in capsys.readouterr().err

    def test_zero_budget_is_a_config_error(self, dbdir, tmp_path, capsys):
        stream = self.write_stream(tmp_path)
        assert main(["serve", dbdir, "--workload", stream,
                     "--budget", "0"]) == 2
        assert "budget" in capsys.readouterr().err
