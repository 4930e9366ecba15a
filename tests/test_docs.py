"""The docs tree stays healthy: snippets compile, cross-links resolve,
NDJSON wire examples match the schema, console commands are runnable.

Runs the same checks as the CI ``docs`` job (``python tools/check_docs.py``)
so a broken snippet, link, wire example or runbook command fails tier-1
locally, before CI.  The *execution* of the console runbook (the
``--execute`` mode) is exercised by the slow test at the bottom and by CI.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


def _load_checker():
    spec = importlib.util.spec_from_file_location(
        "check_docs", REPO_ROOT / "tools" / "check_docs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_docs_tree_exists():
    assert (REPO_ROOT / "docs" / "architecture.md").exists()
    assert (REPO_ROOT / "docs" / "api.md").exists()
    assert (REPO_ROOT / "docs" / "durability.md").exists()
    assert (REPO_ROOT / "docs" / "operations.md").exists()


def test_doc_snippets_compile_and_links_resolve():
    checker = _load_checker()
    findings = []
    count = checker.run_checks(out=findings.append)
    assert count == 0, "\n".join(findings)


def test_checker_catches_bad_snippet(tmp_path):
    checker = _load_checker()
    bad = tmp_path / "bad.md"
    bad.write_text("```python\ndef broken(:\n```\n")
    findings = checker.check_python_snippets(bad)
    assert len(findings) == 1
    assert "does not compile" in findings[0]
    good = tmp_path / "good.md"
    good.write_text("```python\nx = 1\n```\n\n```bash\nnot python {\n```\n")
    assert checker.check_python_snippets(good) == []


def test_checker_catches_broken_link(tmp_path):
    checker = _load_checker()
    doc = tmp_path / "doc.md"
    doc.write_text("# Title\n\nsee [other](missing.md) and "
                   "[anchor](#no-such-heading)\n")
    findings = checker.check_links(doc)
    assert len(findings) == 2
    assert any("missing.md" in f for f in findings)
    assert any("no-such-heading" in f for f in findings)


def test_checker_validates_ndjson_against_wire_schema(tmp_path):
    checker = _load_checker()
    doc = tmp_path / "doc.md"
    doc.write_text(
        "```ndjson\n"
        '{"job_id": 1, "seq": 0, "step": 0, "trial_id": 0, '
        '"type": "TrialReport", "value": 0.5}\n'
        "\n"  # heartbeat line: allowed
        "```\n")
    assert checker.check_ndjson_snippets(doc) == []
    # Not JSON at all.
    bad_json = tmp_path / "bad_json.md"
    bad_json.write_text("```ndjson\n{not json}\n```\n")
    (finding,) = checker.check_ndjson_snippets(bad_json)
    assert "not JSON" in finding
    # Unknown event type: the schema rejects it.
    bad_type = tmp_path / "bad_type.md"
    bad_type.write_text('```ndjson\n{"type": "NoSuchEvent", "seq": 0}\n```\n')
    (finding,) = checker.check_ndjson_snippets(bad_type)
    assert "rejected" in finding
    # Stale keys: parses, but does not round-trip losslessly.
    drifted = tmp_path / "drifted.md"
    drifted.write_text(
        "```ndjson\n"
        '{"job_id": 1, "seq": 0, "step": 0, "trial_id": 0, '
        '"type": "TrialReport", "value": 0.5, "stale_key": true}\n'
        "```\n")
    (finding,) = checker.check_ndjson_snippets(drifted)
    assert "drifted" in finding


def test_checker_matches_endpoint_table_to_routes(tmp_path):
    checker = _load_checker()
    assert checker.check_endpoint_table() == []
    table = checker.ENDPOINT_DOC.read_text()
    # A dropped row, a duplicated row and a row no route serves.
    doc = tmp_path / "api.md"
    doc.write_text(table.replace("| `GET /v1/status` |", "| `GET /v1/stats` |")
                   .replace("| `POST /v1/resume` |",
                            "| `POST /v1/jobs` | again |\n| `POST /v1/resume` |"))
    findings = checker.check_endpoint_table(doc)
    assert len(findings) == 3
    assert any("missing GET /v1/status" in f for f in findings)
    assert any("GET /v1/stats, which no route serves" in f for f in findings)
    assert any("POST /v1/jobs is listed twice" in f for f in findings)


def test_console_commands_parse_with_continuations(tmp_path):
    checker = _load_checker()
    doc = tmp_path / "doc.md"
    doc.write_text(
        "```console\n"
        "$ python -m repro.automl.cli --db anttune.db serve --port 8123 \\\n"
        "    --workers 4 &\n"
        "illustrative output, not a command\n"
        "$ kill $SERVER_PID\n"
        "```\n")
    commands = checker.console_commands(doc)
    assert [c for _, c in commands] == [
        "python -m repro.automl.cli --db anttune.db serve --port 8123 "
        "--workers 4 &",
        "kill $SERVER_PID",
    ]
    assert checker.check_console_conventions(doc) == []


def test_console_conventions_reject_unrunnable_commands(tmp_path):
    checker = _load_checker()
    doc = tmp_path / "doc.md"
    doc.write_text("```console\n$ curl http://127.0.0.1:8123/v1/health\n```\n")
    (finding,) = checker.check_console_conventions(doc)
    assert "curl" in finding and "not executable" in finding


def test_execute_reports_a_failing_command(tmp_path):
    checker = _load_checker()
    doc = tmp_path / "doc.md"
    doc.write_text("```console\n"
                   "$ python -c \"import sys; sys.exit(3)\"\n"
                   "```\n")
    (finding,) = checker.execute_console_blocks(doc)
    assert "exit code 3" in finding


@pytest.mark.slow
def test_operations_runbook_executes():
    """The CI ``--execute`` gate: the full runbook actually runs."""
    checker = _load_checker()
    findings = checker.execute_console_blocks(
        REPO_ROOT / "docs" / "operations.md")
    assert findings == [], "\n".join(findings)
