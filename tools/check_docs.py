#!/usr/bin/env python
"""Documentation checker: snippets compile, links resolve, examples *run*.

Run from the repository root (the CI ``docs`` job does)::

    python tools/check_docs.py            # static checks only
    python tools/check_docs.py --execute  # also run the console examples

Checks over ``README.md`` and every ``docs/*.md``:

* every fenced ```` ```python ```` code block must compile (``compile(...)``
  — syntax only, nothing is executed, so snippets may reference files or
  servers that don't exist here);
* every relative markdown link target (``[text](path)`` where ``path`` is
  not an URL or a bare ``#anchor``) must exist on disk, and an in-repo
  ``#anchor`` into a markdown file must match one of its headings;
* every fenced ```` ```ndjson ```` block must hold one JSON object per
  line, and each object must round-trip losslessly through the event wire
  schema (``event_from_wire`` → ``event_to_wire``) — so documented log/
  stream payloads cannot drift from the code;
* the ``| Endpoint |`` table of ``docs/api.md`` must list each route of the
  ``/v1`` route table (``repro.automl.remote.front.ROUTES``) exactly once,
  and nothing else;
* every ``$``-prefixed command in a ```` ```console ```` block must be one
  the checker knows how to run (``python ...`` or ``kill ...``), and with
  ``--execute`` each block **actually runs**, top to bottom, in a throwaway
  sandbox: its own working directory and SQLite file, an importable
  ``ops_demo`` helper module, and port 8123 remapped to a free one.  A
  command ending in ``&`` becomes a managed background process (a ``serve``
  is waited on until ``/v1/health`` answers); ``kill -9 $SERVER_PID`` /
  ``kill $SERVER_PID`` signal the most recent background process.  Any
  non-zero exit fails the check — drift between the runbook and the CLI is
  a CI failure, not a stale doc.

Exit code 0 when clean; 1 with one line per finding otherwise.
"""

from __future__ import annotations

import json
import os
import re
import shlex
import signal
import socket
import subprocess
import sys
import tempfile
import textwrap
import time
import urllib.error
import urllib.request
from pathlib import Path
from typing import Callable, List, Optional, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_ROOT = REPO_ROOT / "src"

FENCE_RE = re.compile(r"^```(\w*)\s*$")
# [text](target) — excluding images handled the same way; ignore URLs later.
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
EXTERNAL_PREFIXES = ("http://", "https://", "mailto:")
#: The doc whose endpoint table must match the route table.
ENDPOINT_DOC = REPO_ROOT / "docs" / "api.md"
# | `GET /v1/jobs/{id}/wait?timeout=T` | ... — method and template, no query.
ENDPOINT_ROW_RE = re.compile(r"^\|\s*`(GET|POST)\s+(/[^`?\s]*)[^`]*`\s*\|")

#: The documented ports runbook examples bind; --execute remaps each to its
#: own free port.  8123 is "the server" (or the fleet router), 8124 a second
#: process (a fleet backend) in multi-server examples.
DOC_PORT = "8123"
DOC_PORT_2 = "8124"

#: The helper module runbook commands import refs from (written into the
#: sandbox by the executor, so `ops_demo:SPACE` resolves there).
HELPER_MODULE = "ops_demo"
HELPER_SOURCE = textwrap.dedent("""
    \"\"\"Throwaway search space + objectives for executable doc examples.\"\"\"
    import time

    from repro.automl.search_space import SearchSpace, Uniform

    SPACE = SearchSpace({"x": Uniform(0.0, 1.0)})

    def objective(trial):
        for step in range(3):
            trial.report(trial.params["x"] * (step + 1))
        return trial.params["x"]

    def slow(trial):
        for step in range(60):
            trial.report(float(step))
            time.sleep(0.05)
        return trial.params["x"]
""")


def _rel(path: Path) -> str:
    """Repo-relative display path; foreign paths (tests) print as-is."""
    try:
        return str(path.relative_to(REPO_ROOT))
    except ValueError:
        return str(path)


def doc_files() -> List[Path]:
    """README.md plus every markdown file under docs/."""
    files = [REPO_ROOT / "README.md"]
    files.extend(sorted((REPO_ROOT / "docs").glob("*.md")))
    return [f for f in files if f.exists()]


def fenced_blocks(path: Path) -> List[Tuple[str, int, List[str]]]:
    """Every fenced code block of ``path`` as (language, start_line, lines)."""
    blocks = []
    lines = path.read_text().splitlines()
    block: List[str] = []
    block_start = 0
    language: Optional[str] = None
    for lineno, line in enumerate(lines, start=1):
        fence = FENCE_RE.match(line.strip())
        if fence and language is None:
            language = fence.group(1).lower()
            block, block_start = [], lineno + 1
            continue
        if line.strip() == "```" and language is not None:
            blocks.append((language, block_start, block))
            language = None
            continue
        if language is not None:
            block.append(line)
    if language is not None:
        blocks.append(("!unclosed", block_start, block))
    return blocks


def _heading_anchor(line: str) -> str:
    """GitHub-style anchor for a markdown heading line."""
    text = line.lstrip("#").strip().lower()
    text = re.sub(r"[`*]", "", text)  # formatting only; underscores survive
    text = re.sub(r"[^\w\s-]", "", text)
    return re.sub(r"\s+", "-", text).strip("-")


def check_python_snippets(path: Path) -> List[str]:
    """Compile every ```python fenced block of ``path``; return findings."""
    findings = []
    for language, start, block in fenced_blocks(path):
        if language == "!unclosed":
            findings.append(f"{_rel(path)}: unclosed code fence")
        elif language == "python" and block:
            source = "\n".join(block)
            try:
                compile(source, f"{path.name}:{start}", "exec")
            except SyntaxError as exc:
                findings.append(
                    f"{_rel(path)}:{start}: "
                    f"python snippet does not compile: {exc.msg} "
                    f"(line {start + (exc.lineno or 1) - 1})")
    return findings


def check_links(path: Path) -> List[str]:
    """Resolve every relative link of ``path``; return findings."""
    findings = []
    text = path.read_text()
    anchors_cache = {}

    def anchors_of(markdown: Path) -> set:
        if markdown not in anchors_cache:
            anchors = set()
            in_fence = False
            for line in markdown.read_text().splitlines():
                if line.strip().startswith("```"):
                    in_fence = not in_fence
                    continue
                # '#' inside a code fence is a comment, not a heading.
                if not in_fence and line.startswith("#"):
                    anchors.add(_heading_anchor(line))
            anchors_cache[markdown] = anchors
        return anchors_cache[markdown]

    for match in LINK_RE.finditer(text):
        target = match.group(1)
        if target.startswith(EXTERNAL_PREFIXES):
            continue
        rel = _rel(path)
        base, _, fragment = target.partition("#")
        if not base:  # same-file anchor
            if fragment and fragment not in anchors_of(path):
                findings.append(f"{rel}: broken anchor #{fragment}")
            continue
        resolved = (path.parent / base).resolve()
        if not resolved.exists():
            findings.append(f"{rel}: broken link {target!r} "
                            f"({_rel(resolved)} missing)")
            continue
        if fragment and resolved.suffix == ".md":
            if fragment not in anchors_of(resolved):
                findings.append(
                    f"{rel}: link {target!r} points at missing anchor "
                    f"#{fragment} in {base}")
    return findings


# --------------------------------------------------------------------- #
# NDJSON fences: documented wire payloads must round-trip through code.
# --------------------------------------------------------------------- #

def check_ndjson_snippets(path: Path) -> List[str]:
    """Validate every ```ndjson fence line against the event wire schema."""
    findings = []
    blocks = [(start, block) for language, start, block in fenced_blocks(path)
              if language == "ndjson"]
    if not blocks:
        return findings
    if str(SRC_ROOT) not in sys.path:
        sys.path.insert(0, str(SRC_ROOT))
    from repro.automl.events import event_from_wire, event_to_wire

    for start, block in blocks:
        for offset, line in enumerate(block):
            if not line.strip():
                continue  # stream heartbeat: a blank keep-alive line
            where = f"{_rel(path)}:{start + offset}"
            try:
                payload = json.loads(line)
            except ValueError as exc:
                findings.append(f"{where}: ndjson line is not JSON: {exc}")
                continue
            try:
                event = event_from_wire(payload)
            except Exception as exc:  # noqa: BLE001 - any schema rejection
                findings.append(
                    f"{where}: ndjson payload rejected by event_from_wire: "
                    f"{exc}")
                continue
            if event_to_wire(event) != payload:
                findings.append(
                    f"{where}: ndjson payload drifted from the wire schema "
                    f"(event_to_wire(event_from_wire(line)) differs — stale "
                    f"keys or values?)")
    return findings


# --------------------------------------------------------------------- #
# The endpoint table: the API reference lists exactly the /v1 route table.
# --------------------------------------------------------------------- #

def check_endpoint_table(path: Path = ENDPOINT_DOC) -> List[str]:
    """Match ``path``'s ``| Endpoint |`` table against the route table."""
    if str(SRC_ROOT) not in sys.path:
        sys.path.insert(0, str(SRC_ROOT))
    from repro.automl.remote.front import ROUTES

    findings = []
    documented: List[Tuple[str, str]] = []
    in_table = False
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        if line.startswith("| Endpoint |"):
            in_table = True
            continue
        if not line.startswith("|"):
            in_table = False
        if not in_table:
            continue
        match = ENDPOINT_ROW_RE.match(line)
        if match:
            route = (match.group(1), match.group(2))
            if route in documented:
                findings.append(f"{_rel(path)}:{lineno}: endpoint "
                                f"{' '.join(route)} is listed twice")
            documented.append(route)
    served = [(method, template) for method, template, _ in ROUTES]
    for route in served:
        if route not in documented:
            findings.append(f"{_rel(path)}: endpoint table is missing "
                            f"{' '.join(route)} (in the route table)")
    for route in documented:
        if route not in served:
            findings.append(f"{_rel(path)}: endpoint table lists "
                            f"{' '.join(route)}, which no route serves")
    return findings


# --------------------------------------------------------------------- #
# Console fences: the runbook's commands, parsed and (optionally) run.
# --------------------------------------------------------------------- #

def console_commands(path: Path) -> List[Tuple[int, str]]:
    """Every ``$``-command of ``path``'s console fences as (line, command).

    A command line starts with ``$ ``; a trailing ``\\`` continues it onto
    the next line (shell style).  Other lines are illustrative output.
    """
    commands = []
    for language, start, block in fenced_blocks(path):
        if language != "console":
            continue
        current: Optional[str] = None
        current_line = 0
        for offset, line in enumerate(block):
            if current is not None:
                part = line.strip()
                if part.endswith("\\"):
                    current += " " + part[:-1].strip()
                else:
                    commands.append((current_line, current + " " + part))
                    current = None
                continue
            stripped = line.strip()
            if stripped.startswith("$ "):
                body = stripped[2:].strip()
                if body.endswith("\\"):
                    current, current_line = body[:-1].strip(), start + offset
                else:
                    commands.append((start + offset, body))
        if current is not None:
            commands.append((current_line, current))
    return commands


def check_console_conventions(path: Path) -> List[str]:
    """Every console command must be one ``--execute`` can run."""
    findings = []
    for lineno, command in console_commands(path):
        head = command.split(None, 1)[0] if command.split() else ""
        if head not in ("python", "kill"):
            findings.append(
                f"{_rel(path)}:{lineno}: console command {head!r} is not "
                f"executable by tools/check_docs.py (use `python ...` or "
                f"`kill [-9] $SERVER_PID`)")
    return findings


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _wait_for_health(port: int, proc: subprocess.Popen,
                     deadline: float = 30.0) -> Optional[str]:
    """Block until the served /v1/health answers; return an error or None."""
    url = f"http://127.0.0.1:{port}/v1/health"
    end = time.monotonic() + deadline
    while time.monotonic() < end:
        if proc.poll() is not None:
            out = (proc.stdout.read().decode("utf-8", "replace")
                   if proc.stdout else "")
            return (f"server exited with code {proc.returncode} before "
                    f"serving: {out.strip()[-500:]}")
        try:
            with urllib.request.urlopen(url, timeout=2.0):
                return None
        except urllib.error.HTTPError:
            return None  # an HTTP answer (e.g. 401 on a --token server)
        except (urllib.error.URLError, ConnectionError, OSError):
            time.sleep(0.1)
    return f"server never answered {url}"


class ConsoleSession:
    """A sandbox that runs one document's console commands in order.

    Each document gets a fresh working directory (so relative paths like
    ``anttune.db`` are isolated), the ``ops_demo`` helper module on
    ``PYTHONPATH``, and the documented port remapped to a free one.
    Background commands (trailing ``&``) are tracked; ``kill`` commands
    signal the most recent one.  Every foreground command must exit 0.
    """

    def __init__(self, workdir: str) -> None:
        self.workdir = workdir
        self.port = _free_port()
        self.ports = {DOC_PORT: self.port, DOC_PORT_2: _free_port()}
        (Path(workdir) / f"{HELPER_MODULE}.py").write_text(HELPER_SOURCE)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC_ROOT), workdir]
            + [p for p in self.env.get("PYTHONPATH", "").split(os.pathsep)
               if p])
        self.background: List[subprocess.Popen] = []

    def _substitute(self, command: str) -> str:
        for documented, actual in self.ports.items():
            command = command.replace(documented, str(actual))
        return command

    def _bound_port(self, original: str) -> int:
        """The remapped port a server command binds (its ``--port``)."""
        match = re.search(r"--port\s+(\d+)", original)
        if match:
            return self.ports.get(match.group(1), int(match.group(1)))
        return self.port  # both serve and route default to 8123

    def run(self, command: str) -> Optional[str]:
        """Execute one command; return an error string or None."""
        original = command
        command = self._substitute(command)
        background = command.rstrip().endswith("&")
        if background:
            command = command.rstrip().rstrip("&").strip()
        argv = shlex.split(command)
        if not argv:
            return "empty command"
        if argv[0] == "kill":
            return self._kill(argv)
        if argv[0] != "python":
            return f"cannot execute {argv[0]!r}"
        argv[0] = sys.executable
        if background:
            proc = subprocess.Popen(argv, cwd=self.workdir, env=self.env,
                                    stdout=subprocess.PIPE,
                                    stderr=subprocess.STDOUT)
            self.background.append(proc)
            if any(f" {verb}" in command for verb in ("serve", "route")):
                return _wait_for_health(self._bound_port(original), proc)
            return None
        try:
            done = subprocess.run(argv, cwd=self.workdir, env=self.env,
                                  stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, timeout=180.0)
        except subprocess.TimeoutExpired:
            return "command timed out after 180s"
        if done.returncode != 0:
            tail = done.stdout.decode("utf-8", "replace").strip()[-500:]
            return f"exit code {done.returncode}: {tail}"
        return None

    def _kill(self, argv: List[str]) -> Optional[str]:
        hard = "-9" in argv
        alive = [p for p in self.background if p.poll() is None]
        if not alive:
            return "kill: no background process is running"
        victim = alive[-1]
        victim.send_signal(signal.SIGKILL if hard else signal.SIGTERM)
        try:
            victim.wait(timeout=30.0)
        except subprocess.TimeoutExpired:
            victim.kill()
            victim.wait(timeout=10.0)
        return None

    def close(self) -> None:
        for proc in self.background:
            if proc.poll() is None:
                proc.kill()
                try:
                    proc.wait(timeout=10.0)
                except subprocess.TimeoutExpired:  # pragma: no cover
                    pass


def execute_console_blocks(path: Path) -> List[str]:
    """Run every console command of ``path`` in a throwaway sandbox."""
    commands = console_commands(path)
    if not commands:
        return []
    findings = []
    with tempfile.TemporaryDirectory(prefix="check_docs_") as workdir:
        session = ConsoleSession(workdir)
        try:
            for lineno, command in commands:
                error = session.run(command)
                if error is not None:
                    findings.append(
                        f"{_rel(path)}:{lineno}: console command failed "
                        f"({command.split()[0]} ...): {error}")
                    break  # later commands depend on this one's state
        finally:
            session.close()
    return findings


def run_checks(out: Callable[[str], None] = print,
               execute: bool = False) -> int:
    """Run every check over every doc file; return the number of findings."""
    findings: List[str] = []
    for path in doc_files():
        findings.extend(check_python_snippets(path))
        findings.extend(check_links(path))
        findings.extend(check_ndjson_snippets(path))
        findings.extend(check_console_conventions(path))
    findings.extend(check_endpoint_table())
    if execute and not findings:
        # Static problems first: no point running a runbook that already
        # fails its conventions.
        for path in doc_files():
            findings.extend(execute_console_blocks(path))
    for finding in findings:
        out(finding)
    if not findings:
        mode = "checked and executed" if execute else "checked"
        out(f"docs OK: {len(doc_files())} files {mode}")
    return len(findings)


if __name__ == "__main__":
    sys.exit(1 if run_checks(execute="--execute" in sys.argv[1:]) else 0)
