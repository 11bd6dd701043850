"""The rule engine of :mod:`repro.analysis`: files, findings, driver, baseline.

Six PRs of kernels, async serving, mmap snapshots and cost-based planning
have accumulated invariants that no type system sees: lock discipline in
``service/``, no blocking calls inside ``async def``, version-scoped cache
keys, ContextVar kill-switches toggled only through their context managers,
and snapshot hot paths that must never force dictionary-index hydration.
This module is the machinery that lets one-page rules
(:mod:`repro.analysis.rules`) enforce them mechanically:

* :class:`SourceFile` — one parsed file: AST, raw lines (rules read
  structured comments such as ``# guarded-by: <lock>``), and the inline
  ``# lint-allow: RAxxx (reason)`` suppressions, which **require** a
  justification in parentheses;
* :class:`Project` — the cross-file pass (currently: where each
  ``ContextVar`` kill-switch is defined, for RA105);
* :class:`Rule` — the base class a rule implements: an id, a rationale,
  embedded good/bad example snippets (the fixture corpus used by both the
  test suite and ``repro lint --explain``), a path predicate and a
  ``check()`` generator of :class:`Finding` records;
* :class:`Baseline` — a JSON file of known findings, each carrying a
  mandatory ``justification``, matched by ``(rule, path, message)`` so line
  drift does not resurrect suppressed findings;
* :func:`run_lint` — load, check, suppress, and report.

Everything here is stdlib-only (``ast`` + ``re`` + ``json``), so the linter
runs wherever the package itself runs — no third-party checker required.
"""

from __future__ import annotations

import ast
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.core.errors import ReproError

#: Inline suppression: ``# lint-allow: RA104 (oracle kernel hydrates by design)``.
#: The parenthesised justification is mandatory — a pragma without one does
#: not suppress anything.
_ALLOW_PRAGMA = re.compile(
    r"#\s*lint-allow:\s*(?P<rules>RA\d{3}(?:\s*,\s*RA\d{3})*)\s*\((?P<reason>[^)]+)\)"
)


class LintError(ReproError):
    """Raised for unusable linter inputs (bad paths, malformed baselines)."""


@dataclass(frozen=True)
class Finding:
    """One rule violation: where it is and what contract it breaks."""

    rule: str
    path: str
    line: int
    message: str

    def sort_key(self) -> Tuple[str, int, str, str]:
        return (self.path, self.line, self.rule, self.message)

    def identity(self) -> Tuple[str, str, str]:
        """The baseline-matching key — line numbers drift, messages do not."""
        return (self.rule, self.path, self.message)

    def to_payload(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "message": self.message,
        }

    def render(self) -> str:
        return f"{self.path}:{self.line}: {self.rule} {self.message}"


@dataclass(frozen=True)
class Example:
    """One fixture snippet: code plus the repo-relative path it pretends to be.

    Rules are path-scoped (RA101 only looks at ``service/``, RA104 at the
    hydration-sensitive modules, ...), so an example must say *where* it
    lives for the rule to engage.  The same snippets feed both
    ``tests/test_analysis.py`` and ``repro lint --explain``.
    """

    code: str
    path: str


class SourceFile:
    """One file under analysis: path, raw lines, AST, inline suppressions."""

    def __init__(self, path: str, text: str) -> None:
        self.path = path.replace("\\", "/")
        self.text = text
        self.lines: List[str] = text.splitlines()
        try:
            self.tree = ast.parse(text)
        except SyntaxError as error:
            raise LintError(f"{path}: cannot parse: {error}") from error
        # line -> rule ids allowed on that line.  A pragma on a pure comment
        # line also covers the next line, so wide statements can carry their
        # justification on the line above instead of trailing past 100 cols.
        self.allowed: Dict[int, Set[str]] = {}
        for number, line in enumerate(self.lines, start=1):
            match = _ALLOW_PRAGMA.search(line)
            if match is None:
                continue
            rules = {rule.strip() for rule in match.group("rules").split(",")}
            self.allowed.setdefault(number, set()).update(rules)
            if not line.split("#", 1)[0].strip():
                self.allowed.setdefault(number + 1, set()).update(rules)

    def allows(self, rule: str, line: int) -> bool:
        return rule in self.allowed.get(line, ())

    def line_comment(self, line: int) -> str:
        """The trailing ``#`` comment of physical line ``line`` (1-based), or ``''``."""
        if not 1 <= line <= len(self.lines):
            return ""
        text = self.lines[line - 1]
        position = text.find("#")
        return "" if position < 0 else text[position:]

    @classmethod
    def load(cls, path: Path, root: Path) -> "SourceFile":
        try:
            relative = str(path.resolve().relative_to(root.resolve()))
        except ValueError:
            relative = str(path)
        return cls(relative, path.read_text(encoding="utf-8"))


def terminal_name(node: ast.expr) -> Optional[str]:
    """The last dotted component of a name expression (``a.b.c`` → ``c``)."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def receiver_name(node: ast.expr) -> Optional[str]:
    """The terminal name of an attribute's receiver (``a.b.c`` → ``b``)."""
    if isinstance(node, ast.Attribute):
        return terminal_name(node.value)
    return None


class Project:
    """The cross-file pass: facts a single-file rule cannot see alone.

    Collects where every module-level :class:`~contextvars.ContextVar` is
    *defined* (``NAME = ContextVar(...)`` or the annotated form), merged
    with the known kill-switch set, so RA105 can tell a module toggling its
    own flag (legal, inside its context manager) from a module reaching into
    another's (illegal everywhere but ``tests/``).

    Also collects the procpool IPC message vocabulary for RA107: the names
    listed in the ``MESSAGE_TYPES`` tuple of any ``procpool/messages.py``
    in the scan set (plus module-level ``Union`` aliases over those names,
    such as ``Message``), merged with the known set so the rule still
    engages when the messages module is outside the scanned paths.
    """

    #: The kill-switches the repository has grown so far, by defining module.
    #: Collected definitions from the scanned files are merged on top, so a
    #: new ContextVar is protected the moment it is written — this map only
    #: guarantees coverage when the defining module is outside the scan set.
    KNOWN_CONTEXTVARS: Dict[str, str] = {
        "_CAPACITY_OVERRIDE": "src/repro/graphdb/cache.py",
        "_CSR_KERNEL": "src/repro/graphdb/paths.py",
    }

    #: The declared picklable IPC message vocabulary (see
    #: ``repro/service/procpool/messages.py``), used as the fallback when
    #: that module is outside the scan set.  ``Message`` is the published
    #: union alias over the concrete types.
    KNOWN_MESSAGE_TYPES: Tuple[str, ...] = (
        "ClaimRequest",
        "WorkItem",
        "WorkResult",
        "WorkerShutdown",
        "WorkerStats",
        "Message",
    )

    def __init__(self, sources: Sequence[SourceFile]) -> None:
        self.sources = list(sources)
        #: ContextVar name -> module paths defining it.
        self.contextvars: Dict[str, Set[str]] = {
            name: {path} for name, path in self.KNOWN_CONTEXTVARS.items()
        }
        #: Names allowed across the procpool IPC boundary (RA107).
        self.message_types: Set[str] = set(self.KNOWN_MESSAGE_TYPES)
        for source in self.sources:
            for name in _module_level_contextvars(source.tree):
                self.contextvars.setdefault(name, set()).add(source.path)
            if source.path.endswith("procpool/messages.py"):
                self.message_types.update(_declared_message_types(source.tree))


def _declared_message_types(tree: ast.Module) -> Set[str]:
    """The IPC vocabulary a ``procpool/messages.py`` module declares.

    Reads the ``MESSAGE_TYPES`` tuple/list of class names, then adds every
    module-level ``X = Union[...]`` alias whose members are all declared
    types (the published "some message" annotation).
    """
    declared: Set[str] = set()
    aliases: List[Tuple[str, Set[str]]] = []
    for statement in tree.body:
        value: Optional[ast.expr] = None
        targets: List[ast.expr] = []
        if isinstance(statement, ast.Assign):
            value, targets = statement.value, list(statement.targets)
        elif isinstance(statement, ast.AnnAssign) and statement.value is not None:
            value, targets = statement.value, [statement.target]
        if value is None:
            continue
        names = {
            target.id for target in targets if isinstance(target, ast.Name)
        }
        if "MESSAGE_TYPES" in names and isinstance(value, (ast.Tuple, ast.List)):
            for element in value.elts:
                element_name = terminal_name(element)
                if element_name is not None:
                    declared.add(element_name)
        elif (
            isinstance(value, ast.Subscript)
            and terminal_name(value.value) == "Union"
            and isinstance(value.slice, ast.Tuple)
        ):
            members = {
                name
                for name in (
                    terminal_name(element) for element in value.slice.elts
                )
                if name is not None
            }
            for alias in names:
                aliases.append((alias, members))
    for alias, members in aliases:
        if members and members <= declared:
            declared.add(alias)
    return declared


def _module_level_contextvars(tree: ast.Module) -> Iterator[str]:
    for statement in tree.body:
        value: Optional[ast.expr] = None
        targets: List[ast.expr] = []
        if isinstance(statement, ast.Assign):
            value, targets = statement.value, list(statement.targets)
        elif isinstance(statement, ast.AnnAssign) and statement.value is not None:
            value, targets = statement.value, [statement.target]
        if not isinstance(value, ast.Call):
            continue
        if terminal_name(value.func) != "ContextVar":
            continue
        for target in targets:
            if isinstance(target, ast.Name):
                yield target.id


class Rule:
    """Base class of one invariant check.

    Subclasses set the class attributes and implement :meth:`check`; the
    driver calls :meth:`applies` with the repo-relative path first, so a
    rule only parses files inside its contract's blast radius.
    """

    rule_id: str = ""
    title: str = ""
    rationale: str = ""
    examples: Dict[str, List[Example]] = {}

    def applies(self, path: str) -> bool:
        return True

    def check(self, source: SourceFile, project: Project) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, source: SourceFile, line: int, message: str) -> Finding:
        return Finding(rule=self.rule_id, path=source.path, line=line, message=message)


class Baseline:
    """Known findings accepted with a justification, loaded from JSON.

    The file is a list of objects with ``rule``, ``path``, ``message`` and a
    **non-empty** ``justification`` — an entry without one fails loading, so
    the baseline cannot silently become a mute button.  Matching ignores
    line numbers (they drift under unrelated edits).
    """

    def __init__(self, entries: Sequence[Dict[str, object]]) -> None:
        self.entries = list(entries)
        self._index: Set[Tuple[str, str, str]] = {
            (str(entry["rule"]), str(entry["path"]), str(entry["message"]))
            for entry in self.entries
        }

    @classmethod
    def load(cls, path: Path) -> "Baseline":
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as error:
            raise LintError(f"cannot read baseline {path}: {error}") from error
        entries = payload.get("findings") if isinstance(payload, dict) else payload
        if not isinstance(entries, list):
            raise LintError(f"baseline {path} must be a JSON list of findings")
        for entry in entries:
            if not isinstance(entry, dict):
                raise LintError(f"baseline {path}: entries must be objects")
            for key in ("rule", "path", "message"):
                if not entry.get(key):
                    raise LintError(f"baseline {path}: entry missing {key!r}")
            if not str(entry.get("justification", "")).strip():
                raise LintError(
                    f"baseline {path}: entry for {entry['rule']} at "
                    f"{entry['path']} has no justification — every accepted "
                    "finding must say why it is acceptable"
                )
        return cls(entries)

    def suppresses(self, finding: Finding) -> bool:
        return finding.identity() in self._index

    @staticmethod
    def render(findings: Sequence[Finding]) -> str:
        """A baseline skeleton for ``findings`` (justifications to fill in)."""
        entries = [
            dict(finding.to_payload(), justification="") for finding in findings
        ]
        return json.dumps({"findings": entries}, indent=2, sort_keys=True) + "\n"


@dataclass
class LintReport:
    """What one lint run saw: live findings, suppressed ones, coverage."""

    findings: List[Finding]
    suppressed: List[Finding] = field(default_factory=list)
    files_scanned: int = 0

    @property
    def ok(self) -> bool:
        return not self.findings

    def to_json(self) -> str:
        return json.dumps(
            {
                "ok": self.ok,
                "files_scanned": self.files_scanned,
                "findings": [finding.to_payload() for finding in self.findings],
                "suppressed": [finding.to_payload() for finding in self.suppressed],
            },
            indent=2,
            sort_keys=True,
        )

    def render(self) -> str:
        lines = [finding.render() for finding in self.findings]
        summary = (
            f"{len(self.findings)} finding(s) in {self.files_scanned} file(s)"
            + (f", {len(self.suppressed)} baselined" if self.suppressed else "")
        )
        lines.append(summary if self.findings else f"clean: {summary}")
        return "\n".join(lines)


#: Directories ``repro lint`` scans when invoked without explicit paths.
DEFAULT_SCAN_PATHS = ("src/repro", "benchmarks", "examples")

#: Path fragments never scanned (caches, VCS internals).
_SKIPPED_PARTS = {"__pycache__", ".git"}


def iter_python_files(paths: Sequence[Path]) -> List[Path]:
    """All ``.py`` files under ``paths`` (files kept as-is), sorted, deduplicated."""
    collected: Set[Path] = set()
    for path in paths:
        if path.is_dir():
            for candidate in path.rglob("*.py"):
                if not _SKIPPED_PARTS.intersection(candidate.parts):
                    collected.add(candidate)
        elif path.is_file():
            collected.add(path)
        else:
            raise LintError(f"no such file or directory: {path}")
    return sorted(collected)


def run_rules(
    sources: Sequence[SourceFile], rules: Sequence[Rule]
) -> List[Finding]:
    """Apply ``rules`` to ``sources`` — inline pragmas already honoured."""
    project = Project(sources)
    findings: List[Finding] = []
    for source in sources:
        for rule in rules:
            if not rule.applies(source.path):
                continue
            for finding in rule.check(source, project):
                if not source.allows(finding.rule, finding.line):
                    findings.append(finding)
    return sorted(findings, key=Finding.sort_key)


def run_lint(
    paths: Sequence[str],
    rules: Sequence[Rule],
    root: Optional[Path] = None,
    baseline: Optional[Baseline] = None,
) -> LintReport:
    """Lint ``paths`` (files or directories) with ``rules``.

    ``root`` anchors the repo-relative paths rules match against (defaults
    to the current directory); ``baseline`` moves matching findings to the
    report's ``suppressed`` list instead of failing the run.
    """
    anchor = Path.cwd() if root is None else root
    targets = [
        candidate if candidate.is_absolute() else anchor / candidate
        for candidate in (Path(entry) for entry in paths)
    ]
    files = iter_python_files(targets)
    sources = [SourceFile.load(path, anchor) for path in files]
    findings = run_rules(sources, rules)
    report = LintReport(findings=[], suppressed=[], files_scanned=len(sources))
    for finding in findings:
        if baseline is not None and baseline.suppresses(finding):
            report.suppressed.append(finding)
        else:
            report.findings.append(finding)
    return report


def lint_source(
    code: str, rule: Rule, path: str, extra_sources: Iterable[SourceFile] = ()
) -> List[Finding]:
    """Run one ``rule`` over an in-memory snippet pretending to live at ``path``.

    The test suite's (and ``--explain``'s) entry point for the embedded
    fixture corpus; ``extra_sources`` joins the cross-file pass when a rule
    needs project context beyond the built-in kill-switch table.
    """
    source = SourceFile(path, code)
    if not rule.applies(source.path):
        return []
    sources = [source, *extra_sources]
    project = Project(sources)
    return [
        finding
        for finding in rule.check(source, project)
        if not source.allows(finding.rule, finding.line)
    ]
