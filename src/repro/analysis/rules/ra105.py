"""RA105 — ContextVar kill-switches toggle only through their context managers.

Every context-scoped switch the repo keeps — the reference-arm switch
``csr_kernel_disabled`` and the ``cache_capacity`` override — is a
module-level :class:`~contextvars.ContextVar` flipped by a
``contextmanager`` that ``set()``s a token and ``reset()``s it in a
``finally``.  That pairing is what makes the switches composable (nesting
restores the outer state) and concurrency-safe (each asyncio task and
``to_thread`` hop sees its own value).  A bare ``VAR.set(...)`` from *another* module leaks the override
past its intended scope — one benchmark disabling the CSR kernel would
silently slow every later query in the process.  This rule flags ``.set()``
on any known (or scanned-and-discovered) kill-switch outside its defining
module; ``tests/`` are exempt, and ordinary ``asyncio.Event.set()`` calls
never match because matching is by the ContextVar's *name*.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.analysis.core import (
    Example,
    Finding,
    Project,
    Rule,
    SourceFile,
    terminal_name,
)


def _set_receiver(node: ast.Call) -> Optional[str]:
    """For ``X.set(...)`` / ``mod.X.set(...)``: the terminal name of ``X``."""
    function = node.func
    if not (isinstance(function, ast.Attribute) and function.attr == "set"):
        return None
    return terminal_name(function.value)


class Ra105(Rule):
    rule_id = "RA105"
    title = "kill-switch ContextVar .set() outside its defining module"
    rationale = (
        "The context-scoped switches (csr_kernel_disabled, which selects "
        "the reference arm, and the cache_capacity override) are "
        "ContextVars flipped by context managers that set() a token and "
        "reset() it in a finally block — that is what makes them nest and "
        "stay scoped per asyncio task. A bare VAR.set(...) from another "
        "module leaks the override for the rest of the process: a "
        "benchmark disabling the CSR kernel would silently slow every "
        "subsequent query. Only the defining module (inside its context "
        "manager) and tests/ may call .set(); everyone else uses the "
        "published context managers."
    )
    examples = {
        "bad": [
            Example(
                code=(
                    "from repro.graphdb.paths import _CSR_KERNEL\n"
                    "\n"
                    "def bench_setup():\n"
                    "    _CSR_KERNEL.set(False)\n"
                ),
                path="benchmarks/bench_fixture.py",
            ),
            Example(
                code=(
                    "from repro.graphdb import cache\n"
                    "\n"
                    "def unbound_caches_forever():\n"
                    "    cache._CAPACITY_OVERRIDE.set(None)\n"
                ),
                path="src/repro/engine/fixture.py",
            ),
        ],
        "good": [
            Example(
                code=(
                    "from repro.graphdb.paths import csr_kernel_disabled\n"
                    "\n"
                    "def bench_oracle(run):\n"
                    "    with csr_kernel_disabled():\n"
                    "        return run()\n"
                ),
                path="benchmarks/bench_fixture.py",
            ),
            Example(
                code=(
                    "import asyncio\n"
                    "\n"
                    "class Broker:\n"
                    "    def __init__(self):\n"
                    "        self._wake = asyncio.Event()\n"
                    "\n"
                    "    def nudge(self):\n"
                    "        self._wake.set()  # an Event, not a kill-switch\n"
                ),
                path="src/repro/service/fixture.py",
            ),
        ],
    }

    def applies(self, path: str) -> bool:
        return not ("/" + path).startswith("/tests/")

    def check(self, source: SourceFile, project: Project) -> Iterator[Finding]:
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Call):
                continue
            receiver = _set_receiver(node)
            if receiver is None:
                continue
            defining = project.contextvars.get(receiver)
            if defining is None or source.path in defining:
                continue
            modules = ", ".join(sorted(defining))
            yield self.finding(
                source,
                node.lineno,
                f"{receiver}.set() outside its defining module ({modules}) — "
                "use the published context manager so the override is "
                "scoped and reset",
            )


RULE = Ra105()
