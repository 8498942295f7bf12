"""Error types for the MiniJS engine.

Errors are split the way the measurement pipeline needs them split:
syntax errors (lex/parse) must be distinguishable from runtime errors,
because the paper reports sites whose JavaScript "contained syntax
errors that prevented execution" among the 267 unmeasurable domains.
"""

from __future__ import annotations

from typing import Any, Optional


class MiniJSError(Exception):
    """Base class for everything the MiniJS engine raises."""


class JSLexError(MiniJSError):
    """Invalid character stream (reported with line number)."""

    def __init__(self, message: str, line: int) -> None:
        super().__init__("SyntaxError (line %d): %s" % (line, message))
        self.detail = message
        self.line = line


class JSParseError(MiniJSError):
    """Token stream does not match the MiniJS grammar."""

    def __init__(self, message: str, line: int) -> None:
        super().__init__("SyntaxError (line %d): %s" % (line, message))
        self.detail = message
        self.line = line


class JSRuntimeError(MiniJSError):
    """Engine-level runtime failure (bad call target, member of null...).

    These surface into scripts as catchable errors, mirroring how real
    pages survive their own TypeErrors inside try/catch.
    """

    def __init__(self, message: str, line: Optional[int] = None) -> None:
        location = "" if line is None else " (line %d)" % line
        super().__init__("TypeError%s: %s" % (location, message))
        self.line = line


class JSThrownValue(MiniJSError):
    """A ``throw`` statement's value propagating as a Python exception."""

    def __init__(self, value: Any) -> None:
        super().__init__("uncaught JS exception: %r" % (value,))
        self.value = value


class StepLimitExceeded(MiniJSError):
    """The interpreter's per-script step budget ran out.

    Monkey testing feeds pages random events; a page script stuck in a
    loop must not hang the crawl, so every script runs under a budget.

    This is the *script*-level guard: the browser catches it, records a
    script error and carries on with the page.  The *site*-level step
    budget lives in :mod:`repro.core.sandbox`
    (:class:`~repro.core.sandbox.ScriptBudgetExceeded`, cause
    ``"steps"``) and is deliberately not a ``MiniJSError`` — it aborts
    the whole visit into a partial measurement instead of being
    swallowed per script.  ``cause`` mirrors the sandbox's structured
    slugs so reports can group both flavors of step exhaustion.
    """

    cause = "steps"

    def __init__(self, limit: int) -> None:
        super().__init__("script exceeded the %d-step budget" % limit)
        self.limit = limit
