"""Shared exception types."""


class SlalomError(Exception):
    pass


class BadInput(Exception):
    """A malformed command-line value or input file (usage, not a failed check)."""


class WindowMismatch(SlalomError):
    """Operands live on different windows."""


class ValidationFailure(SlalomError):
    """A domain invariant failed; carries a list of (where, what) pairs."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(f"{w}: {msg}" for w, msg in self.violations))


class GuardExceeded(SlalomError):
    """A brute-force search space exceeded its guard."""

    def __init__(self, size, guard, what=""):
        self.size = size
        self.guard = guard
        super().__init__(f"instance size {size} exceeds guard {guard}" + (f" ({what})" if what else ""))
