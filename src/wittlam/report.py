"""The one report type behind every check the library runs.

A Report is an ordered list of entries: checks, each a tuple
(name, passed, detail), and free-text notes.  It is passed when it holds
at least one check and every check passed, so an empty report is never
a vacuous pass.  `add` only appends, and the text is built when the
report is printed.
"""


class Report:
    """Checks and notes in the order they were added."""

    __slots__ = ("entries",)

    def __init__(self):
        self.entries = []

    def add(self, name, passed, detail=""):
        """Record a check; a nonempty `detail` is printed in brackets."""
        self.entries.append((name, bool(passed), detail))

    def note(self, text):
        """Record a line of free text, printed as it is."""
        self.entries.append(text)

    @property
    def checks(self):
        """The checks, as (name, passed, detail) tuples."""
        return [e for e in self.entries if type(e) is tuple]

    @property
    def notes(self):
        return [e for e in self.entries if type(e) is str]

    @property
    def passed(self):
        checks = self.checks
        return bool(checks) and all(ok for _, ok, _ in checks)

    #: Alias of `passed`, the name `hasse_check` results have always had.
    ok = passed

    def lines(self):
        out = []
        for e in self.entries:
            if type(e) is str:
                out.append(e)
                continue
            name, ok, detail = e
            tail = f"  [{detail}]" if detail else ""
            out.append(f"{'pass' if ok else 'FAIL'}  {name}{tail}")
        return out

    def __str__(self):
        return "\n".join(self.lines())

    def to_json(self):
        return {
            "passed": self.passed,
            "checks": [{"name": name, "passed": ok, "detail": detail}
                       for name, ok, detail in self.checks],
            "notes": self.notes,
        }
