"""Test-session plumbing: the ``ci`` Hypothesis profile, and acceptance
verdicts in the terminal summary."""

from hypothesis import settings

# ``pytest --hypothesis-profile=ci`` draws the same examples on every run, so
# a property test cannot pass on one run and fail on the next.
settings.register_profile("ci", derandomize=True)

acceptance_lines: list[str] = []


def record_verdict(number: int, description: str, failures: list) -> None:
    """Store one pass/fail line; raise if the criterion has failures."""
    tag = "PASS" if not failures else "FAIL"
    line = f"[{tag}] criterion {number}: {description}"
    acceptance_lines.append(line)
    print(line)
    assert not failures, f"criterion {number}: " + "; ".join(
        str(f) for f in failures[:8]
    )


def pytest_terminal_summary(terminalreporter):
    if not acceptance_lines:
        return
    terminalreporter.section("acceptance criteria")
    for line in acceptance_lines:
        terminalreporter.write_line(line)
