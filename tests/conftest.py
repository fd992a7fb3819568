import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

import oracles
from mergeruns import counts, trees

REFERENCE_TERM = "a.b.(c || d.(e || f))"
REFERENCE_SHAPE = (((), ((), ())),)  # nested-tuple form for the oracles

ACCEPTANCE_LINES: list[str] = []


def plane_trees(n: int) -> list[trees.SyntaxTree]:
    """Every plane tree of n nodes, parsed from the oracles' shapes."""
    return [trees.parse_process(oracles.to_term(shape)) for shape in oracles.all_shapes(n)]


@pytest.fixture
def ref_term() -> str:
    return REFERENCE_TERM


@pytest.fixture
def ref_tree() -> trees.SyntaxTree:
    return trees.parse_process(REFERENCE_TERM)


@pytest.fixture
def ref_shape():
    return REFERENCE_SHAPE


@pytest.fixture
def kernel_calls(monkeypatch):
    """The factor list of every exact-kernel call, in call order."""
    calls = []
    real = counts._ratio

    def spy(factors, top, bottom):
        calls.append(list(factors))
        return real(factors, top, bottom)

    monkeypatch.setattr(counts, "_ratio", spy)
    return calls


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
