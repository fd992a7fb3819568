import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

import oracles
from mergeruns import sampling, trees

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
    """(numerator factors, denominator factors) of every exact-kernel call
    made from sampling, in call order."""
    calls = []
    real = sampling._ratio

    def spy(num_factors, den_factors, limit):
        num_factors, den_factors = list(num_factors), list(den_factors)
        calls.append((num_factors, den_factors))
        return real(num_factors, den_factors, limit)

    monkeypatch.setattr(sampling, "_ratio", spy)
    return calls


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
