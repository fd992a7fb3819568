"""Every command of the golden corpus (tests/golden.json, written by
scripts/golden.py --update) still gives the recorded exit code, stdout
digest and first stderr line."""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "scripts"))
import golden  # noqa: E402

ENTRIES = json.loads((ROOT / "tests" / "golden.json").read_text(encoding="utf-8"))


def test_corpus_covers_the_command_list():
    assert [e["argv"] for e in ENTRIES] == golden.COMMANDS


@pytest.mark.parametrize("entry", ENTRIES, ids=lambda e: " ".join(e["argv"])[:60])
def test_golden_output(entry):
    assert golden.record(entry["argv"]) == entry
