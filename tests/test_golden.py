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


def _test_id(entry):
    return " ".join(entry["argv"])[:60]


def test_corpus_test_ids_are_distinct():
    # pytest would suffix clashing ids, renaming tests that exist already
    ids = [_test_id(e) for e in ENTRIES]
    assert len(set(ids)) == len(ids), [i for i in ids if ids.count(i) > 1]


@pytest.mark.parametrize("entry", ENTRIES, ids=_test_id)
def test_golden_output(entry):
    assert golden.record(entry["argv"]) == entry
