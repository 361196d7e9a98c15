import json

import pytest

import digests

TABLE = json.loads(digests.TABLE.read_text())


def test_digest_table_lists_every_run_once():
    assert list(TABLE) == [digests.key(argv) for argv in digests.RUNS]


@pytest.mark.parametrize("argv", digests.RUNS, ids=digests.key)
def test_run_matches_its_digest(argv):
    # Regenerate with `PYTHONPATH=src python tests/digests.py` only when an
    # output is meant to change, and name the changed entries.
    with digests.workdir():
        code, out, err = digests.run(argv)
    assert digests.digest(code, out, err) == TABLE[digests.key(argv)], (
        f"exit {code}\n--- stdout ---\n{out}--- stderr ---\n{err}")
