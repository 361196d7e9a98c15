import json

import pytest

import digests


def test_digest_table_lists_every_run_once():
    golden = set(map(digests.key, digests.GOLDEN_RUNS.values()))
    assert not golden & set(map(digests.key, digests.RUNS))
    assert list(json.loads(digests.TABLE.read_text())) == list(map(digests.key, digests.ARGVS))


@pytest.mark.parametrize("argv", digests.RUNS, ids=digests.key)
def test_run_matches_its_digest(argv):
    digests.check(argv)
