import json
import re

import pytest

import digests
from taylorpade import cli


def test_digest_table_lists_every_run_once():
    golden = set(map(digests.key, digests.GOLDEN_RUNS.values()))
    assert not golden & set(map(digests.key, digests.RUNS))
    assert list(json.loads(digests.TABLE.read_text())) == list(map(digests.key, digests.ARGVS))


@pytest.mark.parametrize("argv", digests.RUNS, ids=digests.key)
def test_run_matches_its_digest(argv):
    digests.check(argv)


def test_deep_list_entries_are_well_formed():
    # Tier-1 runs none of the deep list (python tests/digests.py --deep does):
    # each entry is a new argv the CLI accepts, pinned once, in list order.
    keys = list(map(digests.key, digests.DEEP))
    assert len(set(keys)) == len(keys) and not set(keys) & set(map(digests.key, digests.ARGVS))
    table = json.loads(digests.DEEP_TABLE.read_text())
    assert list(table) == keys
    for argv in digests.DEEP:
        args, extra = cli.build_parser().parse_known_args(argv)
        assert not extra
        cli.RunConfig(**{f: v for f, v in vars(args).items() if v is not None})
        pin = table[digests.key(argv)]
        assert sorted(pin) == ["exit", "stderr", "stdout"] and pin["exit"] == 0
        assert all(re.fullmatch("[0-9a-f]{64}", pin[k]) for k in ("stderr", "stdout"))
