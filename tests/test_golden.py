"""Golden output digests: every scenario x balancer pair, byte for byte.

``golden_digests.json`` holds the SHA-256 of ``intervals.csv``,
``summary.csv`` and ``events.log`` for each pair of ``CONFIGS``. A
change that is not meant to alter behaviour must leave all of them as
they are. A change that alters results on purpose updates the file in
the same commit; the failure message prints the digests to paste in.
"""

import json
from pathlib import Path

import pytest

from lbicasim.balancer import BALANCERS

from conftest import CONFIGS

GOLDEN = json.loads((Path(__file__).with_name("golden_digests.json")).read_text())


def test_golden_file_covers_every_pair():
    pairs = {f"{scenario}/{balancer}" for scenario in CONFIGS for balancer in BALANCERS}
    assert set(GOLDEN) == pairs


@pytest.mark.parametrize("pair", sorted(GOLDEN))
def test_outputs_match_golden_digests(runs, pair, tmp_path):
    actual = runs(*pair.split("/")).digests(tmp_path)
    assert actual == GOLDEN[pair], (
        f"{pair} outputs changed; actual digests:\n"
        + json.dumps({pair: actual}, indent=2, sort_keys=True)
    )
