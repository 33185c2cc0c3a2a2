import json
import subprocess
import sys
from collections import Counter

from perfbench import streams
from perfbench.tests.conftest import ROOT

NAMES = ["adpcm_dec", "adpcm_enc", "g724_dec", "jpeg_dec", "pgp_enc"]

_DUMP = (
    "import json; from perfbench import streams; "
    f"names = {NAMES!r}; "
    "print(json.dumps([streams.zipf_requests(names, 7, 300), "
    "streams.corpus_order(7)]))"
)


def _as_json(value):
    return json.loads(json.dumps(value))


def test_streams_repeat_within_a_process():
    assert streams.zipf_requests(NAMES, 3) == streams.zipf_requests(NAMES, 3)
    assert streams.corpus_order(3) == streams.corpus_order(3)


def test_streams_repeat_across_processes():
    # a fresh interpreter has another string-hash seed, so a stream that
    # leaned on set or dict order of strings would differ here
    here = _as_json([streams.zipf_requests(NAMES, 7, 300),
                     streams.corpus_order(7)])
    for hash_seed in ("1", "2"):
        out = subprocess.run(
            [sys.executable, "-c", _DUMP], cwd=ROOT, check=True,
            capture_output=True, text=True,
            env={"PYTHONPATH": str(ROOT), "PYTHONHASHSEED": hash_seed})
        assert json.loads(out.stdout) == here


def test_seeds_change_the_draws_not_the_population():
    a = streams.zipf_requests(NAMES, 1)
    b = streams.zipf_requests(NAMES, 2)
    assert a != b
    cells = set(streams.zipf_cells(NAMES))
    assert set(a) <= cells and set(b) <= cells
    assert sorted(streams.corpus_order(1)) == \
        list(range(streams.CORPUS_SIZE))


def test_zipf_popularity_follows_rank():
    counts = Counter(streams.zipf_requests(NAMES, 5, 20_000))
    ranked = streams.zipf_cells(NAMES)
    # rank 1 is drawn about twice as often as rank 2 under exponent 1
    assert 1.6 < counts[ranked[0]] / counts[ranked[1]] < 2.5
    assert counts[ranked[0]] > counts[ranked[-1]] * 10


def test_grid_covers_figure_7_and_unbuffered_traditional():
    groups = streams.grid_groups(NAMES)
    assert len(groups) == 2 * len(NAMES)
    cells = sum(len(capacities) for _, _, capacities in groups)
    assert cells == len(NAMES) * (2 * len(streams.FIG7_CAPACITIES) + 1)
    for _, pipeline, capacities in groups:
        assert (None in capacities) == (pipeline == "traditional")
