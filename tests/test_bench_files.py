"""Every committed ``BENCH_*.json``, the record behind a perf claim, is
well formed: strict JSON with the keys a reader needs, correct runs only,
and one parent and one change run in each pair."""
import json
import re
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))
KEYS = ("topic", "harness", "parent_commit", "change_commit", "backend_name",
        "machine", "summary", "runs")


def _refuse(constant):
    raise ValueError(f"{constant} is not JSON")


def test_bench_files_exist():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda path: path.name)
def test_bench_file_is_a_well_formed_record(path):
    bench = json.loads(path.read_text(encoding="utf-8"), parse_constant=_refuse)
    assert [key for key in KEYS if key not in bench] == []
    assert re.fullmatch(r"[0-9a-f]{40}", bench["parent_commit"])
    assert bench["backend_name"] in ("c", "numpy")
    assert bench["runs"]
    sides = Counter()
    for run in bench["runs"]:
        last = run["last_line"]
        assert (last["correct"], last["failed"]) == (True, 0), run
        # a traced run's metrics are the per-layer ones; older files do not
        # say "trace" on every run
        trace = run.get("trace", int(any(name.startswith("trace.")
                                         for name in last["metrics"])))
        sides[run["workload"], run["pair"], trace, run["side"]] += 1
    pairs = {key[:3] for key in sides}
    assert {key: n for key, n in sides.items() if n != 1} == {}
    assert all(sides[(*pair, "parent")] == sides[(*pair, "change")] == 1
               for pair in pairs)
    assert {side for *_, side in sides} == {"parent", "change"}
