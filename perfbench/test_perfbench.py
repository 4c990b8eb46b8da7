"""The benchmark's own checks.

    python3 -m pytest perfbench -q

The exact query counts repeat between runs of the default seed, the answer
digests match the recorded ones, a held-out seed passes the correctness
gate, the tracer attributes every query to its stage and leaves the library
as it found it, and a directory without the library is refused.  Runs one
pass of every workload at two seeds: a few minutes.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import apdrec.higher  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

EXPECTED = json.loads((BENCH / "expected.json").read_text())
DEFAULT_SEED = 0
HELD_OUT_SEED = 7


def one_pass(workload, seed, tracer=None):
    workload.setup(seed)
    return run.measure(workload, 0, workloads.ITEM_ERRORS, tracer=tracer)


@pytest.mark.parametrize("name", ["roundtrip", "graph-sweep"])
def test_counts_repeat_exactly_on_the_default_seed(name):
    first = one_pass(workloads.make(name), DEFAULT_SEED)
    second = one_pass(workloads.make(name), DEFAULT_SEED)
    assert first["failed"] == 0
    assert first["counts"] == second["counts"]
    assert first["digest"] == second["digest"] == EXPECTED["digests"][name][str(DEFAULT_SEED)]


def test_apd_stream_digest_on_the_default_seed():
    result = one_pass(workloads.make("apd-stream"), DEFAULT_SEED)
    assert result["failed"] == 0
    assert result["counts"] == {"oracle_queries": workloads.ApdStream.length}
    assert result["digest"] == EXPECTED["digests"]["apd-stream"][str(DEFAULT_SEED)]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_held_out_seed_passes_the_gate(name):
    result = one_pass(workloads.make(name), HELD_OUT_SEED)
    assert result["attempted"] > 0 and result["failed"] == 0
    recorded = EXPECTED["digests"][name].get(str(HELD_OUT_SEED))
    assert recorded in (None, result["digest"])


def test_tracer_attributes_queries_and_restores_the_library():
    original = apdrec.higher.is_simplex
    mini = workloads.Reconstruction(
        "mini", lambda: workloads.acceptance_configs()[:12]
    )
    plain = one_pass(mini, DEFAULT_SEED)
    with Tracer() as tracer:
        traced = one_pass(mini, DEFAULT_SEED, tracer=tracer)
    assert apdrec.higher.is_simplex is original
    assert apdrec.harness.reconstruct is apdrec.higher.reconstruct
    assert traced["digest"] == plain["digest"]
    counts = plain["counts"]
    assert tracer.calls("oracle.query") == counts["oracle_queries"]
    assert tracer.counts["vertices.queries"] == counts["vertex_queries"]
    assert tracer.counts["edges.queries"] == counts["edge_queries"]
    assert tracer.counts["higher.queries"] == (
        counts["oracle_queries"] - counts["vertex_queries"] - counts["edge_queries"]
    )
    predicates = sum(v for k, v in counts.items() if k.startswith("predicate_calls."))
    assert tracer.calls("higher.is_simplex") == predicates
    spans = [s for s in tracer.spans if s is not None]
    assert len(spans) == len(tracer.spans)
    assert all(s[1] <= s[2] for s in spans)
    assert all(s[3] is None or spans[s[3]][1] <= s[1] for s in spans)


def test_tail_leaves_ten_samples_above_it():
    value, pct = run.tail(list(range(50)))
    assert (value, pct) == (39, 80.0)
    assert run.tail(list(range(10))) == (None, None)


def test_normalise_scales_by_the_nearest_reference_timings():
    # a slow spell doubles both the items and the reference loop in it
    durations = [1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0, 2.0]
    references = [r * run.REFERENCE_S for r in (1, 1, 1, 2, 2, 2, 2, 2)]
    scaled = run.normalise(durations, references)
    assert scaled[:2] == [1.0, 1.0]
    assert scaled[-3:] == [1.0, 1.0, 1.0]


def test_directory_without_the_library_is_refused():
    bare = BENCH / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in BENCH.glob("*"):
        if path.is_file():
            shutil.copy(path, bare / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "roundtrip",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=120,
    )
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
