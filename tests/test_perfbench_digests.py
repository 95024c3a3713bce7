"""The benchmark's seed-1 inputs, tracked at its K and at K=1, must give the
output files it recorded, so that a change to tracker output shows up here
rather than as a failed benchmark gate, and must cost the appearance work
pinned here, a count that does not drift with the machine's speed. Reads
perfbench/ and changes nothing in it."""
import hashlib
import sys
from pathlib import Path

import pytest

import mvtrack.affinity
from mvtrack.engine import OracleDetector, track
from mvtrack.modelio import read_models
from mvtrack.stream import read_scenario, write_motchallenge

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# perfbench/baseline.json, workloads.<name>.runs["1"].output_sha256: the
# MOTChallenge output of seed 1 at K=3 and K=1. A change that moves tracker
# output on purpose updates these and says why.
OUTPUT_SHA256 = {
    "clean-50": {
        3: "643cb4749fd0572fb60a0ce612720976430218f6bc6e3f86c4e4eb5d22d88a05",
        1: "4e49de54c36d4e98010b2bb65a1e4c1a53dab91ce9128b23e6098ad3def9fae8",
    },
    "noisy-20": {
        3: "e6eb9ba4aaee7edc50fd98f58ace057e33b32dd66b2f4de0e0ab181666006ce6",
        1: "606910cfddf6045fbe372c627e545b61c4c1955514bd0b7729dcf5888228daca",
    },
    "crowd-onestep": {
        3: "4d37781f8e6ebfba9beef8b5216452da89e6867f0fd39a3546f24a4c0fa99149",
        1: "514f6488d2c919d29983cc2dcec76681d5116a55a24a8977b2702d3c72444208",
    },
}


@pytest.fixture(scope="module")
def perfbench(request):
    """perfbench's `prepare` and `workloads` modules, imported with
    perfbench/ on the module path, as its scripts import them."""
    sys.path.insert(0, str(PERFBENCH))
    request.addfinalizer(lambda: sys.path.remove(str(PERFBENCH)))
    import prepare
    import workloads

    return prepare, workloads


@pytest.mark.parametrize("name", sorted(OUTPUT_SHA256))
def test_benchmark_seed_1_outputs_match_recorded_digests(tmp_path, perfbench, name):
    prepare, workloads = perfbench
    wl = workloads.WORKLOADS[name]
    prepare.prepare(wl, 1, tmp_path)
    scenario, models = read_scenario(tmp_path / "scenario.scn"), read_models(tmp_path / "models.txt")
    detector = OracleDetector(scenario, wl.detector_config(1))
    for k in (workloads.K, 1):
        rows, _ = track(scenario, detector, wl.tracker_config(k), models)
        out = tmp_path / f"k{k}.txt"
        write_motchallenge([(f, i, b, 1.0) for f, i, b in rows], out)
        assert hashlib.sha256(out.read_bytes()).hexdigest() == OUTPUT_SHA256[name][k], f"K={k}"


def test_crowd_onestep_seed_1_scores_few_appearance_pairs(tmp_path, perfbench, monkeypatch):
    # the (gallery entry, detection) pairs the appearance kernel scores in
    # one track; scoring every gallery entry of every cell the geometric
    # gate leaves open took 2,232 pairs at K=3 and 11,568 at K=1. At K=3,
    # 182 isolated cells take one pair each, and 4 others the 26 of their
    # 48 entries that their blended gates leave able to pass (K=1: 560
    # isolated cells, and 198 of the other 14 cells' 336 entries)
    prepare, workloads = perfbench
    wl = workloads.WORKLOADS["crowd-onestep"]
    prepare.prepare(wl, 1, tmp_path)
    scenario, models = read_scenario(tmp_path / "scenario.scn"), read_models(tmp_path / "models.txt")
    statistics, scored = mvtrack.affinity._statistics, []

    def counting_statistics(entries, dets, mode, pair_entry, *args):
        scored[-1] += len(pair_entry)
        return statistics(entries, dets, mode, pair_entry, *args)

    monkeypatch.setattr(mvtrack.affinity, "_statistics", counting_statistics)
    for k in (workloads.K, 1):
        scored.append(0)
        track(scenario, OracleDetector(scenario, wl.detector_config(1)), wl.tracker_config(k), models)
    assert workloads.K == 3
    assert scored == [208, 758]
    assert scored[1] < 11568 / 10
