"""Self-test of the end-to-end benchmark harness at tiny sizes.

Outside the tier-1 ``testpaths``; run it with
``PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e.py``.
"""

from __future__ import annotations

import json
import re
import time

import pytest

from benchmarks.e2e import (ROOT, cli, compare, hostspeed, trace, worker,
                            workloads)
from repro.cluster import cluster as cluster_mod
from repro.kernel.kernel import Kernel
from repro.kernel.machine import Machine

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny_workloads() -> dict:
    return {w.name: w for w in (
        workloads.WebWorkload("web_lazypoline", tool="lazypoline",
                              requests=20, warmup=5),
        workloads.WebWorkload("web_bare", tool=None, requests=40, warmup=5),
        workloads.ColdWorkload("cold_lazypoline", tool="lazypoline",
                               rounds=1),
        workloads.FleetWorkload("fleet_chaos", requests=200),
        workloads.AluWorkload("alu_loop", iterations=2000),
    )}


def run(name: str, traced: bool, table: dict | None = None) -> dict:
    spec = {"workload": name, "seed": 3, "traced": traced,
            "spawned": time.perf_counter()}
    return worker.execute(spec, table or tiny_workloads())


def patch_points() -> dict:
    points = {(owner, attr): vars(owner)[attr]
              for owner, attr, _, _ in trace._boundaries()}
    for owner, attr in ((Kernel, "dispatch"), (Kernel, "register_hcall"),
                        (Machine, "load"), (cluster_mod, "run_shard")):
        points[(owner, attr)] = vars(owner)[attr]
    return points


def test_workload_names_match_the_manifest():
    declared = [w["name"] for w in SPEC["workloads"]]
    assert list(workloads.default_workloads()) == declared
    assert list(tiny_workloads()) == declared


@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_traced_run_restores_patches_and_matches_untraced(name):
    before = patch_points()
    untraced = run(name, traced=False)
    traced = run(name, traced=True)
    after = patch_points()
    assert all(after[key] is value for key, value in before.items())

    assert untraced["failed"] == traced["failed"] == 0
    assert traced["sim"] == untraced["sim"]
    acc = traced["accounting"]
    assert acc["raw_self_s"] == pytest.approx(acc["root_incl_s"], rel=1e-9)
    assert (acc["spans_self_s"] + acc["wrapper_overhead_s"]
            + acc["unattributed_s"]) == pytest.approx(acc["window_s"],
                                                      rel=1e-9)
    assert 0 < acc["root_incl_s"] <= acc["window_s"]


def test_emitted_names_are_declared():
    table = tiny_workloads()
    runs = [run("web_lazypoline", False, table) for _ in range(2)]
    result = cli.summarize(runs, run("web_lazypoline", True, table), SPEC)
    assert not result["problems"]
    for trace_flag, group in ((False, "end_to_end"), (True, "per_layer")):
        line = cli.contract_line(result, SPEC, trace_flag)
        assert set(line["metrics"]) == {m["name"] for m in SPEC[group]}
        assert line["attempted"] >= 1 and line["failed"] == 0
    emitted = set(result["end_to_end"]) | set(result["per_layer"])
    emitted |= set(result["reported"]) | set(result["breakdown"]["names"])
    assert all(NAME.fullmatch(name) for name in emitted)
    declared = {m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    assert set(result["end_to_end"]) | set(result["per_layer"]) == declared


def test_forced_output_mismatch_fails(monkeypatch, capsys):
    real_attach = workloads.attach_mechanism

    def corrupting_attach(machine, process, tool):
        attached = real_attach(machine, process, tool)
        if tool is not None:
            process.task.stdout += b"!"
        return attached

    monkeypatch.setattr(workloads, "attach_mechanism", corrupting_attach)
    table = tiny_workloads()
    monkeypatch.setattr(cli, "run_worker",
                        lambda spec: worker.execute(
                            dict(spec, spawned=time.perf_counter()), table))
    code = cli.main(["--workload", "cold_lazypoline", "--seconds", "0"])
    line = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code != 0
    assert line["correct"] is False
    assert 0 < line["failed"] <= line["attempted"]

    result = cli.summarize([run("cold_lazypoline", False, table)], None, SPEC)
    assert result["reported"]["ops_failed_ratio"] > 0


def test_host_speed_scales_to_the_nominal_host(monkeypatch):
    # a host where the reference takes twice its nominal time is half as
    # fast: its intervals count half, probes from elsewhere included
    monkeypatch.setattr(hostspeed, "reference",
                        lambda: 2 * hostspeed.NOMINAL_S)
    speed = hostspeed.HostSpeed()
    speed.start()
    time.sleep(0.01)
    speed.close_interval()
    assert speed.raw_s >= 0.01
    assert speed.factor == pytest.approx(0.5)


def test_parallel_sections_take_the_slowest_process():
    nominal = hostspeed.NOMINAL_S
    Run = hostspeed.Run
    runs = [
        # process 1 runs two shards back to back at the nominal speed
        Run(1, 0.0, 0.6, 10 * nominal, 10),
        Run(1, 0.6, 1.2, 10 * nominal, 10),
        # process 2 runs one shard at half speed: it ends last, but on the
        # nominal host it would take 1 s, less than process 1's 1.2 s
        Run(2, 0.0, 2.0, 20 * 2 * nominal, 20),
        # a later section with one run and no probes: the fallback scale
        Run(3, 3.0, 3.5, 0.0, 0),
    ]
    first, second = hostspeed.parallel_sections(runs, scale=0.25)
    busy_1 = 1.2 - 20 * nominal
    busy_2 = 2.0 - 40 * nominal
    assert first == pytest.approx((2.0, busy_2, busy_1))
    assert second == pytest.approx((0.5, 0.5, 0.125))


def test_compare_verdicts():
    flat, noisy = [100.0] * 10, [100.0 + i for i in range(10)]
    assert compare.verdict(flat, flat, "lower", 0.0) == "unchanged"
    assert compare.verdict(flat[:1], [99.0], "lower", 0.0) == "better"
    assert compare.verdict(flat[:1], [101.0], "lower", 0.0) == "worse"
    faster = [x * 0.8 for x in noisy]
    assert compare.verdict(noisy, faster, "lower", 0.1) == "better"
    # nine pairs are too few to claim a gain, however clear
    assert compare.verdict(noisy[:9], faster[:9], "lower", 0.1) == "unchanged"
    # a constant host metric (peak RSS, say) needs the pairs too
    assert compare.verdict([25.0] * 3, [24.99] * 3, "lower", 0.1) \
        == "unchanged"
    assert compare.verdict([25.0], [24.99], "lower", 0.1) == "unchanged"
    assert compare.verdict([25.0], [25.01], "lower", 0.1) == "unresolved"
    slower = [x * 1.3 for x in noisy]
    assert compare.verdict(noisy, slower, "lower", 0.1) == "worse"
    wide = [50.0, 150.0] * 5
    assert compare.verdict(wide, wide, "lower", 0.1) == "unresolved"


def test_compare_pairs_files_not_repeats(tmp_path):
    # two files whose repeats all favour the change, but whose medians
    # form one pair: one pair never makes a gain
    def result(samples):
        stats = {"median": sorted(samples)[len(samples) // 2],
                 "samples": samples}
        return {"workloads": {"alu_loop": {
            "end_to_end": {"host_us_per_op": dict(
                stats, unit="us", better="lower", bound=0.1)},
            "reported": {"wall_us_per_op": stats["median"]},
        }}}

    paths = []
    for name, samples in (("p", [2.0] * 10), ("c", [1.0] * 10)):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(result(samples)))
    [row] = compare.compare(paths)
    assert row["pairs"] == 1
    assert row["verdict"] == row["wall_verdict"] == "unchanged"
    assert compare.compare(paths * 10)[0]["verdict"] == "better"
