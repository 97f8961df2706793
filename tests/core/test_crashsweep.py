"""The crash-point sweep harness: correct writers pass at every point,
and — the negative control — a writer with a real torn-commit bug is
caught, proving the harness has teeth."""

import json

import pytest

from repro.core.atomic import atomic_write_text
from repro.core.crashsweep import (
    SWEEP_MODES,
    SweepScenario,
    render_report,
    run_sweep,
    run_sweeps,
)
from repro.core.errors import ConfigError
from repro.core.vfs import get_vfs

PAYLOAD = {"round": 2, "value": [1, 2, 3]}


def atomic_scenario():
    """A correct writer: atomic_write_text, old-or-new recovery."""

    def setup(ctx, root):
        atomic_write_text(root / "state.json", json.dumps({"round": 1}))

    def run(ctx, root):
        atomic_write_text(root / "state.json", json.dumps(PAYLOAD))

    def check(ctx, root):
        raw = (root / "state.json").read_text()
        try:
            state = json.loads(raw)
        except json.JSONDecodeError:
            # Detection contract: a lying fsync can defeat rename
            # atomicity itself; the reader surfacing the damage is the
            # strongest available guarantee (module docstring).
            assert ctx["mode"] == "fsync-lie", "torn JSON under an honest disk"
            return
        assert state in ({"round": 1}, PAYLOAD), state

    return SweepScenario(
        name="atomic-overwrite", setup=setup, run=run, check=check
    )


def broken_scenario():
    """A writer with the bug PL014/this harness exists for: tmp-then-
    rename with no fsync — the published name's data never hit disk."""

    def setup(ctx, root):
        atomic_write_text(root / "state.json", json.dumps({"round": 1}))

    def run(ctx, root):
        vfs = get_vfs()
        tmp = root / "state.json.tmp"
        with vfs.open(tmp, "w") as fh:
            fh.write(json.dumps(PAYLOAD))
        vfs.replace(tmp, root / "state.json")  # commit without fsync

    def check(ctx, root):
        state = json.loads((root / "state.json").read_text())
        assert state in ({"round": 1}, PAYLOAD), state

    return SweepScenario(name="broken-overwrite", setup=setup, run=run, check=check)


def test_correct_writer_survives_every_crash_point():
    report = run_sweep(atomic_scenario(), seed=0)
    assert report.control_ok
    assert report.n_ops >= 4  # open, write, fsync, replace at minimum
    assert report.n_points >= report.n_ops
    assert report.passed, [p.as_dict() for p in report.failures]


def test_sweep_enumerates_all_three_schedules():
    report = run_sweep(atomic_scenario(), seed=0)
    modes = {p.mode for p in report.points}
    assert modes == set(SWEEP_MODES)
    # One kill per op plus the post-completion kill, one torn per write
    # op, one lie per fsync.
    assert sum(1 for p in report.points if p.mode == "kill") == report.n_ops + 1
    assert sum(1 for p in report.points if p.mode == "fsync-lie") == report.n_fsyncs


def test_broken_writer_is_caught():
    """The negative control: a green sweep must not be vacuous."""
    report = run_sweep(broken_scenario(), seed=0)
    assert report.control_ok  # the bug is invisible without a crash
    assert not report.passed
    # The post-completion kill is the schedule that exposes it: the
    # rename's metadata journals, the never-fsynced data does not.
    post = next(p for p in report.failures if p.op_index == report.n_ops + 1)
    assert post.mode == "kill" and not post.crashed


def test_oracles_see_the_crash_schedule():
    seen = []

    def setup(ctx, root):
        atomic_write_text(root / "s.json", "{}")

    def run(ctx, root):
        atomic_write_text(root / "s.json", json.dumps(PAYLOAD))

    def check(ctx, root):
        seen.append(ctx["mode"])

    run_sweep(SweepScenario(name="probe", setup=setup, run=run, check=check))
    assert seen[0] == "control"
    assert set(seen) >= {"control", "kill", "torn", "fsync-lie"}


def test_control_failure_short_circuits():
    def bad_check(ctx, root):
        raise AssertionError("broken oracle")

    scenario = atomic_scenario()
    report = run_sweep(
        SweepScenario(
            name="bad", setup=scenario.setup, run=scenario.run, check=bad_check
        )
    )
    assert not report.control_ok
    assert "broken oracle" in report.control_error
    assert not report.passed
    assert report.points == []  # no point sweeping against a broken oracle


def test_aggregate_report_and_rendering(tmp_path):
    aggregate = run_sweeps([atomic_scenario()], seed=1)
    assert aggregate["seed"] == 1
    assert aggregate["n_scenarios"] == 1
    assert aggregate["passed"] is True
    text = render_report(aggregate)
    assert "PASS" in text and "atomic-overwrite" in text
    # JSON round-trip: the aggregate is what the CI artifact stores.
    assert json.loads(json.dumps(aggregate)) == aggregate


def test_run_sweeps_refuses_an_empty_battery():
    with pytest.raises(ConfigError):
        run_sweeps([])


def test_failures_are_located(tmp_path):
    report = run_sweep(broken_scenario(), seed=0)
    failure = report.failures[0]
    d = failure.as_dict()
    assert d["mode"] in SWEEP_MODES
    assert d["op_index"] >= 1
    assert d["error"]
    rendered = render_report(run_sweeps([broken_scenario()], seed=0))
    assert "FAIL" in rendered
