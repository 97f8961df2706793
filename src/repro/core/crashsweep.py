"""Exhaustive crash-point recovery sweeps over durable writers.

Every durable writer in this repo routes its I/O through
:mod:`repro.core.vfs`, which means the harness here can enumerate the
*complete* sequence of durable operations one writer performs and kill
the process at every single one of them — not at a sampled few.  For a
writer with N durable ops that is 2N+fsyncs scenarios per sweep:

* **kill mode** — the process dies *before* op k executes, for every k,
  plus one post-completion point (the writer returned, then the power
  died) that catches renames never preceded by an fsync;
* **torn mode** — op k is a write that only partially reaches the disk
  (a prefix chosen by the seeded plan) before the process dies;
* **fsync-lie mode** — fsync k returns success but the data never became
  durable (the firmware lied); the writer then *finishes normally* and
  the crash happens afterwards, which is the only schedule that catches
  writers trusting an fsync they never issued.

Oracles see which schedule produced the state via ``ctx["mode"]``,
because the contract differs: under an honest disk (kill/torn) recovery
must be *lossless-or-rollback* — old state or new state, bit-exactly.
Under a lying fsync no single-node writer can prevent loss (the rename
journal itself may survive while the data blocks did not), so the
oracle demands *detection*: the reader must deterministically surface
the corruption (read-as-absent, a typed integrity error) rather than
silently serve torn data.  This is the classic fsync-gate split between
crash consistency and crash *detectability*.

The mechanics per crash point: run the scenario's ``setup`` on a fresh
work directory with no faults, then replay ``run`` under a
:class:`~repro.core.vfs.FaultyVFS` armed to crash at op k.  The
:class:`~repro.core.vfs.SimulatedCrash` (a ``BaseException``) unwinds
the writer, ``simulate_crash()`` reverts the real filesystem to the
durability shadow — exactly the state a machine reboot would reveal —
and the scenario's ``check`` (its *recovery oracle*) runs against the
survivors with faults disarmed, the way a restarted process would.

Oracles assert the recovery invariants of ISSUE 10: no budget is ever
double-spent, every ledger replays to a consistent state, a torn
artifact is never served, and resumed runs are bit-identical.  A sweep
``passes`` only if every crash point's oracle holds *and* the fault-free
control run completes.

Scenario ``setup``/``run``/``check`` share a per-point ``ctx`` dict so
``run`` can record what the writer *acknowledged* before dying (e.g.
spends that returned normally) and ``check`` can demand those survived.

The one modelling caveat: op enumeration comes from a fault-free
counting run, so writers whose op *sequence* depends on earlier faults
(retry loops) have their fault-free schedule swept, not every adaptive
schedule.  The seeded random-rate chaos suites cover those paths.
"""

from __future__ import annotations

import json
import shutil
import tempfile
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.core.atomic import atomic_write_text
from repro.core.errors import ConfigError
from repro.core.vfs import DiskFaultPlan, FaultyVFS, SimulatedCrash, install_vfs

__all__ = [
    "CrashPoint",
    "SWEEP_MODES",
    "SweepReport",
    "SweepScenario",
    "render_report",
    "run_sweep",
    "run_sweeps",
    "save_report",
]

#: The crash schedules a sweep enumerates (see the module docstring).
SWEEP_MODES = ("kill", "torn", "fsync-lie")


@dataclass(frozen=True)
class SweepScenario:
    """One durable writer under sweep.

    ``setup(ctx, workdir)`` prepares deterministic baseline state with
    faults disarmed; ``run(ctx, workdir)`` performs the durable
    operation under test (this is what gets killed); ``check(ctx,
    workdir)`` is the recovery oracle — it must raise (any exception)
    iff the post-crash state violates the writer's contract.
    ``ctx["mode"]`` holds the crash schedule (``"control"``, ``"kill"``,
    ``"torn"``, ``"fsync-lie"``) so oracles can apply the weaker
    detection contract to lying-fsync states (module docstring).
    """

    name: str
    setup: Callable[[dict, Path], None]
    run: Callable[[dict, Path], None]
    check: Callable[[dict, Path], None]
    description: str = ""


@dataclass
class CrashPoint:
    """Outcome of one (mode, op index) crash of one scenario."""

    mode: str
    op_index: int
    op: str = ""
    crashed: bool = False
    ok: bool = False
    error: "str | None" = None

    def as_dict(self) -> dict[str, Any]:
        return {
            "mode": self.mode,
            "op_index": self.op_index,
            "op": self.op,
            "crashed": self.crashed,
            "ok": self.ok,
            "error": self.error,
        }


@dataclass
class SweepReport:
    """One scenario's full sweep: every crash point plus the control."""

    scenario: str
    n_ops: int = 0
    n_fsyncs: int = 0
    control_ok: bool = False
    control_error: "str | None" = None
    points: list[CrashPoint] = field(default_factory=list)

    @property
    def n_points(self) -> int:
        return len(self.points)

    @property
    def failures(self) -> list[CrashPoint]:
        return [p for p in self.points if not p.ok]

    @property
    def passed(self) -> bool:
        return self.control_ok and not self.failures

    def as_dict(self) -> dict[str, Any]:
        return {
            "scenario": self.scenario,
            "n_ops": self.n_ops,
            "n_fsyncs": self.n_fsyncs,
            "n_points": self.n_points,
            "control_ok": self.control_ok,
            "control_error": self.control_error,
            "passed": self.passed,
            "failures": [p.as_dict() for p in self.failures],
        }


def _fresh_run(
    scenario: SweepScenario,
    plan: "DiskFaultPlan | None",
    *,
    keep_root: "Path | None" = None,
) -> tuple[dict, "FaultyVFS | None", "BaseException | None"]:
    """One isolated execution: setup fault-free, run under *plan*.

    Returns ``(ctx, vfs, crash)`` with the workdir still on disk at
    ``ctx["workdir"]`` — the caller runs the oracle, then cleans up.
    """
    root = Path(tempfile.mkdtemp(prefix=f"sweep-{scenario.name}-", dir=keep_root))
    ctx: dict = {"workdir": root}
    scenario.setup(ctx, root)
    vfs = FaultyVFS(plan) if plan is not None else None
    crash: "BaseException | None" = None
    try:
        if vfs is not None:
            with install_vfs(vfs):
                scenario.run(ctx, root)
        else:
            scenario.run(ctx, root)
    except SimulatedCrash as exc:
        crash = exc
    return ctx, vfs, crash


def _sweep_point(
    scenario: SweepScenario, plan: DiskFaultPlan, point: CrashPoint
) -> None:
    """Execute one crash point and fill in its outcome."""
    ctx, vfs, crash = _fresh_run(scenario, plan)
    root = ctx["workdir"]
    ctx["mode"] = point.mode
    try:
        if crash is not None:
            point.crashed = True
            point.op = getattr(crash, "op", "")
        assert vfs is not None
        vfs.simulate_crash()
        try:
            scenario.check(ctx, root)
        except Exception as exc:  # noqa: BLE001 — the oracle speaks via exceptions
            point.error = f"{type(exc).__name__}: {exc}"
            return
        point.ok = True
    finally:
        shutil.rmtree(root, ignore_errors=True)


def run_sweep(scenario: SweepScenario, *, seed: int = 0) -> SweepReport:
    """Sweep every crash point of *scenario*; see the module docstring."""
    report = SweepReport(scenario=scenario.name)

    # Control + counting run: no faults; the op log defines the schedule.
    counting_plan = DiskFaultPlan(seed=seed)
    ctx, vfs, crash = _fresh_run(scenario, counting_plan)
    root = ctx["workdir"]
    ctx["mode"] = "control"
    try:
        assert vfs is not None and crash is None
        report.n_ops = len(vfs.op_log)
        report.n_fsyncs = sum(1 for op, _ in vfs.op_log if op == "fsync")
        try:
            scenario.check(ctx, root)
            report.control_ok = True
        except Exception as exc:  # noqa: BLE001 — a broken control fails the sweep
            report.control_error = f"{type(exc).__name__}: {exc}"
    finally:
        shutil.rmtree(root, ignore_errors=True)
    if not report.control_ok:
        return report

    # Kill before op k, for every k; torn variant where op k is a write.
    # k = n_ops + 1 is the post-completion kill: the writer returned
    # "success" and the power died an instant later — the only schedule
    # that catches a commit whose final rename was never preceded by an
    # fsync (the data evaporates out from under the published name).
    for k in range(1, report.n_ops + 2):
        for mode in ("kill", "torn"):
            if k > report.n_ops and mode == "torn":
                continue
            if mode == "torn" and vfs.op_log[k - 1][0] != "write":
                continue
            plan = DiskFaultPlan(
                seed=seed,
                crash_at_op=k,
                crash_mode="before" if mode == "kill" else "torn",
            )
            point = CrashPoint(mode=mode, op_index=k)
            _sweep_point(scenario, plan, point)
            report.points.append(point)

    # Fsync-lie at every fsync: the writer finishes "successfully", then
    # the machine dies — only then does the lie surface.
    for j in range(1, report.n_fsyncs + 1):
        plan = DiskFaultPlan(seed=seed, lie_at_fsync=j)
        point = CrashPoint(mode="fsync-lie", op_index=j)
        lie_ctx, lie_vfs, lie_crash = _fresh_run(scenario, plan)
        lie_root = lie_ctx["workdir"]
        lie_ctx["mode"] = "fsync-lie"
        try:
            if lie_crash is not None:
                # A writer may legitimately detect and escalate; treat a
                # crash here like a kill at that op.
                point.crashed = True
            assert lie_vfs is not None
            lie_vfs.simulate_crash()
            try:
                scenario.check(lie_ctx, lie_root)
                point.ok = True
            except Exception as exc:  # noqa: BLE001 — oracle verdict
                point.error = f"{type(exc).__name__}: {exc}"
        finally:
            shutil.rmtree(lie_root, ignore_errors=True)
        report.points.append(point)
    return report


def run_sweeps(
    scenarios: "list[SweepScenario]", *, seed: int = 0
) -> dict[str, Any]:
    """Sweep every scenario; returns the JSON-ready aggregate report."""
    if not scenarios:
        raise ConfigError("run_sweeps needs at least one scenario")
    reports = [run_sweep(scenario, seed=seed) for scenario in scenarios]
    return {
        "seed": seed,
        "n_scenarios": len(reports),
        "n_points": sum(r.n_points for r in reports),
        "passed": all(r.passed for r in reports),
        "sweeps": [r.as_dict() for r in reports],
    }


def render_report(aggregate: dict[str, Any]) -> str:
    """Human-readable one-line-per-scenario summary of an aggregate."""
    lines = [
        f"crash sweep: {aggregate['n_scenarios']} scenarios, "
        f"{aggregate['n_points']} crash points, "
        f"{'PASS' if aggregate['passed'] else 'FAIL'}"
    ]
    for sweep in aggregate["sweeps"]:
        status = "pass" if sweep["passed"] else "FAIL"
        lines.append(
            f"  {sweep['scenario']}: {sweep['n_points']} points over "
            f"{sweep['n_ops']} ops ({sweep['n_fsyncs']} fsyncs) — {status}"
        )
        for failure in sweep["failures"]:
            lines.append(
                f"    {failure['mode']}@{failure['op_index']}"
                f" ({failure['op']}): {failure['error']}"
            )
    return "\n".join(lines)


def save_report(aggregate: dict[str, Any], path: "Path | str") -> Path:
    """Persist the aggregate report as JSON (atomically, of course)."""
    path = Path(path)
    return atomic_write_text(path, json.dumps(aggregate, indent=2))
