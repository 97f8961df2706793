"""Golden decision streams of the five seeded fault plans.

Each plan's fault timeline is a pure function of ``(seed, plan)``: the
LBS injector draws one uniform per operation whatever the rates, the
serve injector and the faulty VFS draw nothing while a rate is zero, and
worker/client decisions are keyed per ``(seed, key...)`` rather than
taken from a stream.  These tests pin the exact fate sequences — as a
sha256 per plan setting over seeds 0-3 — so any change to how a plan
validates, draws or picks a fault shows up as a changed digest.

Settings per plan: a zero plan, a mixed plan, and a plan whose mutually
exclusive rates sum to exactly 1.0 (the disk plan has no exclusive group;
its third setting saturates two rates under a fault budget).
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.clock import SimulatedClock
from repro.core.errors import (
    MidCommitKillFault,
    TimeoutExceeded,
    TransientError,
    WorkerCrashFault,
)
from repro.core.vfs import DiskFaultPlan, FaultyVFS
from repro.experiments.supervisor import WorkerFaultPlan
from repro.federated.faults import ClientFaultPlan
from repro.lbs.faults import FaultInjector, FaultPlan
from repro.serve.faults import ServeFaultInjector, ServeFaultPlan

SEEDS = (0, 1, 2, 3)


def digest(streams: list) -> str:
    blob = json.dumps(streams, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# LBS: one uniform per GSP / release operation, plus corrupt() draws
# ----------------------------------------------------------------------

LBS_PLANS = {
    "zero": FaultPlan(),
    "mixed": FaultPlan(
        transient_error_rate=0.15,
        timeout_rate=0.1,
        stale_snapshot_rate=0.2,
        drop_release_rate=0.1,
        corrupt_vector_rate=0.25,
        timeout_s=0.5,
    ),
    "sum-one": FaultPlan(
        transient_error_rate=0.25,
        timeout_rate=0.25,
        stale_snapshot_rate=0.5,
        drop_release_rate=0.5,
        corrupt_vector_rate=0.5,
        timeout_s=2.0,
    ),
}


def lbs_stream(plan: FaultPlan, seed: int) -> list:
    clock = SimulatedClock()
    injector = FaultInjector(plan, rng=seed, clock=clock)
    fates: list = []
    for _ in range(120):
        try:
            fates.append(injector.roll_gsp_fault())
        except TransientError:
            fates.append("transient")
        except TimeoutExceeded:
            fates.append("timeout")
        release = injector.roll_release_fault()
        fates.append(release)
        if release == "corrupt":
            damaged = injector.corrupt(np.arange(1.0, 8.0))
            bad = [i for i, x in enumerate(damaged) if not x >= 0]
            fates.append([bad, "nan" if np.isnan(damaged[bad[0]]) else "neg"])
    counts = injector.counts
    fates.append(
        [
            counts.transient_errors,
            counts.timeouts,
            counts.stale_snapshots,
            counts.dropped_releases,
            counts.corrupted_vectors,
            counts.total,
            clock.now(),
        ]
    )
    return fates


# ----------------------------------------------------------------------
# Serve: before_batch / mid_commit against a simulated clock
# ----------------------------------------------------------------------

SERVE_PLANS = {
    "zero": ServeFaultPlan(),
    "mixed": ServeFaultPlan(
        worker_crash_rate=0.15,
        worker_hang_rate=0.1,
        slow_response_rate=0.2,
        mid_commit_kill_rate=0.25,
        hang_s=0.2,
        slow_s=0.02,
    ),
    "sum-one": ServeFaultPlan(
        worker_crash_rate=0.25,
        worker_hang_rate=0.25,
        slow_response_rate=0.5,
        mid_commit_kill_rate=1.0,
    ),
    # Batch-start rates all zero: before_batch must draw nothing, so the
    # kill decisions consume the stream alone.
    "kill-only": ServeFaultPlan(mid_commit_kill_rate=0.4),
}


def serve_stream(plan: ServeFaultPlan, seed: int) -> list:
    clock = SimulatedClock()
    injector = ServeFaultInjector(plan, np.random.default_rng(seed), clock)
    fates: list = []
    for _ in range(150):
        before = clock.now()
        try:
            injector.before_batch()
        except WorkerCrashFault:
            fates.append("crash")
            continue
        fates.append(round(clock.now() - before, 9))
        try:
            injector.mid_commit()
            fates.append("committed")
        except MidCommitKillFault:
            fates.append("kill")
    fates.append([injector.counts.as_dict(), injector.counts.total, clock.now()])
    return fates


# ----------------------------------------------------------------------
# Worker: keyed decide(shard, attempt), overrides and the fault cutoff
# ----------------------------------------------------------------------

WORKER_OVERRIDES = ((3, "crash"), (5, "ok"), ("beta", "hang"), (8, "error"))

WORKER_PLANS = {
    "zero": {},
    "mixed": {"crash_rate": 0.2, "hang_rate": 0.1, "error_rate": 0.25},
    "sum-one": {"crash_rate": 0.25, "hang_rate": 0.25, "error_rate": 0.5},
}


def worker_stream(rates: dict, seed: int) -> list:
    fates: list = []
    for overrides, max_faults in (((), 1), (WORKER_OVERRIDES, 2)):
        plan = WorkerFaultPlan(
            seed=seed,
            max_faults_per_shard=max_faults,
            overrides=overrides,
            **rates,
        )
        for shard in [*range(12), "alpha", "beta"]:
            for attempt in (1, 2, 3):
                fates.append(plan.decide(shard, attempt))
    return fates


# ----------------------------------------------------------------------
# Client: keyed decide(round, client, attempt), overrides and the cutoff
# ----------------------------------------------------------------------

CLIENT_OVERRIDES = ((0, 2, "hang"), (1, 4, "ok"), (2, 0, "poisoned"), (3, 7, "crash"))

CLIENT_PLANS = {
    "zero": {},
    "mixed": {
        "crash_rate": 0.1,
        "hang_rate": 0.05,
        "malformed_rate": 0.1,
        "poisoned_rate": 0.05,
        "duplicate_rate": 0.1,
    },
    "sum-one": {
        "crash_rate": 0.25,
        "hang_rate": 0.125,
        "malformed_rate": 0.125,
        "poisoned_rate": 0.25,
        "duplicate_rate": 0.25,
    },
}


def client_stream(rates: dict, seed: int) -> list:
    fates: list = []
    for overrides, max_faults in (((), 1), (CLIENT_OVERRIDES, 2)):
        plan = ClientFaultPlan(
            seed=seed,
            max_faults_per_client=max_faults,
            overrides=overrides,
            **rates,
        )
        for round_id in range(4):
            for client in range(8):
                for attempt in (1, 2, 3):
                    fates.append(plan.decide(round_id, client, attempt))
    return fates


# ----------------------------------------------------------------------
# Disk: a fixed scripted writer through FaultyVFS
# ----------------------------------------------------------------------

DISK_PLANS = {
    "zero": {},
    "mixed": {
        "enospc_rate": 0.05,
        "eio_rate": 0.05,
        "torn_write_rate": 0.1,
        "fsync_lie_rate": 0.15,
        "slow_io_rate": 0.1,
        "replace_failure_rate": 0.1,
    },
    "saturated": {"torn_write_rate": 1.0, "replace_failure_rate": 1.0, "max_faults": 7},
    # Only the fsync path is rated: every other op must draw nothing.
    "lie-only": {"fsync_lie_rate": 0.5, "path_substring": "b"},
}


def scripted_writer(vfs: FaultyVFS, root: Path) -> list:
    outcomes: list = []

    def step(name: str, action) -> None:
        try:
            action()
            outcomes.append(name)
        except OSError as exc:
            outcomes.append([name, exc.errno])

    for i in range(18):
        name = "ab"[i % 2] + str(i % 3)
        tmp, final = root / f"{name}.tmp", root / f"{name}.json"
        payload = json.dumps({"i": i, "pad": "x" * (5 + 7 * i)})

        def publish(tmp: Path = tmp, final: Path = final, payload: str = payload) -> None:
            with vfs.open(tmp, "w") as fh:
                fh.write(payload)
                vfs.fsync(fh)
            vfs.replace(tmp, final)

        step("publish", publish)
        if i % 5 == 4:
            step("unlink", lambda final=final: vfs.unlink(final, missing_ok=True))
        if i % 6 == 5 and final.exists():
            step("truncate", lambda final=final: vfs.truncate(final, 4))
    files = sorted(
        [p.name, len(p.read_bytes())] for p in root.iterdir() if p.is_file()
    )
    log = [[op, str(Path(path).relative_to(root))] for op, path in vfs.op_log]
    return [outcomes, files, log, vfs.counts.as_dict(), vfs.counts.total]


def disk_stream(fields: dict, seed: int, root: Path) -> list:
    root.mkdir()
    vfs = FaultyVFS(DiskFaultPlan(seed=seed, slow_io_s=0.0, **fields))
    return scripted_writer(vfs, root)


# ----------------------------------------------------------------------
# The golden digests
# ----------------------------------------------------------------------

GOLDEN = {
    "lbs": {
        "zero": "1934a8bb673caea6842fac42eec52b4a703da1dbfc0d5e020d0183bb109a6598",
        "mixed": "a9dba62d47ec7b9c7205544db3ba717c867fead08671319b6927734e34a24da0",
        "sum-one": "97473569b1a390ebde0ce901bdcaf7e8b0a8022694079f2c9e9116bca347abaf",
    },
    "serve": {
        "zero": "bdbbd38c2474c912d224f88ec9b9c457d124ca5969f2ce4756c82161ca511622",
        "mixed": "0d9b440536c06223d1a3f20299f9f9b8e6c9af2ee817a463f2e0223f8dabacd6",
        "sum-one": "9a3fd4dce130ecc5fc6fc08fa5fbadc81c14c25ec7f5f34830b207e5b0f63640",
        "kill-only": "f0c8352398eaeb400638c27ba7e74ee2d2fa310e33cd308047bfe44a6660f11a",
    },
    "worker": {
        "zero": "387267066f9f4e1f643f055f88719b79dafe5dec27ef7faada8bc814b78fbe05",
        "mixed": "255a46980e6e1fce5dd1a97a8eb31b10a04c264e38d0751e98affc8d528bd79a",
        "sum-one": "533e3b20e14754f3c16769ddc817222ff9f037dc9363664d5b0cfa31621c42c1",
    },
    "client": {
        "zero": "a0ac893410128a27adc01b59322f384a260e51b67d132b7db4ad68fb9d29e1b4",
        "mixed": "b61f86dc1e951cae48415b14a234c8aab07b97c64b8b2616e581320090a3f9de",
        "sum-one": "9ec274b9e53a923b0331610e09cfa60a51de0892f31c0060de2888c5530c3729",
    },
    "disk": {
        "zero": "fcd2f9222706fd89b5bc4a976e59a0d556fdddbdfa1b1ef7bfd775358100ec53",
        "mixed": "a7e7b16cec4a2d5eb4d901369c659d55a6c574d70f6cd945c60c29627fc4d9fd",
        "saturated": "4fac970f82e97daf1ffb9303cd84981d5d6602925f8f72c11a5681c7824f5ac9",
        "lie-only": "6a433daa373f63651e3c77d359c9b18ee0312d9a79f29dabffbd0fc0a62f1f76",
    },
}


@pytest.mark.parametrize("setting", sorted(LBS_PLANS))
def test_lbs_fault_stream(setting):
    plan = LBS_PLANS[setting]
    assert digest([lbs_stream(plan, seed) for seed in SEEDS]) == GOLDEN["lbs"][setting]


@pytest.mark.parametrize("setting", sorted(SERVE_PLANS))
def test_serve_fault_stream(setting):
    plan = SERVE_PLANS[setting]
    assert digest([serve_stream(plan, seed) for seed in SEEDS]) == GOLDEN["serve"][setting]


@pytest.mark.parametrize("setting", sorted(WORKER_PLANS))
def test_worker_fault_stream(setting):
    rates = WORKER_PLANS[setting]
    assert digest([worker_stream(rates, seed) for seed in SEEDS]) == GOLDEN["worker"][setting]


@pytest.mark.parametrize("setting", sorted(CLIENT_PLANS))
def test_client_fault_stream(setting):
    rates = CLIENT_PLANS[setting]
    assert digest([client_stream(rates, seed) for seed in SEEDS]) == GOLDEN["client"][setting]


@pytest.mark.parametrize("setting", sorted(DISK_PLANS))
def test_disk_fault_stream(setting, tmp_path):
    fields = DISK_PLANS[setting]
    streams = [disk_stream(fields, seed, tmp_path / str(seed)) for seed in SEEDS]
    assert digest(streams) == GOLDEN["disk"][setting]
