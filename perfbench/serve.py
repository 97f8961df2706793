"""The serve-http workload: one client process driving ``poiagg serve`` over HTTP.

The server is the durable deployment (``--ledger-dir`` and ``--journal``)
of the small city.  Its inputs are the ``bench`` request stream,
``generate_requests(LOAD_PROFILES["bench"], seed)``, sent in two phases
against one server:

* an open loop at a fixed offered rate (``OPEN_RATE``), where latency runs
  from each request's scheduled send time to its completion as the server
  recorded it;
* a closed loop of ``CONNECTIONS`` connections over a fixed batch of
  requests, timed until the server has drained, where CPU sets throughput.

The client uses at most ``nproc`` threads and connections.
"""

from __future__ import annotations

import http.client
import itertools
import json
import os
import random
import re
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

#: Offered rate of the open loop, req/s: about half of what the closed loop
#: of two connections completes on a 2-core machine, so latency is set by the
#: dispatcher's 20 ms batch window, not by a queue.  Fixed, never derived.
OPEN_RATE = 500.0
#: Share of ``--seconds`` the open loop runs for.
OPEN_SHARE = 0.4
#: Closed-loop batch size per second of ``--seconds``; fixed, so a faster
#: server finishes the same batch sooner.
CLOSED_PER_SECOND = 500
CONNECTIONS = max(1, min(2, os.cpu_count() or 1))
#: Completed jobs per defense kind whose result the benchmark verifies.
CHECKS_PER_KIND = 40
HTTP_TIMEOUT_S = 10.0
READY_TIMEOUT_S = 60.0
DRAIN_TIMEOUT_S = 60.0

_HTTP_ERRORS = (OSError, http.client.HTTPException, ValueError)


def http_json(address: tuple[str, int], method: str, path: str, body: "dict | None" = None) -> tuple[int, dict]:
    """One request on a fresh connection (the server speaks HTTP/1.0)."""
    conn = http.client.HTTPConnection(*address, timeout=HTTP_TIMEOUT_S)
    try:
        payload = None if body is None else json.dumps(body).encode("utf-8")
        headers = {"Content-Type": "application/json"} if body is not None else {}
        conn.request(method, path, body=payload, headers=headers)
        response = conn.getresponse()
        return response.status, json.loads(response.read().decode("utf-8"))
    finally:
        conn.close()


def vm_hwm_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


class Server:
    """One ``poiagg serve`` process started through the launcher."""

    def __init__(self, work: Path, env: dict, spans: "Path | None" = None) -> None:
        work.mkdir(parents=True, exist_ok=True)
        self.stdout_path = work / "stdout.txt"
        self.stderr_path = work / "stderr.txt"
        cmd = [sys.executable, "perfbench/serve_launcher.py"]
        if spans is not None:
            cmd += ["--spans", str(spans)]
        cmd += [
            "serve", "--city", "small", "--port", "0",
            "--ledger-dir", str(work / "ledger"), "--journal", str(work / "journal.jsonl"),
        ]
        spawned = time.monotonic()
        with open(self.stdout_path, "w") as out, open(self.stderr_path, "w") as err:
            self.proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env)
        try:
            self.address = self._await_address()
            self._await_status()
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.monotonic() - spawned
        self.peak_rss_mb = 0.0

    def _await_address(self) -> tuple[str, int]:
        deadline = time.monotonic() + READY_TIMEOUT_S
        while time.monotonic() < deadline:
            match = re.search(r"on http://([\d.]+):(\d+) \]", self.stdout_path.read_text())
            if match:
                return match.group(1), int(match.group(2))
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited: {self.stderr_path.read_text()[-2000:]}")
            time.sleep(0.002)
        raise RuntimeError("server did not print its address")

    def _await_status(self) -> None:
        deadline = time.monotonic() + READY_TIMEOUT_S
        while time.monotonic() < deadline:
            try:
                if http_json(self.address, "GET", "/v1/status")[0] == 200:
                    return
            except _HTTP_ERRORS:
                pass
            time.sleep(0.002)
        raise RuntimeError("server never answered /v1/status")

    def stop(self) -> None:
        """SIGTERM (graceful drain), then wait; record the high-water RSS first."""
        if self.proc.poll() is None:
            try:
                self.peak_rss_mb = vm_hwm_mb(self.proc.pid)
            except (OSError, RuntimeError):
                pass
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


@dataclass
class Phase:
    """What one phase attempted, and how each attempt ended."""

    name: str
    attempted: int = 0
    succeeded: int = 0
    refused: int = 0
    failed: int = 0
    failures: dict = field(default_factory=dict)

    def fail(self, reason: str, n: int = 1) -> None:
        if n > 0:
            self.failed += n
            self.failures[reason] = self.failures.get(reason, 0) + n

    def as_dict(self) -> dict:
        return {
            "attempted": self.attempted, "succeeded": self.succeeded,
            "refused": self.refused, "failed": self.failed, "failures": self.failures,
        }


def _submit(address: tuple[str, int], request: Any) -> tuple[int, dict]:
    return http_json(address, "POST", "/v1/submit", {
        "user_id": request.user_id, "x": request.x, "y": request.y,
        "radius": request.radius, "defense": request.defense,
    })


def _run_threads(target: Any) -> None:
    threads = [threading.Thread(target=target) for _ in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def send_all(address: tuple[str, int], requests: list, phase: Phase, rate: "float | None") -> list:
    """Submit *requests*; at *rate* req/s on a schedule (open loop), or each
    connection's next request as soon as its previous answer arrives.

    Returns ``(due, sent, answered, status, job_id, error)`` per request;
    a request that got no answer has ``answered=None`` and the exception name
    as its status.
    """
    records: list = [None] * len(requests)
    counter = itertools.count()
    t0 = time.monotonic() + 0.01

    def worker() -> None:
        while (i := next(counter)) < len(requests):
            due = t0 + i / rate if rate else time.monotonic()
            delay = due - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            sent = time.monotonic()
            try:
                status, doc = _submit(address, requests[i])
            except _HTTP_ERRORS as exc:
                records[i] = (due, sent, None, type(exc).__name__, None, None)
                continue
            records[i] = (due, sent, time.monotonic(), status, doc.get("job_id"), doc.get("error"))

    _run_threads(worker)
    for record in records:
        phase.attempted += 1
        status = record[3]
        if status == 202:
            phase.succeeded += 1
        elif status == 429:
            phase.refused += 1
        elif status == 503:
            phase.fail(f"503 {record[5]}")
        else:
            phase.fail(f"status {status}")
    return records


def drain(address: tuple[str, int]) -> "dict | None":
    """Poll ``/v1/status`` until no accepted job is pending; the final status."""
    deadline = time.monotonic() + DRAIN_TIMEOUT_S
    while time.monotonic() < deadline:
        try:
            status, doc = http_json(address, "GET", "/v1/status")
        except _HTTP_ERRORS:
            doc = None
        else:
            if status == 200 and doc["fates"]["pending"] == 0:
                return doc
        time.sleep(0.002)
    return None


def fetch_all(address: tuple[str, int], paths: list[str], phase: Phase) -> list:
    """GET every path with ``CONNECTIONS`` threads; ``(status, doc)`` or ``None``."""
    docs: list = [None] * len(paths)
    counter = itertools.count()

    def worker() -> None:
        while (i := next(counter)) < len(paths):
            try:
                docs[i] = http_json(address, "GET", paths[i])
            except _HTTP_ERRORS:
                docs[i] = None

    _run_threads(worker)
    for doc in docs:
        phase.attempted += 1
        if doc is None or doc[0] != 200:
            phase.fail("fetch failed" if doc is None else f"status {doc[0]}")
        else:
            phase.succeeded += 1
    return docs


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile (numpy's default method)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def make_requests(seed: int) -> list:
    """The workload's input: the seeded ``bench`` request stream."""
    from repro.serve.loadgen import LOAD_PROFILES, generate_requests

    return generate_requests(LOAD_PROFILES["bench"], seed)


def phase_sizes(seconds: float) -> tuple[int, int]:
    """Requests in the open and in the closed phase of a ``seconds`` run."""
    return int(OPEN_RATE * OPEN_SHARE * seconds), int(CLOSED_PER_SECOND * seconds)


def run_pass(requests: list, seed: int, seconds: float, work: Path, env: dict,
             setups: int, spans: "Path | None" = None) -> dict:
    """Run both phases against one server, check, stop; then set up ``setups - 1``
    more servers for ``setup_s`` (after, so their start-up cannot slow the phases)."""
    n_open, n_closed = phase_sizes(seconds)
    server = Server(work / "server", env, spans)
    setup_samples = [server.setup_s]
    phases = {name: Phase(name) for name in ("open", "latency_fetch", "closed", "jobs", "result_checks", "drain")}
    try:
        open_records = send_all(server.address, requests[:n_open], phases["open"], OPEN_RATE)
        phases["drain"].attempted += 1
        before = drain(server.address)
        if before is None:
            phases["drain"].fail("open loop did not drain")
            raise RuntimeError("open loop did not drain")
        phases["drain"].succeeded += 1
        accepted = [(r, rec) for r, rec in zip(requests[:n_open], open_records) if rec[3] == 202]
        jobs = fetch_all(server.address, [f"/v1/jobs/{rec[4]}" for _, rec in accepted], phases["latency_fetch"])
        release_ms = []
        for (_, rec), doc in zip(accepted, jobs):
            if doc is not None and doc[1].get("fate") == "completed" and doc[1].get("latency_s") is not None:
                release_ms.append(((rec[1] - rec[0]) + doc[1]["latency_s"]) * 1000.0)
        submit_ms = [(rec[2] - rec[0]) * 1000.0 for _, rec in accepted]
        rtt_ms = [(rec[2] - rec[1]) * 1000.0 for _, rec in accepted]
        lateness_ms = [(rec[1] - rec[0]) * 1000.0 for rec in open_records]

        closed_requests = requests[n_open:n_open + n_closed]
        start = time.monotonic()
        closed_records = send_all(server.address, closed_requests, phases["closed"], None)
        phases["drain"].attempted += 1
        after = drain(server.address)
        closed_wall = time.monotonic() - start
        if after is None:
            phases["drain"].fail("closed loop did not drain")
            raise RuntimeError("closed loop did not drain")
        phases["drain"].succeeded += 1
        completed_closed = after["fates"]["completed"] - before["fates"]["completed"]

        every = list(zip(requests[:n_open] + closed_requests, open_records + closed_records))
        check_failures = check_results(server.address, every, seed, phases["result_checks"])
        fates = after["fates"]
        phases["drain"].attempted += 1
        if fates["completed"] + fates["refused"] + fates["shed"] + fates["failed"] != fates["accepted"]:
            phases["drain"].fail("fates not accounted")
        else:
            phases["drain"].succeeded += 1
        # Every 202 is a job the client waits on: one shed or failed after it
        # was accepted is a failed release.  Admission 429s and LoadShed 503s
        # also create jobs, and were already counted at submit.
        records = open_records + closed_records
        n_429 = sum(1 for rec in records if rec[3] == 429)
        n_shed_503 = sum(1 for rec in records if rec[3] == 503 and rec[5] == "LoadShed")
        jobs = phases["jobs"]
        jobs.attempted = fates["accepted"] - n_429 - n_shed_503
        jobs.succeeded = fates["completed"]
        jobs.refused = fates["refused"] - n_429
        jobs.fail("shed after acceptance", fates["shed"] - n_shed_503)
        jobs.fail("failed after acceptance", fates["failed"])
    finally:
        server.stop()
    for k in range(setups - 1):
        extra = Server(work / f"setup{k}", env)
        setup_samples.append(extra.setup_s)
        extra.stop()
    return {
        "setup_samples_s": setup_samples,
        "wall_s": closed_wall,
        "window": [start, start + closed_wall],
        "completed_closed": completed_closed,
        "release_ms": release_ms,
        "submit_ms": submit_ms,
        "rtt_ms": rtt_ms,
        "lateness_ms": lateness_ms,
        "peak_rss_mb": server.peak_rss_mb,
        "status": after,
        "phases": {name: phase.as_dict() for name, phase in phases.items()},
        "check_failures": check_failures,
    }


def check_results(address: tuple[str, int], sent: list, seed: int, phase: Phase) -> list[str]:
    """Verify a seeded sample of completed jobs per kind against recomputed vectors."""
    from checks import release_violation
    from repro.defense.sanitization import Sanitizer
    from repro.experiments.scale import DEFAULT_SEED
    from repro.geo.point import Point
    from repro.poi.cities import small_city

    database = small_city(DEFAULT_SEED).database
    sanitizer = Sanitizer(database, threshold=10)
    rng = random.Random(seed)
    by_kind: dict[str, list] = {}
    for request, record in sent:
        if record[3] == 202:
            by_kind.setdefault(request.defense, []).append((request, record[4]))
    failures: list[str] = []
    for kind in sorted(by_kind):
        sample = rng.sample(by_kind[kind], min(CHECKS_PER_KIND, len(by_kind[kind])))
        docs = fetch_all(address, [f"/v1/result/{job_id}" for _, job_id in sample], Phase("fetch"))
        for (request, job_id), doc in zip(sample, docs):
            if doc is not None and doc[0] == 410:
                continue  # shed or failed: no result; the fate check accounts for it
            phase.attempted += 1
            if doc is None or doc[0] != 200:
                phase.fail("result fetch failed")
                continue
            expected = None
            if kind in ("raw", "sanitize"):
                freq = database.freq(Point(request.x, request.y), request.radius)
                expected = freq if kind == "raw" else sanitizer.sanitize_vector(freq)
            reason = release_violation(kind, doc[1].get("result"), expected, database.n_types)
            if reason is None:
                phase.succeeded += 1
            else:
                phase.fail(reason)
                failures.append(f"{job_id}: {reason}")
    return failures
