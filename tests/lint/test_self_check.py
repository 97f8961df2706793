"""The pytest-collected lint gate: first-party code is clean at HEAD, and
deliberately reintroducing any one invariant violation fails with a rule
ID and file:line (the acceptance contract for `poiagg check`)."""

from pathlib import Path

import pytest

from repro.lint import check_paths
from repro.lint.cli import DEFAULT_CHECK_PATHS

REPO = Path(__file__).parent.parent.parent


def test_first_party_tree_is_clean():
    """`poiagg check src benchmarks examples` exits 0 at HEAD."""
    paths = [REPO / p for p in DEFAULT_CHECK_PATHS]
    assert all(p.is_dir() for p in paths)
    report = check_paths(paths)
    assert report.n_files > 100  # the gate actually covered the tree
    assert report.ok, "\n".join(v.render() for v in report.violations)


def test_first_party_tree_is_clean_under_full_dataflow():
    """`poiagg check --analysis all` exits 0 at HEAD.

    Every latent PL011–PL014 finding has been either fixed or pragma-
    suppressed with a written rationale; a new finding here means a
    fresh leak/deadlock/commit hazard, not a stale baseline.
    """
    paths = [REPO / p for p in DEFAULT_CHECK_PATHS]
    report = check_paths(paths, analysis=("taint", "locks", "commit"))
    assert report.ok, "\n".join(v.render() for v in report.violations)


#: One reintroduction per invariant:
#: (rule, planted source, role path, analysis families to enable).
REGRESSIONS = [
    (
        "PL001",
        "import numpy as np\n\nnoise = np.random.normal(0.0, 1.0, size=8)\n",
        "src/repro/defense/planted.py",
    ),
    (
        "PL002",
        "from repro.dp.mechanisms import gaussian_mechanism\n\n"
        "def leak(freq, rng):\n"
        "    return gaussian_mechanism(freq, 1.0, 0.5, 0.2, rng)\n",
        "src/repro/experiments/planted.py",
    ),
    (
        "PL003",
        "def widen(db, targets, r):\n"
        "    import numpy as np\n"
        "    return db.freq_batch(targets, r).astype(np.int64)\n",
        "src/repro/attacks/planted.py",
    ),
    (
        "PL004",
        "from concurrent.futures import ProcessPoolExecutor\n\n"
        "def fan_out(shards):\n"
        "    with ProcessPoolExecutor() as pool:\n"
        "        return [pool.submit(lambda s: s, s) for s in shards]\n",
        "src/repro/experiments/planted.py",
    ),
    (
        "PL005",
        "import time\n\n"
        "def stamp(row):\n"
        "    row['ts'] = time.time()\n"
        "    return row\n",
        "src/repro/experiments/planted.py",
    ),
    (
        "PL007",
        "import json\n\n"
        "def write_checkpoint(path, payload):\n"
        "    path.write_text(json.dumps(payload))\n",
        "src/repro/experiments/planted.py",
    ),
    (
        "PL008",
        "def worker_loop(jobs):\n"
        "    while True:\n"
        "        job = jobs.get()\n"
        "        job.run()\n",
        "src/repro/serve/planted.py",
    ),
    (
        "PL009",
        "from multiprocessing.shared_memory import SharedMemory\n\n"
        "def cleanup(name):\n"
        "    SharedMemory(name=name, create=False).unlink()\n",
        "src/repro/experiments/planted.py",
    ),
    (
        "PL010",
        "import numpy as np\n\n"
        "def collect_all(config, n_types):\n"
        "    return np.zeros((config.n_clients, n_types))\n",
        "src/repro/federated/planted.py",
    ),
    (
        "PL011",
        "import json\n\n"
        "class Handler:\n"
        "    def __init__(self, database, wfile):\n"
        "        self._db = database\n"
        "        self.wfile = wfile\n\n"
        "    def emit(self, x, y, radius):\n"
        "        row = self._db.freq_batch([[x, y]], radius)\n"
        "        body = {'result': row[0].tolist()}\n"
        "        self.wfile.write(json.dumps(body).encode())\n",
        "src/repro/serve/planted.py",
        ("taint",),
    ),
    (
        "PL012",
        "class Release:\n"
        "    def __init__(self, accountant, defense):\n"
        "        self._accountant = accountant\n"
        "        self._defense = defense\n\n"
        "    def release(self, row, rng):\n"
        "        try:\n"
        "            self._accountant.spend(1.0, 1e-6)\n"
        "        except Exception:\n"
        "            pass\n"
        "        return self._defense.apply(row, rng)\n",
        "src/repro/defense/planted.py",
        ("taint",),
    ),
    (
        "PL013",
        "import queue\n"
        "import threading\n\n"
        "class Worker:\n"
        "    def __init__(self):\n"
        "        self._lock = threading.Lock()\n"
        "        self._queue = queue.Queue()\n\n"
        "    def drain(self):\n"
        "        with self._lock:\n"
        "            return self._queue.get()\n",
        "src/repro/serve/planted.py",
        ("locks",),
    ),
    (
        "PL015",
        "import os\n\n"
        "def publish(tmp, path):\n"
        "    os.replace(tmp, path)\n",
        "src/repro/serve/planted.py",
    ),
    (
        "PL014",
        "import json\n"
        "import os\n\n"
        "def write_checkpoint(path, payload):\n"
        "    tmp = path.with_suffix('.tmp')\n"
        "    tmp.write_text(json.dumps(payload))\n"
        "    os.replace(tmp, path)\n",
        "src/repro/ingest/planted.py",
        ("commit",),
    ),
]

#: Pad the syntactic triples so every row is (rule, source, path, analysis).
REGRESSIONS = [row if len(row) == 4 else (*row, ()) for row in REGRESSIONS]


@pytest.mark.parametrize("rule,source,as_path,analysis", REGRESSIONS)
def test_reintroduced_violation_fails_the_gate(
    tmp_path, rule, source, as_path, analysis
):
    planted = tmp_path / as_path
    planted.parent.mkdir(parents=True, exist_ok=True)
    planted.write_text(source)
    report = check_paths([tmp_path], analysis=analysis)
    assert report.exit_code == 1
    assert any(v.rule_id == rule for v in report.violations), (
        rule,
        [v.render() for v in report.violations],
    )
    hit = next(v for v in report.violations if v.rule_id == rule)
    assert hit.path.endswith(as_path.rsplit("/", 1)[1])
    assert hit.line >= 1


def test_every_rule_has_a_regression_case():
    from repro.lint import RULES

    assert {r for r, _, _, _ in REGRESSIONS} == {rule.id for rule in RULES}
