"""`poiagg check` CLI contract: formats, exit codes, selection."""

import json

import pytest

from repro.cli import main

VIOLATING = "import numpy as np\nnp.random.seed(0)\n"
CLEAN = "from repro.core.rng import derive_rng\nrng = derive_rng(0, 'x')\n"


@pytest.fixture
def tree(tmp_path):
    pkg = tmp_path / "src" / "repro" / "experiments"
    pkg.mkdir(parents=True)
    (pkg / "bad.py").write_text(VIOLATING)
    (pkg / "good.py").write_text(CLEAN)
    return tmp_path / "src"


def test_exit_zero_on_clean_tree(tmp_path, capsys):
    good = tmp_path / "good.py"
    good.write_text(CLEAN)
    assert main(["check", str(good)]) == 0
    assert "clean" in capsys.readouterr().out


def test_exit_one_with_rule_id_and_location(tree, capsys):
    assert main(["check", str(tree)]) == 1
    out = capsys.readouterr().out
    assert "PL001" in out
    assert "bad.py:2:" in out


def test_json_format_is_parseable(tree, capsys):
    assert main(["check", str(tree), "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is False
    assert payload["violations"][0]["rule"] == "PL001"
    assert payload["violations"][0]["line"] == 2


def test_github_format_emits_error_annotations(tree, capsys):
    assert main(["check", str(tree), "--format", "github"]) == 1
    out = capsys.readouterr().out
    assert out.startswith("::error file=")
    assert "title=PL001" in out


def test_select_restricts_rules(tree):
    assert main(["check", str(tree), "--select", "PL007"]) == 0
    assert main(["check", str(tree), "--select", "pl001"]) == 1


def test_unknown_rule_is_usage_error(tree, capsys):
    assert main(["check", str(tree), "--select", "PL999"]) == 2
    assert "unknown rule" in capsys.readouterr().err


def test_missing_path_is_usage_error(tmp_path, capsys):
    assert main(["check", str(tmp_path / "nope")]) == 2
    assert "no such path" in capsys.readouterr().err


def test_list_rules(capsys):
    assert main(["check", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in ("PL001", "PL002", "PL003", "PL004", "PL005", "PL007", "PL008"):
        assert rule_id in out


def test_list_rules_includes_dataflow_catalog(capsys):
    assert main(["check", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in ("PL011", "PL012", "PL013", "PL014"):
        assert rule_id in out


TAINTED = (
    "import json\n\n"
    "class Handler:\n"
    "    def __init__(self, database, wfile):\n"
    "        self._db = database\n"
    "        self.wfile = wfile\n\n"
    "    def emit(self, x, y, radius):\n"
    "        row = self._db.freq_batch([[x, y]], radius)\n"
    "        self.wfile.write(json.dumps({'r': row[0].tolist()}).encode())\n"
)


@pytest.fixture
def tainted_tree(tmp_path):
    pkg = tmp_path / "src" / "repro" / "serve"
    pkg.mkdir(parents=True)
    (pkg / "handler.py").write_text(TAINTED)
    return tmp_path / "src"


def test_analysis_all_finds_taint_flow(tainted_tree, capsys):
    # The per-file pass alone misses it; the dataflow pass flags it.
    assert main(["check", str(tainted_tree)]) == 0
    assert main(["check", str(tainted_tree), "--analysis", "all"]) == 1
    out = capsys.readouterr().out
    assert "PL011" in out


def test_analysis_family_subset(tainted_tree):
    assert main(["check", str(tainted_tree), "--analysis", "locks,commit"]) == 0
    assert main(["check", str(tainted_tree), "--analysis", "taint"]) == 1


def test_unknown_analysis_family_is_usage_error(tainted_tree, capsys):
    assert main(["check", str(tainted_tree), "--analysis", "warp"]) == 2
    assert "unknown analysis family" in capsys.readouterr().err


def test_baseline_roundtrip(tainted_tree, tmp_path, capsys):
    baseline = tmp_path / "baseline.json"
    assert (
        main(
            [
                "check",
                str(tainted_tree),
                "--analysis",
                "all",
                "--write-baseline",
                str(baseline),
            ]
        )
        == 0
    )
    capsys.readouterr()

    # Known violations are absorbed by the baseline...
    assert (
        main(
            [
                "check",
                str(tainted_tree),
                "--analysis",
                "all",
                "--baseline",
                str(baseline),
            ]
        )
        == 0
    )
    assert "baselined" in capsys.readouterr().out

    # ...but a new violation in another file still fails the gate.
    extra = tainted_tree / "repro" / "serve" / "extra.py"
    extra.write_text("import numpy as np\nnp.random.seed(0)\n")
    assert (
        main(
            [
                "check",
                str(tainted_tree),
                "--analysis",
                "all",
                "--baseline",
                str(baseline),
            ]
        )
        == 1
    )
    out = capsys.readouterr().out
    assert "PL001" in out
    assert "PL011" not in out


def test_missing_baseline_is_usage_error(tree, capsys):
    assert main(["check", str(tree), "--baseline", "/nonexistent.json"]) == 2
    assert "baseline" in capsys.readouterr().err


def test_jobs_flag_matches_serial_output(tree, capsys):
    assert main(["check", str(tree), "--format", "json"]) == 1
    serial = json.loads(capsys.readouterr().out)
    assert main(["check", str(tree), "--format", "json", "--jobs", "2"]) == 1
    parallel = json.loads(capsys.readouterr().out)
    assert serial["violations"] == parallel["violations"]


def test_negative_jobs_is_usage_error(tree, capsys):
    assert main(["check", str(tree), "--jobs", "-1"]) == 2
    capsys.readouterr()
