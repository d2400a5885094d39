import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from tbh import bratteli, cli, partitions
from tbh.cli import main
from tbh.params import HeckeParams

SRC = str(Path(__file__).resolve().parents[1] / "src")


def run(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_bratteli_dot_labels(tmp_path, capsys):
    out_file = tmp_path / "fig.dot"
    code, out, _ = run(
        [
            "bratteli",
            "--a", "4", "--b", "2", "--p", "4", "--q", "2", "--k", "1",
            "--format", "dot", "--output", str(out_file),
        ],
        capsys,
    )
    assert code == 0
    assert "rank 0: 1 vertices" in out
    assert "rank 1: 6 vertices" in out
    assert "rank 2: 18 vertices" in out
    dot = out_file.read_text()
    for label in ("16/1", "8/1", "2/1", "-2/1", "-8/1", "-16/1"):
        assert f'label="{label}"' in dot


def test_bratteli_k0(tmp_path, capsys):
    code, out, _ = run(
        ["bratteli", "--a", "1", "--b", "1", "--p", "1", "--q", "1", "--k", "0"],
        capsys,
    )
    assert code == 0
    assert "rank 1:" in out and "rank 2:" not in out


def test_bratteli_json_round_trip(tmp_path, capsys):
    out_file = tmp_path / "diagram.json"
    code, _, _ = run(
        [
            "bratteli",
            "--a", "1", "--b", "1", "--p", "1", "--q", "1", "--k", "1",
            "--format", "json", "--output", str(out_file),
        ],
        capsys,
    )
    assert code == 0
    parsed = bratteli.from_json(out_file.read_bytes())
    assert parsed == bratteli.build_diagram(HeckeParams(1, 1, 1, 1, 1))


def test_seminormal_single_lambda(capsys):
    code, out, _ = run(
        [
            "seminormal",
            "--a", "1", "--b", "1", "--p", "1", "--q", "1", "--k", "2",
            "--lambda", "2,2",
        ],
        capsys,
    )
    assert code == 0
    assert "lambda=(2,2)" in out and "simple=pass" in out


def test_seminormal_rejects_foreign_lambda(capsys):
    code, _, err = run(
        [
            "seminormal",
            "--a", "1", "--b", "1", "--p", "1", "--q", "1", "--k", "1",
            "--lambda", "5",
        ],
        capsys,
    )
    assert code == 3
    assert "not in P_1" in err


def test_seminormal_all_lambda(capsys):
    code, out, _ = run(
        [
            "seminormal",
            "--a", "1", "--b", "1", "--p", "1", "--q", "1", "--k", "1",
            "--all-lambda",
        ],
        capsys,
    )
    assert code == 0
    assert out.count("simple=pass") == 3


def test_oracle_cap_violation(capsys):
    code, _, err = run(
        ["oracle", "--a", "1", "--b", "1", "--p", "1", "--q", "1", "--k", "1", "--n", "1"],
        capsys,
    )
    assert code == 4
    assert "p + q" in err


def test_oracle_block_cap_refuses_before_building_operators(monkeypatch, capsys):
    # carrier 2^14 = 16384 is under the carrier cap; its weight space of 3432 is not
    from tbh import matrices, oracle

    def refuse(*args, **kwargs):
        raise RuntimeError("an operator was built")

    monkeypatch.setattr(oracle, "young_image", refuse)
    monkeypatch.setattr(matrices.SparseOperator, "__init__", refuse)
    code, _, err = run(
        ["oracle", "--a", "1", "--b", "1", "--p", "1", "--q", "1", "--k", "12", "--n", "2"],
        capsys,
    )
    assert code == 4
    assert "largest weight space 3432" in err


def test_debug_log_reports_largest_weight_space():
    proc = subprocess.run(
        [sys.executable, "-m", "tbh.cli", "oracle",
         "--a", "1", "--b", "1", "--p", "1", "--q", "1", "--k", "1", "--n", "2"],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin:/usr/local/bin", "TBH_LOG": "debug"},
    )
    assert proc.returncode == 0
    assert "oracle stage dimension bookkeeping: dim U 8 (ambient 8), largest weight space 3" in proc.stderr


def test_oracle_k0(capsys):
    code, out, _ = run(
        ["oracle", "--a", "1", "--b", "1", "--p", "1", "--q", "1", "--k", "0", "--n", "2"],
        capsys,
    )
    assert code == 0
    assert "spectra" in out and "pass" in out


def test_dims_output(capsys):
    code, out, _ = run(
        ["dims", "--a", "1", "--b", "1", "--p", "1", "--q", "1", "--k", "2", "--n", "4"],
        capsys,
    )
    assert code == 0
    assert "(2,1):2" in out
    assert "sum dim x weyl_dim_4 = 256" in out  # 4^2 * 4 * 4


def test_normalization_notice(capsys):
    code, out, err = run(
        ["dims", "--a", "2", "--b", "3", "--p", "1", "--q", "2", "--k", "0"],
        capsys,
    )
    assert code == 0
    assert "normalized" in err


def test_validation_errors(capsys):
    code, _, _ = run(["bratteli", "--a", "1", "--b", "1", "--p", "1", "--q", "1"], capsys)
    assert code == 2  # missing --k
    code, _, err = run(
        ["dims", "--a", "0", "--b", "1", "--p", "1", "--q", "1", "--k", "0"], capsys
    )
    assert code == 2
    code, _, err = run(
        ["seminormal", "--a", "1", "--b", "1", "--p", "1", "--q", "1", "--k", "1",
         "--lambda", "1,3"],
        capsys,
    )
    assert code == 2  # not weakly decreasing


def test_module_entrypoint_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "tbh.cli", "dims",
         "--a", "1", "--b", "1", "--p", "1", "--q", "1", "--k", "1"],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin:/usr/local/bin"},
    )
    assert proc.returncode == 0
    assert "rank 2" in proc.stdout


def test_full_verification_script_passes():
    # The script is the only caller of relations_braid and runs every oracle
    # stage over its configuration grid.
    script = Path(SRC).parent / "scripts" / "full_verification.py"
    proc = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        text=True,
        env={"PATH": "/usr/bin:/bin:/usr/local/bin"},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "all verifications passed" in proc.stdout


def test_debug_log_reports_each_verified_module():
    proc = subprocess.run(
        [sys.executable, "-m", "tbh.cli", "seminormal",
         "--a", "1", "--b", "1", "--p", "1", "--q", "1", "--k", "2",
         "--lambda", "2,2"],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin:/usr/local/bin", "TBH_LOG": "debug"},
    )
    assert proc.returncode == 0
    assert "verified lambda=(2,2) dim=" in proc.stderr
    assert "relations=" in proc.stderr and "witnesses=" in proc.stderr


def _no_float(text):
    raise AssertionError(f"JSON float {text} in an exact dump")


def test_seminormal_dump(tmp_path, capsys):
    dump = tmp_path / "dumps"
    code, _, _ = run(
        [
            "seminormal",
            "--a", "1", "--b", "1", "--p", "1", "--q", "1", "--k", "1",
            "--lambda", "2,1", "--dump", str(dump),
        ],
        capsys,
    )
    assert code == 0
    doc = json.loads((dump / "lambda_2_1.json").read_text(), parse_float=_no_float)
    assert doc["lambda"] == [2, 1]
    x1 = doc["matrices"]["x1"]
    assert x1 == {"dim": 2, "cols": [{"0": "-1/2", "1": "1/2"}, {"0": "3/2", "1": "1/2"}]}
    parsed = [{int(r): Fraction(v) for r, v in col.items()} for col in x1["cols"]]
    assert parsed == [{0: Fraction(-1, 2), 1: Fraction(1, 2)}, {0: Fraction(3, 2), 1: Fraction(1, 2)}]
    assert doc["radicands"] == {"x1": ["3/4", "3/4"]}
    assert doc["certificate"]["witnesses"]["1"] == [0]


def test_jobs_flag(capsys):
    code, out, _ = run(
        [
            "seminormal",
            "--a", "1", "--b", "1", "--p", "1", "--q", "1", "--k", "1",
            "--all-lambda", "--jobs", "2",
        ],
        capsys,
    )
    assert code == 0
    assert out.count("simple=pass") == 3


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers, maps in process."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


def test_jobs_clamped_to_targets_and_cpus(monkeypatch, capsys):
    monkeypatch.setattr(cli, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    argv = [
        "seminormal",
        "--a", "1", "--b", "1", "--p", "1", "--q", "1", "--k", "0",
        "--all-lambda", "--jobs", "100000",
    ]
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 64)
    code, out, _ = run(argv, capsys)
    assert code == 0 and out.count("simple=pass") == 2
    assert _RecordingPool.sizes == [2]  # two shapes in P_0
    monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
    code, out, _ = run(argv, capsys)
    assert code == 0 and out.count("simple=pass") == 2
    assert _RecordingPool.sizes == [2]  # unknown CPU count means one: no new pool


def test_broken_invariant_exits_internal(monkeypatch, capsys):
    # Doubling the parent list breaks the one-other-parent invariant of s_0.
    parents = partitions.parents
    monkeypatch.setattr(partitions, "parents", lambda mu, params: parents(mu, params) * 2)
    code, _, err = run(
        [
            "seminormal",
            "--a", "1", "--b", "1", "--p", "1", "--q", "1", "--k", "1",
            "--lambda", "2,1",
        ],
        capsys,
    )
    assert code == 1
    assert "other parent" in err
