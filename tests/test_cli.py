import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cfrank.cli import main

SCHED = {
    "name": "demo",
    "h0": "1",
    "r": {"kind": "const", "value": "3"},
    "z": {"kind": "affine", "base": "1", "step": "1"},
}
CYL = '{"level": 0, "intervals": [["0", "1"]]}'
PAIR = '[[{"level":0,"intervals":[["0","1"]]},{"level":0,"intervals":[["0","1"]]}]]'
SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture()
def sched_path(tmp_path):
    p = tmp_path / "sched.json"
    p.write_text(json.dumps(SCHED))
    return str(p)


def run_main(args, out_path):
    code = main(args + ["--out", str(out_path)])
    text = out_path.read_text() if out_path.exists() else ""
    return code, text


def test_build_report(sched_path, tmp_path):
    out = tmp_path / "r.json"
    code, text = run_main(["build", "--schedule", sched_path, "--depth", "2"], out)
    assert code == 0
    doc = json.loads(text)
    assert doc["h"] == ["1", "9", "36"]
    assert doc["offset_set_sizes"] == [3, 3]
    assert doc["measure"]["mu"][1] == {"numerator": "3", "denominator": "1"}
    assert doc["growth"]["verdict"] in ("PASS", "FAIL", "INCONCLUSIVE")


def test_build_depth_zero(sched_path, tmp_path):
    code, text = run_main(["build", "--schedule", sched_path, "--depth", "0"], out := tmp_path / "r.json")
    assert code == 0
    assert json.loads(text)["h"] == ["1"]


def test_build_invalid_schedule_exit_3(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"name": "b", "h0": "1",
                               "r": {"kind": "const", "value": "1"},
                               "z": {"kind": "const", "value": "0"}}))
    assert main(["build", "--schedule", str(bad), "--depth", "1",
                 "--out", str(tmp_path / "x.json")]) == 3


def test_build_parse_error_exit_2(tmp_path):
    broken = tmp_path / "broken.json"
    broken.write_text("{nope")
    assert main(["build", "--schedule", str(broken), "--depth", "1",
                 "--out", str(tmp_path / "x.json")]) == 2


def test_scan_csv_rows(sched_path, tmp_path):
    out = tmp_path / "scan.csv"
    code, text = run_main(
        ["scan-mixing", "--schedule", sched_path, "--depth", "3", "--max-depth", "3",
         "--stages", "0:1", "--samples", "8", "--format", "csv", "--tests", PAIR],
        out,
    )
    assert code == 0
    assert text.splitlines()[1:] == ["0,1,0,1,0,1", "0,2,1,3,0,1", "0,3,1,3,0,1"]


def test_scan_strict_depth_exhausted_exit_4(sched_path, tmp_path):
    out = tmp_path / "scan.json"
    code, _ = run_main(
        ["scan-mixing", "--schedule", sched_path, "--depth", "2", "--max-depth", "2",
         "--stages", "1:2", "--samples", "4", "--strict", "--tests", PAIR],
        out,
    )
    assert code == 4
    code2, _ = run_main(
        ["scan-mixing", "--schedule", sched_path, "--depth", "2", "--max-depth", "2",
         "--stages", "1:2", "--samples", "4", "--tests", PAIR],
        out,
    )
    assert code2 == 0


def test_scan_empty_test_set(sched_path, tmp_path):
    out = tmp_path / "scan.csv"
    code, text = run_main(
        ["scan-mixing", "--schedule", sched_path, "--depth", "2", "--max-depth", "2",
         "--stages", "0:1", "--samples", "4", "--format", "csv", "--tests", "[]"],
        out,
    )
    assert code == 0
    rows = text.splitlines()[1:]
    assert all(row.split(",")[2:4] == ["0", "1"] for row in rows)


def test_cesaro_command(sched_path, tmp_path):
    out = tmp_path / "c.json"
    code, text = run_main(
        ["cesaro", "--schedule", sched_path, "--depth", "3", "--max-depth", "3",
         "--k", "2", "--l", "2", "--cylinder", CYL],
        out,
    )
    assert code == 0
    assert json.loads(text)["squared_norm"] == {"numerator": "2", "denominator": "3"}


def test_inequality_command(sched_path, tmp_path):
    out = tmp_path / "i.json"
    code, text = run_main(
        ["inequality", "--schedule", sched_path, "--depth", "4", "--max-depth", "4",
         "--R", "6", "--L", "2", "--r", "2", "--cylinder", CYL],
        out,
    )
    assert code == 0
    doc = json.loads(text)
    assert doc["holds"] is True
    assert doc["lhs_squared"] == {"numerator": "17", "denominator": "54"}


def test_spectrum_csv(sched_path, tmp_path):
    out = tmp_path / "s.csv"
    code, text = run_main(
        ["spectrum", "--schedule", sched_path, "--depth", "3", "--max-depth", "3",
         "--cylinder", CYL, "--max-m", "2", "--format", "csv"],
        out,
    )
    assert code == 0
    assert text.splitlines() == [
        "m,numerator,denominator",
        "-2,1,3", "-1,0,1", "0,1,1", "1,0,1", "2,1,3",
    ]


@pytest.mark.parametrize("strict", [[], ["--strict"]])
@pytest.mark.parametrize("command", [
    ["cesaro", "--k", "5", "--l", "6"],
    ["inequality", "--R", "20", "--L", "2", "--r", "5"],
    ["spectrum", "--max-m", "30"],
])
def test_exact_value_commands_exit_4_on_unresolved_depth(command, strict, tmp_path, capsys):
    sched = tmp_path / "r3z1.json"
    sched.write_text(json.dumps({**SCHED, "z": {"kind": "const", "value": "1"}}))
    out = tmp_path / "x.out"
    code, text = run_main(
        command + ["--schedule", str(sched), "--depth", "2", "--max-depth", "2",
                   "--cylinder", '{"level": 1, "intervals": [["0", "1"]]}'] + strict,
        out,
    )
    assert code == 4
    assert text == ""
    assert "[0, 1/9] is unresolved at max depth 2" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["spectrum", "--max-m", "2", "--cylinder", '{"level": -2, "intervals": [["0", "1"]]}'],
    ["scan-mixing", "--stages=-2:0", "--samples", "2"],
])
def test_negative_stage_exit_2(command, tmp_path, capsys):
    sched = tmp_path / "r3z1.json"
    sched.write_text(json.dumps({**SCHED, "z": {"kind": "const", "value": "1"}}))
    code, text = run_main(command + ["--schedule", str(sched), "--depth", "3"],
                          tmp_path / "x.out")
    assert code == 2
    assert text == ""
    assert "stage -2 is negative" in capsys.readouterr().err


@pytest.mark.parametrize("command, option", [
    (["build"], ["--max-depth", "3"]),
    (["build"], ["--format", "csv"]),
    (["build"], ["--decimal"]),
    (["build"], ["--strict"]),
    (["weak-limits", "--times", "1", "--target", '{"0": "1/3"}'], ["--format", "csv"]),
    (["cesaro", "--k", "2", "--l", "2", "--cylinder", CYL], ["--decimal"]),
    (["inequality", "--R", "6", "--L", "2", "--r", "2", "--cylinder", CYL],
     ["--format", "json"]),
])
def test_options_a_command_does_not_read_exit_2(command, option, sched_path, tmp_path):
    out = tmp_path / "x.out"
    argv = command + ["--schedule", sched_path, "--depth", "2"]
    assert main(argv + ["--out", str(out)]) == 0
    out.unlink()
    assert main(argv + option + ["--out", str(out)]) == 2
    assert not out.exists()


def test_poisson_mult_commands(tmp_path):
    out = tmp_path / "p.json"
    code, text = run_main(["poisson-mult", "--kind", "symmetric-square", "--n-max", "5"], out)
    assert code == 0
    assert json.loads(text)["multiplicities"] == ["1", "3", "15", "105", "945"]
    code, text = run_main(["poisson-mult", "--kind", "identity-product", "--p", "2",
                           "--n-max", "3"], out)
    assert json.loads(text)["multiplicities"] == ["2", "4", "8"]


def test_weak_limits_command(sched_path, tmp_path):
    out = tmp_path / "w.json"
    code, text = run_main(
        ["weak-limits", "--schedule", sched_path, "--depth", "3", "--max-depth", "3",
         "--times", "1,2", "--target", '{"0": "1/3"}', "--tests", PAIR],
        out,
    )
    assert code == 0
    doc = json.loads(text)
    by_m = {row["m"]: row["discrepancy"]["value"] for row in doc["discrepancies"]}
    # corr(1) - mu/3 = -1/3; corr(2) - mu/3 = 0
    assert by_m["1"] == {"numerator": "1", "denominator": "3"}
    assert by_m["2"] == {"numerator": "0", "denominator": "1"}


def test_concat_flattens_fragments(tmp_path):
    doc = {
        "fragments": [
            {"name": "f1", "h0": "2", "r": {"kind": "const", "value": "2"},
             "z": {"kind": "const", "value": "0"}, "stopping_time": "1"},
            {"name": "f2", "h0": "9", "r": {"kind": "const", "value": "3"},
             "z": {"kind": "const", "value": "1"}, "stopping_time": "1"},
        ]
    }
    src = tmp_path / "frag.json"
    src.write_text(json.dumps(doc))
    out = tmp_path / "flat.json"
    code, text = run_main(["concat", "--schedule", str(src)], out)
    assert code == 0
    flat = json.loads(text)
    assert flat["h0"] == "2"
    assert flat["r"]["kind"] == "list" and flat["r"]["values"] == ["2", "3"]


def test_report_embeds_rerunnable_config(sched_path, tmp_path):
    out1 = tmp_path / "a.json"
    args = ["scan-mixing", "--schedule", sched_path, "--depth", "3", "--max-depth", "3",
            "--stages", "0:2", "--samples", "6", "--tests", PAIR]
    code, text1 = run_main(args, out1)
    assert code == 0
    cfg = json.loads(text1)["config"]
    args2 = ["scan-mixing", "--schedule", sched_path, "--depth", str(cfg["depth"]),
             "--max-depth", str(cfg["max_depth"]), "--stages", cfg["stages"],
             "--samples", str(cfg["samples"]), "--tests", cfg["tests"]]
    out2 = tmp_path / "b.json"
    code, text2 = run_main(args2, out2)
    assert text1 == text2


def test_module_entry_point(sched_path, tmp_path):
    out = tmp_path / "r.json"
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "cfrank", "build", "--schedule", sched_path,
         "--depth", "1", "--out", str(out)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert json.loads(out.read_text())["h"] == ["1", "9"]
