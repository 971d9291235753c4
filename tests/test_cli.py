import inspect
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import cfrank.errors
from cfrank.cli import build_parser, main
from cfrank.errors import DepthExhausted, InvalidSchedule

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


@pytest.mark.parametrize("doc", [
    {"fragments": 5},
    {"fragments": [5]},
    dict(SCHED, d="1", prefix_offsets=[1]),
    dict(SCHED, d="1", prefix_offsets={"0": 5}),
    dict(SCHED, h0=float("inf")),
])
def test_malformed_schedule_exit_3(doc, tmp_path, capsys):
    # each used to escape as a TypeError, AttributeError or OverflowError
    # traceback (exit 1)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, text = run_main(["build", "--schedule", str(bad), "--depth", "1"],
                          tmp_path / "x.json")
    assert code == 3
    assert text == ""
    err = capsys.readouterr().err
    assert err.startswith("cfrank: invalid schedule: malformed schedule document: ")
    assert len(err.splitlines()) == 1


LONG = "9" * (sys.get_int_max_str_digits() + 1)


@pytest.mark.parametrize("doc", [
    dict(SCHED, h0=LONG),
    dict(SCHED, r={"kind": "list", "values": ["3", LONG]}),
    dict(SCHED, d="1", prefix_offsets={"0": [LONG]}),
    {"fragments": [dict(SCHED, stopping_time=LONG)]},
])
@pytest.mark.parametrize("command", [["build", "--depth", "1"], ["concat"]])
def test_schedule_integer_past_digit_limit_exit_2(command, doc, tmp_path, capsys):
    # h0 used to exit 3 and a prefix offset 2, both with the interpreter's
    # advice to lift the limit
    sched = tmp_path / "long.json"
    sched.write_text(json.dumps(doc))
    code, text = run_main(command + ["--schedule", str(sched)], tmp_path / "x.json")
    assert code == 2
    assert text == ""
    err = capsys.readouterr().err
    assert err == (f"cfrank: an input integer has {len(LONG)} digits, more than the "
                   f"interpreter's limit of {sys.get_int_max_str_digits()} digits\n")


def test_schedule_number_past_digit_limit_exit_2(tmp_path, capsys):
    # a bare JSON number fails while the file is read, not while it is parsed
    sched = tmp_path / "long.json"
    sched.write_text(json.dumps(SCHED).replace('"h0": "1"', f'"h0": {LONG}'))
    code, text = run_main(["build", "--schedule", str(sched), "--depth", "1"],
                          tmp_path / "x.json")
    assert code == 2
    assert text == ""
    err = capsys.readouterr().err
    assert err.startswith(f"cfrank: cannot read schedule {sched}: an input integer has ")
    assert len(err.splitlines()) == 1 and "set_int_max_str_digits" not in err


@pytest.mark.parametrize("threshold", ["1/0", "x"])
def test_build_bad_growth_threshold_exit_2(threshold, sched_path, tmp_path, capsys):
    # "1/0" used to escape as a ZeroDivisionError traceback (exit 1)
    code, text = run_main(["build", "--schedule", sched_path, "--depth", "2",
                           "--growth-threshold", threshold], tmp_path / "x.out")
    assert code == 2
    assert text == ""
    assert capsys.readouterr().err.startswith("cfrank: bad --growth-threshold: ")


@pytest.mark.parametrize("depth", ["0", "1"])
def test_build_bad_growth_threshold_exit_2_below_depth_2(depth, sched_path, tmp_path, capsys):
    # below depth 2 no growth check runs; the threshold used to go unparsed
    # and land in the report's config
    code, text = run_main(["build", "--schedule", sched_path, "--depth", depth,
                           "--growth-threshold", "abc"], tmp_path / "x.out")
    assert code == 2
    assert text == ""
    assert capsys.readouterr().err.startswith("cfrank: bad --growth-threshold: ")


@pytest.mark.parametrize("out", ["missing/x.json", "."])
def test_build_unwritable_out_exit_2(out, sched_path, tmp_path, capsys):
    # a missing directory or a directory as --out used to escape as a
    # FileNotFoundError / IsADirectoryError traceback (exit 1)
    code = main(["build", "--schedule", sched_path, "--depth", "3",
                 "--out", str(tmp_path / out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"cfrank: cannot write {tmp_path / out}: ")
    assert len(err.splitlines()) == 1


def test_build_past_size_cap_exit_2(sched_path, tmp_path, capsys):
    code = main(["build", "--schedule", sched_path, "--depth", "200000",
                 "--out", str(tmp_path / "r.json")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("cfrank: depth 200000 needs at least ")
    assert " bits of tower data by stage " in err


def test_build_integer_past_digit_limit_exit_2(tmp_path, capsys):
    # at depth 40 a partial-sum denominator of the measure report passes
    # 4,300 digits; the heights stay far below that until stage 718
    sched = tmp_path / "geo.json"
    sched.write_text(json.dumps({"name": "geo", "h0": "1",
                                 "r": {"kind": "const", "value": "2"},
                                 "z": {"kind": "geometric", "base": "1", "ratio": "1000000"}}))
    out = tmp_path / "r.json"
    code = main(["build", "--schedule", str(sched), "--depth", "40", "--out", str(out)])
    assert code == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err == ("cfrank: the report would need an integer longer than the interpreter's "
                   f"limit of {sys.get_int_max_str_digits()} digits; try a smaller --depth\n")


def test_poisson_mult_integer_past_digit_limit_exit_2(tmp_path, capsys):
    code, text = run_main(["poisson-mult", "--kind", "symmetric-square", "--n-max", "1500"],
                          tmp_path / "p.json")
    assert code == 2
    assert text == ""
    err = capsys.readouterr().err
    assert err.endswith(" digits; try a smaller --n-max\n")
    assert "set_int_max_str_digits" not in err


@pytest.mark.parametrize("kind", [["symmetric-square"], ["identity-product", "--p", "2"]],
                         ids=["symmetric-square", "identity-product"])
def test_poisson_mult_refuses_before_building_every_value(kind, tmp_path, capsys):
    # refused at the first value past the digit limit, before the next is
    # built: building all of them costs time and memory quadratic in --n-max
    start = time.perf_counter()
    code, text = run_main(["poisson-mult", "--kind", *kind, "--n-max", "1000000"],
                          tmp_path / "p.json")
    assert time.perf_counter() - start < 5
    assert code == 2
    assert text == ""
    assert capsys.readouterr().err == (
        "cfrank: the report would need an integer longer than the interpreter's limit of "
        f"{sys.get_int_max_str_digits()} digits; try a smaller --n-max\n")


def test_concat_integer_past_digit_limit_exit_2(tmp_path, capsys):
    # r_4999 = 2 * 10**4999 is laid out as a list value of 5,000 digits; it
    # used to exit 2 with the interpreter's advice to lift the limit
    sched = tmp_path / "geo.json"
    sched.write_text(json.dumps({"fragments": [
        {"name": "g", "h0": "1", "r": {"kind": "geometric", "base": "2", "ratio": "10"},
         "z": "0", "stopping_time": "5000"}]}))
    out = tmp_path / "flat.json"
    code = main(["concat", "--schedule", str(sched), "--out", str(out)])
    assert code == 2
    assert not out.exists()
    assert capsys.readouterr().err == (
        "cfrank: the report would need an integer longer than the interpreter's "
        f"limit of {sys.get_int_max_str_digits()} digits\n")


def test_stopping_time_past_cap_exit_3_fast(tmp_path, capsys):
    # the stopping time used to be laid out as r, z and d lists before any
    # size check: about 60 MiB per million stages
    sched = tmp_path / "long.json"
    sched.write_text(json.dumps({"fragments": [dict(SCHED, stopping_time="1000000000")]}))
    start = time.perf_counter()
    code, text = run_main(["build", "--schedule", str(sched), "--depth", "1"],
                          tmp_path / "x.json")
    assert time.perf_counter() - start < 5
    assert code == 3
    assert text == ""
    assert capsys.readouterr().err == (
        "cfrank: invalid schedule: stopping times add up to 1000000000, past the cap of 8192\n")


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


def test_scan_csv_decimal(sched_path, tmp_path):
    code, text = run_main(
        ["scan-mixing", "--schedule", sched_path, "--depth", "3", "--max-depth", "3",
         "--stages", "0:2", "--samples", "8", "--tests", PAIR, "--format", "csv", "--decimal"],
        tmp_path / "scan.csv",
    )
    assert code == 0
    assert text.splitlines() == [
        "stage,m,numerator,denominator,residual_numerator,residual_denominator,decimal",
        "0,1,0,1,0,1,0",
        "0,2,1,3,0,1,0.333333333333333333333333333333",
        "0,3,1,3,0,1,0.333333333333333333333333333333",
        "1,9,2,9,0,1,0.222222222222222222222222222222",
        "1,10,1,9,0,1,0.111111111111111111111111111111",
        "1,11,10,27,0,1,0.370370370370370370370370370370",
        "1,13,4,27,1,27,0.148148148148148148148148148148",
        "1,16,2,9,2,27,0.222222222222222222222222222222",
        "1,19,2,27,1,9,0.0740740740740740740740740740741",
        "1,21,4,27,1,9,0.148148148148148148148148148148",
    ]


@pytest.mark.parametrize("stages, samples", [("0:1", "1000000000"), ("12", "1048577")])
def test_scan_sample_cap(stages, samples, sched_path, tmp_path, capsys):
    # stage 0's interval [1, 4) holds 3 times whatever --samples asks;
    # stage 12's holds 2,524,349, so 2**20 + 1 samples pass the cap
    code, text = run_main(["scan-mixing", "--schedule", sched_path, "--depth", "13",
                           "--stages", stages, "--samples", samples, "--tests", PAIR,
                           "--format", "csv"], tmp_path / "scan.csv")
    if stages == "0:1":
        assert code == 0
        assert [row.split(",")[1] for row in text.splitlines()[1:]] == ["1", "2", "3"]
    else:
        assert code == 2
        assert text == ""
        assert capsys.readouterr().err == (
            "cfrank: 1048577 sample times at stage 12 pass the cap of 1048576\n")


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


def test_cesaro_command_reads_the_norm_of_abs_k(sched_path, tmp_path):
    # the cylinder is the tower base, which spills below itself under every
    # negative shift: --k -1 resolves only by reading the series of |k|
    norms = []
    for k in ("1", "-1"):
        code, text = run_main(
            ["cesaro", "--schedule", sched_path, "--depth", "3", "--k", k, "--l", "4",
             "--cylinder", CYL],
            tmp_path / f"c{k}.json",
        )
        assert code == 0
        norms.append(json.loads(text)["squared_norm"])
    assert norms[0] == norms[1]


@pytest.mark.parametrize("command, option, text", [
    (["cesaro", "--k", "2", "--l", "2"], "--cylinder", CYL + "\n"),
    (["scan-mixing", "--stages", "0:2", "--samples", "8"], "--tests", PAIR + "\n"),
], ids=["cesaro-cylinder", "scan-mixing-tests"])
def test_at_path_report_embeds_the_file_text(command, option, text, sched_path, tmp_path):
    # the config holds the file's text, not its path: identical files in two
    # directories give the report of that text inline, which re-runs without them
    outs = []
    for name in ("a", "b"):
        (tmp_path / name).mkdir()
        (tmp_path / name / "arg.json").write_text(text)
        outs.append(run_main(command + ["--schedule", sched_path, "--depth", "3",
                                        option, f"@{tmp_path / name / 'arg.json'}"],
                             tmp_path / f"{name}.json"))
    inline = run_main(command + ["--schedule", sched_path, "--depth", "3", option, text],
                      tmp_path / "inline.json")
    assert outs[0] == outs[1] == inline
    assert inline[0] == 0
    assert json.loads(inline[1])["config"][option[2:]] == text


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


def test_spectrum_csv_decimal(sched_path, tmp_path):
    code, text = run_main(
        ["spectrum", "--schedule", sched_path, "--depth", "3", "--max-depth", "3",
         "--cylinder", CYL, "--max-m", "3", "--format", "csv", "--decimal"],
        tmp_path / "s.csv",
    )
    assert code == 0
    third = "0.333333333333333333333333333333"
    assert text.splitlines() == [
        "m,numerator,denominator,decimal",
        f"-3,1,3,{third}", f"-2,1,3,{third}", "-1,0,1,0", "0,1,1,1",
        "1,0,1,0", f"2,1,3,{third}", f"3,1,3,{third}",
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


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_scan_no_samples_exit_2(samples, sched_path, tmp_path, capsys):
    code, text = run_main(["scan-mixing", "--schedule", sched_path, "--depth", "3",
                           "--stages", "0:1", "--samples", samples, "--tests", PAIR],
                          tmp_path / "x.out")
    assert code == 2
    assert text == ""
    assert f"samples per stage must be >= 1, got {samples}" in capsys.readouterr().err


def test_scan_stage_beyond_depth_exit_2(sched_path, tmp_path, capsys):
    # a stage beyond --depth is a config error, not a schedule invariant
    code, text = run_main(["scan-mixing", "--schedule", sched_path, "--depth", "2",
                           "--stages", "0:9"], tmp_path / "x.out")
    assert code == 2
    assert text == ""
    # named before any stage is counted
    assert "scan stage 2 needs --max-depth 3 or more" in capsys.readouterr().err


def test_poisson_mult_bad_p_exit_2(tmp_path, capsys):
    # p <= 1 is a config error, not a schedule invariant
    code, text = run_main(["poisson-mult", "--kind", "identity-product", "--p", "0",
                           "--n-max", "3"], tmp_path / "x.out")
    assert code == 2
    assert text == ""
    assert "need p > 1, got 0" in capsys.readouterr().err


@pytest.mark.parametrize("tests", ["5", "[5]", "[[5, 6]]", '{"ab": 1}', '"ab"'])
@pytest.mark.parametrize("command", [
    ["scan-mixing", "--stages", "0:1"],
    ["weak-limits", "--times", "1", "--target", '{"0": "1/3"}'],
])
def test_tests_not_a_list_of_pairs_exit_2(command, tests, sched_path, tmp_path, capsys):
    # a bare number used to escape as a TypeError traceback (exit 1)
    code, text = run_main(command + ["--schedule", sched_path, "--depth", "2",
                                     "--tests", tests], tmp_path / "x.out")
    assert code == 2
    assert text == ""
    err = capsys.readouterr().err
    assert err.startswith("cfrank: ") and "Traceback" not in err


@pytest.mark.parametrize("command, option, value", [
    (["scan-mixing"], "--stages", "0:x"),
    (["weak-limits", "--target", '{"0": "1/3"}'], "--times", "4,x"),
])
def test_bad_integer_list_exit_2(command, option, value, sched_path, tmp_path, capsys):
    # --times used to print the bare int() message
    code, text = run_main(command + ["--schedule", sched_path, "--depth", "2", "--tests", PAIR,
                                     option, value], tmp_path / "x.out")
    assert code == 2
    assert text == ""
    assert capsys.readouterr().err == f"cfrank: bad {option} {value!r}\n"


@pytest.mark.parametrize("command, option, value", [
    (["scan-mixing"], "--stages", "3:1"),
    (["scan-mixing"], "--stages", ","),
    (["weak-limits", "--target", '{"0": "1/3"}'], "--times", ","),
])
def test_empty_stage_or_time_list_exit_2(command, option, value, sched_path, tmp_path,
                                         capsys):
    # an empty list used to exit 0 with an empty report
    code, text = run_main(command + ["--schedule", sched_path, "--depth", "2", "--tests", PAIR,
                                     option, value], tmp_path / "x.out")
    assert code == 2
    assert text == ""
    assert capsys.readouterr().err.startswith(f"cfrank: {option} {value!r} names no ")


@pytest.mark.parametrize("target", ['{"0": null}', '{"0": [1]}', '{"0": "1/0"}',
                                    '{"0": 1e400}', '{"x": "1"}', "5"])
def test_weak_limits_bad_target_exit_2(target, sched_path, tmp_path, capsys):
    # Fraction(None), Fraction("1/0") and Fraction(inf) used to escape as
    # tracebacks (exit 1)
    code, text = run_main(["weak-limits", "--schedule", sched_path, "--depth", "2",
                           "--times", "1", "--target", target, "--tests", PAIR],
                          tmp_path / "x.out")
    assert code == 2
    assert text == ""
    assert capsys.readouterr().err.startswith("cfrank: bad --target: ")


@pytest.mark.parametrize("command", [
    ["build"],
    ["cesaro", "--k", "2", "--l", "2", "--cylinder", CYL],
    ["scan-mixing", "--stages", "0:1", "--samples", "2"],
])
def test_negative_depth_exit_2(command, sched_path, tmp_path, capsys):
    # a bad --depth is a command-line mistake, not a schedule invariant (exit 3)
    code, text = run_main(command + ["--schedule", sched_path, "--depth", "-1"],
                          tmp_path / "x.out")
    assert code == 2
    assert text == ""
    assert "depth must be >= 0, got -1" in capsys.readouterr().err


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


def test_every_error_type_falls_in_one_exit_code_family():
    families = (ValueError, InvalidSchedule, DepthExhausted)
    types = [cls for _, cls in inspect.getmembers(cfrank.errors, inspect.isclass)
             if issubclass(cls, Exception) and cls is not cfrank.errors.CFRankError]
    assert types
    for cls in types:
        assert sum(issubclass(cls, f) for f in families) == 1, cls


@pytest.mark.parametrize("command, doc, code, err", [
    (["build", "--depth", "1"], {"fragments": []}, 3,
     "cfrank: invalid schedule: need at least one "),
    (["poisson-mult", "--kind", "identity-product", "--p", "1", "--n-max", "3"], None, 2,
     "cfrank: need p > 1, got 1"),
    (["cesaro", "--depth", "2", "--k", "5", "--l", "6",
      "--cylinder", '{"level": 1, "intervals": [["0", "1"]]}'],
     {**SCHED, "z": {"kind": "const", "value": "1"}}, 4,
     "cfrank: a correlation in [0, 1/9] is unresolved at max depth 2"),
])
def test_exit_code_families(command, doc, code, err, tmp_path, capsys):
    # one input per family: InvalidSchedule, ValueError, DepthExhausted
    if doc is not None:
        sched = tmp_path / "sched.json"
        sched.write_text(json.dumps(doc))
        command = command + ["--schedule", str(sched)]
    assert run_main(command, tmp_path / "x.out") == (code, "")
    assert capsys.readouterr().err.startswith(err)


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


def test_cli_does_not_import_numpy(sched_path, tmp_path):
    # a fresh interpreter: other tests in this process have loaded numpy
    script = f"""
import sys
from fractions import Fraction
import cfrank, cfrank.cli
assert cfrank.cli.main(["scan-mixing", "--schedule", {sched_path!r}, "--depth", "3",
                        "--stages", "0:2", "--samples", "4",
                        "--out", {str(tmp_path / "scan.json")!r}]) == 0
assert "numpy" not in sys.modules
lv = cfrank.build_levels(cfrank.load_schedule({sched_path!r}), 4)
A = cfrank.CylinderSet.from_points(1, [0, 4, 7])
B = cfrank.CylinderSet.from_points(2, [3, 10, 30])
orc = cfrank.oracle_correlation_bounds(42, 1, [0, 4, 7], 2, [3, 10, 30], lv, 4)
assert "numpy" in sys.modules
assert orc == cfrank.correlation_bounds(42, A, B, lv, 4) == (Fraction(10, 81), Fraction(17, 81))
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)})
    assert proc.returncode == 0, proc.stderr


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


# ------------------------------------------------ the lean parser of one call

CYL1 = '{"level": 1, "intervals": [["0", "2"]]}'
SUBCOMMAND_ARGV = [  # one call per subcommand, most of its options given
    ["build", "--schedule", "s.json", "--depth", "3", "--growth-threshold", "1/2"],
    ["concat", "--schedule", "s.json", "--out", "o.json"],
    ["scan-mixing", "--schedule", "s.json", "--depth", "3", "--max-depth", "5", "--strict",
     "--format", "csv", "--decimal", "--stages", "1:3", "--samples", "4", "--power", "-2",
     "--tests", PAIR],
    ["weak-limits", "--schedule", "s.json", "--depth", "3", "--times", "4,5",
     "--target", '{"0": "1/3"}'],
    ["cesaro", "--schedule", "s.json", "--depth", "3", "--k", "2", "--l", "5",
     "--cylinder", CYL1],
    ["inequality", "--schedule", "s.json", "--depth", "3", "--max-depth", "6", "--R", "6",
     "--L", "2", "--r", "2", "--cylinder", CYL1],
    ["spectrum", "--schedule", "s.json", "--depth", "3", "--format", "json",
     "--cylinder", CYL1, "--max-m", "7"],
    ["poisson-mult", "--kind", "identity-product", "--p", "3", "--n-max", "4"],
]
ALL_NAMES = "{build,concat,scan-mixing,weak-limits,cesaro,inequality,spectrum,poisson-mult}"


@pytest.mark.parametrize("argv", SUBCOMMAND_ARGV, ids=lambda argv: argv[0])
def test_lean_parser_parses_like_the_full_one(argv):
    assert build_parser(argv[0]).parse_args(argv) == build_parser().parse_args(argv)


@pytest.mark.parametrize("argv", [
    [],
    ["--help"],
    ["scan-mixing", "--help"],
    ["no-such-command"],
    ["scan-mixing", "--schedule", "s.json", "--depth", "x", "--stages", "1:3"],
    ["scan-mixing", "--schedule", "s.json", "--depth", "3", "--stages", "1:3", "--bogus"],
], ids=["none", "help", "command-help", "unknown", "bad-int", "unrecognized"])
def test_main_prints_what_the_full_parser_prints(argv, monkeypatch, capsys):
    # both sides run in this interpreter, so argparse wording that differs
    # between Python versions cannot break the comparison
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    want = capsys.readouterr()
    assert main(argv) == exc.value.code
    assert capsys.readouterr() == want
    if argv[-1:] == ["--bogus"]:  # the top-level usage names every subcommand
        assert ALL_NAMES in want.err
