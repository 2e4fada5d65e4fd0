import json
import subprocess
import sys

import pytest

from slalomcover import serde
from slalomcover.cli import main
from slalomcover.scales import BoundFn, validate_triple

from conftest import make_name, make_split_condition


def run_cli(*args):
    proc = subprocess.run([sys.executable, "-m", "slalomcover.cli", *args],
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout


def parse_lines(out):
    return [json.loads(line) for line in out.strip().splitlines()]


def test_covernum_exact_matches_oracle():
    code, out = run_cli("covernum", "--f", "3,3", "--g", "2,2", "--exact")
    assert code == 0
    (result,) = parse_lines(out)
    assert result["exact"] == 3
    assert result["lower"] == 3 and result["upper"] == 4


def test_reduce_allfn_check_passes():
    code, out = run_cli("reduce", "--system", "allfn", "--n", "2",
                        "--blocks", "2", "--check-c")
    assert code == 0
    (line,) = parse_lines(out)
    assert line["status"] == "pass"


def test_reduce_literal_range_counterexample_sets_exit_code():
    code, out = run_cli("reduce", "--system", "allfn", "--n", "2",
                        "--blocks", "3", "--literal-range", "--check-c")
    assert code == 1
    (line,) = parse_lines(out)
    assert line["status"] == "fail"
    assert line["block"] == 2


def test_demo_all_stages_pass():
    code, out = run_cli("demo", "--scale", "T1")
    assert code == 0
    lines = parse_lines(out)
    checks = [l for l in lines if "check" in l]
    assert checks and all(l["status"] == "pass" for l in checks)
    names = {l["check"] for l in checks}
    assert {"demo.covernum", "demo.densify", "demo.extract",
            "demo.game"} <= names


def test_reports_are_byte_identical():
    _, out1 = run_cli("demo", "--scale", "T1")
    _, out2 = run_cli("demo", "--scale", "T1")
    assert out1 == out2


def test_usage_error_exits_two():
    proc = subprocess.run([sys.executable, "-m", "slalomcover.cli", "frobnicate"],
                          capture_output=True, text=True)
    assert proc.returncode == 2


def test_missing_input_file_exits_two():
    code, out = run_cli("condition", "validate", "--in", "/nonexistent.json")
    assert code == 2


def test_directory_as_input_file_is_one_json_error_line(tmp_path):
    proc = subprocess.run([sys.executable, "-m", "slalomcover.cli", "condition",
                           "validate", "--in", str(tmp_path)],
                          capture_output=True, text=True)
    assert proc.returncode == 2
    (line,) = parse_lines(proc.stdout)
    assert line["error"] == "unreadable input file"
    assert proc.stderr == ""


@pytest.mark.parametrize("action", ["validate", "normalize", "show-levels"])
def test_condition_without_trees_is_rejected(tmp_path, action):
    cond_path = tmp_path / "empty.json"
    cond_path.write_text(json.dumps({"coords": {}}))
    proc = subprocess.run([sys.executable, "-m", "slalomcover.cli", "condition",
                           action, "--in", str(cond_path)],
                          capture_output=True, text=True)
    assert proc.returncode == 1
    (line,) = parse_lines(proc.stdout)
    assert line["error"] == "ValidationFailure"
    assert proc.stderr == ""


def test_scale_subcommand_reports_violations():
    code, out = run_cli("scale", "--lo", "2,5", "--hi", "3,7")
    assert code == 1
    (line,) = parse_lines(out)
    assert line["status"] == "fail" and line["violations"]


def test_norm_table_shape():
    code, out = run_cli("norm", "--g", "2,3", "--h", "2,2", "--max-size", "8")
    assert code == 0
    lines = parse_lines(out)
    assert [l["k"] for l in lines] == [0, 1]
    assert lines[0]["norms"] == [0, 0, 0, 1, 1, 1, 1, 2]


def test_condition_pipeline_via_files(tmp_path, ext_triples):
    zeta, xi = ext_triples
    p = make_split_condition(zeta)
    cond_path = tmp_path / "cond.json"
    serde.dump(serde.condition_to_dict(p), str(cond_path))

    code, out = run_cli("condition", "validate", "--in", str(cond_path))
    assert code == 0

    code, out = run_cli("condition", "show-levels", "--in", str(cond_path))
    assert code == 0
    lines = parse_lines(out)
    assert lines[1]["size"] == 16  # the 16-wide root split

    tau = make_name(p, lambda br: (br[0][0] % 4, 0), (8, 100))
    name_path = tmp_path / "name.json"
    serde.dump(serde.name_to_dict(tau), str(name_path))
    xi_path = tmp_path / "xi.json"
    serde.dump(serde.triple_to_dict(xi), str(xi_path))

    code, out = run_cli("extract", "--condition", str(cond_path),
                        "--name", str(name_path), "--xi", str(xi_path))
    assert code == 0
    lines = parse_lines(out)
    assert any(l.get("check") == "extract.verify" and l["status"] == "pass"
               for l in lines)


def test_game_subcommand(tmp_path, game_condition):
    cond_path = tmp_path / "cond.json"
    serde.dump(serde.condition_to_dict(game_condition), str(cond_path))
    code, out = run_cli("game", "play", "--in", str(cond_path), "--rounds", "4")
    assert code == 0
    lines = parse_lines(out)
    assert lines[0]["rounds_played"] == 1
    assert lines[0]["designated_splits"] == [{"nu": [0], "alpha": "a"}]


def test_main_callable_in_process(capsys):
    assert main(["covernum", "--f", "3", "--g", "2", "--exact"]) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["exact"] == 2


def test_malformed_integer_list_is_one_json_error_line():
    proc = subprocess.run([sys.executable, "-m", "slalomcover.cli", "covernum",
                           "--f", "3,x", "--g", "1,1"],
                          capture_output=True, text=True)
    assert proc.returncode == 2
    (line,) = parse_lines(proc.stdout)
    assert line["error"] == "bad input"
    assert proc.stderr == ""


def test_covernum_exact_out_of_budget_exits_one():
    # the counting bound 81 lies above the default budget of 64
    code, out = run_cli("covernum", "--f", "9,9", "--g", "1,1", "--exact")
    assert code == 1
    (line,) = parse_lines(out)
    assert line["exact"] is None and line["lower"] == 81


def test_covernum_bounds_obey_the_guard():
    code, out = run_cli("--guard", "100", "covernum", "--f", "600,600", "--g", "1,1")
    assert code == 1
    (line,) = parse_lines(out)
    assert line["error"] == "guard exceeded"


@pytest.mark.parametrize("argv", [
    ["--guard", "5", "covernum", "--f", "3,3", "--g", "2,2", "--exact"],
    ["covernum", "--f", "3,3", "--g", "2,2", "--exact", "--guard", "5"],
    ["--guard", "1", "reduce", "--system", "allfn", "--check-c"],
    ["reduce", "--system", "allfn", "--check-c", "--guard", "1"],
], ids=["covernum-before", "covernum-after", "reduce-before", "reduce-after"])
def test_guard_is_accepted_before_and_after_the_subcommand(capsys, argv):
    assert main(argv) == 1
    (line,) = parse_lines(capsys.readouterr().out)
    assert line["error"] == "guard exceeded"


def test_guard_after_the_subcommand_only_when_given(capsys):
    # the subcommand's copy of --guard must not reset the global value
    assert main(["--guard", "5", "covernum", "--f", "3,3", "--g", "2,2", "--exact"]) == 1
    assert main(["covernum", "--f", "3,3", "--g", "2,2", "--exact", "--guard", "9"]) == 0
    lines = parse_lines(capsys.readouterr().out)
    assert lines[0]["error"] == "guard exceeded"
    assert lines[1]["exact"] == 3


@pytest.mark.parametrize("argv", [
    ["--seed", "3", "demo"],
    ["game", "replay", "--in", "cond.json"],
    ["game", "play", "--in", "cond.json", "--accountant", "bookkeeping"],
    ["game", "play", "--in", "cond.json", "--spendthrift", "thinning"],
], ids=["global-seed", "game-action", "game-accountant", "game-spendthrift"])
def test_removed_flags_are_usage_errors(argv):
    with pytest.raises(SystemExit) as e:
        main(argv)
    assert e.value.code == 2


def test_reduce_without_system_or_lift_exits_two(capsys):
    assert main(["reduce"]) == 2
    (line,) = parse_lines(capsys.readouterr().out)
    assert line["error"] == "bad input"


HOSTILE_FILES = {
    "truncated": '{"coords": {"a": ',
    "missing-key": '{"depth": 2}',
    "wrong-type": "[1, 2]",
}


@pytest.mark.parametrize("content", HOSTILE_FILES.values(), ids=HOSTILE_FILES.keys())
def test_hostile_input_file_is_one_json_error_line(tmp_path, capsys, split_condition,
                                                    content):
    bad, good = str(tmp_path / "bad.json"), str(tmp_path / "cond.json")
    with open(bad, "w") as fh:
        fh.write(content)
    serde.dump(serde.condition_to_dict(split_condition), good)
    for argv in (["condition", "validate", "--in", bad],
                 ["game", "play", "--in", bad],
                 ["extract", "--condition", bad, "--name", bad, "--xi", bad],
                 ["extract", "--condition", good, "--name", bad, "--xi", bad],
                 ["reduce", "--lift", "halving", "--in", bad, "--f", "3", "--g", "2"]):
        assert main(argv) == 2, argv
        (line,) = parse_lines(capsys.readouterr().out)
        assert line["error"] == "bad input"
