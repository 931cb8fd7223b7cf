import importlib.util
import json
import pathlib

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "compare_outputs.py"
_spec = importlib.util.spec_from_file_location("compare_outputs", SCRIPT)
compare_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_outputs)

HEADER = "p,j_z,j_x,j_max,opt_theta,opt_phi,mutual_info,discord\n"
ROWS = [
    "0,0.278071905113,1,1,1.57079632679,0,1.27807190511,0.278071905113\n",
    "0.4,0.278071905113,0.278071905113,0.278071905113,0,0,1.2,0.9\n",
    "1,0.278071905113,0,0.278071905113,0,0,0.278071905113,0\n",
]


def _write(directory, name, command, stdout):
    directory.mkdir(exist_ok=True)
    text = f"$ einselect {command}\nexit 0\n--- stdout\n{stdout}--- stderr\n"
    (directory / name).write_text(text, encoding="utf-8")


def _trajectory(transition_p, records):
    keys = HEADER.strip().split(",")
    rows = [dict(zip(keys, map(float, row.strip().split(",")))) for row in records]
    return json.dumps({"regime": "decay-then-constant", "transition_p": transition_p,
                       "records": rows}, indent=2) + "\n"


def _pair(tmp_path, after_rows, after_transition, command="sweep --state 0.4,0.1,0.1,0.4"):
    before, after = tmp_path / "before", tmp_path / "after"
    _write(before, "00.txt", command, HEADER + "".join(ROWS))
    _write(after, "00.txt", command, HEADER + "".join(after_rows))
    _write(before, "01.txt", command + " --format json", _trajectory(0.4, ROWS))
    _write(after, "01.txt", command + " --format json", _trajectory(after_transition, after_rows))
    return str(before), str(after)


def test_identical_directories_pass(tmp_path):
    before, after = _pair(tmp_path, ROWS, 0.4)
    assert compare_outputs.main([before, after]) == 0


def test_changes_within_the_rules_pass(tmp_path, capsys):
    rows = list(ROWS)
    # j_max and discord move by 2e-13, the axis by 5e-8 rad, and at p = 1 the
    # axis flips to its antipode.
    rows[0] = "0,0.278071905113,1,1.0000000000002,1.57079637679,0,1.27807190511,0.278071905113\n"
    rows[2] = "1,0.278071905113,0,0.278071905113,3.14159265359,0,0.278071905113,0\n"
    before, after = _pair(tmp_path, rows, 0.4 + 5e-13)
    assert compare_outputs.main([before, after]) == 0
    out = capsys.readouterr().out
    assert "within 1e-12" in out and "rad apart" in out


def test_out_of_tolerance_values_are_caught(tmp_path, capsys):
    rows = list(ROWS)
    rows[0] = "0,0.278071905113,1,0.999999999,1.57079632679,0,1.27807190511,0.278071905113\n"
    rows[2] = "1,0.278071905114,0,0.278071905113,0,0,0.278071905113,0\n"
    before, after = _pair(tmp_path, rows, 0.4 + 5e-9)
    assert compare_outputs.main([before, after]) == 1
    out = capsys.readouterr().out
    assert "FAIL 00.txt 0.j_max: 1 -> 0.999999999" in out
    assert "FAIL 00.txt 2.j_z" in out
    assert "FAIL 01.txt transition_p" in out
    assert "5 difference(s) outside the rules" in out


def test_transition_tolerance_depends_on_the_input(tmp_path):
    before, after = _pair(tmp_path, ROWS, 0.4 + 5e-9, command="sweep --matrix-file m.mat")
    assert compare_outputs.main([before, after]) == 0


def test_axis_moves_need_a_listed_tie(tmp_path, capsys):
    rows = list(ROWS)
    rows[1] = "0.4,0.278071905113,0.278071905113,0.278071905113,0.7,0,1.2,0.9\n"
    before, after = _pair(tmp_path, rows, 0.4)
    assert compare_outputs.main([before, after]) == 1
    assert "FAIL 00.txt 1 axis [00:0.4]" in capsys.readouterr().out
    assert compare_outputs.main([before, after, "--tie", "00:0.4", "--tie", "01:0.4"]) == 0


def test_missing_files_fail(tmp_path):
    before, after = _pair(tmp_path, ROWS, 0.4)
    (tmp_path / "after" / "01.txt").unlink()
    assert compare_outputs.main([before, after]) == 1
