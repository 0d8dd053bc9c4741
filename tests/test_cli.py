"""End-to-end tests for the command line interface.

Every test drives ``frontcalc.cli.main`` directly with an argv list and
captures stdout, which keeps the tests fast while still exercising the
real argument parsing and exit code paths.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from frontcalc import catalog, cli
from frontcalc.cobordism import check_trace, trace_from_text, _pinch_sites
from frontcalc.diagrams import from_text, to_text
from frontcalc.moves import random_shuffle
from frontcalc.rulings import count_rulings
from frontcalc.satellites import builtin_pattern, satellite

from helpers import FRONTS


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_diagram(tmp_path, name, diagram):
    path = tmp_path / name
    path.write_text(to_text(diagram), encoding="utf-8")
    return str(path)


def test_invariants_catalog_plain(capsys):
    code, out, _ = run(capsys, "invariants", "catalog:trefoil")
    assert code == 0
    assert out.strip() == "tb=1 rot=0 components=1"


def test_invariants_tsv(capsys):
    code, out, _ = run(capsys, "--format", "tsv",
                       "invariants", "catalog:unknot")
    assert code == 0
    rows = dict(line.split("\t") for line in out.strip().splitlines())
    assert rows == {"tb": "-1", "rot": "0", "components": "1"}


def test_invariants_from_file(capsys, tmp_path):
    path = write_diagram(tmp_path, "u.front", catalog.get("unknot").diagram)
    code, out, _ = run(capsys, "invariants", path)
    assert code == 0
    assert "tb=-1" in out


def test_missing_file_is_parse_error(capsys, tmp_path):
    code, _, err = run(capsys, "invariants", str(tmp_path / "nope.front"))
    assert code == 2
    assert "error" in err


def test_bad_catalog_name_is_parse_error(capsys):
    code, _, err = run(capsys, "invariants", "catalog:nonesuch")
    assert code == 2
    assert "nonesuch" in err


def test_garbage_file_is_parse_error(capsys, tmp_path):
    path = tmp_path / "bad.front"
    path.write_text("this is not a diagram\n", encoding="utf-8")
    code, _, err = run(capsys, "invariants", str(path))
    assert code == 2
    assert "error" in err


def test_non_ascii_level_is_parse_error(capsys):
    # its word is "L² R1": a superscript two is no ASCII digit
    path = FRONTS / "bad_level.front"
    code, out, err = run(capsys, "invariants", str(path))
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "bad event token 'L²'" in lines[0] and "Traceback" not in err


def test_rulings_count(capsys):
    code, out, _ = run(capsys, "rulings", "catalog:trefoil")
    assert code == 0
    assert out.strip() == "count: 3"


def test_rulings_list(capsys):
    code, out, _ = run(capsys, "rulings", "--list", "catalog:trefoil")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "count: 3"
    assert len(lines) == 4


def test_rulings_list_empty_ruling_marker(capsys):
    code, out, _ = run(capsys, "rulings", "--list", "catalog:unknot")
    assert code == 0
    assert out.strip().splitlines() == ["-", "count: 1"]


def test_shuffle_is_seed_deterministic(capsys):
    code, out1, _ = run(capsys, "shuffle", "--steps", "40", "--seed", "7",
                        "catalog:trefoil")
    assert code == 0
    code, out2, _ = run(capsys, "shuffle", "--steps", "40", "--seed", "7",
                        "catalog:trefoil")
    assert code == 0
    assert out1 == out2
    code, out3, _ = run(capsys, "shuffle", "--steps", "40", "--seed", "8",
                        "catalog:trefoil")
    assert code == 0
    assert out1 != out3


def test_shuffle_env_seed(capsys, monkeypatch):
    monkeypatch.setenv("FRONTCALC_SEED", "7")
    code, out_env, _ = run(capsys, "shuffle", "--steps", "40",
                           "catalog:trefoil")
    assert code == 0
    code, out_flag, _ = run(capsys, "shuffle", "--steps", "40", "--seed", "7",
                            "catalog:trefoil")
    assert out_env == out_flag


def test_shuffle_preserves_invariants(capsys):
    code, out, _ = run(capsys, "shuffle", "--steps", "200", "--seed", "3",
                       "catalog:m9_46")
    assert code == 0
    d = from_text(out)
    assert (d.tb, d.rot) == (-1, 0)
    assert count_rulings(d) == 2


def test_pinch_site(capsys):
    d = catalog.get("trefoil").diagram
    index, level = next(iter(_pinch_sites(d)))
    code, out, _ = run(capsys, "pinch", "--site", f"{index}@{level}",
                       "catalog:trefoil")
    assert code == 0
    pinched = from_text(out)
    assert pinched.tb == d.tb - 1


def test_pinch_bad_site_text(capsys):
    code, _, err = run(capsys, "pinch", "--site", "fish",
                       "catalog:trefoil")
    assert code == 2
    assert "site" in err


def test_pinch_invalid_site_is_domain_error(capsys):
    code, _, err = run(capsys, "pinch", "--site", "999@1",
                       "catalog:trefoil")
    assert code == 1
    assert "error" in err


def test_search_filling_trefoil(capsys):
    code, out, _ = run(capsys, "search-filling", "catalog:trefoil")
    assert code == 0
    trace = trace_from_text(out)
    assert check_trace(trace)
    assert trace.chi == -catalog.get("trefoil").diagram.tb


def test_search_filling_stabilized_fails(capsys):
    code, out, _ = run(capsys, "search-filling", "catalog:stab_plus_unknot")
    assert code == 1
    assert "no decomposable filling" in out


def test_huge_pinch_bound_on_an_obstructed_front_ends(capsys):
    # the front has no normal ruling, so every deepening round would
    # search the same dead root again
    start = time.perf_counter()
    code, out, _ = run(capsys, "search-filling", "--max-pinches",
                       "100000000", "catalog:stab_plus_unknot")
    assert code == 1
    assert "no decomposable filling" in out
    assert time.perf_counter() - start < 10


def test_search_deeper_than_the_stack_gives_a_trace(capsys, tmp_path):
    # a budget of 1000 isotopy steps makes a path of about 1000 states
    code, out, err = run(capsys, "search-filling", "--budget", "1000",
                         "catalog:budget_demo")
    assert code == 0 and not err
    path = tmp_path / "deep.trace"
    path.write_text(out, encoding="utf-8")
    code, out, _ = run(capsys, "check-trace", str(path))
    assert code == 0
    assert "ok: true" in out


def test_ruling_fillable_unknot(capsys):
    code, out, _ = run(capsys, "ruling-fillable", "--ruling", "-",
                       "catalog:unknot")
    assert code == 0
    assert check_trace(trace_from_text(out))


def test_ruling_fillable_bad_ruling_text(capsys):
    code, _, err = run(capsys, "ruling-fillable", "--ruling", "a,b",
                       "catalog:unknot")
    assert code == 2
    assert "ruling" in err


def test_ruling_fillable_invalid_ruling(capsys):
    code, _, _ = run(capsys, "ruling-fillable", "--ruling", "0",
                     "catalog:unknot")
    assert code == 1


@pytest.mark.parametrize("command", ["ruling-fillable", "render"])
@pytest.mark.parametrize("ruling", ["2,3,4,999", "2,3,4,-1"])
def test_out_of_range_switch_index_is_domain_error(capsys, tmp_path,
                                                   command, ruling):
    argv = [command, "--ruling", ruling, "catalog:trefoil"]
    if command == "render":
        argv[1:1] = ["--svg", str(tmp_path / "out.svg")]
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "out of range 0..6" in err


def test_satellite_builtin(capsys):
    code, out, _ = run(capsys, "satellite", "--pattern", "identity:2",
                       "catalog:unknot")
    assert code == 0
    d = from_text(out)
    assert d.n_components == 2


def test_satellite_unknown_pattern(capsys):
    code, _, err = run(capsys, "satellite", "--pattern", "mystery",
                       "catalog:unknot")
    assert code == 2
    assert "mystery" in err


def test_check_trace_roundtrip(capsys, tmp_path):
    code, out, _ = run(capsys, "search-filling", "catalog:trefoil")
    assert code == 0
    path = tmp_path / "fill.trace"
    path.write_text(out, encoding="utf-8")
    code, out, _ = run(capsys, "check-trace", str(path))
    assert code == 0
    assert "ok: true" in out


def test_check_trace_tsv(capsys, tmp_path):
    code, out, _ = run(capsys, "search-filling", "catalog:unknot")
    path = tmp_path / "fill.trace"
    path.write_text(out, encoding="utf-8")
    code, out, _ = run(capsys, "--format", "tsv", "check-trace", str(path))
    assert code == 0
    rows = dict(line.split("\t") for line in out.strip().splitlines())
    assert rows["ok"] == "true"
    assert rows["chi"] == "1"


def test_render_diagram(capsys, tmp_path):
    svg = tmp_path / "out.svg"
    code, out, _ = run(capsys, "render", "--svg", str(svg),
                       "catalog:trefoil")
    assert code == 0
    text = svg.read_text(encoding="utf-8")
    assert text.startswith("<svg")
    assert "wrote" in out


def test_render_with_ruling(capsys, tmp_path):
    svg = tmp_path / "out.svg"
    code, _, _ = run(capsys, "render", "--svg", str(svg), "--ruling", "2",
                     "catalog:trefoil")
    assert code == 0
    assert 'r="4"' in svg.read_text(encoding="utf-8")


def test_render_trace(capsys, tmp_path):
    code, out, _ = run(capsys, "search-filling", "catalog:unknot")
    trace_path = tmp_path / "fill.trace"
    trace_path.write_text(out, encoding="utf-8")
    svg = tmp_path / "film.svg"
    code, _, _ = run(capsys, "render", "--svg", str(svg), str(trace_path))
    assert code == 0
    assert svg.read_text(encoding="utf-8").startswith("<svg")


def test_catalog_list(capsys):
    code, out, _ = run(capsys, "catalog", "list")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == len(catalog.names())
    assert any("name=m9_46" in line for line in lines)


def test_catalog_selftest(capsys):
    code, out, _ = run(capsys, "catalog", "selftest")
    assert code == 0
    assert "0 failures" in out


def test_trace_with_bad_birth_site_is_parse_error(capsys, tmp_path):
    code, out, _ = run(capsys, "search-filling", "catalog:unknot")
    assert code == 0
    path = tmp_path / "bad.trace"
    path.write_text(out.replace("birth 0@1", "birth x@1"), encoding="utf-8")
    assert "birth x@1" in path.read_text(encoding="utf-8")
    code, _, err = run(capsys, "check-trace", str(path))
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("command", ["check-trace", "render"])
def test_trace_line_with_trailing_tokens_is_parse_error(capsys, tmp_path,
                                                        command):
    code, out, _ = run(capsys, "search-filling", "catalog:unknot")
    assert code == 0
    path = tmp_path / "junk.trace"
    path.write_text(out.replace("birth 0@1", "birth 0@1 + junk"),
                    encoding="utf-8")
    svg = ["--svg", str(tmp_path / "junk.svg")] if command == "render" else []
    code, _, err = run(capsys, command, *svg, str(path))
    assert code == 2
    assert err.startswith("error: ") and "birth 0@1 + junk" in err


def test_satellite_bad_pattern_parameter_is_parse_error(capsys):
    code, _, err = run(capsys, "satellite", "--pattern", "half_twist:x",
                       "catalog:unknot")
    assert code == 2
    assert err.startswith("error: ") and "half_twist" in err


def test_trace_without_header_is_parse_error(capsys, tmp_path):
    code, out, _ = run(capsys, "search-filling", "catalog:unknot")
    assert code == 0
    path = tmp_path / "headless.trace"
    path.write_text(out.split("\n", 1)[1], encoding="utf-8")
    code, _, err = run(capsys, "check-trace", str(path))
    assert code == 2
    assert err.startswith("error: ") and "trace v1" in err


def test_rulings_list_on_long_word(capsys, tmp_path):
    long_word = random_shuffle(catalog.get("m9_46").diagram, 2000, seed=2)
    assert len(long_word.events) == 1270
    path = write_diagram(tmp_path, "long.front", long_word)
    code, out, err = run(capsys, "rulings", "--list", path)
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[-1] == "count: 2" and len(lines) == 3


def _orient_without_colon(tmp_path):
    path = tmp_path / "orient.trace"
    path.write_text("trace v1\nbottom: L1 R1\norientation\n"
                    "top: L1 R1\norient: +\n", encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("argv, env", [
    (lambda p: ["check-trace", _orient_without_colon(p)], None),
    (lambda p: ["render", "--svg", str(p / "out.svg"),
                _orient_without_colon(p)], None),
    (lambda p: ["render", "--svg", str(p / "no" / "such" / "x.svg"),
                "catalog:trefoil"], None),
    (lambda p: ["shuffle", "catalog:unknot"], "abc"),
], ids=["check-trace-orient", "render-orient", "render-unwritable-svg",
        "shuffle-bad-env-seed"])
def test_bad_input_is_one_error_line(capsys, monkeypatch, tmp_path,
                                     argv, env):
    if env is not None:
        monkeypatch.setenv("FRONTCALC_SEED", env)
    code, _, err = run(capsys, *argv(tmp_path))
    assert code == 2
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "Traceback" not in err


def test_check_trace_names_the_failing_move_and_its_word(capsys, tmp_path):
    path = tmp_path / "bad.trace"
    path.write_text("trace v1\nbottom: L1 R1\norient: +\nsurgery 0@1\n"
                    "top: L1 R1\norient: +\n", encoding="utf-8")
    code, out, _ = run(capsys, "check-trace", str(path))
    assert code == 1
    assert "detail: move 0 (surgery 0@1) failed on L1 R1: " in out
    path.write_text("trace v1\nbottom: \norient: \nbirth 0@1 x\n"
                    "top: L1 R1\norient: +\n", encoding="utf-8")
    code, out, _ = run(capsys, "check-trace", str(path))
    assert code == 1
    assert ("detail: move 0 (birth 0@1 x) failed on the empty word: "
            "bad orientation symbol 'x'") in out


def test_check_trace_details_a_refused_rewrite(capsys, tmp_path):
    path = tmp_path / "bad.trace"
    path.write_text("trace v1\nbottom: L1 R1\norient: +\n"
                    "isotopy r2_push 0 0 down\n"
                    "top: L1 R1\norient: +\n", encoding="utf-8")
    code, out, _ = run(capsys, "check-trace", str(path))
    assert code == 1
    assert ("detail: move 0 (isotopy r2_push 0 0 down) failed on L1 R1: "
            "rewrite r2_push:0:down does not apply: cusp cannot pass") in out


# the tops are what an unchecked variant used to give (the first two
# traces passed with "ok: true")
@pytest.mark.parametrize("bottom, line, top, orient", [
    ("L1 R1", "isotopy r1_insert 1 1 sideways", "L1 L1 X2 R1 R1", "+"),
    ("L1 L1 R3 R1", "isotopy commute 0 0 up", "L1 L3 R3 R1", "+ +"),
    ("L1 L1 X2 R1 R1", "isotopy r2_push 1 0 sideways", "L1 L1 X2 R1 R1",
     "+"),
], ids=["r1_insert", "commute", "r2_push"])
def test_check_trace_rejects_unknown_variants(capsys, tmp_path, bottom,
                                              line, top, orient):
    path = tmp_path / "variant.trace"
    path.write_text(f"trace v1\nbottom: {bottom}\norient: {orient}\n"
                    f"{line}\ntop: {top}\norient: {orient}\n",
                    encoding="utf-8")
    code, out, _ = run(capsys, "check-trace", str(path))
    assert code == 1
    kind, _, _, variant = line.split()[1:]
    assert (f"detail: move 0 ({line}) failed on {bottom}: rewrite "
            f"{kind}:") in out
    assert f"does not apply: unknown variant '{variant}' for {kind}" in out


def test_search_filling_lines_end_without_blanks(capsys):
    code, out, _ = run(capsys, "search-filling", "--budget", "2",
                       "catalog:m9_46")
    assert code == 0
    moves = out.splitlines()[3:-2]
    assert any(m.startswith("isotopy commute") for m in moves)
    assert all(m == m.rstrip() for m in moves)


def test_stripped_trace_is_read_back(capsys, tmp_path):
    # an editor that strips trailing blanks turns "bottom: " into "bottom:"
    code, out, _ = run(capsys, "search-filling", "catalog:unknot")
    assert code == 0 and "bottom: \n" in out
    path = tmp_path / "stripped.trace"
    path.write_text("".join(line.rstrip() + "\n"
                            for line in out.splitlines()), encoding="utf-8")
    code, out, _ = run(capsys, "check-trace", str(path))
    assert code == 0 and "ok: true" in out
    svg = tmp_path / "stripped.svg"
    code, out, _ = run(capsys, "render", "--svg", str(svg), str(path))
    assert code == 0 and svg.read_text(encoding="utf-8").startswith("<svg")


@pytest.mark.parametrize("argv", [
    ["search-filling", "--max-pinches", "-1", "catalog:unknot"],
    ["search-filling", "--budget", "-3", "catalog:unknot"],
    ["ruling-fillable", "--ruling", "-", "--max-pinches", "-1",
     "catalog:unknot"],
    ["shuffle", "--steps", "-5", "catalog:unknot"],
    ["shuffle", "--steps", "five", "catalog:unknot"],
], ids=["max-pinches", "budget", "ruling-max-pinches", "steps", "steps-text"])
def test_negative_counts_are_parse_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "wanted a non-negative integer" in err and "Traceback" not in err


def test_one_parser_serves_every_call(capsys):
    """The parser is built once per process; a call that fails to parse
    leaves nothing behind for the next one."""
    calls = [["--format", "tsv", "rulings", "--list", "catalog:trefoil"],
             ["search-filling", "--budget", "-3", "catalog:unknot"],
             ["rulings", "catalog:trefoil"]]

    def outputs(fresh):
        results = []
        for argv in calls:
            if fresh:
                cli.build_parser.cache_clear()
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            results.append((code, *capsys.readouterr()))
        return results

    separate = outputs(fresh=True)
    assert [code for code, _out, _err in separate] == [0, 2, 0]
    assert outputs(fresh=False) == separate
    assert cli.build_parser() is cli.build_parser()


def test_closed_reader_gives_no_traceback(tmp_path):
    # The trefoil's 4-copy lists 250 kB of rulings, more than a pipe
    # holds, so the command is still writing when the reader goes.
    d = satellite(catalog.get("trefoil").diagram,
                  builtin_pattern("identity", "4")).diagram
    path = write_diagram(tmp_path, "trefoil_4copy.front", d)
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.Popen(
        [sys.executable, "-m", "frontcalc.cli", "rulings", "--list", path],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert first.strip()
    assert b"Traceback" not in err
    assert err == b""
