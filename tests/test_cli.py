"""End-to-end tests for the command line interface.

Every test drives ``frontcalc.cli.main`` directly with an argv list and
captures stdout, which keeps the tests fast while still exercising the
real argument parsing and exit code paths.
"""

import hashlib
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

from frontcalc import catalog, cli, diagrams
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


def test_shuffle_too_large_to_scan_is_one_error_line(capsys, monkeypatch):
    # the walk is refused once its word passes the scan limit, rather
    # than written out for ``invariants`` to refuse
    monkeypatch.setattr(diagrams, "MAX_SCAN_CELLS", 1000)
    code, out, err = run(capsys, "shuffle", "--steps", "2000", "--seed",
                         "1", "catalog:unknot")
    assert (code, out) == (1, "")
    assert err.startswith("error: a word of ")
    assert err.endswith("over the limit of 1000\n")
    assert err.count("\n") == 1


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


# sha256 of the output bytes, written before the single-ruling walk and
# the enumeration's emission were rewritten in place
TREFOIL_3COPY_RULINGS_SHA256 = (
    "39e5a9a3717c5f99865a9451330e3b518f74f24aed83a432476fb67df62516ee")
LONG_WORD_RULINGS_SHA256 = (
    "84af6664aa832243b602c7914e6b4eb3e61ef2d9c6f79dd210a487dc0d5c68c1")
LONG_WORD_RULING_SVG_SHA256 = (
    "1bb0344ed9fbb7f702c4ee41d4dd55ad563e68d9c71a146f1d139258f6e01c8c")


def test_ruling_outputs_are_pinned(capsys, tmp_path):
    def write(name, *argv):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        path = tmp_path / name
        path.write_text(out, encoding="utf-8")
        return str(path)

    def digest(data):
        return hashlib.sha256(data).hexdigest()

    copy = write("trefoil_3copy.front", "satellite", "--pattern",
                 "identity:3", "catalog:trefoil")
    code, out, _ = run(capsys, "rulings", "--list", copy)
    assert code == 0
    assert digest(out.encode()) == TREFOIL_3COPY_RULINGS_SHA256
    long_word = write("m9_46_long.front", "shuffle", "--steps", "2000",
                      "--seed", "2", "catalog:m9_46")
    code, out, _ = run(capsys, "rulings", "--list", long_word)
    assert code == 0
    assert digest(out.encode()) == LONG_WORD_RULINGS_SHA256
    first = ",".join(out.splitlines()[0].split())
    svg = tmp_path / "long.svg"
    code, _, _ = run(capsys, "render", "--svg", str(svg), "--ruling", first,
                     long_word)
    assert code == 0
    assert digest(svg.read_bytes()) == LONG_WORD_RULING_SVG_SHA256


# sha256 of the satellite's frontdiagram text, its orient: line included,
# written before orientation inheritance read the segment walk
SATELLITE_TEXT_SHA256 = {
    ("whitehead", "catalog:m9_46"):
        "670a75abaef415b94124f1e863241f1e36b8c451304356e3e9a8852cab30b761",
    ("half_twist:3", "catalog:stab_plus_trefoil"):
        "778b30d11fffc391aa324a117b092a3ed7db25f0b6c4c0a1a868c039baa3bba6",
    ("identity:2", "catalog:trefoil"):
        "e5dbe70970a08e61cc7ed3bcb3a2ccb48f692baf25a13ab812045356303774f6",
}


@pytest.mark.parametrize("pattern, companion", sorted(SATELLITE_TEXT_SHA256))
def test_satellite_text_is_pinned(capsys, pattern, companion):
    code, out, _ = run(capsys, "satellite", "--pattern", pattern, companion)
    assert code == 0
    assert (hashlib.sha256(out.encode()).hexdigest()
            == SATELLITE_TEXT_SHA256[pattern, companion])


def test_render_trace(capsys, tmp_path):
    code, out, _ = run(capsys, "search-filling", "catalog:unknot")
    trace_path = tmp_path / "fill.trace"
    trace_path.write_text(out, encoding="utf-8")
    svg = tmp_path / "film.svg"
    code, _, _ = run(capsys, "render", "--svg", str(svg), str(trace_path))
    assert code == 0
    assert svg.read_text(encoding="utf-8").startswith("<svg")


def test_render_ruling_on_trace_is_parse_error(capsys, tmp_path):
    # a ruling overlay belongs to one front: on a trace it is refused,
    # not dropped
    code, out, _ = run(capsys, "search-filling", "catalog:trefoil")
    assert code == 0
    trace_path = tmp_path / "fill.trace"
    trace_path.write_text(out, encoding="utf-8")
    svg = tmp_path / "film.svg"
    code, out, err = run(capsys, "render", "--svg", str(svg), "--ruling",
                         "1,2", str(trace_path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "--ruling applies to a front" in err
    assert not svg.exists()


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


@pytest.mark.parametrize("spec", ["whitehead:5", "whitehead:xyz"])
def test_whitehead_parameter_is_parse_error(capsys, spec):
    code, out, err = run(capsys, "satellite", "--pattern", spec,
                         "catalog:unknot")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "whitehead" in err


def _cap_address_space():
    limit = 1 << 30
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


@pytest.mark.parametrize("spec", ["half_twist:1000000000",
                                  "identity:100000"])
def test_amplifying_pattern_spec_is_one_error_line(spec):
    # a billion-crossing pattern, or a 100,000-copy, would need far more
    # than the child's 1 GiB of address space
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "frontcalc.cli", "satellite", "--pattern",
         spec, "catalog:unknot"], capture_output=True, env=env, timeout=60,
        preexec_fn=_cap_address_space)
    assert proc.returncode != 0 and proc.stdout == b""
    assert b"Traceback" not in proc.stderr
    assert proc.stderr.startswith(b"error: ")
    assert proc.stderr.count(b"\n") == 1


def test_wide_front_file_is_one_error_line(tmp_path):
    # 20,000 nested eyes: their scan would hold 800 million segment ids,
    # far more than the child's 1 GiB of address space
    path = tmp_path / "wide.front"
    path.write_text("frontdiagram v1\n" + " ".join(["L1"] * 20000
                                                  + ["R1"] * 20000)
                    + "\norient: " + " ".join("+" * 20000) + "\n",
                    encoding="utf-8")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "frontcalc.cli", "invariants", str(path)],
        capture_output=True, env=env, timeout=60,
        preexec_fn=_cap_address_space)
    assert proc.returncode == 2 and proc.stdout == b""
    assert b"Traceback" not in proc.stderr
    assert proc.stderr.startswith(b"error: ")
    assert b"40000 events" in proc.stderr
    assert proc.stderr.count(b"\n") == 1


def test_growing_filmstrip_is_one_error_line(tmp_path):
    # 1,500 births, each inside the last eye but one: the trace is 26 KB,
    # but its stages hold about 6.8 million strand points, so the replay
    # is refused once they pass MAX_SCAN_CELLS
    words = ["L1"] + ["L1", "R1"] * 1499 + ["R1"]
    path = tmp_path / "births.trace"
    path.write_text("\n".join(["trace v1", "bottom:", "orient:", "birth 0@1"]
                              + ["birth 1@1"] * 1499
                              + ["top: " + " ".join(words),
                                 "orient: " + " ".join("+" * 1500)]) + "\n",
                    encoding="utf-8")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "frontcalc.cli", "render", "--svg",
         str(tmp_path / "births.svg"), str(path)],
        capture_output=True, env=env, timeout=60,
        preexec_fn=_cap_address_space)
    assert proc.returncode == 1 and proc.stdout == b""
    assert b"Traceback" not in proc.stderr
    assert proc.stderr.startswith(b"error: replaying a trace up to stage ")
    assert proc.stderr.count(b"\n") == 1
    assert not (tmp_path / "births.svg").exists()


# sha256 of `rulings --list` on the m9_46 3-copy, the widest front the
# package rules, written before the ruling DP keyed pairings by strand slot
M9_46_3COPY_RULINGS_SHA256 = (
    "d0b2ef81b17c141bda6241baab431ea31e30c4d089e8dd9412186b661447bf74")


def test_widest_satellite_rulings_are_pinned(capsys, tmp_path):
    # each command runs in a child with 1 GiB of address space and a
    # minute of wall time
    code, out, _ = run(capsys, "satellite", "--pattern", "identity:3",
                       "catalog:m9_46")
    assert code == 0
    path = tmp_path / "m9_46_3copy.front"
    path.write_text(out, encoding="utf-8")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)

    def rulings(*flags):
        proc = subprocess.run(
            [sys.executable, "-m", "frontcalc.cli", "rulings", *flags,
             str(path)], capture_output=True, env=env, timeout=60,
            preexec_fn=_cap_address_space)
        assert proc.returncode == 0 and proc.stderr == b""
        return proc.stdout

    assert rulings() == b"count: 170\n"
    listed = rulings("--list")
    lines = listed.decode().splitlines()
    assert lines[-1] == "count: 170"
    assert len(set(lines[:-1])) == len(lines) - 1 == 170
    assert hashlib.sha256(listed).hexdigest() == M9_46_3COPY_RULINGS_SHA256


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
    # int() reads these as numbers; a seed is ASCII digits only
    (lambda p: ["shuffle", "catalog:unknot"], "١"),
    (lambda p: ["shuffle", "catalog:unknot"], "1_0"),
    (lambda p: ["shuffle", "catalog:unknot"], "-1"),
], ids=["check-trace-orient", "render-orient", "render-unwritable-svg",
        "shuffle-bad-env-seed", "shuffle-env-seed-arabic-indic",
        "shuffle-env-seed-underscore", "shuffle-env-seed-negative"])
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
    # int() reads these as numbers; a count is ASCII digits only
    ["shuffle", "--steps", "١٠", "catalog:unknot"],
    ["search-filling", "--max-pinches", "1_0", "catalog:unknot"],
    ["search-filling", "--budget", " 3", "catalog:unknot"],
    ["ruling-fillable", "--ruling", "-", "--max-pinches", "３",
     "catalog:unknot"],
    ["shuffle", "--seed", "١", "catalog:unknot"],
    ["shuffle", "--seed", "1_0", "catalog:unknot"],
    ["shuffle", "--seed", "-1", "catalog:unknot"],
], ids=["max-pinches", "budget", "ruling-max-pinches", "steps", "steps-text",
        "steps-arabic-indic", "max-pinches-underscore", "budget-blank",
        "ruling-max-pinches-fullwidth", "seed-arabic-indic",
        "seed-underscore", "seed-negative"])
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


# int() reads every field below as a number; integers from outside the
# program are ASCII digits only, and anything else is a parse error
@pytest.mark.parametrize("command", ["check-trace", "render"])
def test_non_ascii_digit_trace_is_parse_error(capsys, tmp_path, command):
    svg = ["--svg", str(tmp_path / "out.svg")] if command == "render" else []
    code, out, err = run(capsys, command, *svg,
                         str(FRONTS / "non_ascii_digit.trace"))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "bad move line 'birth ٠@١'" in err


@pytest.mark.parametrize("line", [
    "birth 0@1_0", "pinch -1@1", "surgery 0@+1", "death ١",
    "isotopy commute ０ 0",
])
def test_trace_move_fields_are_ascii_decimals(capsys, tmp_path, line):
    path = tmp_path / "field.trace"
    path.write_text(f"trace v1\nbottom: L1 R1\norient: +\n{line}\n"
                    f"top: L1 R1\norient: +\n", encoding="utf-8")
    code, out, err = run(capsys, "check-trace", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"bad move line {line!r}" in err


@pytest.mark.parametrize("argv", [
    ["pinch", "--site", "٠@١", "catalog:unknot"],
    ["pinch", "--site", "0@ 1", "catalog:unknot"],
    ["ruling-fillable", "--ruling", "١", "catalog:trefoil"],
    ["ruling-fillable", "--ruling", "2,3,+4", "catalog:trefoil"],
    ["satellite", "--pattern", "identity:٢", "catalog:unknot"],
], ids=["site-arabic-indic", "site-blank", "ruling-arabic-indic",
        "ruling-plus", "pattern-arabic-indic"])
def test_cli_fields_are_ascii_decimals(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1

