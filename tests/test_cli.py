import argparse
import json
import os
import resource
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from raag.cli import build_parser, main

GROUP = """\
gens a1 a2 a3 a4
commute a1 a4
commute a2 a3
commute a2 a4
"""

ROOT = Path(__file__).resolve().parent.parent

FREE_GROUP = "gens a1 a2\n"

TRAP_COMPLEX = """\
vertices x1 x2
edge e1 x1 x1 a1
edge e2 x1 x2 a2
edge e3 x2 x2 a1
"""


@pytest.fixture
def group_file(tmp_path):
    p = tmp_path / "example.group"
    p.write_text(GROUP)
    return str(p)


@pytest.fixture
def free_group_file(tmp_path):
    p = tmp_path / "free.group"
    p.write_text(FREE_GROUP)
    return str(p)


@pytest.fixture
def complex_file(tmp_path):
    p = tmp_path / "trap.complex"
    p.write_text(TRAP_COMPLEX)
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_normal_form(group_file, capsys):
    code, out, _ = run(capsys, "normal-form", "-g", group_file, "--no-timing",
                       "-w", "a2^-2 a4^-1 a3 a2 a4 a1 a2 a1^-1 a2^2 a4^-1")
    assert code == 0
    assert out.strip() == "a4^-1 a3 a2^-1 a1 a2 a1^-1 a2^2"


def test_normal_form_json(group_file, capsys):
    code, out, _ = run(capsys, "normal-form", "-g", group_file, "--json",
                       "--no-timing", "-w", "a1 a4")
    assert code == 0
    assert json.loads(out) == {"normal_form": "a4 a1", "length": 2}


def test_timing_included_by_default(group_file, capsys):
    code, out, _ = run(capsys, "normal-form", "-g", group_file, "-w", "a1")
    assert code == 0
    assert "elapsed" in out
    code, out, _ = run(capsys, "normal-form", "-g", group_file, "--json", "-w", "a1")
    elapsed = json.loads(out)["elapsed_s"]
    assert code == 0 and isinstance(elapsed, float) and elapsed >= 0


def test_word_problem(group_file, capsys):
    code, out, _ = run(capsys, "word-problem", "-g", group_file,
                       "--no-timing", "-w", "a1 a4 a1^-1 a4^-1")
    assert code == 0 and out.startswith("YES")
    code, out, _ = run(capsys, "word-problem", "-g", group_file,
                       "--no-timing", "-w", "a1 a2 a1^-1 a2^-1")
    assert code == 0 and out.startswith("NO")


def test_conjugate_yes_and_no(group_file, capsys):
    code, out, _ = run(capsys, "conjugate", "-g", group_file, "--no-timing",
                       "-w", "a1 a2", "-v", "a2 a1")
    assert code == 0 and out.strip() == "YES"
    code, out, _ = run(capsys, "conjugate", "-g", group_file, "--no-timing",
                       "-w", "a1", "-v", "a2")
    assert code == 0 and out.strip() == "NO"


def test_conjugate_factors_each_word_once(group_file, capsys, monkeypatch):
    import raag.cli
    import raag.conjugacy
    real = raag.conjugacy.cyclic_normal_factors
    calls = []

    def counting(g, w):
        calls.append(w)
        return real(g, w)

    monkeypatch.setattr(raag.cli, "cyclic_normal_factors", counting)
    monkeypatch.setattr(raag.conjugacy, "cyclic_normal_factors", counting)
    code, out, _ = run(capsys, "conjugate", "-g", group_file, "--json",
                       "--no-timing", "-w", "a1 a2", "-v", "a2 a1")
    assert code == 0 and json.loads(out)["conjugate"] is True
    assert len(calls) == 2


def test_bad_second_word_fails_before_the_first_is_factored(group_file, capsys, monkeypatch):
    """``main`` parses both words before ``conjugate`` decides, so a bad
    ``-v`` exits 2 with nothing factored."""
    import raag.cli
    calls = []
    monkeypatch.setattr(raag.cli, "cyclic_normal_factors", lambda g, w: calls.append(w))
    code, out, err = run(capsys, "conjugate", "-g", group_file, "--no-timing",
                         "-w", "a1 a2", "-v", "a1 zz")
    assert (code, out, calls) == (2, "", [])
    assert err.startswith("error: ") and "'zz'" in err


def test_text_output_builds_no_json_report(group_file, capsys, monkeypatch):
    """Without --json, conjugate and centralizer print their text and
    format no factor report for a payload that is never printed."""
    import raag.cli

    def unwanted(g, factors):
        raise AssertionError("JSON report built for text output")

    monkeypatch.setattr(raag.cli, "_factor_report", unwanted)
    code, out, _ = run(capsys, "conjugate", "-g", group_file, "--no-timing",
                       "-w", "a1 a2", "-v", "a2 a1")
    assert (code, out) == (0, "YES\n")
    code, out, _ = run(capsys, "centralizer", "-g", group_file, "--no-timing",
                       "-w", "a1 a2 a1 a2")
    assert code == 0 and "root: a1 a2  (power 2)" in out


def test_cyclic_normal_form(group_file, capsys):
    code, out, _ = run(capsys, "cyclic-normal-form", "-g", group_file,
                       "--json", "--no-timing", "-w", "a1 a4 a1")
    assert code == 0
    payload = json.loads(out)
    assert payload["factors"] == ["a1^2", "a4"]
    assert payload["components"] == [["a1"], ["a4"]]


def test_centralizer(group_file, capsys):
    code, out, _ = run(capsys, "centralizer", "-g", group_file, "--json",
                       "--no-timing", "-w", "a1 a2 a1 a2")
    assert code == 0
    payload = json.loads(out)
    assert payload["roots"] == [{"z": "a1 a2", "r": 2}]
    assert payload["link_gens"] == ["a4"]


def test_validate_complex(free_group_file, complex_file, capsys):
    code, out, _ = run(capsys, "validate-complex", "-g", free_group_file,
                       "-x", complex_file, "--no-timing")
    assert code == 0
    assert out.startswith("valid")


def test_validate_complex_json_reports_vertices_and_squares(tmp_path, capsys):
    group = tmp_path / "commuting.group"
    group.write_text("gens a1 a2\ncommute a1 a2\n")
    cx = tmp_path / "repeated.complex"
    cx.write_text("vertices x1 x2\nedge e1 x1 x1 a1\nedge e2 x1 x1 a2\n"
                  "square e1 e2 e1 e2\nedge e1 x2 x2 a1\n")
    code, out, _ = run(capsys, "validate-complex", "-g", str(group), "-x", str(cx),
                       "--json", "--no-timing")
    assert code == 0
    assert json.loads(out) == {
        "ok": False, "determinism_ok": True, "labels_ok": True, "vertices_ok": True,
        "squares_ok": False, "convexity_checked": True, "convexity_ok": None,
        "problems": ["repeated edge id 'e1'"]}


def test_groupoid_conjugate(free_group_file, complex_file, capsys):
    code, out, _ = run(capsys, "groupoid-conjugate", "-g", free_group_file,
                       "-x", complex_file, "--no-timing",
                       "--loop1", "x1: a1", "--loop2", "x1: a2 a1 a2^-1")
    assert code == 0 and out.strip() == "NO"
    code, out, _ = run(capsys, "groupoid-conjugate", "-g", free_group_file,
                       "-x", complex_file, "--no-timing",
                       "--loop1", "x2: a1", "--loop2", "x1: a2 a1 a2^-1")
    assert code == 0 and out.strip() == "YES"


def test_oracle_subcommands(group_file, capsys):
    code, out, _ = run(capsys, "oracle-equal", "-g", group_file, "--no-timing",
                       "-w", "a1 a4", "-v", "a4 a1")
    assert code == 0 and out.strip() == "YES"
    code, out, _ = run(capsys, "oracle-conjugate", "-g", group_file,
                       "--no-timing", "-w", "a1 a2", "-v", "a2 a1")
    assert code == 0 and out.strip() == "YES"


def test_bad_word_exits_2(group_file, capsys):
    code, _, err = run(capsys, "normal-form", "-g", group_file,
                       "--no-timing", "-w", "a9")
    assert code == 2
    assert "a9" in err


def test_missing_group_file_exits_2(capsys, tmp_path):
    code, _, err = run(capsys, "normal-form", "-g", str(tmp_path / "nope"),
                       "--no-timing", "-w", "a1")
    assert code == 2


def test_bad_presentation_exits_2(capsys, tmp_path):
    p = tmp_path / "bad.group"
    p.write_text("gens a1\ncommute a1 a7\n")
    code, _, err = run(capsys, "word-problem", "-g", str(p),
                       "--no-timing", "-w", "a1")
    assert code == 2
    assert "a7" in err


def test_unspellable_generator_name_exits_2(capsys, tmp_path):
    p = tmp_path / "bad.group"
    p.write_text("gens a b^c\n")
    code, out, err = run(capsys, "normal-form", "-g", str(p), "--no-timing", "-w", "a")
    assert (code, out) == (2, "")
    assert "bad.group" in err and "'b^c'" in err


def test_non_utf8_group_file_exits_2(capsys, tmp_path):
    p = tmp_path / "bad.group"
    p.write_bytes(b"gens a1 a2\xff\n")
    code, _, err = run(capsys, "word-problem", "-g", str(p), "--no-timing", "-w", "a1")
    assert code == 2
    assert "bad.group" in err and "utf-8" in err


def test_non_utf8_complex_file_exits_2(free_group_file, capsys, tmp_path):
    p = tmp_path / "bad.complex"
    p.write_bytes(b"vertices x1\xff\n")
    for argv in (["validate-complex"],
                 ["groupoid-conjugate", "--loop1", "x1: a1", "--loop2", "x1: a1"]):
        code, _, err = run(capsys, *argv, "-g", free_group_file, "-x", str(p),
                           "--no-timing")
        assert code == 2
        assert "bad.complex" in err and "utf-8" in err


def readme_cli_lines() -> list[str]:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text[text.index("\n## CLI\n"):text.index("\n## File formats\n")]
    return [line for line in section.splitlines() if line.startswith("raag ")]


def test_readme_runs_every_subcommand():
    """``test_readme_lines_print_their_answers`` runs each ``raag`` line
    of the README's CLI section, so each subcommand must have one."""
    named = {line.split()[1] for line in readme_cli_lines()}
    sub, = (a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert named == set(sub.choices)
    assert len(named) == 9


def test_readme_lines_print_their_answers(capsys, monkeypatch):
    """Each README CLI line completes; one that ends in a ``# YES`` or
    ``# NO`` comment prints that answer first, and with ``--json`` one
    object whose only top-level boolean is that answer."""
    monkeypatch.chdir(ROOT)
    answered = 0
    for line in readme_cli_lines():
        command, _, comment = line.partition("#")
        argv = shlex.split(command)[1:]
        code, out, err = run(capsys, *argv, "--no-timing")
        assert (code, err) == (0, ""), line
        expected = comment.split()[:1]
        if expected in (["YES"], ["NO"]):
            assert out.split()[:1] == expected, line
            code, out, err = run(capsys, *argv, "--json", "--no-timing")
            assert (code, err) == (0, ""), line
            answer = json.loads(out)
            assert isinstance(answer, dict), line
            bools = [v for v in answer.values() if isinstance(v, bool)]
            assert bools == [expected == ["YES"]], line
            answered += 1
    assert answered == 4


def test_non_loop_exits_2(free_group_file, complex_file, capsys):
    code, _, err = run(capsys, "groupoid-conjugate", "-g", free_group_file,
                       "-x", complex_file, "--no-timing",
                       "--loop1", "x1: a2", "--loop2", "x1: a1")
    assert code == 2
    assert "loop" in err


COLD_IMPORT = """
import json, sys
before = set(sys.modules)
import raag.cli
loaded = set(sys.modules) - before
code = raag.cli.main(sys.argv[1:])
print(json.dumps([sorted(loaded), sorted(set(sys.modules) - before), code]))
"""


def test_cli_import_loads_only_the_word_deciders():
    """A process loads the loop, centralizer and oracle modules, and the
    heavy standard modules, only for the subcommands that use them."""
    argv = ["groupoid-conjugate", "-g", "examples/free.group", "-x", "examples/trap.complex",
            "--loop1", "x1: a1", "--loop2", "x2: a2^-1 a1 a2", "--json", "--no-timing"]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-S", "-c", COLD_IMPORT, *argv], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    out, result = proc.stdout.splitlines()
    assert json.loads(out) == {"freely_homotopic": True}
    on_import, after_main, code = json.loads(result)
    assert code == 0
    assert {"raag.core", "raag.piling", "raag.conjugacy"} <= set(on_import)
    unwanted = {"raag.cubecomplex", "raag.centralizer", "raag.oracle", "dataclasses",
                "inspect", "statistics", "random"}
    assert sorted(unwanted.intersection(on_import)) == []
    assert "raag.cubecomplex" in after_main


def limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def raag_process(argv, script=None):
    """``raag argv`` in a process of its own whose address space is capped
    at 1 GiB, so that an input that expands fails there rather than
    exhausting the host."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cmd = ["-c", script] if script else ["-m", "raag.cli"]
    return subprocess.run([sys.executable, *cmd, *argv, "--no-timing"], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60, preexec_fn=limit_memory)


FREE = "examples/free.group"
EXAMPLE = "examples/example.group"
TRAP = "examples/trap.complex"
LOOPS = ["--loop1", "x1: a1", "--loop2", "x1: a1"]

# case -> (argv, a piece of the message); "{name}" is a file of hostile_files
HOSTILE = {
    "group_missing": (["word-problem", "-g", "{missing}", "-w", "a1"], "No such file"),
    "group_directory": (["word-problem", "-g", "{directory}", "-w", "a1"], "directory"),
    "group_not_utf8": (["word-problem", "-g", "{not_utf8}", "-w", "a1"], "utf-8"),
    "complex_missing": (["validate-complex", "-g", FREE, "-x", "{missing}"], "No such file"),
    "complex_directory": (["groupoid-conjugate", "-g", FREE, "-x", "{directory}", *LOOPS],
                          "directory"),
    "complex_not_utf8": (["validate-complex", "-g", FREE, "-x", "{not_utf8}"], "utf-8"),
    "bad_presentation": (["word-problem", "-g", "{bad_group}", "-w", "a1"], "'a7'"),
    "unknown_generator": (["normal-form", "-g", FREE, "-w", "a1 a9"], "'a9'"),
    "malformed_exponent": (["normal-form", "-g", FREE, "-w", "a1^2x"], "'a1^2x'"),
    "exponent_of_5000_digits": (["normal-form", "-g", FREE, "-w", "a1^" + "9" * 5000],
                                "more than 10 digits"),
    "exponent_bomb": (["word-problem", "-g", FREE, "-w", "a1^10000000000"],
                      "more than 10 digits"),
    "word_past_the_piling": (["conjugate", "-g", FREE, "-w", "a1", "-v", "a1^2147483647 a1"],
                             "word of 2147483648 letters"),
    "unknown_vertex": (["groupoid-conjugate", "-g", FREE, "-x", TRAP,
                        "--loop1", "x9: a1", "--loop2", "x1: a1"], "'x9'"),
    "non_loop": (["groupoid-conjugate", "-g", FREE, "-x", TRAP,
                  "--loop1", "x1: a1", "--loop2", "x1: a2"], "not a loop"),
    "invalid_complex": (["groupoid-conjugate", "-g", FREE, "-x", "{nondeterministic}", *LOOPS],
                        "complex failed validation"),
    "repeated_edge_id": (["groupoid-conjugate", "-g", "{commuting}", "-x", "{repeated_ids}",
                          *LOOPS], "repeated edge id 'e1'"),
    "replay_corner": (["groupoid-conjugate", "-g", EXAMPLE, "-x", "{replay_corner}",
                       "--loop1", "v1: a4^-1 a4 a2 a4 a3 a4^-1 a2^-1", "--loop2", "v1: a3"],
                      "convexity violation at vertex v1"),
    "wrong_yes_corner": (["groupoid-conjugate", "-g", EXAMPLE, "-x", "{wrong_yes_corner}",
                          "--loop1", "x: a1 a4 a4 a1^-1 a4^-1 a4^-1 a1", "--loop2", "x: a1"],
                         "convexity violation at vertex x"),
    "oracle_bound": (["oracle-equal", "-g", FREE, "-w", "a1 " * 9, "-v", "a2 " * 9],
                     "exceeds 16"),
}


@pytest.fixture
def hostile_files(tmp_path):
    files = {"missing": tmp_path / "missing", "directory": tmp_path}
    for name, content in (
            ("not_utf8", b"gens a1 a2\xff\n"),
            ("bad_group", b"gens a1\ncommute a1 a7\n"),
            ("nondeterministic", b"vertices x1 x2\nedge e1 x1 x1 a1\nedge e2 x1 x2 a1\n"),
            ("commuting", b"gens a1 a2\ncommute a1 a2\n"),
            ("repeated_ids", b"vertices x1 x2\nedge e1 x1 x1 a1\nedge e2 x1 x1 a2\n"
                             b"square e1 e2 e1 e2\nedge e1 x2 x2 a1\n"),
            # squareless, with commuting corners that close no square
            ("replay_corner", b"vertices v0 v1\nedge e0 v0 v1 a4\nedge e1 v1 v0 a2\n"
                              b"edge e2 v1 v1 a3\n"),
            ("wrong_yes_corner", b"vertices x y\nedge e1 x x a1\nedge e2 x y a4\n"
                                 b"edge e3 y x a4\n")):
        files[name] = tmp_path / name
        files[name].write_bytes(content)
    return {name: str(path) for name, path in files.items()}


@pytest.mark.parametrize("case", HOSTILE)
def test_hostile_input_exits_2(case, hostile_files):
    """Every input the library rejects exits 2 with one ``error:`` message
    and no traceback, within seconds and in a capped address space."""
    argv, piece = HOSTILE[case]
    proc = raag_process([arg.format(**hostile_files) for arg in argv])
    assert (proc.returncode, proc.stdout) == (2, ""), proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("error:") == 1
    assert "Traceback" not in proc.stderr
    assert piece in proc.stderr


BROKEN_KERNEL = """
import sys
import raag.cli
from raag.piling import PilingError

def broken(g, w):
    raise PilingError("broken kernel")

raag.cli.normal_form = broken
sys.exit(raag.cli.main(sys.argv[1:]))
"""


def test_internal_fault_exits_1():
    """A fault of the program is no input error: it exits 1 with a
    traceback."""
    proc = raag_process(["normal-form", "-g", FREE, "-w", "a1"], script=BROKEN_KERNEL)
    assert proc.returncode == 1
    assert "Traceback" in proc.stderr and "PilingError: broken kernel" in proc.stderr
