"""Command-line interface behavior and exit codes."""

import contextlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import EXAMPLE_PDA_4x6, TAKES, UNREAD_SETTINGS, VALID_FIELDS
from pdacache import pda as pda_mod
from pdacache import cli, schemes, tables
from pdacache.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestConstruct:
    def test_theorem6_writes_file(self, tmp_path, capsys):
        out = tmp_path / "p.json"
        code, stdout, _ = run(
            capsys, "construct", "--scheme", "theorem6", "--m", "3", "--t", "2",
            "--q", "2", "--out", str(out),
        )
        assert code == 0
        obj = json.loads(out.read_text())
        assert obj["F"] == 4 and obj["K"] == 12
        assert "K=12 F=4 Z=3 S=4" in stdout

    def test_out_file_is_to_json_byte_for_byte(self, tmp_path, capsys):
        """construct --out writes json_runs string by string: to_json's bytes."""
        out = tmp_path / "p.json"
        argv = ["--scheme", "theorem7", "--m", "4", "--t", "2", "--q", "5"]
        code, _, _ = run(capsys, "construct", *argv, "--out", str(out))
        built, _ = schemes.build(schemes.SchemeSpec("theorem7", m=4, t=2, q=5))
        assert code == 0 and out.read_text() == built.to_json()

    def test_theorem7_unavailable_code(self, capsys):
        code, _, err = run(
            capsys, "construct", "--scheme", "theorem7", "--m", "4", "--t", "2", "--q", "2"
        )
        assert code == 2
        assert "MdsUnavailable" in err

    def test_theorem3_example(self, tmp_path, capsys):
        out = tmp_path / "p.json"
        code, stdout, _ = run(
            capsys, "construct", "--scheme", "theorem3", "--m", "4", "--s", "2",
            "--t", "2", "--omega", "1", "--out", str(out),
        )
        assert code == 0
        assert "K=12 F=6 Z=4 S=6" in stdout

    def test_theorem3_zero_t_names_its_condition(self, capsys):
        code, stdout, err = run(
            capsys, "construct", "--scheme", "theorem3", "--m", "4", "--s", "2", "--t", "0"
        )
        assert code == 2 and stdout == ""
        assert err == (
            "error: BadParams: theorem3 needs 0 <= omega <= t <= s <= m, 1 <= t"
            " and s+t-2*omega <= m, got (4, 2, 0, 0)\n"
        )

    def test_unwritable_out_io_code(self, tmp_path, capsys):
        target = tmp_path / "missing" / "p.json"
        code, _, err = run(
            capsys, "construct", "--scheme", "theorem6", "--m", "3", "--t", "2",
            "--q", "2", "--out", str(target),
        )
        assert code == 3
        assert err.startswith(f"error: cannot write {target}: ")

    def test_bad_params_code(self, capsys):
        code, _, err = run(
            capsys, "construct", "--scheme", "theorem6", "--m", "2", "--t", "2", "--q", "2"
        )
        assert code == 2

    def test_too_large_refused_before_building(self, capsys, monkeypatch):
        # theorem6(40, 2, 41) has 41^39 rows; only the prediction is computed
        def refuse(*args):
            raise AssertionError("rows were built")

        monkeypatch.setattr(schemes, "oa_trivial", refuse)
        monkeypatch.setattr(schemes, "construct", refuse)
        start = time.perf_counter()
        code, stdout, err = run(
            capsys, "construct", "--scheme", "theorem6", "--m", "40", "--t", "2", "--q", "41"
        )
        assert time.perf_counter() - start < 1
        assert code == 2 and stdout == ""
        assert err.startswith("error: BadParams: F*K = ") and "MAX_CELLS = 10000000" in err

    @pytest.mark.parametrize(
        "args, message",
        [
            (["theorem6", "--m", "100000000000", "--t", "1", "--q", "2"], "MAX_SPEC_VALUE"),
            (["mn", "--m", "100000000000", "--s", "1000000000"], "MAX_SPEC_VALUE"),
            (["theorem7", "--m", "4", "--t", "2", "--q", "0"], "q >= 2"),
            (["mn", "--m", "4", "--s", "4"], "mn needs 1 <= cache_level < k, got (4, 4)\n"),
        ],
    )
    def test_huge_or_degenerate_spec_code(self, capsys, args, message):
        code, stdout, err = run(capsys, "construct", "--scheme", *args)
        assert code == 2 and stdout == ""
        assert err.startswith("error: BadParams: ") and message in err

    @pytest.mark.parametrize("family, field, value", UNREAD_SETTINGS)
    def test_unread_setting_code(self, capsys, family, field, value):
        flags = [f"--{name}={v}" for name, v in {**VALID_FIELDS[family], field: value}.items()]
        code, stdout, err = run(capsys, "construct", "--scheme", family, *flags)
        assert (code, stdout) == (2, "")
        takes = TAKES[family]
        assert err == f"error: BadParams: {family} takes only {takes}, not {field}={value}\n"

    @pytest.mark.parametrize(
        "q, message",
        [
            ("2", "error: MdsUnavailable: m=40 > q+1=3: no extended RS code\n"),
            ("6", "error: UnsupportedField: q=6 is not in the supported set\n"),
        ],
    )
    def test_too_large_theorem7_keeps_its_own_error(self, capsys, monkeypatch, q, message):
        # theorem7(40, 2, q) is over the cell limit, but the field or the MDS
        # code is missing first
        monkeypatch.setattr(schemes, "mds_generate", lambda *args: pytest.fail("rows built"))
        code, stdout, err = run(
            capsys, "construct", "--scheme", "theorem7", "--m", "40", "--t", "2", "--q", q
        )
        assert (code, stdout, err) == (2, "", message)


class TestVerify:
    def test_accepts_valid_file(self, tmp_path, capsys):
        path = tmp_path / "p.json"
        path.write_text(EXAMPLE_PDA_4x6.to_json())
        code, stdout, _ = run(capsys, "verify", str(path))
        assert code == 0
        assert "accept" in stdout
        assert "K=6 F=4 Z=2 S=4" in stdout
        assert "gain 3: 4 symbols" in stdout

    def test_rejects_tampered_file(self, tmp_path, capsys):
        grid = [list(r) for r in EXAMPLE_PDA_4x6.grid]
        grid[0][3] = 1
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"F": 4, "K": 6, "grid": grid}))
        code, stdout, _ = run(capsys, "verify", str(path))
        assert code == 1
        assert "reject" in stdout and "witness" in stdout

    def test_all_star_accepts(self, tmp_path, capsys):
        path = tmp_path / "stars.json"
        path.write_text(json.dumps({"F": 2, "K": 2, "grid": [[None, None], [None, None]]}))
        code, stdout, _ = run(capsys, "verify", str(path))
        assert code == 0
        assert "S=0" in stdout

    def test_missing_file_io_code(self, capsys):
        code, _, err = run(capsys, "verify", "/nonexistent/p.json")
        assert code == 3

    @pytest.mark.parametrize("command", ["verify", "simulate"])
    def test_unreadable_path_or_text_io_code(self, tmp_path, capsys, command):
        binary = tmp_path / "binary.json"
        binary.write_bytes(b"\x7fELF\xd0\xff")
        for path in (str(binary), "p\x00.json"):
            code, stdout, err = run(capsys, command, path)
            assert code == 3 and stdout == ""
            assert err.startswith(f"error: cannot read {path}: ")

    def test_parse_error_io_code(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = run(capsys, "verify", str(path))
        assert code == 3
        assert "line" in err


class TestMalformedFile:
    @pytest.mark.parametrize("command", ["verify", "simulate"])
    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"F":1,"K":2,"grid":[[1.5,"x"]]}', "row 0 has a cell that is not null"),
            ('{"F":1,"K":2,"grid":[[true,null]]}', "row 0 has a cell that is not null"),
            ('{"F":2,"K":2,"grid":[[null,0],[0,-1]]}', "row 1 has a cell that is not null"),
            ('{"F":2,"K":2,"grid":[[null,0],[1]]}', "row 1 has 1 cells, not K=2"),
            (
                '{"F":true,"K":1.0,"grid":[[null]],"labels":{"0":{"e":"ab","n":"x"}}}',
                "F must be an integer >= 0",
            ),
            (
                '{"F":1,"K":1,"grid":[[null]],"labels":{"-5":{"e":[7,7,7],"n":0}}}',
                "label key '-5' is not a symbol id of the grid",
            ),
            (
                '{"F":1,"K":1,"grid":[[5]],"labels":{"05":{"e":[0],"n":0}}}',
                "label key '05' is not a symbol id of the grid",
            ),
            (
                '{"F":1,"K":1,"grid":[[0]],"labels":{"0":{"e":"ab","n":0}}}',
                "label 0: e must be a list of integers",
            ),
            ("[]", "the document must be an object, not an array"),
            ('{"F":1,"K":1,"grid":[[0]],"labels":null}', "labels must be an object, not null"),
            ('{"F":0,"K":5,"grid":[]}', "declared K=5 but the grid has no rows"),
            pytest.param("[" * 200_000, "maximum recursion depth exceeded", id="deep"),
        ],
    )
    def test_bad_cells_and_ragged_rows_io_code(self, tmp_path, capsys, command, text, message):
        path = tmp_path / "p.json"
        path.write_text(text)
        code, stdout, err = run(capsys, command, str(path))
        assert code == 3
        assert stdout == ""
        assert err.startswith("error: malformed PDA file") and message in err
        assert err.count("\n") == 1


CELLS = st.one_of(
    st.none(), st.integers(-1, 4), st.floats(allow_nan=False), st.text(max_size=2), st.booleans()
)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)


@st.composite
def pda_documents(draw):
    """Grids up to 4x4 of mixed cells, ragged rows included, with declared
    F and K that are right, off by one, or missing, and optional labels."""
    grid = draw(st.lists(st.lists(CELLS, max_size=4), max_size=4))
    obj = {
        "F": len(grid) + draw(st.sampled_from([0, 0, 1, -1])),
        "K": (len(grid[0]) if grid else 0) + draw(st.sampled_from([0, 0, 1, -1])),
        "grid": grid,
    }
    for key in draw(st.sets(st.sampled_from(["F", "K", "grid"]), max_size=1)):
        del obj[key]
    if draw(st.booleans()):
        obj["labels"] = draw(JSON_VALUES)
    return json.dumps(obj)


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "p.json"


@settings(max_examples=150, deadline=None)
@given(text=st.one_of(pda_documents(), JSON_VALUES.map(json.dumps)))
def test_fuzzed_file_ends_in_an_exit_code(fuzz_path, text):
    fuzz_path.write_text(text)
    for command in ("verify", "simulate"):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main([command, str(fuzz_path)])
        assert code in (0, 1, 2, 3)


# No "/", so a drawn file name stays in its directory.
NAMES = st.text(st.characters(blacklist_characters="/"), max_size=8)
# Mostly small ints; the huge ones must be refused by the cell, prediction
# and instance-size limits before anything is built or drawn.
INTS = st.sampled_from([-1, 0, 1, 2, 3, 4] * 3 + [10**9, 10**11, 2**63]).map(str)


def _one_of(*choices):
    """A valid choice, or any name, which argparse may refuse."""
    return st.sampled_from(choices) | NAMES


@st.composite
def argvs(draw, root):
    """argv drawn from the subcommand grammar: inputs from root/in (a valid
    PDA, a rejected one, a non-JSON file, a non-UTF-8 file, a directory,
    missing files), outputs under root/out or a missing directory, and now
    and then one stray token anywhere."""
    inputs = st.sampled_from(
        ["valid.json", "corrupt.json", "broken.json", "binary.json", ".", "missing"]
    )
    in_path = (inputs | NAMES).map(lambda name: str(root / "in" / name))
    out_path = st.sampled_from(["out/p.json", "out", "missing/p.json"]) | NAMES.map(
        lambda name: f"out/{name}"
    )
    demand = st.lists(st.integers(-1, 6).map(str), max_size=7).map(",".join) | NAMES
    grammar = {
        "construct": ([], {
            "--scheme": _one_of(*schemes.FAMILIES),
            **dict.fromkeys(("--m", "--t", "--q", "--s", "--omega"), INTS),
            "--out": out_path.map(lambda rel: str(root / rel)),
        }),
        "verify": ([in_path], {}),
        "simulate": ([in_path], {"--seed": INTS, "--file-bytes": INTS, "--demand": demand}),
        "compare": ([_one_of(*tables.TABLES)], {
            "--format": _one_of("csv", "json"),
            "--out": out_path.map(lambda rel: str(root / rel)),
        }),
    }
    command = draw(st.sampled_from(sorted(grammar)))
    positional, options = grammar[command]
    argv = [command] + [draw(arg) for arg in positional]
    for flag in draw(st.permutations(sorted(options))):
        if draw(st.booleans()):
            argv += [flag, draw(options[flag])]
    if draw(st.integers(0, 9)) == 0:
        argv.insert(draw(st.integers(0, len(argv))), draw(NAMES | INTS))
    return argv


@pytest.fixture(scope="module")
def argv_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("argv")
    (root / "in").mkdir()
    (root / "out").mkdir()
    grid = [list(r) for r in EXAMPLE_PDA_4x6.grid]
    grid[0][3] = 1
    (root / "in" / "valid.json").write_text(EXAMPLE_PDA_4x6.to_json())
    (root / "in" / "corrupt.json").write_text(json.dumps({"F": 4, "K": 6, "grid": grid}))
    (root / "in" / "broken.json").write_text("{not json")
    (root / "in" / "binary.json").write_bytes(b'{"F": 1, "K": 1, "grid": [[\xff]]}')
    return root


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_fuzzed_argv_ends_in_an_exit_code(argv_root, data):
    argv = data.draw(argvs(argv_root), label="argv")
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refuses the argv
            code = exc.code
    assert code in (0, 1, 2, 3)


class TestSimulate:
    def test_example_passes(self, tmp_path, capsys):
        path = tmp_path / "p.json"
        path.write_text(EXAMPLE_PDA_4x6.to_json())
        code, stdout, _ = run(capsys, "simulate", str(path), "--seed", "1")
        assert code == 0
        assert "PASS" in stdout
        assert "load: 1" in stdout

    @pytest.mark.parametrize(
        "grid, fraction",
        [(EXAMPLE_PDA_4x6.grid, "1/2"), ([[None, 0, None], [0, None, None]], "None")],
    )
    def test_cache_fraction_line(self, tmp_path, capsys, grid, fraction):
        path = tmp_path / "p.json"
        path.write_text(pda_mod.Pda(grid).to_json())
        code, stdout, _ = run(capsys, "simulate", str(path), "--seed", "1")
        assert code == 0
        assert stdout.splitlines()[1:] == [f"cache fraction: {fraction}", "PASS"]

    @pytest.mark.parametrize("grid, want", [(EXAMPLE_PDA_4x6.grid, 0), ([[0, None], [1, 0]], 1)])
    def test_verifies_the_pda_once(self, monkeypatch, tmp_path, capsys, grid, want):
        calls = []
        check = pda_mod._check

        def counted(p):
            calls.append(p)
            return check(p)

        monkeypatch.setattr(pda_mod, "_check", counted)
        path = tmp_path / "p.json"
        path.write_text(pda_mod.Pda(grid).to_json())
        code, _, _ = run(capsys, "simulate", str(path))
        assert code == want
        assert len(calls) == 1

    def test_repeat_demand(self, tmp_path, capsys):
        path = tmp_path / "p.json"
        path.write_text(EXAMPLE_PDA_4x6.to_json())
        code, stdout, _ = run(
            capsys, "simulate", str(path), "--demand", "0,0,0,0,0,0"
        )
        assert code == 0 and "PASS" in stdout

    # the text parse is the CLI's; the length and range rules are CachingInstance's
    @pytest.mark.parametrize(
        "demand, message",
        [
            ("a,b", "BadParams: --demand 'a,b' is not a comma-separated list of integers"),
            ("0,1,2", "BadLength: demand has 3 entries, need K=6"),
            ("0,1,2,3,4,6", "BadParams: demand entries must be integers in [0, N=6)"),
            ("-1,0,0,0,0,0", "BadParams: demand entries must be integers in [0, N=6)"),
        ],
    )
    def test_bad_demand_code(self, tmp_path, capsys, demand, message):
        path = tmp_path / "p.json"
        path.write_text(EXAMPLE_PDA_4x6.to_json())
        code, stdout, err = run(capsys, "simulate", str(path), f"--demand={demand}")
        assert code == 2
        assert stdout == ""
        assert err == f"error: {message}\n"

    def test_file_bytes_checked_before_demand(self, tmp_path, capsys):
        path = tmp_path / "p.json"
        path.write_text(EXAMPLE_PDA_4x6.to_json())
        code, _, err = run(capsys, "simulate", str(path), "--demand", "0,1", "--file-bytes", "-5")
        assert code == 2
        assert err == "error: BadParams: --file-bytes must be >= 0, not -5\n"

    def test_negative_file_bytes_code(self, tmp_path, capsys):
        path = tmp_path / "p.json"
        path.write_text(EXAMPLE_PDA_4x6.to_json())
        code, stdout, err = run(capsys, "simulate", str(path), "--file-bytes", "-5")
        assert code == 2 and stdout == ""
        assert err == "error: BadParams: --file-bytes must be >= 0, not -5\n"

    def test_file_bytes_beyond_the_instance_limit_code(self, tmp_path, capsys):
        path = tmp_path / "p.json"
        path.write_text(EXAMPLE_PDA_4x6.to_json())
        code, stdout, err = run(capsys, "simulate", str(path), "--file-bytes", "100000000000")
        assert code == 2 and stdout == ""
        assert err == (
            "error: BadParams: N*F*packet bytes = 600000000000 exceeds the limit"
            " MAX_INSTANCE_BYTES = 100000000\n"
        )

    def test_theorem7_load_eight(self, tmp_path, capsys):
        from pdacache import build_theorem7

        pda, _ = build_theorem7(4, 2, 3)
        path = tmp_path / "p7.json"
        path.write_text(pda.to_json())
        code, stdout, _ = run(capsys, "simulate", str(path))
        assert code == 0
        assert "load: 8" in stdout and "PASS" in stdout


class TestCompare:
    def test_deterministic_output(self, capsys):
        code1, out1, _ = run(capsys, "compare", "thm6-vs-thm7")
        code2, out2, _ = run(capsys, "compare", "thm6-vs-thm7")
        assert code1 == code2 == 0
        assert out1 == out2

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "compare", "omega", "--format", "json")
        assert code == 0
        rows = json.loads(out)
        assert [r["K"] for r in rows] == [360, 120, 120, 360]

    def test_csv_header(self, capsys):
        code, out, _ = run(capsys, "compare", "thm6-vs-thm7")
        header = out.splitlines()[0]
        assert header.split(",") == ["m", "q", "K", "M_over_N", "R1_over_R2", "F1_over_F2"]

    def test_main_table_families(self, capsys):
        code, out, _ = run(capsys, "compare", "main", "--format", "json")
        rows = json.loads(out)
        assert len(rows) == 3

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "table.csv"
        code, _, _ = run(capsys, "compare", "omega", "--out", str(target))
        assert code == 0
        assert target.read_text().startswith("scheme,")

    def test_unwritable_out_io_code(self, tmp_path, capsys):
        target = tmp_path / "missing" / "table.csv"
        code, stdout, err = run(capsys, "compare", "main", "--out", str(target))
        assert code == 3 and stdout == ""
        assert err.startswith(f"error: cannot write {target}: ")

    def test_out_path_with_nul_io_code(self, tmp_path, capsys):
        target = tmp_path / "table\x00.csv"
        code, stdout, err = run(capsys, "compare", "main", "--out", str(target))
        assert code == 3 and stdout == ""
        assert err.startswith(f"error: cannot write {target}: ")


class TestRoundTrip:
    def test_construct_then_verify(self, tmp_path, capsys):
        path = tmp_path / "p.json"
        for args in (
            ["construct", "--scheme", "theorem6", "--m", "3", "--t", "1", "--q", "3"],
            ["construct", "--scheme", "szg_second", "--m", "3", "--t", "2", "--q", "2"],
            ["construct", "--scheme", "theorem7", "--m", "4", "--t", "2", "--q", "3"],
        ):
            code, _, _ = run(capsys, *args, "--out", str(path))
            assert code == 0
            code, _, _ = run(capsys, "verify", str(path))
            assert code == 0

    def test_files_are_utf8_whatever_the_locale(self, tmp_path):
        """construct --out and verify name their encoding, so an interpreter
        that turns a locale-default open() into an error runs them alike."""
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        flags = [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning"]
        path = str(tmp_path / "p.json")
        construct = ["construct", "--scheme", "mn", "--m", "4", "--s", "2", "--out", path]
        for args in (construct, ["verify", path]):
            cmd = [*flags, "-m", "pdacache.cli", *args]
            proc = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=60)
            assert proc.returncode == 0, proc.stderr


class TestParserReuse:
    def test_calls_match_fresh_parsers(self, monkeypatch, tmp_path, capsys):
        """One parser serves every call: no default or namespace state leaks
        from one call into the next."""
        path = tmp_path / "p.json"
        path.write_text(EXAMPLE_PDA_4x6.to_json())
        argvs = [
            ["simulate", str(path), "--demand", "0,1"],
            ["simulate", str(path)],
            ["simulate", str(path), "--demand", "5,5,5,5,5,5", "--seed", "3"],
            ["simulate", str(path), "--file-bytes", "-1"],
            ["compare", "omega", "--format", "json"],
            ["compare", "omega"],
            ["construct", "--scheme", "mn", "--m", "4", "--s", "2"],
            ["construct", "--scheme", "nope"],
            ["verify", str(tmp_path / "missing.json")],
        ]

        def outcomes():
            results = []
            for argv in argvs:
                try:
                    code = main(argv)
                except SystemExit as exc:  # argparse rejects by exiting
                    code = exc.code
                out = capsys.readouterr()
                results.append((code, out.out, out.err))
            return results

        cli._parser.cache_clear()
        shared = outcomes()
        assert cli._parser.cache_info().misses == 1
        assert [code for code, _, _ in shared] == [2, 0, 0, 2, 0, 0, 0, 2, 3]
        assert shared[4][1] != shared[5][1]
        monkeypatch.setattr(cli, "_parser", cli.build_parser)
        assert outcomes() == shared
