"""Command-line interface tests against committed golden outputs."""

import contextlib
import hashlib
import io
import itertools
import json
import multiprocessing
import os
import pathlib
import shlex
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import braidcensus
import oracles
from braidcensus import cli
from braidcensus.census import MAX_POINTS, MAX_STRANDS
from braidcensus.homs import five_strand_six_points, standard_hom

GOLDEN = pathlib.Path(__file__).parent / "golden"
README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
HOM_FILE = str(GOLDEN / "fivesix_hom.json")


def _run(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


@pytest.mark.parametrize(
    "argv,golden",
    [
        (
            ["census", "3", "5", "--transitive", "--noncyclic"],
            "census_3_5_transitive_noncyclic.json",
        ),
        (["census", "4", "5"], "census_4_5.json"),
        (["census-bprime", "5", "5"], "census_bprime_5_5.json"),
        (
            ["cohomology", "standard", "5", "3"],
            "cohomology_standard_5_3.json",
        ),
        (["cohomology", "fivesix", "6", "4"], "cohomology_fivesix_6_4.json"),
        (["cohomology", "cyclic", "4", "2"], "cohomology_cyclic_4_2.json"),
        (["retract", HOM_FILE, "2"], "retract_fivesix_2.json"),
        (
            ["hom", HOM_FILE, "--word", "[1,2,3,4]"],
            "hom_fivesix_word.json",
        ),
    ],
)
def test_output_matches_golden_file(argv, golden):
    rc, out = _run(argv)
    assert rc == 0
    assert out == (GOLDEN / golden).read_text()


def test_census_output_is_stable_across_workers():
    rc1, out1 = _run(["census", "3", "5"])
    rc2, out2 = _run(["census", "3", "5", "--workers", "2"])
    assert rc1 == rc2 == 0
    assert out1 == out2


@pytest.mark.parametrize(
    "suite",
    ["identities", "artin", "small_census", "cohomology", "models", "commutator", "special"],
)
def test_verify_suites_pass(suite):
    rc, out = _run(["verify", suite])
    payload = json.loads(out)
    assert rc == 0
    assert payload["ok"] is True
    assert all(all(v.values()) for v in payload["results"].values())


def test_output_is_valid_sorted_json():
    _, out = _run(["cohomology", "standard", "5", "2"])
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert out == json.dumps(payload, sort_keys=True, indent=2) + "\n"


def test_unknown_subcommand_is_rejected():
    with pytest.raises(SystemExit):
        cli.main(["frobnicate"])


def test_census_7_10_output_is_pinned():
    """The stdout digest recorded with the n!-row numpy scan that preceded
    the chain search."""
    rc, out = _run(["census", "7", "10"])
    assert rc == 0
    assert len(json.loads(out)["classes"]) == 45
    assert (
        hashlib.sha256(out.encode()).hexdigest()
        == "df07c58a30e6add0f855ddad4ff6468ba8820eeeb8e68e65bbedf25a7d05fca3"
    )


def test_census_8_10_output_is_pinned():
    """The deepest chain the suite runs; the digest was recorded while every
    commutation relator was scanned and chains past s_2 = s_1 were
    searched."""
    rc, out = _run(["census", "8", "10"])
    assert rc == 0
    assert len(json.loads(out)["classes"]) == 44
    assert (
        hashlib.sha256(out.encode()).hexdigest()
        == "e5b03b5c2542f4a67644d8efe9b8f0e6e7d1b75b416290a06d40702c555a72b5"
    )


def test_census_8_14_output_is_pinned_within_two_seconds():
    """A census at the wall of tier 1: from an empty chain tree it takes
    0.55 to 1.0 s (2-CPU host, Python 3.11.7), against 2.2 to 3.6 s when
    every partner of each first image was searched and walked.  The digest
    was recorded with that full search."""
    sys.modules["braidcensus.census"]._TREES.clear()
    start = time.perf_counter()
    rc, out = _run(["census", "8", "14"])
    assert time.perf_counter() - start < 2.0
    assert rc == 0
    assert len(json.loads(out)["classes"]) == 146
    assert (
        hashlib.sha256(out.encode()).hexdigest()
        == "c491be1d3c8ffc7b67c2d8d279aba97e49e88e1ce6c1d5157526e36f6ec55a81"
    )


@pytest.mark.parametrize(
    "k,classes,digest",
    [
        (9, 80, "34cd65d4b6d6a317c55796f145a53c54feda1d2e586f859e472aa05c8230bf99"),
        (7, 84, "4ac5503a1a6fd4b2f1e44fe211e9906869081ba209f3b79404dfe6362a43dee0"),
    ],
    ids=["census_9_12", "census_7_12"],
)
def test_census_at_twelve_points_output_is_pinned(k, classes, digest):
    """Censuses whose roots hold few fertile orbits, so that most partner
    searches are skipped; the digests were recorded while every chain was
    searched.  Run in one process, census(7, 12) reads the fertile roots
    and the deeper nodes that census(9, 12) built."""
    rc, out = _run(["census", str(k), "12"])
    assert rc == 0
    assert len(json.loads(out)["classes"]) == classes
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_census_bprime_6_7_output_is_pinned():
    """The stdout digest recorded with the scan of S(7) for the u-image
    that preceded the relator search."""
    rc, out = _run(["census-bprime", "6", "7"])
    assert rc == 0
    assert len(json.loads(out)["classes"]) == 3
    assert (
        hashlib.sha256(out.encode()).hexdigest()
        == "ed39da3b5d8d68378eadc1b8ccec427ee9dc0a791c5c29b68070426f032ea33a"
    )


def test_cohomology_grid_output_is_pinned():
    """The 12 bases and 8 moduli of the benchmark's cohomology workload, in
    its order and in one process; the digest was recorded with the lattice
    solves that preceded the universal-coefficient route."""
    bases = (
        [("standard", n) for n in range(5, 10)]
        + [("fivesix", 6), ("exceptional6", 6)]
        + [("cyclic", n) for n in range(2, 7)]
    )
    outs = []
    for base, n in bases:
        for r in (0, 2, 3, 4, 5, 6, 8, 12):
            rc, out = _run(["cohomology", base, str(n), str(r)])
            assert rc == 0
            outs.append(out)
    assert (
        hashlib.sha256("".join(outs).encode()).hexdigest()
        == "6615f1eaae2f0fe2a05a77b942352221f3587fd123651eaf22d929186911ce70"
    )


@pytest.mark.parametrize("r,invariants", [(3, [3]), (0, [0])])
def test_cohomology_of_the_two_strand_base(r, invariants):
    """B_2 has no relations, so every cochain is a cocycle and H^1 is the
    coinvariants of the swap."""
    rc, out = _run(["cohomology", "standard", "2", str(r)])
    assert rc == 0
    payload = json.loads(out)
    assert (payload["strands"], payload["points"]) == (2, 2)
    assert payload["invariants"] == invariants


def _fresh_interpreter(*args):
    """Stdout of ``python args...`` with this checkout's package on the path."""
    src = pathlib.Path(braidcensus.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, *args],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        check=True,
    )
    return proc.stdout


def test_importing_the_cli_leaves_numpy_unloaded():
    code = "import sys, braidcensus.cli; print('numpy' in sys.modules)"
    assert _fresh_interpreter("-c", code).strip() == "False"


def test_the_package_runs_as_a_module():
    out = _fresh_interpreter("-m", "braidcensus", "cohomology", "standard", "5", "3")
    assert out == (GOLDEN / "cohomology_standard_5_3.json").read_text()


def test_one_parser_serves_consecutive_commands(capsys):
    """Flags and defaults of one command do not leak into the next."""
    rc, out = _run(["census", "3", "5", "--transitive", "--noncyclic"])
    assert rc == 0
    assert out == (GOLDEN / "census_3_5_transitive_noncyclic.json").read_text()
    rc, out = _run(["census", "3", "5"])
    assert rc == 0
    assert out == _fresh_interpreter("-m", "braidcensus", "census", "3", "5")
    with pytest.raises(SystemExit) as exc:
        _run(["census", "3", "5", "--transitive", "--workers", "0"])
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err
    rc, out = _run(["cohomology", "standard", "5", "3"])
    assert rc == 0
    assert out == (GOLDEN / "cohomology_standard_5_3.json").read_text()


MODULI = ("0", "2", "3", "4", "5", "6", "8", "12")


@pytest.fixture
def fresh_bases():
    """An empty base memo before and after the test, so no base built under
    a monkeypatched base function outlives it."""
    cli._base_hom.cache_clear()
    yield
    cli._base_hom.cache_clear()


def test_a_named_base_is_built_once_for_every_modulus(fresh_bases, monkeypatch):
    """The eight moduli of one base build and check it once; the later ones
    get the same ``BraidHom`` from the memo."""
    builds = []

    def counted(k, n=None):
        builds.append(k)
        return standard_hom(k, n)

    monkeypatch.setattr(cli.homs, "standard_hom", counted)
    for r in MODULI:
        rc, _ = _run(["cohomology", "standard", "6", r])
        assert rc == 0
    assert builds == [6]
    info = cli._base_hom.cache_info()
    assert (info.misses, info.hits) == (1, 7)


@pytest.mark.parametrize(
    "argv",
    [
        ["cohomology", "exceptional6", "5", "2"],
        ["cohomology", "standard", "60", "2"],
    ],
    ids=["six-point-base-on-5-points", "standard-base-too-large"],
)
def test_a_refused_base_is_refused_again(argv, fresh_bases, capsys):
    """A refusal is not remembered as a base: the same bad input exits 2
    with one line on every call."""
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
    assert cli._base_hom.cache_info().currsize == 0


def test_a_remembered_base_prints_what_a_fresh_process_prints(fresh_bases):
    """After other moduli of the same base in this process, each command
    prints the bytes that it prints as the first command of a new one."""
    cases = (("standard", "6", "4"), ("exceptional6", "6", "8"), ("cyclic", "4", "12"))
    for base, n, r in cases:
        for other in MODULI[:3]:
            assert _run(["cohomology", base, n, other])[0] == 0
        rc, out = _run(["cohomology", base, n, r])
        assert rc == 0
        assert out == _fresh_interpreter("-m", "braidcensus", "cohomology", base, n, r)


def _three_strand_file(tmp_path, **changes):
    path = tmp_path / "three.json"
    path.write_text(json.dumps(dict(standard_hom(3).to_json(), **changes)))
    return str(path)


@pytest.mark.parametrize(
    "argv",
    [
        lambda tmp: ["census", "3", "0"],
        lambda tmp: ["census", "3", "4", "--workers", "0"],
        lambda tmp: ["cohomology", "standard", "5", "-1"],
        lambda tmp: ["hom", str(tmp / "missing.json")],
        lambda tmp: ["hom", _three_strand_file(tmp), "--word", "[9]"],
        lambda tmp: ["cohomology", "standard", "1", "2"],
        lambda tmp: ["retract", _three_strand_file(tmp), "2"],
        lambda tmp: ["cohomology", "exceptional6", "5", "2"],
        lambda tmp: ["cohomology", "fivesix", "7", "2"],
        lambda tmp: ["hom", _three_strand_file(tmp), "--word", "[1.5]"],
        lambda tmp: ["hom", _three_strand_file(tmp), "--word", "[true, 2]"],
        lambda tmp: ["hom", _three_strand_file(tmp, k=3.9)],
        lambda tmp: ["hom", _three_strand_file(tmp, sigma=[[2, 1, 3], [1, 3, 2.7]])],
        lambda tmp: ["cohomology", "standard", "60", "2"],
        lambda tmp: ["cohomology", "cyclic", "60", "0"],
        lambda tmp: ["census", "99999999999999999999", "3"],
        lambda tmp: ["census", "100000000", "3"],
        lambda tmp: ["census", "1001", "3"],
        lambda tmp: ["hom", _three_strand_file(tmp), "--word", '""'],
        lambda tmp: ["hom", _three_strand_file(tmp), "--word", "{}"],
        lambda tmp: ["hom", _three_strand_file(tmp), "--word", ""],
        lambda tmp: ["census", "3", str(MAX_POINTS + 1)],
        lambda tmp: ["census", "3", "80"],
        lambda tmp: ["census-bprime", "5", "80"],
        lambda tmp: ["census-bprime", "4", "5"],
        lambda tmp: ["census-bprime", str(MAX_STRANDS + 1), "3"],
    ],
    ids=[
        "census-n-0",
        "workers-0",
        "negative-modulus",
        "missing-file",
        "bad-letter",
        "one-point-base",
        "retract-three-strands",
        "exceptional6-on-5-points",
        "fivesix-on-7-points",
        "float-letter",
        "bool-letter",
        "float-strand-count",
        "float-image",
        "standard-base-too-large",
        "cyclic-base-too-large",
        "census-strands-overflow",
        "census-strands-out-of-memory",
        "census-strands-over-the-bound",
        "word-a-json-string",
        "word-a-json-object",
        "word-empty-text",
        "census-points-over-the-bound",
        "census-points-out-of-memory",
        "bprime-points-out-of-memory",
        "bprime-too-few-strands",
        "bprime-strands-over-the-bound",
    ],
)
def test_bad_input_gets_one_line_and_status_2(argv, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv(tmp_path))
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert "error:" in lines[0]


@pytest.mark.parametrize("base", ["standard", "cyclic"])
def test_an_oversize_cohomology_base_is_refused_before_it_is_built(base, capsys):
    """The entry bound of the cocycle matrix needs only the strands and
    points of the base, so a 2000-point base, whose O(n^2) Artin relations
    took over a minute to build and validate, is refused at once."""
    start = time.perf_counter()
    with pytest.raises(SystemExit) as exc:
        cli.main(["cohomology", base, "2000", "2"])
    assert time.perf_counter() - start < 1.0
    assert exc.value.code == 2
    assert "over the limit" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["hom", "retract"])
def test_a_hom_file_past_the_strand_bound_is_refused_before_it_is_built(
    command, tmp_path, capsys
):
    """A map on MAX_STRANDS + 1 strands would be checked against about
    half a million Artin relations; a 3000-strand file kept ``hom`` busy
    for half a minute.  The strand count is refused as the file is read."""
    path = tmp_path / "wide.json"
    k = MAX_STRANDS + 1
    path.write_text(json.dumps({"k": k, "n": 1, "sigma": [[1]] * (k - 1)}))
    argv = [command, str(path)] + (["2"] if command == "retract" else [])
    start = time.perf_counter()
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert time.perf_counter() - start < 1.0
    assert exc.value.code == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert "k must be <= %d" % MAX_STRANDS in lines[0]


def test_a_hom_read_from_stdin_leaves_stdin_open(monkeypatch):
    stdin = io.StringIO(pathlib.Path(HOM_FILE).read_text())
    monkeypatch.setattr(sys, "stdin", stdin)
    rc, out = _run(["hom", "-", "--word", "[1,2,3,4]"])
    assert rc == 0
    assert out == (GOLDEN / "hom_fivesix_word.json").read_text()
    assert not stdin.closed


def test_workers_are_clamped_to_the_cpu_count(monkeypatch):
    started = []
    chunksizes = []

    class InlinePool:
        """Records the requested process count and chunk size and maps in
        this process."""

        def __init__(self, processes):
            started.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=None):
            chunksizes.append(chunksize)
            return [fn(x) for x in items]

    monkeypatch.setattr(multiprocessing, "Pool", InlinePool)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    rc, out = _run(["census", "3", "5", "--workers", "64"])
    assert rc == 0
    assert started == [3]
    assert chunksizes == [1]
    assert out == _run(["census", "3", "5"])[1]


def test_the_readme_command_line_examples_run(tmp_path, monkeypatch):
    """The command block of README's "Command line" section: its echoed map
    is five_strand_six_points(), as the text says, and each command exits 0."""
    section = README.read_text().split("## Command line", 1)[1]
    lines = section.split("```")[1].strip().splitlines()
    monkeypatch.chdir(tmp_path)
    echoed = [line for line in lines if line.startswith("echo ")]
    assert len(echoed) == 1
    _, text, redirect, path = shlex.split(echoed[0])
    assert redirect == ">"
    pathlib.Path(path).write_text(text)
    assert json.loads(text) == five_strand_six_points().to_json()
    commands = [line for line in lines if line.startswith("braidcensus ")]
    assert len(commands) == len(lines) - 1
    for line in commands:
        rc, out = _run(shlex.split(line)[1:])
        assert rc == 0, line
        assert json.loads(out)["command"] == shlex.split(line)[1]


# Every text a positional of each command is tried with, beside its valid one.
_TEXTS = [
    "0", "1", "2", "5", "-1", "-3", "+4", " 4 ", "4_0", "x", "1.5", "-1.5", "",
    "-", "- x", "-x", "-1x", "99999999999999999999", "٣", "standard",
    "Standard", "stand", "cyclic", "fivesix", "all", "al", "artin", "--",
] + [str(bound + d) for bound in (MAX_POINTS, MAX_STRANDS) for d in (0, 1)]
# Per command: valid positionals, and option groups that each of its argvs
# may carry among them.
_VALID = {
    "census": (
        ["3", "5"],
        [
            ["--workers", "2"], ["--workers=2"], ["--work", "3"], ["--w=0"],
            ["--workers", "-1"], ["--workers", "x"], ["--workers"],
            ["--workers="], ["--workers", "--transitive"], ["--workers", "-"],
            ["--workers", "99999999999999999999"], ["--transitive"],
            ["--trans"], ["--t"], ["--transitive=1"], ["--noncyclic"],
            ["--non="], ["--noncyclic", "--workers", "3"],
        ],
    ),
    "census-bprime": (["5", "6"], []),
    "cohomology": (["cyclic", "4", "2"], []),
    "retract": (["g.json", "2"], []),
    "hom": (
        ["g.json"],
        [
            ["--word", "[1, 2]"], ["--word=[1]"], ["--wo", "[1]"], ["--w", "2"],
            ["--word", ""], ["--word="], ["--word", "-1"], ["--word", "-"],
            ["--word", "- 1"], ["--word"], ["--word", "--foo"],
            ["--word", "-x"], ["--word=--foo"], ["--word", "--"],
        ],
    ),
    "verify": (["special"], []),
}
# Option groups that every command refuses, and separators.
_FOREIGN = [
    ["--foo"], ["--foo=1"], ["-x"], ["-1x"], ["---w"], ["--version"],
    ["--=x"], ["--"], ["--", "--"], ["--", "-x"], ["--", "--word"],
]
_TOP = [
    [], ["frobnicate"], ["cens", "3", "5"], ["CENSUS", "3", "5"], ["-1"], [""],
    ["-"], ["--"], ["--", "census", "3", "5"], ["--foo", "census", "3", "5"],
    ["-x", "verify", "all"], ["--=x", "verify", "all"], ["--version=1"],
    ["--help=x"],
]


def _parser_argvs():
    """Some hundreds of argvs, none asking for help or the version: each
    command with each positional replaced by each text of ``_TEXTS``, one
    short and one long, and its valid positionals with one option group at
    every place, or two at either end."""
    argvs = list(_TOP)
    for command, (valid, groups) in _VALID.items():
        m = len(valid)
        argvs += [[command] + valid[:i] for i in range(m + 1)]
        argvs.append([command] + valid + ["7"])
        for i, text in itertools.product(range(m), _TEXTS):
            argvs.append([command] + valid[:i] + [text] + valid[i + 1:])
        for group, i in itertools.product(groups + _FOREIGN, range(m + 1)):
            argvs.append([command] + valid[:i] + group + valid[i:])
        for first, last in itertools.product(groups[:8], repeat=2):
            argvs.append([command] + first + valid + last)
            argvs.append([command] + valid[:1] + first + valid[1:] + last)
    return argvs


def _reference_reading(parser, argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
        io.StringIO()
    ):
        try:
            return vars(parser.parse_args(argv))
        except SystemExit as exc:
            return exc.code


def _table_reading(argv):
    try:
        return vars(cli._parse(argv))
    except cli.InputError:
        return 2


def test_the_table_reads_argv_as_the_argparse_parser_did(capsys):
    """Every argv of ``_parser_argvs`` gets the same command and the same
    value at every destination from ``cli._parse`` as from the argparse
    parser it replaced, or both refuse it; a refused one exits 2 through
    ``cli.main`` with one ``error:`` line on stderr and nothing on stdout."""
    parser = oracles.build_parser()
    argvs = _parser_argvs()
    accepted = 0
    for argv in argvs:
        expected = _reference_reading(parser, argv)
        assert _table_reading(argv) == expected, argv
        if expected != 2:
            accepted += 1
            continue
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        lines = captured.err.splitlines()
        assert len(lines) == 1 and "error:" in lines[0], argv
    assert len(argvs) > 800
    assert 300 < accepted < len(argvs) - 500


@pytest.mark.parametrize(
    "argv",
    [["--help"], ["-h"], ["--he"]] + [[c, "--help"] for c in cli._COMMANDS],
    ids=lambda argv: " ".join(argv),
)
def test_help_exits_0_and_names_every_command_and_argument(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.startswith("usage: braidcensus ")
    if argv[0] in cli._COMMANDS:
        _, _, positionals, options = cli._COMMANDS[argv[0]]
        names = [p[0] for p in positionals] + [o[0] for o in options]
    else:
        names = list(cli._COMMANDS) + ["--version"]
    for name in names + ["--help"]:
        assert name in captured.out


def test_version_prints_the_package_version(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == braidcensus.__version__ + "\n"


_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=2**64, max_value=2**200).flatmap(
        lambda v: st.sampled_from([v, -v])
    )
    | st.floats()
    | st.text()
)


@settings(max_examples=300, deadline=None)
@given(
    st.recursive(
        _SCALARS | st.lists(st.integers()) | st.lists(st.integers() | st.booleans()),
        lambda inner: st.lists(inner)
        | st.lists(inner).map(tuple)
        | st.dictionaries(st.text(), inner),
        max_leaves=30,
    )
)
def test_dumps_writes_the_text_of_json_dumps(value):
    """Over str keys with any characters, escapes and non-ASCII text, empty
    containers, lists of ints and of ints with bools, ints past 2^64 of
    either sign, None, and floats with nan and the infinities."""
    assert cli._dumps(value) == json.dumps(value, sort_keys=True, indent=2)


def test_every_golden_output_re_emits_to_its_own_bytes():
    outputs = [
        path.read_text()
        for path in sorted(GOLDEN.glob("*.json"))
        if "command" in json.loads(path.read_text())
    ]
    assert len(outputs) == 8
    for text in outputs:
        assert cli._dumps(json.loads(text)) + "\n" == text
