import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from apdrec import (
    GeneratorConfig,
    complexes_match,
    euler_curve_direct,
    generate_complex,
    parse_complex,
    serialize_complex,
)
from apdrec.cli import main
from apdrec.geometry import format_rational

from conftest import cx
from test_complexes import complex_texts


@pytest.fixture
def triangle_file(tmp_path):
    K = cx(2, [(0, 0), (Fraction(1, 2), 1), (1, 0)], [(0, 1, 2)])
    path = tmp_path / "triangle.cx"
    path.write_text(serialize_complex(K))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_cli_apd(capsys, triangle_file):
    code, out = run(capsys, "apd", "--complex", triangle_file, "--dir", "1,0")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "direction 1 0"
    assert "0 0 inf" in lines
    assert "1 1 1" in lines


def test_cli_apd_dim_filter(capsys, triangle_file):
    code, out = run(
        capsys, "apd", "--complex", triangle_file, "--dir", "1,0", "--dim", "1"
    )
    assert code == 0
    assert out.strip().splitlines()[1:] == ["1 1 1"]


def test_cli_apd_dim_prints_the_direction_and_that_dimension_of_the_full_output(
    capsys, tmp_path
):
    """``--dim k`` prints the full output's direction line and exactly its
    dimension-k lines, for every k up to one above the top dimension, where
    only the direction line is left."""
    K = generate_complex(GeneratorConfig(3, 8, 2, densities=[0.7, 0.6], seed=3))
    path = tmp_path / "k.cx"
    path.write_text(serialize_complex(K))
    argv = ["apd", "--complex", str(path), "--dir", "3,-1,2"]
    code, full = run(capsys, *argv)
    assert code == 0
    first, *lines = full.splitlines()
    top = max(len(s) for s in K.simplices) - 1
    printed = 0
    for k in range(top + 2):
        code, out = run(capsys, *argv, "--dim", str(k))
        assert code == 0
        want = [line for line in lines if line.split()[0] == str(k)]
        assert out.splitlines() == [first] + want
        printed += len(want)
    assert printed == len(lines) and top == 2
    assert want == []  # above the top: the direction line alone


def test_cli_curves_betti(capsys, triangle_file):
    code, out = run(
        capsys,
        "curves", "--complex", triangle_file, "--dir", "1,0",
        "--kind", "betti", "--dim", "0",
    )
    assert code == 0
    assert out.splitlines()[0] == "0 1"
    assert any(line.startswith("# decoration") for line in out.splitlines())


def test_cli_curves_euler(capsys, triangle_file):
    code, out = run(
        capsys, "curves", "--complex", triangle_file, "--dir", "1,0", "--kind", "euler"
    )
    assert code == 0
    assert out.splitlines()[-1] == "1 4 3"


def test_cli_curves_euler_prints_the_direct_curve(capsys, tmp_path):
    configs = [
        GeneratorConfig(3, 7, 2, densities=[0.7, 0.6], seed=0),
        GeneratorConfig(3, 8, 3, densities=[0.8, 0.8, 0.8], seed=1),
        GeneratorConfig(2, 9, 2, densities=[0.5, 0.9], seed=2),
    ]
    for config in configs:
        K = generate_complex(config)
        path = tmp_path / "K.cx"
        path.write_text(serialize_complex(K))
        d = config.ambient_dim
        for text in ["1" + ",0" * (d - 1), "0," * (d - 1) + "-1", "2/3,-1" + ",5" * (d - 2)]:
            direction = tuple(Fraction(x) for x in text.split(","))
            expected = "".join(
                f"{format_rational(h)} {even} {odd}\n"
                for h, (even, odd) in euler_curve_direct(K, direction).breakpoints
            )
            code, out = run(
                capsys, "curves", "--complex", str(path), "--dir", text, "--kind", "euler"
            )
            assert code == 0
            assert out == expected


def test_cli_generate_stats_roundtrip(capsys, tmp_path):
    code, out = run(
        capsys,
        "generate", "--seed", "5", "--n0", "6", "--dim", "3", "--kappa", "2",
        "--density", "0.7,0.6",
    )
    assert code == 0
    path = tmp_path / "gen.cx"
    path.write_text(out)
    K = parse_complex(out)

    code, out = run(capsys, "stats", "--complex", str(path))
    assert code == 0
    assert f"vertices: {len(K.vertices)}" in out
    assert "unique e1 heights: True" in out
    assert "distinct (e1, e2) projections: True" in out
    assert "affinely independent: True" in out


def test_cli_reconstruct_stages(capsys, triangle_file):
    code, out = run(
        capsys, "reconstruct", "--complex", triangle_file, "--stage", "vertices"
    )
    assert code == 0
    assert "# vertex queries: 3" in out

    code, out = run(
        capsys, "reconstruct", "--complex", triangle_file, "--stage", "edges"
    )
    assert code == 0
    assert "0 1" in out and "# edge queries:" in out

    code, out = run(capsys, "reconstruct", "--complex", triangle_file)
    assert code == 0
    recovered = parse_complex(
        "\n".join(l for l in out.splitlines() if not l.startswith("#"))
    )
    assert recovered == parse_complex(Path(triangle_file).read_text())
    assert "# lifted queries: 6" in out.splitlines()  # no flag asked for it


def counts_after(out, prefix):
    """The integers ending the output lines that start with the prefix."""
    return [int(l.split()[-1].split("=")[-1]) for l in out.splitlines()
            if l.startswith(prefix)]


def test_cli_reconstruct_ledger_agrees_across_stages(capsys, triangle_file):
    counts = {}
    for stage in ("vertices", "edges", "full"):
        code, out = run(
            capsys, "reconstruct", "--complex", triangle_file,
            "--stage", stage, "--stats",
        )
        assert code == 0
        counts[stage] = (
            counts_after(out, "# vertex queries:"),
            counts_after(out, "# edge queries:"),
        )
    assert counts["vertices"][0] == counts["edges"][0] == counts["full"][0] == [3]
    assert counts["edges"][1] == counts["full"][1] != []
    assert counts["vertices"][1] == []

    code, out = run(
        capsys,
        "reconstruct", "--complex", triangle_file, "--stats",
    )
    assert code == 0
    lifted = counts_after(out, "# lifted queries:")
    per_call = counts_after(out, "# lifted predicate dim=")
    assert lifted == [sum(per_call)] and per_call == [6]
    assert counts_after(out, "# higher-stage queries:") == [0]


def test_cli_generate_codim_zero_reconstructs_through_the_lift(capsys, tmp_path):
    code, out = run(
        capsys,
        "generate", "--seed", "2", "--n0", "6", "--dim", "3", "--kappa", "3",
        "--density", "0.9,0.9,0.9", "--codim-zero",
    )
    assert code == 0
    path = tmp_path / "lifted.cx"
    path.write_text(out)
    K = parse_complex(out)
    assert K.kappa == 3

    code, out = run(capsys, "reconstruct", "--complex", str(path), "--stats")
    assert code == 0
    assert counts_after(out, "# lifted predicate dim=3 ")
    body = "\n".join(l for l in out.splitlines() if not l.startswith("#"))
    assert complexes_match(parse_complex(body), K)


def test_cli_verify_exit_code(capsys):
    code, out = run(capsys, "verify", "--trials", "2", "--seed", "7")
    assert code == 0
    assert "2/2 trials passed" in out


def test_cli_verify_has_no_strict_flag(capsys):
    # Generated complexes never tie on e1, so verify is always strict.
    for flag in ("--strict", "--no-strict"):
        with pytest.raises(SystemExit) as exc:
            main(["verify", flag])
        assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_cli_reconstruct_e1_ties(capsys, tmp_path):
    K = cx(2, [(0, 0), (0, 1), (1, -1)], [(0, 1), (1, 2)])
    path = tmp_path / "ties.cx"
    path.write_text(serialize_complex(K))
    code, out = run(capsys, "reconstruct", "--complex", str(path))
    assert code == 0
    assert "# vertex queries: 5" in out.splitlines()
    body = "\n".join(l for l in out.splitlines() if not l.startswith("#"))
    assert complexes_match(parse_complex(body), K)


@pytest.mark.parametrize(
    "argv",
    [
        ["reconstruct", "--complex", "k.cx", "--no-strict"],
        ["reconstruct", "--complex", "k.cx", "--codim-zero"],
        ["verify", "--codim-zero"],
    ],
    ids=["reconstruct-no-strict", "reconstruct-codim-zero", "verify-codim-zero"],
)
def test_cli_deleted_reconstruction_flags_exit_two(capsys, argv):
    # reconstruct decides the lifted pass and the basis from the diagrams
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["generate", "--n0", "4", "--dim", "3", "--kappa", "2", "--density", "abc"],
        ["generate", "--n0", "4", "--dim", "3", "--kappa", "2", "--density", ","],
        ["generate", "--n0", "4", "--dim", "3", "--kappa", "2",
         "--denominator-bound", "0"],
        ["generate", "--n0", "4", "--dim", "3", "--kappa", "2",
         "--denominator-bound", "-3"],
        ["verify", "--trials", "-2"],
        ["generate", "--n0", "3", "--dim", "2", "--kappa", "-1"],
        ["verify", "--trials", "2", "--kappa", "-3"],
        ["generate", "--n0", "600", "--dim", "2", "--kappa", "0"],
    ],
    ids=["density-abc", "density-comma", "bound-zero", "bound-negative",
         "negative-trials", "generate-negative-kappa", "verify-negative-kappa",
         "n0-past-first-coordinates"],
)
def test_cli_generate_and_verify_reject_bad_input(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert "error:" in captured.err
    assert captured.out == ""


def test_cli_error_reporting(capsys, tmp_path):
    bad = tmp_path / "bad.cx"
    bad.write_text("dim 2\nvertices 1\n0 x y\nsimplices 0\n")
    code = main(["stats", "--complex", str(bad)])
    err = capsys.readouterr().err
    assert code == 2
    assert "error:" in err


UNREADABLE_CALLS = {
    "apd": ["apd", "--dir", "1,0"],
    "curves": ["curves", "--dir", "1,0", "--kind", "euler"],
    "reconstruct": ["reconstruct"],
    "stats": ["stats"],
}


@pytest.mark.parametrize("argv", UNREADABLE_CALLS.values(), ids=UNREADABLE_CALLS.keys())
@pytest.mark.parametrize(
    "content",
    [None, b"dim 2\nvertices 1\n0 \xff 0\nsimplices 0\n"],
    ids=["missing", "not-utf8"],
)
def test_cli_unreadable_complex_file_exits_two(capsys, tmp_path, argv, content):
    path = tmp_path / "K.cx"
    if content is not None:
        path.write_bytes(content)
    code = main(argv + ["--complex", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error:") and str(path) in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "text",
    [
        "dim 2\nvertices x\nsimplices 0\n",
        "dim 2\nvertices 1\n0 0 0\nsimplices x\n",
        "dim 2\nvertices -1\nsimplices 0\n",
        "dim 2\nvertices 1\n0 0 0\nsimplices -1\n",
        "dim 0\nvertices 1\n0\nsimplices 0\n",
        "dim -2\nvertices 0\nsimplices 0\n",
    ],
    ids=["vertices-x", "simplices-x", "vertices-neg", "simplices-neg", "dim-0", "dim-neg"],
)
def test_cli_rejects_bad_header_counts(capsys, tmp_path, text):
    bad = tmp_path / "bad.cx"
    bad.write_text(text)
    code = main(["stats", "--complex", str(bad)])
    assert code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["apd", "--dir", "1,x"],
        ["apd", "--dir", "1/0,1"],
        ["apd", "--dir", "0,0"],
        ["apd", "--dir", "1,0,0"],
        ["curves", "--kind", "euler", "--dir", "0,0"],
        ["curves", "--kind", "betti", "--dir", "0,0"],
    ],
    ids=["apd-not-rational", "apd-zero-denominator", "apd-zero", "apd-wrong-length",
         "euler-zero", "betti-zero"],
)
def test_cli_rejects_bad_directions(capsys, triangle_file, argv):
    code = main(argv + ["--complex", triangle_file])
    assert code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["apd", "--dir", "1,0", "--dim", "-1"],
        ["curves", "--dir", "1,0", "--kind", "betti", "--dim", "-1"],
        ["curves", "--dir", "1,0", "--kind", "betti", "--dim", "-3"],
        ["curves", "--dir", "1,0", "--kind", "euler", "--dim", "-1"],
    ],
    ids=["apd", "betti-minus-one", "betti-minus-three", "euler"],
)
def test_cli_rejects_negative_dimensions(capsys, triangle_file, argv):
    """A negative --dim is an error, not an empty diagram or curve."""
    code = main(argv + ["--complex", triangle_file])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "--dim" in err


@pytest.mark.parametrize(
    "text, line",
    [
        ("dim 2\nvertices 2\n0 0 0\n1 1 1\nsimplices 1\n0 0\n", 6),
        ("dim 1\nvertices 3\n0 0\n1 1\n2 2\nsimplices 1\n0 1 2\n", 7),
    ],
    ids=["repeated-vertex", "too-many-vertices"],
)
def test_cli_rejects_bad_simplex_records_with_line(capsys, tmp_path, text, line):
    bad = tmp_path / "bad.cx"
    bad.write_text(text)
    code = main(["stats", "--complex", str(bad)])
    assert code == 2
    assert f"line {line}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, line",
    [
        ("dim 1\nvertices 3\n5 0\n7 1\n9 2\nsimplices 1\n5 7\n", 3),
        ("dim 1\nvertices 2\n0 0\n-1 1\nsimplices 0\n", 4),
    ],
    ids=["sparse-id", "negative-id"],
)
def test_cli_rejects_vertex_ids_outside_dense_range(capsys, tmp_path, text, line):
    bad = tmp_path / "bad.cx"
    bad.write_text(text)
    for command in ("stats", "reconstruct"):
        code = main([command, "--complex", str(bad)])
        assert code == 2
        assert f"line {line}" in capsys.readouterr().err


@st.composite
def well_formed_texts(draw, dim):
    """Files that parse, with coordinate ties and collinear points allowed."""
    n0 = draw(st.integers(0, 5))
    lines = [f"dim {dim}", f"vertices {n0}"]
    coord = st.integers(-3, 3).map(str)
    for vid in range(n0):
        lines.append(" ".join([str(vid)] + draw(st.lists(coord, min_size=dim, max_size=dim))))
    records = []
    if n0:
        simplex = st.sets(st.integers(0, n0 - 1), min_size=1, max_size=min(dim + 1, n0))
        records = draw(st.lists(simplex, max_size=3))
    lines.append(f"simplices {len(records)}")
    lines.extend(" ".join(map(str, sorted(r))) for r in records)
    return "\n".join(lines) + "\n"


rational_tokens = st.one_of(
    st.integers(-3, 3).map(str), st.sampled_from(["1/2", "-3/4", "1/0", "x", "", "1.5"])
)


@st.composite
def cli_calls(draw):
    command = draw(st.sampled_from(["stats", "apd", "curves"]))
    dim = draw(st.integers(1, 3))
    text = draw(st.one_of(well_formed_texts(dim), well_formed_texts(dim), complex_texts()))
    direction = draw(st.one_of(
        st.lists(st.integers(-3, 3).map(str), min_size=dim, max_size=dim).map(",".join),
        st.lists(rational_tokens, max_size=4).map(",".join),
        st.text(alphabet="0123456789/-,. ex", max_size=8),
    ))
    options = []
    if command != "stats":
        options.append(f"--dir={direction}")
    if command == "curves":
        options += ["--kind", draw(st.sampled_from(["betti", "euler"]))]
    filtration_dim = draw(st.none() | st.integers(-1, 4))
    if command != "stats" and filtration_dim is not None:
        options += ["--dim", str(filtration_dim)]
    return command, text, options


@pytest.fixture(scope="module")
def fuzz_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "fuzz.cx"


@settings(max_examples=150, deadline=None)
@given(cli_calls())
@example(call=("apd", "dim 1\nvertices 1\n0 0\nsimplices 0\n", ["--dir=1e5000"]))
def test_cli_fuzz_exits_zero_or_two(fuzz_file, call):
    command, text, options = call
    fuzz_file.write_text(text)
    try:
        code = main([command, "--complex", str(fuzz_file)] + options)
    except SystemExit as exc:
        code = exc.code
    assert code in (0, 2)


def triangle_text(x):
    """A 2-d triangle whose second vertex has first coordinate x."""
    return f"dim 2\nvertices 3\n0 0 0\n1 {x} 2\n2 3 1\nsimplices 1\n0 1 2\n"


HUGE = "1e5000"  # its integer has more digits than Python prints by default
OUTPUTS = [
    "apd --dir {}",
    "curves --dir {} --kind betti",
    "curves --dir {} --kind euler",
    "reconstruct",
    "stats",
]


HUGE_CASES = [(c.format(HUGE + ",1"), triangle_text(1)) for c in OUTPUTS[:3]] + [
    (c.format("1,0"), triangle_text(HUGE)) for c in OUTPUTS
]


@pytest.mark.parametrize(
    "command, text",
    HUGE_CASES,
    ids=[c + (" | huge coordinate" if HUGE in t else "") for c, t in HUGE_CASES],
)
def test_huge_numbers_exit_zero_or_two_without_a_traceback(
    capsys, tmp_path, command, text
):
    """1e5000 in a direction or in a coordinate ends as an exit code, 0 or
    2 with an error line, never as an exception out of main."""
    path = tmp_path / "huge.cx"
    path.write_text(text)
    code = main(command.split() + ["--complex", str(path)])
    err = capsys.readouterr().err
    assert code in (0, 2)
    assert "Traceback" not in err
    assert code == 0 or err.startswith("error:")


def test_a_huge_exponent_is_refused_before_it_is_built(capsys, triangle_file):
    """The parse bound refuses 1e100000000 from its text: an integer of 332
    million bits is never built."""
    start = time.perf_counter()
    code = main(["apd", "--complex", triangle_file, "--dir=1e100000000,1"])
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert capsys.readouterr().err.startswith("error: bad direction")


@pytest.mark.parametrize("command", OUTPUTS[:4])
def test_exact_output_longer_than_the_str_digit_limit_is_printed(
    capsys, tmp_path, command
):
    """1e3000 parses, and under the direction (1e3000, 1) the vertex
    (1e3000, 2) has height 10^6000 + 2, more digits than Python converts to
    text by default: every output path prints it exactly and restores the
    limit afterwards."""
    path = tmp_path / "wide.cx"
    path.write_text(triangle_text("1e3000"))
    limit = sys.get_int_max_str_digits()
    code, out = run(capsys, *command.format("1e3000,1").split(), "--complex", str(path))
    assert code == 0
    assert sys.get_int_max_str_digits() == limit
    if command == "reconstruct":
        assert complexes_match(parse_complex(out), parse_complex(path.read_text()))
    else:
        assert "1" + "0" * 5999 + "2" in out.split()  # 10^6000 + 2


@pytest.mark.parametrize("command", ["stats", "apd --dir 1,0", "reconstruct"])
def test_cli_closed_pipe_exits_one_without_a_traceback(
    capsys, monkeypatch, triangle_file, command
):
    """stdout is a pipe whose reader has gone, as in ``apdrec stats ... |
    head``: the write raises BrokenPipeError, main returns 1 and prints
    nothing to stderr, and the pipe's descriptor then points at os.devnull,
    so closing the stream flushes what is left without a second error."""
    import os

    read_end, write_end = os.pipe()
    os.close(read_end)
    closed = open(write_end, "w", encoding="utf-8")
    monkeypatch.setattr("sys.stdout", closed)
    code = main(command.split() + ["--complex", triangle_file])
    monkeypatch.undo()
    closed.write("more\n")
    closed.close()
    assert code == 1
    assert capsys.readouterr().err == ""
