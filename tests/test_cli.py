from fractions import Fraction

import pytest

from apdrec import parse_complex, serialize_complex
from apdrec.cli import main

from conftest import cx


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

    code, out = run(
        capsys,
        "reconstruct", "--complex", triangle_file, "--codim-zero", "--stats",
    )
    assert code == 0
    recovered = parse_complex(
        "\n".join(l for l in out.splitlines() if not l.startswith("#"))
    )
    assert recovered == parse_complex(open(triangle_file).read())
    assert "# lifted queries:" in out


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


def test_cli_error_reporting(capsys, tmp_path):
    bad = tmp_path / "bad.cx"
    bad.write_text("dim 2\nvertices 1\n0 x y\nsimplices 0\n")
    code = main(["stats", "--complex", str(bad)])
    err = capsys.readouterr().err
    assert code == 2
    assert "error:" in err


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
