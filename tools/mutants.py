"""Mutation smoke: the tests must fail when a check is removed.

Each mutant is one exact-text edit of a file under ``src/apdrec``: a check
turned off, a result forced, two values swapped.  For each, the tool copies
``src/``, ``tests/`` and ``pyproject.toml`` to a temporary directory, makes
the edit there (never in the checkout), and runs

    python -m pytest -x -q -p no:cacheprovider <selection>

in the copy.  The mutant is killed when the selection fails, and survives
when it passes.  Run from anywhere, with no arguments:

    python tools/mutants.py

Before any mutant, each distinct selection runs once on an unmutated copy,
and the tool exits 1 if one fails there: a selection that already fails
would report every mutant on it as killed.  It prints one line per
selection and per mutant, and exits 1 if a mutant survives, if pytest ends
in anything other than a pass or a test failure (a mutant that does not
import is no test of the checks), or if an old text does not occur exactly
once in its file; the texts are all checked before any test runs.
A new mutant goes at the end of the list; a survivor is a missing test,
never a reason to drop the mutant.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str
    new: str
    selection: Tuple[str, ...]


MUTANTS = [
    Mutant(
        "verify_roundtrip reports every round trip exact",
        "src/apdrec/harness.py",
        "    exact = matched == truth_set\n",
        "    exact = True\n",
        ("tests/test_harness.py",),
    ),
    Mutant(
        "complexes_match returns True",
        "src/apdrec/harness.py",
        "    return _in_truth_ids(recovered, truth) == set(truth.simplices)\n",
        "    return True\n",
        ("tests/test_harness.py",),
    ),
    Mutant(
        "find_coordinate: the birth-count check of e_i off",
        "src/apdrec/vertices.py",
        "    if len(target_heights) != len(heights):\n",
        "    if False:\n",
        ("tests/test_vertices.py",),
    ),
    Mutant(
        "find_coordinate: the birth-count check of s_t off",
        "src/apdrec/vertices.py",
        "    if len(tilted) != len(heights):\n",
        "    if False:\n",
        ("tests/test_vertices.py",),
    ),
    Mutant(
        "CountLedger.check checks no diagram",
        "src/apdrec/vertices.py",
        "        for dgm, levels in zip(self.diagrams, self.levels):\n",
        "        for dgm, levels in zip(self.diagrams[:0], self.levels):\n",
        ("tests/test_higher.py",),
    ),
    Mutant(
        "euler_curve_from_apd swaps even and odd",
        "src/apdrec/descriptors.py",
        "            even += de\n            odd += do\n",
        "            even += do\n            odd += de\n",
        ("tests/test_descriptors.py",),
    ),
    Mutant(
        "edge stage: the equal-count check of record off",
        "src/apdrec/edges.py",
        "            if prefix.setdefault(end, count) != count:\n",
        "            if prefix.setdefault(end, count) != count and False:\n",
        ("tests/test_edges.py",),
    ),
    Mutant(
        "edge stage: the 0 <= count <= end - start check off",
        "src/apdrec/edges.py",
        "        if not 0 <= count <= end - start:\n",
        "        if False:\n",
        ("tests/test_edges.py",),
    ),
    Mutant(
        "_level_count: the lone-vertex check off",
        "src/apdrec/higher.py",
        "    if dgm.counts(0)[level] != len(simplex):\n",
        "    if False:\n",
        ("tests/test_higher.py",),
    ),
    Mutant(
        "reduction: upto[l] keeps one vertex star per level",
        "src/apdrec/oracle.py",
        "                upto[l] |= star\n",
        "                upto[l] = star\n",
        ("tests/test_oracle.py",),
    ),
    Mutant(
        "compute_indegree swaps the face and complement tilts",
        "src/apdrec/higher.py",
        "            tilted[i], tilted[-1 - i] = _tilted(",
        "            tilted[-1 - i], tilted[i] = _tilted(",
        ("tests/test_higher.py",),
    ),
    Mutant(
        "format_rational writes through str(Fraction)",
        "src/apdrec/geometry.py",
        "    x = Fraction(x)\n    text = str(Decimal(x.numerator))\n"
        '    return text if x.denominator == 1 else f"{text}/{Decimal(x.denominator)}"\n',
        "    return str(Fraction(x))\n",
        ("tests/test_complexes.py",),
    ),
    Mutant(
        "AugmentedDiagram.locate gives None off the grid",
        "src/apdrec/oracle.py",
        "        if None in levels:\n",
        "        if False:\n",
        ("tests/test_vertices.py", "tests/test_edges.py", "tests/test_higher.py"),
    ),
    Mutant(
        "split_wedge's reading locates at q * unit",
        "src/apdrec/edges.py",
        "    levels = dgm.locate([p * a - q * b for a, b in plane], unit)\n",
        "    levels = dgm.locate([p * a - q * b for a, b in plane], q * unit)\n",
        ("tests/test_edges.py",),
    ),
    Mutant(
        "separating_direction returns q * y - p * x",
        "src/apdrec/geometry.py",
        "    return tuple([p * x - q * y for x, y in zip(frame.u1, frame.u2)])\n",
        "    return tuple([q * y - p * x for x, y in zip(frame.u1, frame.u2)])\n",
        ("tests/test_geometry.py",),
    ),
    Mutant(
        "find_coordinate: up back to q * base_den",
        "src/apdrec/vertices.py",
        "    up, down = base_den, (q - n) * tilted_den\n",
        "    up, down = q * base_den, (q - n) * tilted_den\n",
        ("tests/test_vertices.py",),
    ),
    Mutant(
        "_read_direction reads without as_vector's error conversion",
        "src/apdrec/oracle.py",
        "    direction = as_vector(direction)\n",
        "    direction = tuple(direction)\n",
        ("tests/test_oracle.py",),
    ),
    Mutant(
        "as_vector converts no error to InvalidInput",
        "src/apdrec/geometry.py",
        "    except (TypeError, ValueError, OverflowError, ZeroDivisionError) as exc:"
        "\n",
        "    except () as exc:\n",
        ("tests/test_geometry.py",),
    ),
    Mutant(
        "parallel skips the minors through the first column",
        "src/apdrec/geometry.py",
        "    for i in range(n):\n        for j in range(i + 1, n):\n",
        "    for i in range(1, n):\n        for j in range(i + 1, n):\n",
        ("tests/test_geometry.py",),
    ),
    Mutant(
        "as_vector's all-int path takes any entry",
        "src/apdrec/geometry.py",
        "        if _all_ints(coords):\n",
        "        if True:\n",
        ("tests/test_geometry.py",),
    ),
    Mutant(
        "scale_to_integers' all-int path takes any row",
        "src/apdrec/geometry.py",
        "    if all(map(_all_ints, rows)):\n",
        "    if True:\n",
        ("tests/test_geometry.py",),
    ),
    Mutant(
        "primitive_direction's int path takes no gcd",
        "src/apdrec/geometry.py",
        "    if not _all_ints(d):\n        (d,), _ = scale_to_integers([d])\n",
        "    if _all_ints(d):\n"
        "        return tuple(d)\n"
        "    (d,), _ = scale_to_integers([d])\n",
        ("tests/test_geometry.py",),
    ),
    Mutant(
        "CountLedger.add reads at dgm.denominator",
        "src/apdrec/vertices.py",
        "        levels = dgm.locate([dot(s, p) for p in self.scaled], self.scale)\n",
        "        levels = dgm.locate([dot(s, p) for p in self.scaled], dgm.denominator)"
        "\n",
        ("tests/test_vertices.py",),
    ),
    Mutant(
        "scale_to_integers lets a float through",
        "src/apdrec/geometry.py",
        "    if not all(isinstance(x, (int, Fraction)) for row in rows for x in row):\n"
        '        raise InvalidInput("entries must be ints or Fractions")\n',
        "",
        ("tests/test_geometry.py",),
    ),
    Mutant(
        "_cofaces reads only the first and last ledger diagrams",
        "src/apdrec/higher.py",
        "            if not all(map(getitem, left, at)) and at not in placed:\n",
        "            if not all(map(getitem, (left[0], left[-1]), (at[0], at[-1])))"
        " and at not in placed:\n",
        ("tests/test_higher.py",),
    ),
    Mutant(
        "_cofaces skips in a middle diagram past a found simplex's levels",
        "src/apdrec/higher.py",
        "            if not all(map(getitem, left, at)) and at not in placed:\n",
        "            if not all(map(getitem, left, at)):\n",
        ("tests/test_higher.py",),
    ),
    Mutant(
        "a flipped in-plane cut counts the edges below, not deg - count",
        "src/apdrec/edges.py",
        "            p, q, edges = -p, -q, list(map(operator.sub, degree, edges))\n",
        "            p, q = -p, -q\n",
        ("tests/test_edges.py",),
    ),
    Mutant(
        "an in-plane diagram is read at a vertex that shares its height",
        "src/apdrec/edges.py",
        "[e if m == 1 else None for m, e in zip(shared, edges)]",
        "edges",
        ("tests/test_edges.py",),
    ),
    Mutant(
        "tilt lets a float through",
        "src/apdrec/geometry.py",
        "        _check_rationals(weight, s, s_prime)\n",
        "        pass\n",
        ("tests/test_geometry.py",),
    ),
    Mutant(
        "radial_order lets a float through",
        "src/apdrec/geometry.py",
        "        _check_rationals(*offsets.values())\n",
        "        pass\n",
        ("tests/test_geometry.py",),
    ),
    Mutant(
        "find_edges ends without the ledger's count check",
        "src/apdrec/edges.py",
        "    ledger.check(edges, 1)\n    return edges\n",
        "    return edges\n",
        ("tests/test_edges.py",),
    ),
    Mutant(
        "reduction: the pivot is the lowest set bit",
        "src/apdrec/oracle.py",
        "                    pivot = low.bit_length() - 1\n",
        "                    pivot = (low & -low).bit_length() - 1\n",
        ("tests/test_oracle.py",),
    ),
    Mutant(
        "reduction: a death is not marked paired, so clearing misses it",
        "src/apdrec/oracle.py",
        "                        partner[j] = i\n",
        "",
        ("tests/test_oracle.py",),
    ),
    Mutant(
        "reduction: ties within a level in descending static index",
        "src/apdrec/oracle.py",
        "    return [i for b in buckets for i in b]\n",
        "    return [i for b in buckets for i in reversed(b)]\n",
        ("tests/test_oracle.py",),
    ),
    Mutant(
        "reduction: a zero-persistence pair counted one level up",
        "src/apdrec/oracle.py",
        "                        if l == born:\n",
        "                        if l == born + 1:\n",
        ("tests/test_oracle.py",),
    ),
    Mutant(
        "split_wedge's reading counts at a vertex that shares its height",
        "src/apdrec/edges.py",
        "    return p, q, [edges[i] if vertices[i] == 1 else None for i in levels]\n",
        "    return p, q, [edges[i] for i in levels]\n",
        ("tests/test_edges.py",),
    ),
    Mutant(
        "radial_order sorts in ascending slope",
        "src/apdrec/geometry.py",
        "            entries.append((-((y * bound) // x), vid, (x, y)))\n",
        "            entries.append(((y * bound) // x, vid, (x, y)))\n",
        ("tests/test_geometry.py",),
    ),
    Mutant(
        "separating_slope reads the neighbour of the next higher slope",
        "src/apdrec/geometry.py",
        "    a, b = order[i + 1][1] if i + 1 < len(order) else (x, y - 2 * x)\n",
        "    a, b = order[i - 1][1] if i else (x, y - 2 * x)\n",
        ("tests/test_geometry.py",),
    ),
    Mutant(
        "find_up_edges lists the known neighbours in descending slope",
        "src/apdrec/edges.py",
        "    downs = [off for vid, off in reversed(order) if vid in known]\n",
        "    downs = [off for vid, off in order if vid in known]\n",
        ("tests/test_edges.py",),
    ),
    Mutant(
        "tilt pairs vectors of two lengths",
        "src/apdrec/geometry.py",
        "    if len(a) != len(b):\n"
        '        raise InvalidInput(f"cannot compare vectors of lengths {len(a)} and '
        '{len(b)}")\n',
        "",
        ("tests/test_geometry.py",),
    ),
    Mutant(
        "_level_count: the constant-height check off",
        "src/apdrec/higher.py",
        "    if any(dot(direction, points[v]) != height for v in simplex[1:]):\n",
        "    if False:\n",
        ("tests/test_higher.py",),
    ),
    Mutant(
        "compute_indegree: the k > dim sigma check off",
        "src/apdrec/higher.py",
        "    if k <= len(sigma) - 1:\n",
        "    if False:\n",
        ("tests/test_higher.py",),
    ),
    Mutant(
        "is_simplex: the candidate-not-in-sigma check off",
        "src/apdrec/higher.py",
        "    if vertex in sigma:\n",
        "    if False:\n",
        ("tests/test_higher.py",),
    ),
    Mutant(
        "_cofaces decrements the diagrams' own rows",
        "src/apdrec/higher.py",
        "    left = [list(dgm.counts(dim)) for dgm in ledger.diagrams]\n",
        "    left = [dgm.counts(dim) for dgm in ledger.diagrams]\n",
        ("tests/test_higher.py",),
    ),
    Mutant(
        "second_perpendicular_direction takes V and s of two lengths",
        "src/apdrec/geometry.py",
        "    _one_length([s, *map(points.__getitem__, v)])\n",
        "",
        ("tests/test_geometry.py",),
    ),
    Mutant(
        "find_edges reads the sweep diagram of a ledger with no diagram",
        "src/apdrec/edges.py",
        "    if not ledger.diagrams or tuple(",
        "    if tuple(",
        ("tests/test_edges.py",),
    ),
    Mutant(
        "PositionCheck._plan gives a dependent subset a nonzero normal",
        "src/apdrec/complexes.py",
        "        points, zero = self.points, [0] * self.dim\n",
        "        points, zero = self.points, [1] * self.dim\n",
        ("tests/test_complexes.py",),
    ),
    Mutant(
        "second_perpendicular_direction: the id and height check off",
        "src/apdrec/geometry.py",
        "    if len(heights) != len(points) or not all(map(ids.__contains__, v)):\n",
        "    if False:\n",
        ("tests/test_geometry.py",),
    ),
    Mutant(
        "tilt: the 0 < n < q weight check off",
        "src/apdrec/geometry.py",
        "        if not 0 < n < q:\n",
        "        if False:\n",
        ("tests/test_geometry.py",),
    ),
    Mutant(
        "separating_direction: the slope check off",
        "src/apdrec/geometry.py",
        "    if not (_all_ints((p, q)) and q > 0):\n",
        "    if False:\n",
        ("tests/test_geometry.py",),
    ),
    Mutant(
        "euler_curve_direct reads the diagram's Euler curve",
        "src/apdrec/descriptors.py",
        "    direction = _read_direction(direction, complex_.ambient_dim)\n",
        "    from .oracle import compute_apd\n\n"
        "    return euler_curve_from_apd(compute_apd(complex_, direction))\n",
        ("tests/test_descriptors.py",),
    ),
]


def check_texts() -> list:
    """One line per mutant whose old text does not occur exactly once."""
    bad = []
    for m in MUTANTS:
        count = (ROOT / m.path).read_text(encoding="utf-8").count(m.old)
        if count != 1:
            bad.append(f"{m.name}: old text occurs {count} times in {m.path}")
    return bad


def run(
    selection: Tuple[str, ...], mutant: Optional[Mutant] = None
) -> Tuple[int, float]:
    """pytest's exit code on the selection in a temporary copy, with the
    mutant applied when one is given, and the seconds it took."""
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis")
    with tempfile.TemporaryDirectory(prefix="apdrec-mutant-") as tmp:
        copy = Path(tmp)
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, copy / name, ignore=ignore)
        shutil.copy2(ROOT / "pyproject.toml", copy / "pyproject.toml")
        if mutant is not None:
            target = copy / mutant.path
            text = target.read_text(encoding="utf-8")
            target.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(copy / "src"))
        command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]
        start = time.perf_counter()
        done = subprocess.run(
            command + list(selection),
            cwd=copy,
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        return done.returncode, time.perf_counter() - start


def main() -> int:
    bad = check_texts()
    for line in bad:
        print(f"error: {line}")
    if bad:
        return 1
    broken = 0
    for selection in dict.fromkeys(m.selection for m in MUTANTS):
        code, seconds = run(selection)
        verdict = "passes" if code == 0 else f"pytest exit {code}"
        broken += code != 0
        print(f"{'baseline':>12}  {seconds:5.1f} s  {verdict}  [{' '.join(selection)}]")
    if broken:
        print(f"error: {broken} selection(s) fail unmutated; no mutant was run")
        return 1
    failed = 0
    for m in MUTANTS:
        code, seconds = run(m.selection, m)
        verdict = {0: "SURVIVED", 1: "killed"}.get(code, f"pytest exit {code}")
        failed += code != 1
        print(f"{verdict:>12}  {seconds:5.1f} s  {m.name}  [{' '.join(m.selection)}]")
    print(f"{len(MUTANTS) - failed}/{len(MUTANTS)} mutants killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
