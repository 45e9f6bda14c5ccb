"""Mutated structure files through every file command, and random
arguments through the commands that take no file or an inversion: bad
input exits 2 with one `error:` line, a failed law exits 1, and nothing
raises past main."""
import contextlib
import io
import pathlib

from hypothesis import given, settings
from hypothesis import strategies as st

from girardlab.cli import main
from girardlab.structfile import load

STRUCTURES = pathlib.Path(__file__).resolve().parent.parent / "structures"
TEXTS = [path.read_text() for path in sorted(STRUCTURES.glob("*.struct"))]

COMMANDS = [
    ["verify"],
    ["verify", "--format", "machine"],
    ["residuate"],
    ["girard"],
    ["blocks"],
    ["search-residuation", "--mode", "integral", "--budget", "300"],
    ["search-residuation", "--mode", "unital", "--budget", "300"],
    ["export-dot"],
]

# what a splice puts in: nothing, file syntax, keys, labels and out-of-range numbers
TOKENS = ["", "0", "1", "2", "7", "-1", "99", "1.5", "a", "a'", "x", ",", "[", "]", "[[", "]]",
          ":", " ", "\n", "#", '"', "\\", "[0,1]", "[1,0]", "elements: ", "covers: ",
          "ortho: ", "mul: ", "unit: ", "dualizing: ", "mul: [[0]]\n", "unit: 0\n"]


@st.composite
def mutated_files(draw):
    """A checked-in structure file after a few edits: splices, digits
    changed in place, which mostly keep the syntax, and lines dropped or
    repeated."""
    text = draw(st.sampled_from(TEXTS))
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["splice", "digit", "line"]))
        digits = [k for k, c in enumerate(text) if c.isdigit()]
        if kind == "splice":
            start = draw(st.integers(0, len(text)))
            end = draw(st.integers(start, min(len(text), start + 6)))
            text = text[:start] + draw(st.sampled_from(TOKENS)) + text[end:]
        elif kind == "digit" and digits:
            k = draw(st.sampled_from(digits))
            text = text[:k] + draw(st.sampled_from("0123456789")) + text[k + 1:]
        else:
            lines = text.split("\n")
            k = draw(st.integers(0, len(lines) - 1))
            lines[k:k + 1] = [lines[k]] * draw(st.integers(0, 2))  # drop or repeat a line
            text = "\n".join(lines)
    return text


def assert_exit_contract(argv):
    """main returns 0, 1 or 2, and 2 comes with one `error:` line."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), argv
    if code == 2:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), (argv, lines)


@settings(max_examples=60, deadline=None)
@given(mutated_files())
def test_mutated_file_commands(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("fuzz") / "mutated.struct"
    path.write_text(text)
    for command in COMMANDS:
        assert_exit_contract([command[0], str(path), *command[1:]])


SIZES = {path: load(path).n for path in sorted(STRUCTURES.glob("*.struct"))}
# finite coordinates; vectors() puts at most one bad entry into an argument
FINITE = ["0", "1", "-1", "2.5", " 3", "1e308", "-1e308", "5e-324"]
BAD_ENTRIES = ["inf", "nan", "x", ""]


def small(low, high, *outside):
    """An integer argument in low..high or one of a few values outside it."""
    return st.one_of(st.integers(low, high), st.sampled_from(outside)).map(str)


@st.composite
def vectors(draw, n):
    """Up to three vectors of finite coordinates, most of length n; now and
    then one coordinate is non-finite or not a number."""
    lengths = st.one_of(st.just(n), st.integers(0, 4))
    rows = draw(st.lists(lengths.flatmap(
        lambda k: st.lists(st.sampled_from(FINITE), min_size=k, max_size=k)), max_size=3))
    if rows and rows[0] and draw(st.integers(0, 3)) == 0:
        rows[0][draw(st.integers(0, len(rows[0]) - 1))] = draw(st.sampled_from(BAD_ENTRIES))
    return ";".join(",".join(row) for row in rows)


@st.composite
def argument_lists(draw):
    """Arguments that the parser accepts, with sizes kept small; `--x=value`
    keeps a value that starts with '-' from reading as an option."""
    command = draw(st.sampled_from(["rn", "rn-op", "gen", "enumerate", "girard"]))
    if command == "rn":
        argv = ["rn", f"--dim={draw(small(1, 5, -1, 0, 65, 10**6))}",
                f"--trials={draw(small(1, 3, -1, 0))}", f"--seed={draw(st.integers(0, 9))}",
                f"--format={draw(st.sampled_from(['human', 'machine']))}"]
    elif command == "rn-op":
        n = draw(st.sampled_from([-1, 0, 1, 2, 2, 3, 3, 4, 65]))
        op = draw(st.sampled_from(["mul", "meet", "join", "ortho", "residuum"]))
        argv = ["rn-op", f"--dim={n}", f"--op={op}", f"--a={draw(vectors(max(n, 0)))}"]
        if draw(st.integers(0, 3)) > 0:
            argv.append(f"--b={draw(vectors(max(n, 0)))}")
    elif command == "gen":
        family = draw(st.sampled_from(["lukasiewicz", "godel", "boolean"]))
        if family == "boolean":
            argv = ["gen", family, f"--atoms={draw(small(0, 4, -2, -1, 9, 10**6))}"]
        else:
            argv = ["gen", family, f"--size={draw(small(2, 8, -2, 0, 1, 257, 10**11))}"]
    elif command == "enumerate":
        argv = ["enumerate", f"--max-n={draw(small(1, 6, -1, 0, 13, 10**6))}"]
        argv += [flag for flag in ("--complemented", "--confirm-thm2") if draw(st.booleans())]
    else:
        path = draw(st.sampled_from(sorted(SIZES)))
        n = SIZES[path]
        entries = draw(st.one_of(
            st.just(range(n - 1, -1, -1)),  # an inversion of every chain
            st.permutations(range(n)),
            st.lists(st.sampled_from(["0", "1", "2", "7", "-1", "99", "1.5", "x", ""]),
                     max_size=9),
        ))
        argv = ["girard", str(path), f"--inversion={','.join(map(str, entries))}"]
    return argv


@settings(max_examples=150, deadline=None)
@given(argument_lists())
def test_random_arguments(argv):
    assert_exit_contract(argv)
