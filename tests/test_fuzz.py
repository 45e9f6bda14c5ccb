"""Mutated structure files through every file command: bad input exits 2
with one `error:` line, a failed law exits 1, and nothing raises past
main."""
import contextlib
import io
import pathlib

from hypothesis import given, settings
from hypothesis import strategies as st

from girardlab.cli import main

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


@settings(max_examples=60, deadline=None)
@given(mutated_files())
def test_mutated_file_commands(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("fuzz") / "mutated.struct"
    path.write_text(text)
    for command in COMMANDS:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command[0], str(path), *command[1:]])
        assert code in (0, 1, 2), command
        if code == 2:
            lines = err.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: "), (command, lines)
