"""README.md states the user contract, and this reads it back: each fenced
model and event example must exit with the code the sentence after it
states, and each message the text quotes must be what the program gives."""
import io
import re
from pathlib import Path

import pytest

from syncheck import Envelope, SignatureSpace
from syncheck.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _run(args, stdin):
    """`syncheck` in process with `stdin`, text or bytes, read as UTF-8 as
    the installed script reads it: (exit code, stdout + stderr)."""
    data = stdin.encode("utf-8") if isinstance(stdin, str) else stdin
    out, err = io.StringIO(), io.StringIO()
    code = main(args, stdin=io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline="\n"), stdout=out, stderr=err)
    return code, out.getvalue() + err.getvalue()


def test_each_example_exits_as_the_text_after_it_says(tmp_path):
    # an unlabelled fence is an example, and the paragraph after it states
    # what `syncheck` exits with on it
    examples = [
        (fence[2], README[fence.end():].strip().split("\n\n")[0])
        for fence in re.finditer(r"^```(\w*)\n(.*?)^```$", README, re.M | re.S)
        if not fence[1]
    ]
    assert [(block.split(None, 1)[0], re.findall(r"exits (\d)", text)) for block, text in examples] == [
        ("P0:", ["2"]), ("process", ["0"]), ("append", ["2"]),
    ]
    for block, text in examples:
        if block.startswith("append"):
            code, _ = _run(["stream"], block)
        else:
            path = tmp_path / "example.txt"
            path.write_text(block, encoding="utf-8")
            code, _ = _run(["check", str(path)], "")
        assert f"exits {code}" in text, block


# (quote as the README gives it, argv with {path} for a model file holding
# the input, or None for a Python call, the input, the exit code, a line
# that the output must hold)
QUOTES = [
    ("P0: ab # note", ["check", "{path}"], "P0: ab # note\n", 3,
     "illegal: signature a involves processes [0]: occurs in 1 sequence, expected exactly 2"),
    ("P+1:", ["check", "{path}"], "P+1: a\n", 1, "1:2: BadInteger: bad process rank '+1'"),
    ("P1_0:", ["check", "{path}"], "P1_0: a\n", 1, "1:2: BadInteger: bad process rank '1_0'"),
    ("P-0:", ["check", "{path}"], "P-0: a\n", 1, "1:2: BadInteger: bad process rank '-0'"),
    ("usage error: argument --cap: must be >= 1, got 0", ["oracle", "{path}", "--cap", "0"], "a\na\n", 1,
     "usage error: argument --cap: must be >= 1, got 0"),
    ("bench: repetitions must be >= 1", ["bench", "--reps", "0"], "", 1, "bench: repetitions must be >= 1"),
    ("stdin:3: close takes one rank, got 'close 0 b c'", ["stream"], "append 0 a\nappend 1 a\nclose 0 b c\n", 1,
     "stdin:3: close takes one rank, got 'close 0 b c'"),
    ("stdin:5: end takes no arguments, got 'end now'", ["stream"], "append 0 a\nappend 1 a\nclose 0\nclose 1\nend now\n", 1,
     "stdin:5: end takes no arguments, got 'end now'"),
    ("protocol error: stream ended with open sequences [0]", ["stream"], "append 0 a\nappend 1 a\nclose 1\n", 1,
     "protocol error: stream ended with open sequences [0]"),
    ("stdin:1: tag has too many digits (5000)", ["stream"], "append 0 " + "1" * 5000 + ",0,1\n", 1,
     "stdin:1: tag has too many digits (5000)"),
    ("occurs in sequences [0, 2] but its envelope endpoints are [0, 1]", ["stream"], "append 0 5,0,1\nappend 2 5,0,1\n", 3,
     "illegal: signature 5,0,1,0 involves processes [0, 2]: occurs in sequences [0, 2] but its envelope endpoints are [0, 1]"),
    ("stdin: 'utf-8' codec can't decode byte 0xff in position 10: invalid start byte", ["stream"],
     b"append 0 a\xff\nappend 1 a\xff\nclose 0\nclose 1\n", 1,
     "stdin: 'utf-8' codec can't decode byte 0xff in position 10: invalid start byte"),
    ("signature space entry 0, (1, 0, 0, 0): self-message: source == destination == 0", None,
     lambda: SignatureSpace([(1, 0, 0, 0)]), None,
     "signature space entry 0, (1, 0, 0, 0): self-message: source == destination == 0"),
    ("character 'a' in a space of envelopes", None, lambda: SignatureSpace([Envelope(1, 0, 1)]).intern_character("a"), None,
     "character 'a' in a space of envelopes"),
]


@pytest.mark.parametrize("quote, args, given, code, line", QUOTES, ids=[row[0][:40] for row in QUOTES])
def test_each_quoted_message_is_what_the_program_gives(tmp_path, quote, args, given, code, line):
    assert quote in " ".join(README.split())  # a quote may wrap across lines
    if args is None:
        with pytest.raises(ValueError) as exc:
            given()
        assert str(exc.value) == line
        return
    path = tmp_path / "m.txt"
    if "{path}" in args:
        path.write_text(given, encoding="utf-8")
        given = ""
    got, output = _run([arg.replace("{path}", str(path)) for arg in args], given)
    assert got == code
    assert line in output.splitlines() or f"{path}: {line}" in output.splitlines(), output
