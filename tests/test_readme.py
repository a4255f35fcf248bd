"""The ```python examples of README.md print what their comments say."""

import contextlib
import io
import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
NUMBER = re.compile(r"-?\d+(?:\.\d+)?")


def examples(text):
    """Each ```python block with the comments its print lines promise.

    A print line promises its trailing comment or, without one, the
    comment line that follows it.
    """
    for block in re.findall(r"```python\n(.*?)```", text, re.S):
        lines = block.splitlines()
        promised = []
        for k, line in enumerate(lines):
            if line.startswith("print("):
                comment = line if "#" in line else lines[k + 1]
                promised.append(comment.split("#", 1)[1].strip())
        yield block, promised


def matches(printed, promised):
    """``printed`` equals ``promised``, each number to the digits shown."""
    got, want = NUMBER.split(printed), NUMBER.split(promised)
    if got != want:
        return False
    for g, w in zip(NUMBER.findall(printed), NUMBER.findall(promised)):
        digits = len(w.partition(".")[2])
        if f"{float(g):.{digits}f}" != w:
            return False
    return True


def test_matches_reads_each_number_to_the_digits_shown():
    assert matches("0.31893 True", "0.3189 True")
    assert matches("[-0.0829, 1649]", "[-0.0829, 1649]")
    assert not matches("0.31896", "0.3189")
    assert not matches("False 1169", "True 1169")
    assert not matches("1170", "1169")


def test_readme_examples_print_what_their_comments_say():
    namespace = {}
    blocks = list(examples(README.read_text()))
    assert len(blocks) == 3
    for block, promised in blocks:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(compile(block, str(README), "exec"), namespace)
        printed = out.getvalue().splitlines()
        assert len(printed) == len(promised)
        for got, want in zip(printed, promised):
            assert matches(got, want), (got, want)
