"""README's Library example runs, and gives the values its comments state."""

import os
import re

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def library_example():
    """The first fenced Python block of README's Library section."""
    with open(README) as fh:
        text = fh.read()
    section = text[text.index("\n## Library\n") :]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_example(capsys):
    scope = {}
    exec(compile(library_example(), "README.md", "exec"), scope)
    assert "regularity report: T" in capsys.readouterr().out
    rep = scope["T"].report()
    assert (rep.torreg_k.value, rep.cmreg.value, rep.asreg.value) == (1, -1, 0)
    assert all(v.is_exact for v in (rep.torreg_k, rep.cmreg, rep.asreg))
    assert (rep.as_regular.status, rep.as_regular.dim, rep.as_regular.index) == ("yes", 3, 4)
    repB = scope["B"].report()
    assert repB.asreg.is_exact and repB.asreg.value == 1
    assert repB.as_regular.status != "yes"
