"""The README's library surface: its quick start runs as written, and the
top-level names it lists are the package's `__all__`."""

import re
from pathlib import Path

import sagnac_wva

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _section(title):
    start = README.index(f"\n## {title}\n")
    end = README.find("\n## ", start + 1)
    return README[start:end]


def test_quick_start_runs_as_written(capsys):
    code = re.search(r"```python\n(.*?)```", _section("Library quick start"), re.S).group(1)
    exec(compile(code, "README.md quick start", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    standard, biased = (float(x) for x in lines[0].split())
    assert standard < 0.0 < biased
    rows = [line.split()[:2] for line in lines[1:]]
    assert rows == [
        [scheme, quantity]
        for scheme in ("swm", "bwm")
        for quantity in ("delta_p", "delta_lambda", "postselect_prob")
    ]


def test_listed_top_level_names_are_the_package_all():
    section = _section("Library quick start")
    start = section.index("The package top level exports this surface:")
    listing = section[start : section.index("Everything else", start)]
    assert sorted(re.findall(r"`(\w+)`", listing)) == sorted(sagnac_wva.__all__)
