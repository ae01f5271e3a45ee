"""The package's public names, and README's tour of them."""

import os
import re

import mtfuse


def test_every_export_resolves_and_star_import_works():
    assert [name for name in mtfuse.__all__ if not hasattr(mtfuse, name)] == []
    assert len(set(mtfuse.__all__)) == len(mtfuse.__all__)
    namespace = {}
    exec("from mtfuse import *", namespace)
    assert set(mtfuse.__all__) <= set(namespace)


def test_readme_quick_tour_runs():
    # the Quick tour's python blocks, run in order in one namespace, as a
    # reader pastes them
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        section = fh.read().split("\n## Quick tour (Python)\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"^```python\n(.*?)^```$", section, re.M | re.S)
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
    assert isinstance(namespace["model"], mtfuse.ClientModel)
