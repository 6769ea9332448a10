"""README's python examples run as written, in order, in one namespace, and the package names it uses resolve.

A public name that README uses, in a python block, as a backticked dotted name such as
`Strategy.relay_map` or as a bare backticked constant or class name such as `BLOCK_ENTRIES` or
`ChannelSet`, and that the package no longer has fails here.
"""

import dataclasses
import importlib
import pkgutil
import re
from pathlib import Path

import relay_align
from relay_align import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), flags=re.S | re.M)
    assert blocks
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)


def _resolves(obj, attrs: list[str]) -> bool:
    """Whether obj.attr1.attr2... exists, every field of a dataclass, init=False ones included, an attribute."""
    for attr in attrs:
        fields = {f.name for f in dataclasses.fields(obj)} if dataclasses.is_dataclass(obj) else set()
        if not hasattr(obj, attr) and attr not in fields:
            return False
        obj = getattr(obj, attr, None)
    return True


def test_readme_dotted_names_resolve():
    # a dotted name in backticks is the package's when its head is relay_align, one of its modules or one of
    # the package's names (Link, Strategy, ...); others (np.intp, link.rows, test_golden.py) are not checked.
    # A bare backticked ALL_CAPS_WITH_UNDERSCORE or CamelCase name (BLOCK_ENTRIES, ChannelSet) must be a name
    # of relay_align or of one of its modules; the one exception is the seed's environment variable.
    modules = {m.name: importlib.import_module(f"relay_align.{m.name}")
               for m in pkgutil.iter_modules(relay_align.__path__)}
    heads = {"relay_align": relay_align, **vars(relay_align), **modules}
    spans = re.findall(r"`([^`\n]+)`", README.read_text())
    dotted = r"\b[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+"
    names = {tuple(name.split(".")) for span in spans for name in re.findall(dotted, span)}
    ours = sorted(name for name in names if name[0] in heads)
    stale = [".".join(name) for name in ours if not _resolves(heads[name[0]], name[1:])]
    bare = r"[A-Z][A-Z0-9]*(?:_[A-Z0-9]+)+|[A-Z][a-z0-9]+(?:[A-Z][a-z0-9]*)+"
    ours_bare = sorted({span for span in spans if re.fullmatch(bare, span) and span != cli.SEED_ENV_VAR})
    stale += [name for name in ours_bare if not any(hasattr(m, name) for m in [relay_align, *modules.values()])]
    assert ours and ours_bare and not stale, f"README names what the package does not have: {stale}"
