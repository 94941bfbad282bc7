"""Each CLI subcommand loads only its own algorithm family, and no
standard-library module it does not use. Every case runs ``wqlang.cli.main``
in a fresh interpreter and reads what it left in ``sys.modules``; importing
the package alone loads no submodule."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from wqlang.formats import dump_nfa, dump_slp_binary
from wqlang.slpsearch.slp import repair_compress

from conftest import make_fig42_n1, make_fig42_n2

SRC = str(Path(__file__).resolve().parents[1] / "src")
TEXT = b"INFO ok\nERROR disk\nINFO ok\n" * 4


def _modules(code: str) -> set[str]:
    """The modules loaded after running ``code`` in a fresh interpreter."""
    path = [SRC, *filter(None, [os.environ.get("PYTHONPATH")])]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    probe = code + "\nimport sys\nprint(' '.join(sorted(sys.modules)))"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout
    return set(out.splitlines()[-1].split())


def _loaded(code: str) -> set[str]:
    """The ``wqlang`` modules loaded after running ``code`` in a fresh
    interpreter."""
    return {m for m in _modules(code) if m.startswith("wqlang")}


@pytest.fixture
def files(tmp_path):
    paths = {"text": tmp_path / "log.txt", "slp": tmp_path / "log.slp"}
    paths["text"].write_bytes(TEXT)
    paths["slp"].write_bytes(dump_slp_binary(repair_compress(TEXT)))
    for name, nfa in (("n1", make_fig42_n1()), ("n2", make_fig42_n2())):
        paths[name] = tmp_path / f"{name}.nfa"
        paths[name].write_bytes(dump_nfa(nfa))
    paths["out"] = tmp_path / "out"
    return {k: str(v) for k, v in paths.items()}


# every algorithm module but the SLP's own, relative to ``wqlang``
ALGORITHMS = {
    "automata",
    "fixpoint",
    "quasiorder",
    "inclusion",
    "residual",
    "learn",
    "slpsearch.regex",
    "slpsearch.counting",
}

# the residual constructions and the learner load neither the inclusion
# checkers nor any SLP module
RESIDUAL_ABSENT = {"inclusion", "slpsearch", "slpsearch.slp", "slpsearch.regex", "slpsearch.counting", "slpsearch._repair"}


@pytest.mark.parametrize(
    "argv, absent",
    [
        (["compress", "{text}", "-o", "{out}"], ALGORITHMS),
        (["decompress", "{slp}", "-o", "{out}"], ALGORITHMS),
        (["include", "nfa", "{n1}", "{n2}"], {"slpsearch.slp", "slpsearch.regex", "slpsearch.counting", "slpsearch._repair", "residual", "learn"}),
        (["search", "-e", "ERROR", "{slp}"], {"inclusion", "residual", "learn", "slpsearch._repair"}),
        (["canonical", "{n2}", "-o", "{out}"], RESIDUAL_ABSENT),
        (["residualize", "{n2}", "-o", "{out}"], RESIDUAL_ABSENT),
        (["learn", "{n2}", "-o", "{out}"], RESIDUAL_ABSENT),
    ],
    ids=["compress", "decompress", "include-nfa", "search", "canonical", "residualize", "learn"],
)
def test_subcommand_loads_only_its_family(files, argv, absent):
    argv = [arg.format(**files) for arg in argv]
    loaded = _loaded(f"from wqlang.cli import main\nassert main({argv!r}) == 0")
    assert loaded & {f"wqlang.{m}" for m in absent} == set()
    assert "wqlang.cli" in loaded


@pytest.mark.parametrize(
    "argv",
    [
        ["include", "nfa", "{n1}", "{n2}"],
        ["canonical", "{n2}", "-o", "{out}"],
        ["learn", "{n2}", "-o", "{out}"],
        ["search", "-e", "ERROR", "{slp}"],
        ["search", "-e", "ERROR", "{slp}", "--report", "--stats"],
        ["compress", "{text}", "-o", "{out}"],
        ["decompress", "{slp}", "-o", "{out}"],
    ],
    ids=["include-nfa", "canonical", "learn", "search", "search-report-stats", "compress", "decompress"],
)
def test_subcommand_loads_no_dataclasses_inspect_or_json(files, argv):
    # the records these commands build are named tuples or slotted classes,
    # and ``json`` is imported only to print a ``--json`` result
    argv = [arg.format(**files) for arg in argv]
    loaded = _modules(f"from wqlang.cli import main\nassert main({argv!r}) == 0")
    assert loaded & {"dataclasses", "inspect", "json"} == set()


def test_search_modules_load_no_dataclasses_inspect_or_json():
    loaded = _modules("import wqlang.slpsearch.regex, wqlang.slpsearch.counting")
    assert loaded & {"dataclasses", "inspect", "json"} == set()


def test_importing_the_package_loads_no_submodule():
    assert _loaded("import wqlang") == {"wqlang"}
