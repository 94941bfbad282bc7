"""Each CLI subcommand loads exactly its own family's formats and
algorithms, also when it exits with an error, and no standard-library
module it does not use. Every case runs ``wqlang.cli.main`` in a fresh
interpreter and reads what it left in ``sys.modules``; importing the
package alone loads no submodule."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from wqlang.formats import dump_cnf, dump_nfa, dump_slp_binary
from wqlang.slpsearch.slp import repair_compress

from conftest import make_ex451_grammar, make_fig42_n1, make_fig42_n2

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
    paths["g"] = tmp_path / "g.cnf"
    paths["g"].write_bytes(dump_cnf(make_ex451_grammar()))
    paths["junk"] = tmp_path / "junk"
    paths["junk"].write_bytes(b"junk\n")
    paths["out"] = tmp_path / "out"
    return {k: str(v) for k, v in paths.items()}


# the modules, relative to ``wqlang``, that each family's subcommands load
SLP = {"cli", "formats", "slpsearch", "slpsearch.slp", "slpsearch.slp_formats"}
SEARCH = SLP | {"nfa", "slpsearch.regex", "slpsearch.counting"}
AUTOMATA = {"cli", "formats", "automaton_formats", "nfa", "automata", "fixpoint", "quasiorder"}
INCLUDE = AUTOMATA | {"inclusion"}
RESIDUAL = AUTOMATA | {"residual"}


@pytest.mark.parametrize(
    "argv, modules",
    [
        (["compress", "{text}", "-o", "{out}"], SLP | {"slpsearch._repair"}),
        (["decompress", "{slp}", "-o", "{out}"], SLP),
        (["include", "nfa", "{n1}", "{n2}"], INCLUDE),
        (["include", "cfg", "{g}", "{n2}"], INCLUDE),
        (["search", "-e", "ERROR", "{slp}"], SEARCH),
        (["canonical", "{n2}", "-o", "{out}"], RESIDUAL),
        (["residualize", "{n2}", "-o", "{out}"], RESIDUAL),
        (["double-reversal", "{n2}", "-o", "{out}"], RESIDUAL),
        (["check-dr", "{n2}"], RESIDUAL),
        (["learn", "{n2}", "-o", "{out}"], RESIDUAL | {"learn"}),
    ],
    ids=[
        "compress",
        "decompress",
        "include-nfa",
        "include-cfg",
        "search",
        "canonical",
        "residualize",
        "double-reversal",
        "check-dr",
        "learn",
    ],
)
def test_subcommand_loads_only_its_family(files, argv, modules):
    # ``search`` runs its position automaton through ``nfa`` alone, and no
    # automaton subcommand loads the SLP formats
    argv = [arg.format(**files) for arg in argv]
    loaded = _loaded(f"from wqlang.cli import main\nassert main({argv!r}) == 0")
    assert loaded == {"wqlang", *(f"wqlang.{m}" for m in modules)}


@pytest.mark.parametrize(
    "argv, code, modules",
    [
        (["search", "-e", "(", "{slp}"], 2, SEARCH),
        (["decompress", "{junk}", "-o", "{out}"], 3, SLP),
        (["include", "nfa", "{junk}", "{n2}"], 3, INCLUDE),
    ],
    ids=["search-usage", "decompress-input", "include-input"],
)
def test_error_exit_loads_only_the_failing_family(files, argv, code, modules):
    # the caps an error exit tests for are those of the modules already
    # loaded, so printing the error imports no other family
    argv = [arg.format(**files) for arg in argv]
    loaded = _loaded(f"from wqlang.cli import main\nassert main({argv!r}) == {code}")
    assert loaded == {"wqlang", *(f"wqlang.{m}" for m in modules)}


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
