"""The benchmark tracer's hold on the program.

`perfbench/tracing.py` reaches into the program by name: it keeps its own
copy of the family table and rebinds the layer functions it lists in
every `sublang` namespace that holds them.  A renamed or removed internal
would not fail the benchmark; it would read zero in its report.  These
tests load the tracer from its file and check that it still finds and
times what it names, and that it leaves the program as it found it, and
that every name the benchmark scripts import from the program still
resolves.
"""

import ast
import glob
import importlib
import importlib.util
import os
import subprocess
import sys

import pytest

import sublang
from sublang import families, witnesses
from sublang.cli import main

SRC = os.path.dirname(os.path.dirname(sublang.__file__))
PERFBENCH = os.path.join(os.path.dirname(__file__), "..", "perfbench")
TRACING = os.path.join(PERFBENCH, "tracing.py")
SPANS = (
    "automata.minimize",
    "automata.determinize",
    "automata.factor_sets",
    "families.FIN",
    "families.DEF",
    "slt.is_slt_k",
)


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_family_table_is_the_program_table(tracing):
    assert tracing.FAMILY_PROCEDURES == families.FAMILY_PROCEDURES


def test_tracer_times_every_oracle_of_the_witness_table(tracing):
    traced = {attr for name, _, attr, _ in tracing.Tracer()._targets() if name == "witnesses.oracle"}
    assert {w.oracle for w in witnesses.WITNESSES.values() if w.oracle} <= traced


def test_tracer_finds_its_targets_records_spans_and_restores_the_program(tracing, capsys):
    tracer = tracing.Tracer()
    targets = tracer._targets()
    tracer.install()
    try:
        patched = list(tracer._patched)
        # every target is rebound at least where it is defined
        rebound = {(id(owner), attr) for owner, attr, _ in patched}
        for name, owner, attr, _ in targets:
            assert (id(owner), attr) in rebound, name
        assert main(["classify", "--porcelain", "--input", "regex:a|ab*a"]) == 0
        assert main(["verify", "--lemma", "l-abna"]) == 0
        assert main(["verify", "--lemma", "dyck"]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    for name in SPANS:
        assert tracer.calls[name] > 0, name
    # the lemma checks reach the oracle and the grammar engine through the
    # rebound module names: one span per lemma, one oracle and one closure
    # for dyck, none for the language witness l-abna
    assert tracer.calls["witnesses.verify_lemma"] == 2
    assert tracer.calls["witnesses.oracle"] == 1
    assert tracer.calls["grammars.generate"] == 1
    assert tracer._patched == []
    for owner, attr, original in patched:
        held = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        assert held is original, attr


def test_tracer_rebinds_every_target_under_the_benchmarks_import_state():
    # `perfbench/run.py` imports only `sublang.cli` before it installs the
    # tracer, and `install` rebinds names only in modules already loaded; a
    # module the CLI stops importing would lose its spans without an error
    code = (
        "import importlib.util, sys\n"
        f"sys.path.insert(0, {SRC!r})\n"
        "import sublang.cli\n"
        f"spec = importlib.util.spec_from_file_location('perfbench_tracing', {TRACING!r})\n"
        "tracing = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(tracing)\n"
        "tracer = tracing.Tracer()\n"
        "tracer.install()\n"
        "rebound = {(id(owner), attr) for owner, attr, _ in tracer._patched}\n"
        "targets = tracer._targets()\n"
        "print(len(targets))\n"
        "for name, owner, attr, _ in targets:\n"
        "    if (id(owner), attr) not in rebound:\n"
        "        print('not rebound:', name, attr)\n"
    )
    done = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    count, *missing = done.stdout.splitlines()
    assert int(count) > 0
    assert missing == []


def test_every_perfbench_import_from_the_program_resolves():
    imports = []
    for path in sorted(glob.glob(os.path.join(PERFBENCH, "*.py"))):
        with open(path, encoding="utf-8") as f:
            tree = ast.parse(f.read(), path)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "sublang":
                imports.extend((node.module, alias.name) for alias in node.names)
            elif isinstance(node, ast.Import):
                imports.extend((alias.name, None) for alias in node.names if alias.name.split(".")[0] == "sublang")
    assert ("sublang.grammars", "internal_successors") in imports
    for module, name in imports:
        owner = importlib.import_module(module)
        assert name is None or hasattr(owner, name), f"{module}.{name}"
