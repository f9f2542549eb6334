"""The public names each module exports, and how the modules import each other."""

import ast
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import homodyne_shadows
from homodyne_shadows import fockcore, povm, records, shadow, sim, states

PACKAGE = Path(homodyne_shadows.__file__).parent
REPO = Path(__file__).resolve().parents[1]
MODULES = [fockcore, povm, records, shadow, sim, states]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_all_names_resolve(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []


def _readme():
    """The README without its migration notes, which name removed and changed names."""
    text = (REPO / "README.md").read_text(encoding="utf-8")
    return re.sub(r"\n## Migrating from earlier versions\n.*?(?=\n## )", "", text, flags=re.S)


def _code_names(path):
    """The names a file's code reads: loaded variables and attributes, not definitions or text."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_every_public_name_has_a_caller():
    # Each public name is read by code in src/ or perfbench/ (a re-export is
    # not a read) or documented in the README: a helper that only the tests
    # call belongs in the tests.
    paths = [*(REPO / "src").rglob("*.py"), *(REPO / "perfbench").glob("*.py")]
    used = set().union(*map(_code_names, paths))
    readme = _readme()
    unused = [
        "%s.%s" % (module.__name__.split(".")[-1], name)
        for module in MODULES
        for name in module.__all__
        if name not in used and not re.search(r"\b%s\b" % re.escape(name), readme)
    ]
    assert unused == []


def test_readme_library_tour_runs():
    # The tour's `assert is_informationally_complete(povm)` is the one use of
    # ICReport.__bool__ outside the tests.
    text = (REPO / "README.md").read_text(encoding="utf-8")
    tour = text.split("\n## Library tour\n", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", ".*loses probability", UserWarning)
        exec(compile(tour, "README.md (Library tour)", "exec"), {})


def test_small_members_and_reprs():
    # The members and reprs that no other test reaches.
    grid = povm.PhaseGrid(3)
    set_ = povm.build_povm(grid, povm.BinningScheme([-1.0, 0.0, 0.5, 1.0]), 1)
    assert grid == povm.PhaseGrid(3) and grid != povm.PhaseGrid(4) and grid != 3
    assert repr(grid) == "PhaseGrid(N=3)"
    assert repr(set_.binning) == "BinningScheme(M=3, range=[-1, 1], tail_mode='extend-tails')"
    assert re.fullmatch(r"ICReport\(complete=True, rank=4/4, lambda_min=\d\.\d{3}e-\d\d\)",
                        repr(povm.is_informationally_complete(set_)))
    table = shadow.snapshots(set_, shadow.invert_frame(shadow.frame_operator(set_)))
    assert table.n_max == 1
    dist = sim.outcome_distribution(states.fock(1, 1), set_)
    assert re.fullmatch(r"OutcomeDistribution\(M=3, N=3, deficit=-?\d\.\d{3}e[+-]\d\d\)",
                        repr(dist))
    assert repr(sim.sample(dist, 5, 1)) == "Records(T=5)"
    config = sim.MultiModeConfig([set_, set_])
    assert repr(config) == "MultiModeConfig(S=2, dims=[2, 2])"
    assert sim.joint_distribution([states.fock(1, 1), states.fock(0, 1)], config).S == 2


def _package_imports(node):
    """The package modules an import node names, or [] for an import from outside."""
    if isinstance(node, ast.ImportFrom) and (node.level or node.module == PACKAGE.name):
        if node.module and node.module != PACKAGE.name:
            return [node.module.split(".")[-1]]
        return [alias.name for alias in node.names]  # from . import a, b
    if isinstance(node, ast.Import):
        return [a.name.split(".")[1] for a in node.names if a.name.startswith(PACKAGE.name + ".")]
    return []


def test_import_graph():
    graph, nested, whole = {}, [], []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        top = set(map(id, tree.body))
        graph[path.stem] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name == "_whole":
                whole.append(path.stem)
            names = _package_imports(node)
            graph[path.stem].update(names)
            if names and id(node) not in top:
                nested.append("%s.py:%d" % (path.stem, node.lineno))
    # Every import of a package module is at module top level.
    assert nested == []
    # The import graph is acyclic: repeatedly drop the modules that import no module left.
    left = {name: deps & set(graph) for name, deps in graph.items()}
    while left:
        leaves = {name for name, deps in left.items() if not deps}
        assert leaves, "import cycle among %s" % sorted(left)
        left = {name: deps - leaves for name, deps in left.items() if name not in leaves}
    # The record stream depends on nothing in the package but its error types.
    assert graph["records"] == {"errors"}
    # One rule for every count, errors._whole, so the POVM needs nothing from states.
    assert whole == ["errors"]
    assert "states" not in graph["povm"]


# Every public entry, then ``hshadow``'s five subcommands, in one process.
# The last line printed is {"preloaded": ..., "loaded": [...]}: whether
# ``import numpy`` alone loaded numpy.ma, and which numpy.ma modules the
# package loaded after it.
_ENTRIES = r"""
import contextlib, io, json, os, sys, tempfile, warnings
import numpy as np
preloaded = "numpy.ma" in sys.modules
warnings.simplefilter("ignore")
import homodyne_shadows as hs
from homodyne_shadows import cli

with tempfile.TemporaryDirectory() as d, contextlib.redirect_stdout(io.StringIO()):
    path = lambda name: os.path.join(d, name)
    binning = hs.design_bins(3, 7, 5)
    povm = hs.build_povm(hs.PhaseGrid(7), binning, 3)
    hs.is_informationally_complete(povm)
    frame = hs.frame_operator(povm)
    strict = hs.snapshots(povm, hs.invert_frame(frame))
    pseudo = hs.snapshots(povm, hs.invert_frame(frame, "pseudo", 1e-3))
    rho, X = hs.coherent(1.0, 3), hs.number_operator(3)
    hs.shadow_norm(X, strict, povm)
    hs.exact_variance(rho, X, strict, povm)
    hs.write_records(path("r.csv"), hs.sample(hs.outcome_distribution(rho, povm), 1000, seed=1))
    records = hs.ingest_records(path("r.csv"))
    for table in (strict, pseudo):
        for variant in ("plain-mean", "median-of-means:7"):
            hs.estimate_observable(records, table, X, variant)
    hs.reconstruct_state(records, strict)
    config = hs.MultiModeConfig([povm, povm])
    hs.joint_distribution(np.kron(rho.matrix, rho.matrix), config)
    multi = hs.sample_multi(hs.joint_distribution([rho, rho], config), 500, seed=1)
    for variant in ("plain-mean", "median-of-means:7"):
        hs.estimate_local(multi, config, {0: strict, 1: strict}, {0: X, 1: X}, variant)
    with open(path("raw.csv"), "w") as fh:
        fh.write("t,mode,k,x\n0,0,0,0.5\n1,0,3,-9.0\n")
    hs.bin_raw(path("raw.csv"), povm.grid, binning)
    scheme = ["--scheme", path("s.json")]
    for argv in (
        ["design-bins", "--nmax", "3", "--phases", "7", "--bins", "5", "--out", path("s.json")],
        ["check-ic", *scheme, "--json"],
        ["simulate", *scheme, "--state", "cat:1.0", "--T", "700", "--seed", "2",
         "--out", path("c.csv")],
        ["estimate", *scheme, "--records", path("c.csv"), "--variant", "median-of-means:7"],
        ["variance-scan", "--sweep", "phases", "--values", "6,7", "--nmax", "3", "--bins", "8"],
    ):
        assert cli.main(argv) == cli.EXIT_OK, argv
print(json.dumps({"preloaded": preloaded,
                  "loaded": sorted(m for m in sys.modules if m.split(".")[:2] == ["numpy", "ma"])}))
"""


def _probe(script, preload):
    """Run ``script`` in a fresh process and return the JSON of its last line.

    The script reports as "preloaded" whether ``import numpy`` alone loaded
    the modules under test; the test is then skipped, since ``preload`` (a
    reason such as "numpy.ma (numpy 1.x)") is loaded whatever the package does.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    if result["preloaded"]:
        pytest.skip("import numpy alone loads " + preload)
    return result["loaded"]


def test_no_entry_loads_numpy_ma():
    # np.median and np.unique import numpy.ma on first call under numpy >= 2:
    # about 1.2 MB of max RSS and 8-11 ms in every process that reaches them.
    assert _probe(_ENTRIES, "numpy.ma (numpy 1.x)") == []


# hshadow runs that hash nothing: the POVM comes from flags, not a scheme or
# cache file, and no report carries its key.  The last line printed is
# {"preloaded": ..., "loaded": [...]}: whether ``import numpy`` alone loaded
# hashlib (or its C module), and, after each run, whether it is loaded.
_UNHASHED = r"""
import contextlib, io, json, os, sys, tempfile, warnings
import numpy
hashed = lambda: "hashlib" in sys.modules or "_hashlib" in sys.modules
preloaded = hashed()
warnings.simplefilter("ignore")
from homodyne_shadows import cli

flags = ["--nmax", "3", "--phases", "7", "--bins", "5"]
loaded = []
with tempfile.TemporaryDirectory() as d, contextlib.redirect_stdout(io.StringIO()):
    for argv in (
        ["variance-scan", "--sweep", "phases", "--values", "6,7", "--nmax", "3", "--bins", "8"],
        ["simulate", *flags, "--state", "coherent:1.0", "--T", "500", "--seed", "1",
         "--out", os.path.join(d, "r.csv")],
        ["check-ic", *flags],
    ):
        assert cli.main(argv) == cli.EXIT_OK, argv
        loaded.append([argv[0], hashed()])
print(json.dumps({"preloaded": preloaded, "loaded": loaded}))
"""


def test_runs_that_hash_nothing_do_not_load_hashlib():
    # import hashlib costs about 3.5 MB of max RSS and 3-9 ms per process.
    loaded = _probe(_UNHASHED, "hashlib (numpy 1.x loads numpy.random, which imports secrets)")
    assert loaded == [["variance-scan", False], ["simulate", False], ["check-ic", False]]
