"""Smoke tests of the scripts in ``scripts/``: each runs through its
``run()`` entry point, so a library change that breaks a script fails
here rather than at its next manual run.  Also a static check of the
package's imports, read with ``ast``, since no linter is configured."""

import ast
import runpy
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
PACKAGE = SCRIPTS.parent / "src" / "fracmom"
PERFBENCH = SCRIPTS.parent / "perfbench"


def _run_script(name, argv, capsys):
    run = runpy.run_path(str(SCRIPTS / name))["run"]
    code = run(argv)
    return code, capsys.readouterr().out


def test_delta_sweep_two_spacings(capsys):
    code, out = _run_script(
        "delta_sweep.py", ["--deltas", "0.4,0.2", "--thetas", "1,5"], capsys
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("family: uniform(a=2)")
    rows = lines[3:]
    assert [r.split()[:2] for r in rows] == [["0.4", "26"], ["0.2", "52"]]
    assert all(len(r.split()) == 5 for r in rows)


def test_code_lines_total_is_the_sum_of_the_rows(capsys):
    code, out = _run_script("code_lines.py", [], capsys)
    assert code == 0
    *rows, total = [line.split() for line in out.splitlines()]
    assert [name for name, _ in rows] == sorted(name for name, _ in rows)
    assert "reconstruct.py" in {name for name, _ in rows}
    assert total[0] == "total"
    assert int(total[1]) == sum(int(n) for _, n in rows) > 0


def test_benchmark_tracer_resolves_every_layer_name():
    """The traced benchmark wraps the public names its ``LAYERS`` table
    lists; a renamed one fails here, not only in a traced run."""
    tracing = runpy.run_path(str(PERFBENCH / "tracing.py"))
    resolved = tracing["resolve_boundaries"]()
    listed = [name for names in tracing["LAYERS"].values() for name in names]
    assert [name for _, name, _ in resolved] == listed
    assert len(resolved) == 27


def test_benchmark_gates_read_what_the_cli_writes(tmp_path, capsys):
    """The benchmark's own gates, loaded read-only, accept the grid and
    curve CSVs the CLI writes for cauchy, and recompute the curve error
    the CLI prints; a change to either CSV format fails here, not only
    in a benchmark run."""
    from fracmom.cli import main

    workloads = runpy.run_path(str(PERFBENCH / "workloads.py"))
    grid, curve = tmp_path / "grid.csv", tmp_path / "cf.csv"
    code = main(["moments", "--family", "cauchy", "--delta", "0.2", "--m", "20",
                 "--out", str(grid)])
    assert workloads["grid_check"](grid, 20)(code, "") == []
    code = main(["reconstruct-cf", "--grid-in", str(grid), "--range", "0.1:10:50",
                 "--out", str(curve)])
    printed = capsys.readouterr().out
    assert code == 0
    err = workloads["curve_error"](curve, "cf", "cauchy", 50)
    assert printed == f"cf: 50 points, max abs error = {err:.6e}\n"


def test_compare_outputs_tiny_corpus(tmp_path):
    script = runpy.run_path(str(SCRIPTS / "compare_outputs.py"))
    repo = SCRIPTS.parent
    commands = [("strip-levy", ["strip", "--family", "levy"])]
    runs = []
    for name in ("old", "new"):
        (tmp_path / name).mkdir()
        runs.append(script["run_tree"](repo, commands, tmp_path / name))
    old, new = runs
    assert list(old) == list(new) == [
        "strip-levy:exit", "strip-levy:stdout", "strip-levy:stderr"]
    assert old["strip-levy:exit"] == b"0"
    assert all(script["compare_text"](old[k].decode(), new[k].decode())
               == "identical" for k in old)


def test_compare_outputs_dispatch_floor_tiny_corpus(capsys):
    """The floor rerun of the old tree (NumPy's AVX2 and AVX-512 loops
    off) runs the corpus too, and each artifact line gives its floor."""
    script = runpy.run_path(str(SCRIPTS / "compare_outputs.py"))
    repo = SCRIPTS.parent
    commands = [("strip-levy", ["strip", "--family", "levy"])]
    assert script["compare"](repo, repo, commands, dispatch_floor=True) == 0
    *rows, summary = capsys.readouterr().out.splitlines()
    assert [row.split() for row in rows] == [
        [f"strip-levy:{part}", "identical", "floor:", "identical"]
        for part in ("exit", "stdout", "stderr")]
    assert summary == "0 of 3 artifacts differ"


def test_compare_outputs_reports_the_largest_deviation():
    compare = runpy.run_path(str(SCRIPTS / "compare_outputs.py"))["compare_text"]
    assert compare("x,1.0\n", "x,1.0\n") == "identical"
    assert (compare("x,1.0,2e-3,-4\n", "x,1.5,2e-3,-4.0\n")
            == "max abs 5.000e-01  max rel 3.333e-01")
    # an (re, im) pair is one complex number, relative to its modulus;
    # k stays a number of its own
    assert (compare("# m: 1\nk,re,im\n1,1.0,1e-3\n", "# m: 1\nk,re,im\n1,1.0,1.1e-3\n")
            == "max abs 1.000e-04  max rel 1.000e-04")
    assert (compare("x,exact_re,exact_im,abs_err\n2.0,0.0,1e-3,\n",
                    "x,exact_re,exact_im,abs_err\n2.0,0.0,-1e-3,\n")
            == "max abs 2.000e-03  max rel 2.000e+00")
    assert compare("v 1.0\n", "v nan\n") == "max abs inf  max rel inf"
    assert compare("a\nb 1\n", "a\nc 1\n") == "text differs at line 2: 'b 1' -> 'c 1'"
    assert compare("a\n", "a\nb\n") == "text differs at line 2: '<none>' -> 'b'"
    assert (compare("a 1\n", "a 1") == compare("a 1\r\n", "a 1\n")
            == "text differs in line endings or trailing newline")


def _imported_names(tree):
    # the local name each import binds, wherever it stands; __future__
    # imports bind none
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from (a.asname or a.name for a in node.names)


def _all_names(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def test_package_exports_every_import_and_keeps_no_unused_one():
    """``__init__`` lists every name it imports in ``__all__``, and no
    module of the package imports a name it never uses."""
    init = ast.parse((PACKAGE / "__init__.py").read_text())
    assert sorted(set(_imported_names(init)) - _all_names(init)) == []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        unused = set(_imported_names(tree)) - used - _all_names(tree)
        assert sorted(unused) == [], path.name
