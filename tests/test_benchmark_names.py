"""The benchmark's per-layer call counts and imports name advclf functions, its set-up runs, each
workload's report holds the block it scores, every public advclf function has a caller outside
the tests, and no advclf line reduces pair arrays row by row.

Its tracer wraps every public function of the measured modules, so a
deleted or renamed function would leave its metric empty instead of failing.
"""

import ast
import importlib
import importlib.util
import inspect
import json
from pathlib import Path

from advclf.cli import main
from advclf.data import load_csv
from advclf.graph import load_edge_list, load_node_labels
from helpers import array_bits, c_reader_only, exact_parse_only

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
PERFBENCH = BENCHMARK.parent / "perfbench"
PACKAGE = BENCHMARK.parent / "src" / "advclf"
# The theory's closed forms, D* and V(D), kept as what the EG minimizer is measured against
CALLED_FROM_TESTS_ONLY = {"theory.optimal_discriminator", "theory.value_v"}


def test_every_traced_call_count_names_a_public_function():
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    names = [m["name"].removesuffix(".calls") for m in spec["per_layer"] if m["name"].endswith(".calls")]
    assert names
    missing = []
    for name in names:
        module_name, fn_name = name.split(".")
        module = importlib.import_module(f"advclf.{module_name}")
        fn = getattr(module, fn_name, None)
        public = not fn_name.startswith("_") and inspect.isfunction(fn) and fn.__module__ == module.__name__
        if not public:
            missing.append(name)
    assert not missing, f"BENCHMARK.json traces functions advclf no longer defines: {missing}"


def test_every_name_the_benchmark_imports_from_advclf_exists():
    """perfbench imports advclf's loaders inside functions, so only a run would notice one gone."""
    files = sorted(PERFBENCH.glob("*.py"))
    assert files
    missing = []
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.startswith("advclf") and importlib.util.find_spec(alias.name) is None:
                        missing.append(f"{path.name}: {alias.name}")
            elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.startswith("advclf"):
                module = importlib.import_module(node.module)
                for alias in node.names:
                    if not hasattr(module, alias.name):
                        missing.append(f"{path.name}: {node.module}.{alias.name}")
    assert not missing, f"perfbench imports names advclf no longer defines: {missing}"


def test_benchmark_setup_runs_on_each_workload_input(tmp_path):
    """The benchmark's setup_s path calls advclf's loaders and splitters on each workload's input.

    perfbench only times these calls, so a changed signature or return value
    would break the benchmark without failing any other test. Each input,
    the label file included, must also load through numpy's reader, without
    falling back, bit for bit as the per-cell parse loads it.
    """
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    assert workloads.WORKLOADS
    for workload in workloads.WORKLOADS.values():
        inp = workload.make_input(0, tmp_path)
        workloads.load_and_split(inp)
        if "csv" in inp.setup_paths:
            def load():
                data = load_csv(inp.setup_paths["csv"], "label", "1")
                return array_bits(data.features, data.labels)
        else:
            def load():
                graph = load_edge_list(inp.setup_paths["edges"])
                bits = array_bits(graph.edges)
                if "labels" in inp.setup_paths:
                    bits += array_bits(load_node_labels(inp.setup_paths["labels"], n_nodes=graph.n_nodes))
                return graph.n_nodes, bits
        with c_reader_only():
            fast = load()
        with exact_parse_only():
            assert load() == fast, f"{workload.name}: the two parses disagree"


def test_package_init_file_exists():
    """perfbench/run.py exits 2 unless src/advclf/__init__.py is a file, though it holds only a docstring."""
    assert (BENCHMARK.parent / "src" / "advclf" / "__init__.py").is_file()


def _references(path, module):
    """(owner, "module.name") for each advclf name path's code uses, through the AST.

    owner is the enclosing top-level function or class of a src module, or
    None for module-level code and for every perfbench line.
    """
    tree = ast.parse(path.read_text(encoding="utf-8"))
    names = {}
    if module is not None:
        names = {node.name: f"{module}.{node.name}" for node in tree.body
                 if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module and (node.level or node.module.startswith("advclf.")):
            source = node.module.removeprefix("advclf.")
            names.update({alias.asname or alias.name: f"{source}.{alias.name}" for alias in node.names})
    for stmt in tree.body:
        owner = None
        if module is not None and isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            owner = f"{module}.{stmt.name}"
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and node.id in names:
                yield owner, names[node.id]
            elif isinstance(node, ast.Attribute) and ast.unparse(node.value).startswith("advclf."):
                yield owner, f"{ast.unparse(node.value).removeprefix('advclf.')}.{node.attr}"


def test_every_public_function_has_a_caller_outside_the_tests():
    """What only the tests call belongs in the tests: tests/helpers.py holds their oracles.

    A public function counts as called when src/advclf's module-level code,
    perfbench, a BENCHMARK.json per-layer name, or a function or class that
    counts as called itself, uses it; a function only dead code calls is dead.
    """
    refs = [ref for path in sorted(PACKAGE.glob("*.py")) for ref in _references(path, path.stem)]
    refs += [ref for path in sorted(PERFBENCH.glob("*.py")) for ref in _references(path, None)]
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    refs += [(None, m["name"].removesuffix(".calls")) for m in spec["per_layer"] if m["name"].endswith(".calls")]
    called = set()
    while (reached := {name for owner, name in refs if owner is None or owner in called}) != called:
        called = reached
    public = {
        f"{path.stem}.{node.name}"
        for path in PACKAGE.glob("*.py")
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    }
    assert sorted(public - called - CALLED_FROM_TESTS_ONLY) == []
    assert CALLED_FROM_TESTS_ONLY <= public - called, "an allowed name is gone or has a caller now"


def test_each_workload_quality_path_leads_to_a_metrics_block(tmp_path, capsys):
    """perfbench reads test_auc and test_accuracy through each workload's quality_path in the report.

    A report that moved or renamed that block would only show in a benchmark
    run, so each workload's own invocation runs here, cut to one warm-up and
    one adversarial step.
    """
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    inputs = {workload: workload.make_input(0, tmp_path) for workload in workloads.WORKLOADS.values()}
    assert {inp.argv[0] for inp in inputs.values()} == {"train", "graph"}
    for workload, inp in inputs.items():
        argv = inp.argv + ["--pretrain-iters", "1", "--train-iters", "1"]
        if argv[0] == "graph":
            argv += ["--label-shuffles", "1"]
        assert main(argv) == 0, workload.name
        block = json.loads(capsys.readouterr().out)
        for key in workload.quality_path:
            block = block[key]
        assert {"auc", "accuracy"} <= set(block), workload.name


def test_no_row_wise_min_or_max_in_the_package():
    """Pair arrays are (k, 2): their per-row (lo, hi) is np.minimum/np.maximum of the two columns.

    On a (1024, 2) int64 array, .min(axis=1) took 32 us and np.minimum of the
    columns 1.3 us, 25x as long; at 37.8k rows 1.05 ms against 21 us (a 2-vCPU
    Xeon guest, numpy 2.4). Any .min/.max/.amin/.amax call with axis 1 or -1 fails here.
    """
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("min", "max", "amin", "amax")
                    and any(kw.arg == "axis" and ast.unparse(kw.value) in ("1", "-1") for kw in node.keywords)):
                found.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
    assert not found, f"row-wise reductions of pair arrays: {found}"
