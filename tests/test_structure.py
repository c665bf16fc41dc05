"""Source-level checks that each paradigm decision lives in one place."""

import ast
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import fuselab

SOURCE = Path(fuselab.__file__).resolve().parent
SCORING_FUNCTIONS = {
    "fusion.py": ("sweep_and_select", "_lorahub_objective"),
    "analysis.py": ("_errors", "loss_landscape_grid"),
}


def parse(name: str) -> ast.Module:
    return ast.parse((SOURCE / name).read_text(), filename=name)


def functions(tree: ast.AST):
    """Every (possibly nested) function definition in ``tree``."""
    return [n for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]


def innermost_function(tree: ast.Module, node: ast.AST) -> str | None:
    enclosing = [f for f in functions(tree) if f.lineno <= node.lineno <= f.end_lineno]
    return max(enclosing, key=lambda f: f.lineno).name if enclosing else None


def enclosing_classes(tree: ast.Module, node: ast.AST) -> set[str]:
    return {c.name for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
            and c.lineno <= node.lineno <= c.end_lineno}


def parents(tree: ast.AST) -> dict:
    return {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}


def test_the_network_jvp_is_taken_in_one_helper():
    callers = set()
    for path in sorted(SOURCE.glob("*.py")):
        if path.name == "autodiff.py":  # where jvp is defined
            continue
        tree = parse(path.name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name == "jvp":
                    callers.add((path.name, innermost_function(tree, node)))
    assert callers == {("models.py", "_jvp")}


def test_only_the_scorer_builds_a_network():
    builders = set()
    for path in sorted(SOURCE.glob("*.py")):
        tree = parse(path.name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "Network":
                builders.add((path.name, *sorted(enclosing_classes(tree, node))))
    assert builders == {("models.py", "Scorer")}


def test_only_finetune_and_the_checkpoint_reader_build_the_initial_point():
    # finetune used to take theta0 and phi0 beside the seed they are built
    # from, checking only theta0, and the pipeline built them for it.
    builders = set()
    for path in sorted(SOURCE.glob("*.py")):
        tree = parse(path.name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "build_model":
                builders.add((path.name, innermost_function(tree, node)))
    assert builders == {("training.py", "finetune"), ("checkpoints.py", "theta0"),
                        ("checkpoints.py", "_parse_checkpoint")}


def test_only_the_scorer_chooses_a_logits_formula_by_paradigm():
    # Elsewhere is_linearized may only guard a contract check: an `if` whose
    # body raises and that has no else branch.
    offenders = []
    for path in sorted(SOURCE.glob("*.py")):
        tree = parse(path.name)
        up = parents(tree)
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Attribute) and node.attr == "is_linearized"):
                continue
            if "Scorer" in enclosing_classes(tree, node):
                continue
            guard = up[node]
            while not isinstance(guard, ast.stmt):
                guard = up[guard]
            rejects = (isinstance(guard, ast.If) and not guard.orelse
                       and all(isinstance(s, ast.Raise) for s in guard.body))
            if not rejects:
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def test_fusion_never_branches_on_the_paradigm():
    assert "is_linearized" not in (SOURCE / "fusion.py").read_text()


def test_scoring_loops_build_no_parameter_trees():
    # A loop body, or a closure such a loop calls, that rebuilds a ParamTree
    # per candidate instead of handing flat vectors to Scorer.candidates.
    offenders = []
    for name, wanted in SCORING_FUNCTIONS.items():
        tops = {f.name: f for f in parse(name).body if isinstance(f, ast.FunctionDef)}
        for fn in wanted:
            scopes = [n for n in ast.walk(tops[fn])
                      if isinstance(n, (ast.For, ast.While, ast.ListComp, ast.SetComp,
                                        ast.DictComp, ast.GeneratorExp))
                      or (isinstance(n, ast.FunctionDef) and n is not tops[fn])]
            for scope in scopes:
                for node in ast.walk(scope):
                    if isinstance(node, ast.Attribute) and node.attr == "with_flat":
                        offenders.append(f"{name}:{fn}:{node.lineno}")
    assert offenders == []


def test_fusion_forms_merged_vectors_only_in_candidates():
    # Every merged flat comes from _candidates; _task_sum is the sum it reuses.
    tree = parse("fusion.py")
    callers = {innermost_function(tree, node) for node in ast.walk(tree)
               if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "combine"}
    assert callers == {"_candidates", "_task_sum"}


def test_scorer_candidates_sums_logits_only_through_combine():
    # params.combine fixes the accumulation order of f(anchor) + Σ wᵢ·J·dᵢ;
    # the scorer writes no sum of its own, such as an in-place `acc += …`.
    scorer = next(n for n in parse("models.py").body if isinstance(n, ast.ClassDef) and n.name == "Scorer")
    candidates = next(f for f in scorer.body if isinstance(f, ast.FunctionDef) and f.name == "candidates")
    assert "combine" in {n.func.id for n in ast.walk(candidates)
                         if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)}
    assert [n.lineno for n in ast.walk(scorer) if isinstance(n, ast.AugAssign)] == []


TRACED_TRANSFORMS = {"jvp", "vjp", "grad"}


def autodiff_bindings(tree: ast.Module) -> tuple[set, set]:
    """Names bound to the autodiff module, and to functions imported from it."""
    modules, names = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if (node.module or "").split(".")[-1] == "autodiff":
                names |= {a.asname or a.name for a in node.names}
            else:
                modules |= {a.asname or a.name for a in node.names if a.name == "autodiff"}
        elif isinstance(node, ast.Import):
            modules |= {a.asname or a.name for a in node.names if a.name.endswith("autodiff")}
    return modules, names


def test_training_fusion_and_analysis_never_touch_autodiff():
    # Nor does any other runtime module: autodiff is the test oracle, and
    # only __init__ imports it, to export it.
    offenders = []
    for path in sorted(SOURCE.glob("*.py")):
        if path.name in ("__init__.py", "autodiff.py"):
            continue
        tree = parse(path.name)
        modules, names = autodiff_bindings(tree)
        offenders += [f"{path.name}: imports {n} from autodiff" for n in sorted(names)]
        offenders += [f"{path.name}: binds the autodiff module as {m}" for m in sorted(modules)]
        for node in ast.walk(tree):
            if (isinstance(node, ast.Name) and node.id in ("ad", "autodiff")
                    or isinstance(node, ast.Attribute) and node.attr == "autodiff"):
                offenders.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
    assert offenders == []


def test_only_autodiff_runs_its_traced_transforms():
    # The network's forward, JVP and VJP are models.Network's; autodiff's
    # jvp, vjp and grad are public API and the test oracle, not a runtime path.
    calls = []
    for path in sorted(SOURCE.glob("*.py")):
        if path.name == "autodiff.py":
            continue
        tree = parse(path.name)
        modules, names = autodiff_bindings(tree)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name) and func.id in names & TRACED_TRANSFORMS:
                calls.append(f"{path.name}:{node.lineno}: {func.id}")
            elif isinstance(func, ast.Attribute) and func.attr in TRACED_TRANSFORMS:
                owner = func.value
                if (isinstance(owner, ast.Name) and owner.id in modules) or (
                        isinstance(owner, ast.Attribute) and owner.attr == "autodiff"):
                    calls.append(f"{path.name}:{node.lineno}: {ast.unparse(func)}")
    assert calls == []


FILE_READS = {"open", "read_text", "read_bytes", "load", "loadtxt", "genfromtxt", "fromfile"}


def test_files_holds_the_only_read_of_task_and_checkpoint_files():
    # Task files and checkpoints are read only through files.read_memoized;
    # the other readers take the user's config file and artifact JSON and CSVs.
    readers = set()
    for path in sorted(SOURCE.glob("*.py")):
        tree = parse(path.name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name in FILE_READS:
                    readers.add((path.name, innermost_function(tree, node)))
    assert readers == {("files.py", "write_atomic"), ("files.py", "read_memoized"),
                       ("files.py", "read_json_object"), ("files.py", "read_csv"),
                       ("config.py", "load_config")}
    for name, fn in (("tasks.py", "import_task"), ("checkpoints.py", "load_checkpoint")):
        top = next(f for f in parse(name).body if isinstance(f, ast.FunctionDef) and f.name == fn)
        called = {n.func.id for n in ast.walk(top)
                  if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)}
        assert "read_memoized" in called, fn


def test_files_owns_the_artifact_json_and_csv_number_formats():
    # Task files keep their own columnar format in tasks.py; every other
    # float cell and all JSON text (artifacts and digests) is formatted in files.py.
    def holders(text):
        return {p.name for p in sorted(SOURCE.rglob("*.py")) if text in p.read_text()}

    assert holders("%.17g") == {"files.py", "tasks.py"}
    assert holders("json.dumps") == {"files.py"}


def test_nothing_in_the_package_imports_scipy(tmp_path):
    # lorahub's Nelder-Mead is in-package; scipy is only the tests' oracle.
    offenders = []
    for path in sorted(SOURCE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=path.name)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            elif isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.Call) and getattr(node.func, "attr", getattr(node.func, "id", None)) in (
                    "import_module", "__import__"):
                names = [a.value for a in node.args if isinstance(a, ast.Constant) and isinstance(a.value, str)]
            else:
                continue
            if any(n.split(".")[0] == "scipy" for n in names):
                offenders.append(f"{path.relative_to(SOURCE)}:{node.lineno}")
    assert offenders == []
    # With scipy unimportable, a lorahub fuse still runs and loads no part of it.
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "suite": {"samples_per_split": 16}, "model": {"hidden_dims": [4]}, "train": {"steps": 4},
        "fusion": {"lorahub_max_steps": 4, "fewshot_per_task": 4}}))
    script = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from fuselab.cli import main\n"
        "common = ['--config', sys.argv[1], '--out', sys.argv[2]]\n"
        "for command in (['gen-tasks'], ['finetune'],\n"
        "                ['fuse', '--algorithm', 'lorahub', '--subset', 'task0,task1']):\n"
        "    if main(command + common):\n"
        "        sys.exit(f'{command[0]} failed')\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'), sys.modules['scipy'])\n")
    out = tmp_path / "out"
    run = subprocess.run([sys.executable, "-c", script, str(config), str(out)],
                         env={**os.environ, "PYTHONPATH": str(SOURCE.parent)}, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip().splitlines()[-1] == "['scipy'] None"
    assert len(list((out / "fusion" / "lorahub").glob("*/task0+task1.provenance.json"))) == 4


def test_no_stage_loads_numpy_ma(tmp_path):
    # np.unique imports numpy.ma (about 1.25 MB resident); the class-coverage
    # check of make_task_suite used to load it in every process that ran gen-tasks.
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "suite": {"samples_per_split": 16}, "model": {"hidden_dims": [4]}, "train": {"steps": 4},
        "analysis": {"resolution": 3}}))
    script = (
        "import sys\n"
        "import numpy\n"
        "before = 'numpy.ma' in sys.modules\n"
        "from fuselab.cli import main\n"
        "common = ['--config', sys.argv[1], '--out', sys.argv[2]]\n"
        "for command in (['gen-tasks'], ['finetune'],\n"
        "                ['fuse', '--algorithm', 'ties_merging', '--subset', 'task0,task1'],\n"
        "                ['analyze', 'disentangle']):\n"
        "    if main(command + common):\n"
        "        sys.exit(f'{command[0]} failed')\n"
        "    if not before and 'numpy.ma' in sys.modules:\n"
        "        sys.exit(f'{command[0]} loaded numpy.ma')\n")
    run = subprocess.run([sys.executable, "-c", script, str(config), str(tmp_path / "out")],
                         env={**os.environ, "PYTHONPATH": str(SOURCE.parent)}, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr


BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


@pytest.mark.parametrize("given", [{}, {"OPENBLAS_NUM_THREADS": "2"}, {"GOTO_NUM_THREADS": "2"},
                                   {"OMP_NUM_THREADS": "2"}], ids=["unset", "openblas", "goto", "omp"])
def test_importing_fuselab_picks_one_blas_thread_unless_the_user_chose(given):
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARIABLES}
    probe = "import os, fuselab; print([os.environ.get(k) for k in %r])" % (BLAS_THREAD_VARIABLES,)
    run = subprocess.run([sys.executable, "-c", probe], env={**env, **given, "PYTHONPATH": str(SOURCE.parent)},
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    expected = [given.get(k) for k in BLAS_THREAD_VARIABLES]
    assert run.stdout.strip() == str(["1", None, None] if not given else expected)


def test_a_field_added_to_model_spec_round_trips_through_a_checkpoint(tmp_path):
    # to_dict and from_dict used to spell the fields one by one, so a new
    # field reached the spec from the config and was then dropped by every checkpoint.
    shutil.copytree(SOURCE, tmp_path / "fuselab", ignore=shutil.ignore_patterns("__pycache__"))
    models = tmp_path / "fuselab" / "models.py"
    line = "    mode: ModeTag = ModeTag.LORA\n"
    assert models.read_text().count(line) == 1
    models.write_text(models.read_text().replace(line, line + "    sigma_b: float = 0.0\n"))
    script = (
        "import sys\n"
        "from fuselab import Checkpoint, build_model, load_checkpoint, save_checkpoint\n"
        "from fuselab.config import model_spec, resolve_config\n"
        "spec = model_spec(resolve_config({'model': {'sigma_b': 0.25}}), 'l_lora')\n"
        "_, initial = build_model(spec, 3)\n"
        "save_checkpoint(Checkpoint(spec, 'task0', 3, initial, initial), sys.argv[1])\n"
        "loaded = load_checkpoint(sys.argv[1]).spec\n"
        "assert loaded == spec and loaded.sigma_b == 0.25, loaded\n")
    path = tmp_path / "task0.json"
    run = subprocess.run([sys.executable, "-c", script, str(path)],
                         env={**os.environ, "PYTHONPATH": str(tmp_path)}, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert '"sigma_b": 0.25' in path.read_text()


SECTION_OWNERS = {"make_task_suite", "TrainConfig", "FusionConfig", "ModelSpec", "AnalysisConfig"}


def test_only_config_builds_a_section_owner():
    # A call of an owner, or a call handed one (config's by-name build),
    # builds it. pipeline.stage_gen_tasks used to list the suite's fields
    # itself; ModelSpec.from_dict (cls(...)) rebuilds a checkpoint's spec.
    builders = set()
    for path in sorted(SOURCE.glob("*.py")):
        tree = parse(path.name)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            named = {getattr(n, "id", None) for n in (node.func, *node.args)}
            if getattr(node.func, "id", None) == "cls" and "ModelSpec" in enclosing_classes(tree, node):
                named.add("ModelSpec")
            for owner in named & SECTION_OWNERS:
                builders.add((path.name, owner, innermost_function(tree, node)))
    assert {(f, o) for f, o, _ in builders} == {("config.py", o) for o in SECTION_OWNERS} | {
        ("models.py", "ModelSpec")}
    assert {fn for f, _, fn in builders if f == "models.py"} == {"from_dict"}


def test_only_the_pipeline_names_the_analysis_kinds():
    # cli.py used to map each kind to the flags it reads and branch four
    # ways on it, and tools/tree_digest.py kept its own list of the kinds.
    from fuselab.pipeline import ANALYSES

    tools = SOURCE.parents[1] / "tools"
    naming = set()
    for path in [*sorted(SOURCE.glob("*.py")), *sorted(tools.glob("*.py"))]:
        for node in ast.walk(ast.parse(path.read_text(), filename=path.name)):
            name = node.value if isinstance(node, ast.Constant) else getattr(
                node, "attr", getattr(node, "id", getattr(node, "name", None)))
            if isinstance(name, str) and name.removeprefix("stage_analyze_") in ANALYSES:
                naming.add(path.name)
    assert naming == {"pipeline.py"}
