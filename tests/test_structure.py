"""Source-level checks that each paradigm decision lives in one place."""

import ast
from pathlib import Path

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
    assert callers == {("models.py", "_tangent")}


def test_fusion_never_branches_on_the_paradigm():
    assert "is_linearized" not in (SOURCE / "fusion.py").read_text()


def test_scoring_loops_build_no_parameter_trees():
    # A loop body, or a closure such a loop calls, that rebuilds a ParamTree
    # per candidate instead of handing a flat vector to candidate_logits.
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
