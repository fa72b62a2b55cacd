"""The package namespace is the API that the CLI, the demos and README use."""

import ast
import glob
import importlib
import os
import re
import types

import mapml

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

API = {
    "Dataset", "Metric", "TrainConfig",
    "LatentModel", "init_latents", "run_latent_stage",
    "train_mapml", "train_random_triplet_baseline",
    "EvalReport", "add_gaussian_noise", "evaluate", "knn_predict",
    "ModelFile", "SyntheticSpec", "generate_synthetic", "load_csv", "load_idx",
    "load_model", "save_model",
}


def caller_sources():
    """(name, source) of every demo, README code block and the CLI module."""
    for path in sorted(glob.glob(os.path.join(ROOT, "demos", "*.py"))):
        with open(path, encoding="utf-8") as f:
            yield os.path.basename(path), f.read()
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as f:
        blocks = re.findall(r"```python\n(.*?)```", f.read(), flags=re.S)
    assert blocks, "README has no python code block"
    for i, block in enumerate(blocks):
        yield f"README block {i}", block
    with open(os.path.join(ROOT, "src", "mapml", "cli.py"), encoding="utf-8") as f:
        yield "cli.py", f.read()


def mapml_imports(source):
    """(module, name) of every ``from mapml... import name`` in ``source``.

    Relative imports are read as the CLI's, from inside the package.
    """
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                module = ".".join(filter(None, ["mapml", node.module]))
            elif node.module and node.module.split(".")[0] == "mapml":
                module = node.module
            else:
                continue
            yield from ((module, alias.name) for alias in node.names)


def test_package_exports_exactly_the_api():
    public = {name for name, value in vars(mapml).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == API


def test_every_name_the_callers_import_exists():
    seen = set()
    for where, source in caller_sources():
        for module, name in mapml_imports(source):
            assert hasattr(importlib.import_module(module), name), (where, module, name)
            if module == "mapml":
                seen.add(name)
    # what the callers take from the package itself is part of the API
    assert seen and seen <= API
