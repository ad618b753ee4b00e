"""The benchmark's input builders, perfbench/inputs.py (M7, osp(1|2), direct
sums, permuted and dense copies), as the module `inputs`, for the tests that
build the same algebras."""

import importlib.util
from pathlib import Path

spec = importlib.util.spec_from_file_location(
    "inputs", Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py")
inputs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(inputs)
