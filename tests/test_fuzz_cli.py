"""scripts/fuzz_cli.py: the CLI's exit-code contract on random problem files."""

import importlib.util
import random
from pathlib import Path

from cfbvp.expressions import parse

ROOT = Path(__file__).resolve().parents[1]


def _fuzz_cli():
    spec = importlib.util.spec_from_file_location("fuzz_cli", ROOT / "scripts" / "fuzz_cli.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_short_campaign_finds_no_violation(capsys):
    # every exit in {0, 1, 2, 3} with a reason, no exception or warning, and
    # two runs of each command byte-identical; CI runs 1,500 files
    assert _fuzz_cli().main(["--count", "40", "--seed", "0"]) == 0
    summary = capsys.readouterr().out.splitlines()[-1]
    assert summary.startswith("40 files, seed 0: ")
    assert "; 0 violations, " in summary


def test_the_trees_read_every_function_and_only_their_own_variables():
    fuzz = _fuzz_cli()
    rng = random.Random(0)
    for name, variables in fuzz.VARIABLES.items():
        texts = [fuzz.tree(rng, variables, 3) for _ in range(200)]
        calls = set()
        for text in texts:
            expr = parse(text)
            assert expr.variables() <= set(variables), text
            calls |= {f for f in fuzz._FUNCTIONS if f + "(" in text}
        assert calls == set(fuzz._FUNCTIONS), name
