"""Every ``scripts/run_*.py`` experiment runs with its default arguments and
prints one JSON document."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPTS = sorted((Path(__file__).resolve().parent.parent / "scripts")
                 .glob("run_*.py"))


def load(path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_all_four_scripts_found():
    assert [p.name for p in SCRIPTS] == [
        "run_abelian_grid.py", "run_growth_examples.py",
        "run_measure_bounds.py", "run_word_maps.py"]


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.stem)
def test_defaults_print_json(path, capsys):
    assert load(path).main([]) == 0
    assert json.loads(capsys.readouterr().out)


def test_word_maps_groups_repeatable(capsys):
    module = load(next(p for p in SCRIPTS if p.stem == "run_word_maps"))
    assert module.main(["--groups", "PSL(2,7)", "--groups", "C6",
                        "--word", "[x,y]"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert [(r["group"], r["order"]) for r in rows] == [("PSL(2,7)", 168),
                                                        ("C6", 6)]
    assert rows[1]["imageSize"] == 1



def test_quantified_class_ranks_classify_like_quantifier_free(capsys):
    module = load(next(p for p in SCRIPTS if p.stem == "run_growth_examples"))
    assert module.main([]) == 0
    out = json.loads(capsys.readouterr().out)
    plain = [c["classification"] for c in out["classRankComparisons"]]
    assert plain == [c["classification"]
                     for c in out["quantifiedClassRankComparisons"]]
    assert plain == ["greater", "greater"]
