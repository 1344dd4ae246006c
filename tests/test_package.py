import importlib.util
from pathlib import Path

import influence_tracker
from influence_tracker import cli

TRACER = Path(__file__).parent.parent / "perfbench" / "tracer.py"


def test_every_exported_name_exists_once():
    names = influence_tracker.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(influence_tracker, name)] == []


def test_benchmark_tracer_finds_every_name_it_wraps(capsys):
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)
    originals = dict(vars(cli))
    tracer = tracer_module.Tracer({})
    try:
        tracer.install()
        assert "not found" not in capsys.readouterr().err
        assert cli.compare_networks is not originals["compare_networks"]
    finally:
        tracer.uninstall()
    assert [name for name, value in vars(cli).items() if value is not originals.get(name)] == []
