import importlib.util
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_reduction_demo_default_instances(capsys, monkeypatch):
    demo = load_script("reduction_demo")
    monkeypatch.setattr(sys, "argv", ["reduction_demo.py"])
    demo.main()
    out = capsys.readouterr().out
    headers = [line for line in out.splitlines() if line.startswith("lambda=")]
    assert len(headers) == len(demo.SMALL) == 2
    assert all("expansion verified: True" in line for line in headers)
    assert out.count("(depth increase 4)") == 2
