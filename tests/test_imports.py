"""Import graph: each command loads only the library module it uses.

``import hushkit`` and ``import hushkit.cli`` load no business module, no
numpy and no ``dataclasses`` (which loads ``inspect``); an ``econ`` command
loads ``econ`` only, ``cost bom`` ``costing`` only, a ``plan`` command
``planning`` only, and ``anc simulate`` numpy, ``dataclasses`` and
``inspect`` and none of the three. No command loads ``argparse`` or the
``gettext`` it imports: the command line is read from ``cli._COMMANDS``.
None loads ``decimal``, which cent rounding imports only for a figure at or
next to a half-cent tie, and no shipped config has one. ``ValidationError``
lives in ``_records`` beside ``Record``, a module every command loads.
Each check runs in a fresh interpreter, because the test process itself has
every module loaded.
"""
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hushkit
import hushkit._records
import hushkit.anc
import hushkit.cli
import hushkit.costing
import hushkit.signals

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"


def _argv(group, command, config):
    return [group, command, "--config", str(CONFIGS / config)]


# command group -> (its commands, the watched modules they leave loaded)
GROUPS = {
    "import-only": ((), []),
    "econ": ((_argv("econ", "npv", "econ_base.json"),
              _argv("econ", "scenario", "econ_scenario_marketing_shift.json"),
              _argv("econ", "sensitivity", "econ_sensitivity_grid.json")),
             ["hushkit.econ"]),
    "cost": ((_argv("cost", "bom", "cost_revised_detail.json"),),
             ["hushkit.costing"]),
    "plan": ((_argv("plan", "concept", "plan_concept.json"),
              _argv("plan", "risk", "plan_risk.json"),
              _argv("plan", "market", "plan_market.json")),
             ["hushkit.planning"]),
    "anc": ((_argv("anc", "simulate", "anc_tone_2tap.json"),),
            ["numpy", "dataclasses", "inspect"]),
}

_WATCHED = ("hushkit.econ", "hushkit.costing", "hushkit.planning", "numpy",
            "dataclasses", "inspect", "argparse", "gettext", "decimal")

# Prints the watched modules loaded by `import hushkit`, then by
# `import hushkit.cli`, then by running every command given.
_PROBE = f"""\
import json, sys
def loaded():
    return [name for name in {_WATCHED!r} if name in sys.modules]
seen = []
import hushkit
seen.append(loaded())
import hushkit.cli
seen.append(loaded())
for argv in json.loads(sys.argv[1]):
    code = hushkit.cli.main([*argv, "--format", "json", "--output", sys.argv[2]])
    assert code == 0, (argv, code)
seen.append(loaded())
print(json.dumps(seen))
"""


def _probe(probe, argvs, tmp_path):
    """What a fresh interpreter running ``probe`` on ``argvs`` prints, as JSON."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run(
        [sys.executable, "-c", probe, json.dumps(argvs), str(tmp_path / "out")],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


@pytest.mark.parametrize("group", list(GROUPS))
def test_each_command_group_loads_only_its_module(group, tmp_path):
    argvs, expected = GROUPS[group]
    assert _probe(_PROBE, argvs, tmp_path) == [[], [], expected]


def test_every_exported_name_resolves():
    for name in hushkit.__all__:
        getattr(hushkit, name)
    assert len(set(hushkit.__all__)) == len(hushkit.__all__)
    assert set(hushkit.__all__) <= set(dir(hushkit))
    # `anc_run` stays readable on the CLI module
    assert hushkit.cli.anc_run is hushkit.anc.anc_run is hushkit.anc_run
    for module in (hushkit, hushkit.cli):
        assert not hasattr(module, "no_such_name")


def test_validation_error_lives_beside_record():
    assert hushkit.ValidationError is hushkit._records.ValidationError
    assert hushkit.ValidationError.__bases__ == (ValueError,)
    assert importlib.util.find_spec("hushkit.errors") is None


def test_commands_load_the_records_module_and_no_errors_module(tmp_path):
    argvs = [_argv("econ", "npv", "econ_base.json"),
             _argv("cost", "bom", "cost_revised_detail.json"),
             _argv("plan", "risk", "plan_risk.json"),
             _argv("anc", "simulate", "anc_tone_2tap.json")]
    probe = """\
import json, sys
import hushkit.cli
for argv in json.loads(sys.argv[1]):
    assert hushkit.cli.main([*argv, "--output", sys.argv[2]]) == 0, argv
print(json.dumps([n in sys.modules for n in ("hushkit._records", "hushkit.errors")]))
"""
    assert _probe(probe, argvs, tmp_path) == [True, False]
