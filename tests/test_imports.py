"""Import graph: the package and the business commands load no numpy.

Only ``anc simulate`` and the signal API need numpy; their names resolve on
first access. Each check runs in a fresh interpreter, because the test
process itself has numpy loaded.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"

BUSINESS = [
    ["econ", "npv", "--config", str(CONFIGS / "econ_base.json")],
    ["econ", "scenario", "--config",
     str(CONFIGS / "econ_scenario_marketing_shift.json")],
    ["econ", "sensitivity", "--config", str(CONFIGS / "econ_sensitivity_grid.json")],
    ["cost", "bom", "--config", str(CONFIGS / "cost_revised_detail.json")],
    ["plan", "concept", "--config", str(CONFIGS / "plan_concept.json")],
    ["plan", "risk", "--config", str(CONFIGS / "plan_risk.json")],
    ["plan", "market", "--config", str(CONFIGS / "plan_market.json")],
]

_PROBE = """\
import json, sys
import hushkit
assert "numpy" not in sys.modules, "import hushkit loaded numpy"
import hushkit.cli
for argv in json.loads(sys.argv[1]):
    code = hushkit.cli.main([*argv, "--format", "json", "--output", sys.argv[2]])
    assert code == 0, (argv, code)
    assert "numpy" not in sys.modules, argv
for name in hushkit.__all__:
    getattr(hushkit, name)
import hushkit.anc, hushkit.signals
assert hushkit.cli.anc_run is hushkit.anc.anc_run is hushkit.anc_run
assert hushkit.cli.generate_tone is hushkit.signals.generate_tone
assert hushkit.cli.generate_broadband is hushkit.signals.generate_broadband
for module in (hushkit, hushkit.cli):
    assert not hasattr(module, "no_such_name")
print("ok")
"""


def test_business_commands_import_no_numpy(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run(
        [sys.executable, "-c", _PROBE, json.dumps(BUSINESS), str(tmp_path / "out")],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "ok\n"
