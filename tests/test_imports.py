"""What importing the package and the command line loads, in fresh interpreters."""
import json
import os
import subprocess
import sys
from pathlib import Path

import entrobound

_SUBMODULES = ["bounds", "densities", "errors", "estimators", "histogram", "oracle", "rng"]

_PACKAGE_PROBE = """
import json, sys
import entrobound
loaded = sorted(m for m in sys.modules if m.startswith("entrobound."))
reached = [name for name in json.loads(sys.argv[1])
           if getattr(entrobound, name) is sys.modules.get(f"entrobound.{name}")]
try:
    entrobound.no_such_name
    missing = None
except AttributeError as exc:
    missing = str(exc)
print(json.dumps({"loaded": loaded, "reached": reached,
                  "unlisted": sorted(set(entrobound.__all__) - set(dir(entrobound))),
                  "missing": missing}))
"""

_CLI_PROBE = """
import json, sys
import entrobound.cli
print(json.dumps(sorted(m for m in sys.argv[1:] if m in sys.modules)))
"""


def _probe(code: str, *args: str):
    env = dict(os.environ)
    src = str(Path(entrobound.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code, *args], env=env,
                         capture_output=True, text=True, timeout=60, check=True).stdout
    return json.loads(out)


def test_package_resolves_names_on_first_use():
    """A bare import loads no submodule; each is reached as an attribute."""
    probe = _probe(_PACKAGE_PROBE, json.dumps(_SUBMODULES))
    assert probe["loaded"] == []
    assert probe["reached"] == _SUBMODULES
    assert probe["unlisted"] == []
    assert "no_such_name" in probe["missing"]


def test_cli_loads_only_what_the_certificates_run():
    """The oracle, subprocess and shlex load with the commands that use them;
    the worker pool's module loads with the command line."""
    loaded = _probe(_CLI_PROBE, "entrobound.oracle", "subprocess", "shlex",
                    "concurrent.futures")
    assert loaded == ["concurrent.futures"]
