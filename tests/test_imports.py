"""What importing the CLI loads, in a fresh interpreter without site."""
import json
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def test_cli_import_adds_no_dataclasses_inspect_or_typing():
    code = (
        "import json, sys\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "before = set(sys.modules)\n"
        "import clifford3.cli\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n"
    )
    out = subprocess.run(
        [sys.executable, "-I", "-S", "-c", code], capture_output=True, text=True, check=True
    ).stdout
    added = set(json.loads(out))
    assert "clifford3.cli" in added
    assert not added & {"dataclasses", "inspect", "typing"}
