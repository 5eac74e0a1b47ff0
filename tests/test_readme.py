"""The README's CLI walkthrough runs as written.

Every `rdmd ...` command of the "CLI walkthrough" block is run in order,
in one scratch directory, and must exit 0, so a renamed flag, a changed
default or a new parse-time check that the walkthrough trips shows here.
"""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import rdmd

README = Path(__file__).resolve().parents[1] / "README.md"


def walkthrough_commands() -> list[list[str]]:
    text = README.read_text(encoding="utf-8")
    section = text.split("## CLI walkthrough", 1)[1]
    block = re.search(r"```bash\n(.*?)```", section, re.S).group(1)
    joined = re.sub(r"\\\n\s*", " ", block)  # backslash continuations
    return [shlex.split(line) for line in joined.splitlines() if line.startswith("rdmd ")]


def test_walkthrough_runs(tmp_path):
    commands = walkthrough_commands()
    assert [c[1] for c in commands] == [
        "synth", "decompose", "decompose", "decompose", "decompose", "bench", "qb",
        "reconstruct",
    ]
    # the commands run in the scratch directory, so put this package first
    # on the path whatever the working directory the suite runs from
    package_root = str(Path(rdmd.__file__).resolve().parents[1])
    env = dict(os.environ)
    env.pop("RDMD_SEED", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    for command in commands:
        res = subprocess.run(
            [sys.executable, "-m", "rdmd", *command[1:]],
            cwd=tmp_path, env=env, capture_output=True, text=True,
        )
        assert res.returncode == 0, f"{shlex.join(command)}\n{res.stderr}"
