"""The README's CLI walkthrough and library examples run as written.

Every `rdmd ...` command of the "CLI walkthrough" block is run in order,
in one scratch directory, and must exit 0, so a renamed flag, a changed
default or a new parse-time check that the walkthrough trips shows here.
The Python blocks of the "Library" section then run in order, in one
namespace, in the same directory, where the walkthrough left `flow.sms`.
"""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import rdmd

README = Path(__file__).resolve().parents[1] / "README.md"


def _section(title: str) -> str:
    """The README text from the `## title` heading to the next heading."""
    text = README.read_text(encoding="utf-8")
    return text.split(f"## {title}\n", 1)[1].split("\n## ", 1)[0]


def walkthrough_commands() -> list[list[str]]:
    block = re.search(r"```bash\n(.*?)```", _section("CLI walkthrough"), re.S).group(1)
    joined = re.sub(r"\\\n\s*", " ", block)  # backslash continuations
    return [shlex.split(line) for line in joined.splitlines() if line.startswith("rdmd ")]


def library_blocks() -> list[str]:
    return re.findall(r"```python\n(.*?)```", _section("Library"), re.S)


def test_walkthrough_runs(tmp_path, monkeypatch):
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

    blocks = library_blocks()
    assert len(blocks) == 2
    monkeypatch.chdir(tmp_path)
    namespace = {}
    for block in blocks:
        exec(compile(block, README.name, "exec"), namespace)
