"""The demos and the README's examples run and read as documented."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import collsched

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs(script):
    env = dict(os.environ, PYTHONPATH=str(Path(collsched.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


def test_readme_python_blocks_run(capsys):
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert len(blocks) >= 2
    namespace: dict = {}
    for block in blocks:  # later blocks reuse names the quick start defines
        exec(compile(block, "README.md", "exec"), namespace)
    assert capsys.readouterr().out.splitlines() == [
        "1 1 1",
        "['c2_1', 'c2_2', 'c2_3', 'c2_4', 'w2']",
        "1/8",
    ]


def test_readme_schedule_example_is_the_export():
    text = (ROOT / "README.md").read_text()
    block = re.search(r"## Schedule format.*?```json\n(.*?)```", text, re.S)[1]
    t = collsched.synth_topology("boxes", boxes=2, gpus_per_box=1, intra=2, inter=1)
    schedule, _ = collsched.generate(t)
    assert re.sub(r"\s", "", block) + "\n" == collsched.export(schedule, "json")
