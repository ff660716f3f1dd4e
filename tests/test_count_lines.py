"""``scripts/count_lines.py``: the line count the change logs cite."""

import importlib.util
import os
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location(
    "count_lines", ROOT / "scripts" / "count_lines.py")
count_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(count_lines)


def test_src_total_matches_a_direct_count():
    direct = 0
    for folder, _dirs, files in os.walk(ROOT / "src"):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(folder, name), encoding="utf-8") as fh:
                    for line in fh:
                        text = line.strip()
                        if text and not text.startswith("#"):
                            direct += 1
    rows = count_lines.totals(count_lines.worktree_counts())
    assert rows["src/"] == direct > 0
    assert rows["src/"] == sum(lines for key, lines in rows.items()
                               if key.startswith("repro"))
