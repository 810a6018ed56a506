"""Compare two results written by ``run.py --out``.

Usage::

    python3 perfbench/compare.py BASE.json NEW.json

Prints, per metric, both medians and the change as a share of the base.
Refuses (exit code 2) when the workloads, trace modes or kernel backends
differ: a numba result and a numpy result measure different programs.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from record import comparable


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        sys.stderr.write(__doc__)
        return 2
    base, new = (json.loads(Path(p).read_text()) for p in argv)
    for key in ("workload", "trace"):
        if base[key] != new[key]:
            sys.stderr.write(f"error: {key} differs: {base[key]!r} vs {new[key]!r}\n")
            return 2
    why = comparable(base["env"], new["env"])
    if why:
        sys.stderr.write(f"error: results not comparable, {why}\n")
        return 2
    print(f"workload {base['workload']}: base seed {base['seed']}, new seed {new['seed']}")
    for name, b in base["metrics"].items():
        n = new["metrics"][name]["value"]
        change = f"{(n - b['value']) / b['value']:+.1%}" if b["value"] else "n/a"
        print(f"{name:32s} {b['value']:12.6g} -> {n:12.6g} {b['unit']:6s} {change}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
