"""Compare two benchmark result files.

    python3 perfbench/compare.py OLD.json NEW.json

Lists every output file whose sha256 changed, appeared or disappeared,
then each metric side by side.  Exits 1 when any output differs, so a
change that must keep outputs byte-identical can be checked with it;
exits 0 otherwise.  Both files must come from the same workload and seed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


def output_changes(old: dict, new: dict) -> list[str]:
    a, b = old["digests"], new["digests"]
    lines = []
    for name in sorted(set(a) | set(b)):
        if name not in b:
            lines.append(f"removed  {name}")
        elif name not in a:
            lines.append(f"added    {name}")
        elif a[name] != b[name]:
            lines.append(f"changed  {name}")
    return lines


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    old, new = (json.loads(Path(p).read_text()) for p in argv)
    for key in ("workload", "seed"):
        if old[key] != new[key]:
            print(f"{key} differs: {old[key]!r} vs {new[key]!r}",
                  file=sys.stderr)
            return 2
    changes = output_changes(old, new)
    print(f"outputs: {len(old['digests'])} before, {len(new['digests'])} "
          f"after, {len(changes)} differ")
    for line in changes:
        print("  " + line)
    print("metrics:")
    for name in sorted(set(old["metrics"]) | set(new["metrics"])):
        a = old["metrics"].get(name, {}).get("value")
        b = new["metrics"].get(name, {}).get("value")
        unit = (old["metrics"].get(name) or new["metrics"][name])["unit"]
        ratio = f"{b / a:8.3f}x" if a and b is not None else ""
        print(f"  {name:40s} {a!s:>24} {b!s:>24} {unit:6s} {ratio}")
    return 1 if changes else 0


if __name__ == "__main__":
    sys.exit(main())
