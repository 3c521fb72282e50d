"""Record the stdout digest of every command of the cli workload's grid and probe.

    python3 perfbench/record_goldens.py

Run it only when a change means to alter the CLI's output, and say why in
that change.  Every command must exit 0.
"""

from __future__ import annotations

import hashlib
import json
import os

from workloads import WORKLOADS, checkout_root


def main() -> None:
    cli = WORKLOADS["cli"]
    root = checkout_root()
    cli.root = root
    cli.env = dict(os.environ, PYTHONPATH=str(root / "src"))
    goldens = {}
    for kind, commands in [*cli.grid().items(), ("probe", cli.PROBE)]:
        for argv in commands:
            code, stdout = cli.run(None, argv)
            if code != 0:
                raise SystemExit(f"`{' '.join(argv)}` exited with {code}")
            goldens[" ".join(argv)] = hashlib.sha256(stdout).hexdigest()
        print(f"{kind}: {len(commands)} commands")
    path = root / "perfbench" / "cli_goldens.json"
    path.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(goldens)} digests to {path}")


if __name__ == "__main__":
    main()
