"""Compare the CSVs that two checkouts write for the benchmark's CLI commands.

    python tools/cli_bytes.py OLD_ROOT NEW_ROOT [--seeds 1,5101,77]

For each seed, runs the seven commands of ``bench/cases.py``'s ``sweeps``
(with their generated ``--config`` files) in fresh processes, once against
each checkout's ``src``, and prints ``identical`` or ``different`` for every
CSV.  Exits 1 if any CSV differs or a command fails, else 0.  The argv come
from this checkout's ``bench/cases.py``, which is imported and not changed.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(HERE / "bench"), str(HERE / "src")]
sys.dont_write_bytecode = True  # leave no cache beside bench/cases.py

import cases  # noqa: E402
import nhcool as nh  # noqa: E402


def csvs(root: Path, seed: int, workdir: Path) -> dict[str, str]:
    """The CSV text of each ``sweeps`` command, run against the checkout ``root``."""
    out = {}
    for case in cases.sweeps(nh, seed, root, workdir, in_process=False):
        try:
            out[case.name] = case.run()
        except cases.CommandFailed as exc:
            out[case.name] = f"failed: {exc}"
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old_root", type=Path)
    parser.add_argument("new_root", type=Path)
    parser.add_argument("--seeds", default="1,5101,77",
                        type=lambda text: [int(s) for s in text.split(",")])
    args = parser.parse_args(argv)

    differ = False
    with tempfile.TemporaryDirectory() as tmp:
        for seed in args.seeds:
            old, new = (csvs(root.resolve(), seed, Path(tmp) / f"{seed}-{side}")
                        for side, root in (("old", args.old_root), ("new", args.new_root)))
            for name in old:
                same = old[name] == new[name] and not old[name].startswith("failed: ")
                differ |= not same
                print(f"seed {seed:>5} {name:<22} {'identical' if same else 'different'}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
