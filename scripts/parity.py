"""Check that every CLI artifact of this tree is byte-identical to a parent's.

Runs the same CLI flows once for each tree, every command in a fresh
Python process with that tree's ``src`` on the path, then compares every
file the flows wrote, byte for byte. In ``run_meta_*.json`` only
``wall_s`` and the paths of the work directory are ignored, and each
command's printed output is compared the same way. Prints one line per
artifact and exits 1 on any difference, a missing artifact or a failed
command.

The flows: ``synth``, ``prepare``, ``train`` with and without ``--grid``,
``evaluate --seeds 2 --horizon``, ``predict`` and ``importance
--n-repeats 2`` on a ``--synth`` dataset; ``prepare``, ``train``,
``evaluate --horizon``, ``predict`` and ``importance`` on perfbench's
12-visit cohort and on its whole-day cohort
(``perfbench/inputs.py::write_cohort``), so the series quantile transform
and the series CSV writer are compared too. Both trees read the same
cohort files, written once by this tree's perfbench.
``--size full`` uses 2000 synthetic subjects and cohorts of 4000 and 3000;
``--size small`` uses 300, 300 and 250, and only proves that the flows run
and agree.

Usage:
    git archive <parent-commit> | tar -x -C <dir>
    python3 scripts/parity.py --parent <dir> [--size full|small] [--work <dir>]
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_CLI = "import sys; from dysurv.cli import main; sys.exit(main(sys.argv[1:]))"
SIZES = {"full": (2000, 4000, 3000), "small": (300, 300, 250)}
# small enough that a grid of 36 trials stays quick; alpha < 1 and keep < 1
# run the decoder and dropout too
TRAIN = ["--max-epochs", "4", "--patience", "2", "--hidden", "16", "--z-dim", "4",
         "--batch", "64", "--alpha", "0.5", "--dropout-keep", "0.9"]


def write_cohorts(inputs: Path, n_long: int, n_days: int) -> dict[str, Path]:
    sys.path.insert(0, str(ROOT / "perfbench"))
    from inputs import write_cohort

    return {
        "cohort": write_cohort(inputs / "cohort", n_long, seed=4).manifest,
        "days": write_cohort(inputs / "days", n_days, seed=5, whole_days=True).manifest,
    }


def flows(n_synth: int, cohorts: dict[str, Path]) -> list[tuple[str, list[str]]]:
    """(output directory, CLI argv) in run order; ``{out}`` is the tree's
    work directory."""
    synth = "{out}/synth/synthetic_manifest.json"
    steps = [
        ("synth", ["synth", "--synth", f"{n_synth},5,0.37", "--seed", "7"]),
        ("prepare", ["prepare", "--manifest", synth, "--seed", "7"]),
        ("train", ["train", "--manifest", synth, *TRAIN]),
        ("train_grid", ["train", "--manifest", synth, "--grid", *TRAIN]),
        ("evaluate", ["evaluate", "--manifest", synth, "--seeds", "2", "--horizon", "5.0",
                      "--checkpoint", "{out}/train/checkpoint.bin"]),
        ("predict", ["predict", "--manifest", synth, "--checkpoint", "{out}/train/checkpoint.bin"]),
        ("importance", ["importance", "--manifest", synth, "--n-repeats", "2",
                        "--checkpoint", "{out}/train/checkpoint.bin"]),
    ]
    for name, manifest in cohorts.items():
        data = ["--manifest", str(manifest)]
        ckpt = ["--checkpoint", f"{{out}}/{name}_train/checkpoint.bin"]
        steps += [
            (f"{name}_prepare", ["prepare", *data]),
            (f"{name}_train", ["train", *data, *TRAIN]),
            (f"{name}_evaluate", ["evaluate", *data, "--horizon", "30.0", *ckpt]),
            (f"{name}_predict", ["predict", *data, *ckpt]),
            (f"{name}_importance", ["importance", *data, "--n-repeats", "2", *ckpt]),
        ]
    return steps


def run_tree(tree: Path, out: Path, steps) -> list[str]:
    """Run every flow with ``tree``'s package; returns the failures. Each
    command's printed output is kept as ``stdout/<flow>.txt``."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    (out / "stdout").mkdir(parents=True)
    failures = []
    for name, argv in steps:
        argv = [a.replace("{out}", str(out)) for a in argv] + ["--out", str(out / name)]
        done = subprocess.run([sys.executable, "-c", RUN_CLI, *argv], env=env,
                              capture_output=True, text=True)
        text = (done.stdout + done.stderr).replace(str(out), "<out>")
        (out / "stdout" / f"{name}.txt").write_text(text, encoding="utf-8")
        if done.returncode != 0:
            failures.append(f"{name} exited {done.returncode}: {text.strip()[-300:]}")
    return failures


def comparable(path: Path, out: Path) -> bytes:
    """The bytes compared for one artifact: a run record without its
    wall time and with the work directory masked, any other file as it is."""
    if not path.name.startswith("run_meta_"):
        return path.read_bytes()
    meta = json.loads(path.read_text(encoding="utf-8"))
    meta.pop("wall_s", None)
    return json.dumps(meta, sort_keys=True).replace(str(out), "<out>").encode()


def compare(mine: Path, parent: Path) -> list[str]:
    """One line per artifact, "identical" or what differs."""
    names = sorted({p.relative_to(d) for d in (mine, parent) for p in d.rglob("*") if p.is_file()})
    lines = []
    for rel in names:
        a, b = mine / rel, parent / rel
        if not b.exists():
            lines.append(f"only in this tree  {rel}")
        elif not a.exists():
            lines.append(f"only in parent     {rel}")
        elif comparable(a, mine) != comparable(b, parent):
            lines.append(f"DIFFERS            {rel}")
        else:
            lines.append(f"identical          {rel}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, type=Path, help="the parent tree, unpacked")
    ap.add_argument("--size", choices=sorted(SIZES), default="full")
    ap.add_argument("--work", type=Path, default=None,
                    help="a new directory to keep the outputs in "
                         "(default: a temporary one, removed at the end)")
    args = ap.parse_args(argv)
    if not (args.parent / "src" / "dysurv").is_dir():
        ap.error(f"{args.parent} holds no src/dysurv")
    with tempfile.TemporaryDirectory(prefix="parity-") as tmp:
        work = args.work or Path(tmp)
        n_synth, n_long, n_days = SIZES[args.size]
        steps = flows(n_synth, write_cohorts(work / "inputs", n_long, n_days))
        failures = []
        for label, tree in (("tree", ROOT), ("parent", args.parent.resolve())):
            failures += [f"{label}: {f}" for f in run_tree(tree, work / label, steps)]
        lines = compare(work / "tree", work / "parent")
    print("\n".join(lines + failures))
    same = sum(line.startswith("identical") for line in lines)
    print(f"{same} of {len(lines)} artifacts identical, {len(failures)} commands failed")
    return 0 if same == len(lines) and not failures else 1


if __name__ == "__main__":
    sys.exit(main())
