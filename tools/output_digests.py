"""Print the sha256 of every data file that the shipped and benchmark configs write.

    python tools/output_digests.py [--workers N] [--out DIR]

Runs every config in ``configs/`` and ``perfbench/configs/*/`` (each with its
own seed) at ``--workers N`` (default 1) and prints ``{config: {file:
sha256}}`` as JSON, taken from each run's manifest.  The ``andlab`` it runs is
the one under this checkout's ``src/``, so running the same script in two
checkouts and diffing the outputs compares their bytes.  It exits 1, naming
the config on stderr, when a run directory holds anything other than
``manifest.json`` plus the files its manifest lists.

The runs go to a temporary directory that is deleted afterwards, unless
``--out DIR`` is given: then each config's run directory is kept under
``DIR/<config path without .json>`` (for example ``DIR/configs/qucp``), so
the files whose digests moved between two checkouts can be diffed column by
column.

BLAS runs on one thread unless ``OPENBLAS_NUM_THREADS`` or ``OMP_NUM_THREADS``
is set, so running it at two thread counts and diffing the outputs checks that
no output depends on the BLAS thread count.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from andlab.experiments import load_config, run_experiment  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--out", metavar="DIR", help="keep the run directories under DIR")
    args = parser.parse_args(argv)
    paths = sorted(ROOT.glob("configs/*.json")) + sorted(ROOT.glob("perfbench/configs/*/*.json"))
    digests, status = {}, 0
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(args.out or tmp)
        for path in paths:
            name = path.relative_to(ROOT)
            out = run_experiment(load_config(path), str(root / name.with_suffix("")),
                                 workers_override=args.workers)
            manifest = json.loads((out / "manifest.json").read_text())
            digests[str(name)] = manifest["files"]
            held = sorted(p.name for p in out.iterdir())
            if held != sorted(["manifest.json", *manifest["files"]]):
                print(f"{name}: run directory holds {held}, its manifest lists "
                      f"{sorted(manifest['files'])}", file=sys.stderr)
                status = 1
    json.dump(digests, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
