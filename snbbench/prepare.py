"""Writes the benchmark's input files, before and outside any timing.

* ``graph/`` — a snapshot of the generated mini-SNB graph (``save_graph``);
* ``info.json`` — the generator's dataset summary, which parameter
  generation needs;
* ``db/`` — with ``--durable``, a database directory initialised from the
  graph by ``GES.open``.

It runs as a child process so the data generator's memory never counts
toward the measured process's peak RSS::

    python3 snbbench/prepare.py OUT_DIR [--scale SF100] [--durable]

The graph is the same for every workload seed: the seed only chooses the
operations, so runs of different seeds measure the same store.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import GES, EngineConfig  # noqa: E402
from repro.ldbc import generate  # noqa: E402
from repro.ldbc.datagen import DatasetInfo, ScaleFactor  # noqa: E402
from repro.storage.io import save_graph  # noqa: E402

GRAPH_SEED = 42


def write_inputs(out: Path, scale: str, durable: bool) -> None:
    dataset = generate(scale, seed=GRAPH_SEED)
    out.mkdir(parents=True, exist_ok=True)
    save_graph(dataset.store, out / "graph")
    (out / "info.json").write_text(json.dumps(dataclasses.asdict(dataset.info)))
    if durable:
        engine = GES.open(
            out / "db",
            config=EngineConfig.ges_f_star(durability="fsync"),
            schema=dataset.store,
        )
        engine.close()


def read_info(out: Path) -> DatasetInfo:
    raw = json.loads((out / "info.json").read_text())
    raw["scale"] = ScaleFactor(**raw["scale"])
    return DatasetInfo(**raw)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", type=Path)
    parser.add_argument("--scale", default="SF100")
    parser.add_argument("--durable", action="store_true")
    args = parser.parse_args()
    write_inputs(args.out, args.scale, args.durable)


if __name__ == "__main__":
    main()
