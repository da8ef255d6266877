"""Recompute the committed reference change points under ``refs/``.

Each reference is a standalone ``ClaSS(ClaSSConfig(d=...))`` run over the
same values the benchmark feeds, so the Spark planes are checked against
the standalone detector.  It lists ``[points fed, CP]`` for every change
point, so the reference of any prefix of a series is read off it.  Rerun this only when the detector's output is
meant to change, and say so in the change that does it:

    python3 perfbench/make_refs.py [--workers 3]
"""
from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import inputs  # noqa: E402


def _stream_ref(j: int) -> tuple[int, list[list[int]]]:
    """Points fed when each CP appeared, and the CP, for pool stream j."""
    from repro.harness.throughput import _test_stream

    values, _ = _test_stream(inputs.STREAM_N, j)
    return j, inputs.standalone_emissions(values, inputs.STREAM_D)[0]


def _series_ref(rec) -> tuple[str, list[list[int]]]:
    return (rec.series_id,
            inputs.standalone_emissions(rec.values, inputs.CORPUS_D)[0])


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workers", type=int, default=3)
    args = ap.parse_args()
    os.makedirs(inputs.REFS, exist_ok=True)
    records = inputs.corpus()
    # Longest jobs first, so the pool's tail is short.
    records.sort(key=lambda r: -r.n)
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(args.workers) as pool:
        streams = pool.map_async(_stream_ref, range(inputs.STREAM_POOL))
        series = pool.map_async(_series_ref, records)
        streams, series = dict(streams.get()), dict(series.get())
    out = {
        "stream_d10k": {"d": inputs.STREAM_D, "n": inputs.STREAM_N,
                        "streams": {str(j): streams[j]
                                    for j in sorted(streams)}},
        "corpus_d1000": {"d": inputs.CORPUS_D,
                         "corpus_seed": inputs.CORPUS_SEED,
                         "series": dict(sorted(series.items()))},
    }
    for name, body in out.items():
        with open(os.path.join(inputs.REFS, f"{name}.json"), "w") as f:
            json.dump(body, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
