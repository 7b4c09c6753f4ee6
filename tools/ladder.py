"""Per-stage timings of ``run_pipeline`` on a seeded ladder of instance sizes.

    python3 tools/ladder.py --parent DIR > BENCH_label.json

Compares two source trees, the one this file sits in ("change") and the one
at ``DIR`` ("parent"), each imported from its own ``src``.  For every rung
of ``SIZES``, chores and goods, the instance is ``gen_random_instance(n, m,
kind, seed=1)`` of the change tree, and every run times fresh copies of it
in each tree, the two trees alternating which goes first:

- ``pipeline``: one ``run_pipeline`` call, end to end;
- on a second copy, each stage on its own, in pipeline order: ``validate``
  (``require_valid``, which builds the integer rows and sorts each into its
  rank order), ``reduce`` (``reduce_to_ido``, which only permutes: it takes
  the rank orders validation sorted; it returns the reduced instance, and a
  tree from before it did returns the pair of that instance and its rank
  profile, which is read too), ``bid_and_take`` (``fbta`` on the
  reduced instance, its checks included), ``forest`` (the graph, its trees
  and the fractional items), and ``split`` (``split_tree`` on each tree of
  that forest, fresh from ``forest``, so any index a tree keeps is built
  inside it).  A tree whose reduced instance builds its integer rows only
  when they are read builds them in ``bid_and_take``, not in ``reduce``;
  a tree whose reduced instance does not carry its source's verdict, as
  before the reduced instance carried it, also validates it again there,
  building its ``costs`` and sorting rows already in order, and one whose
  reduced instance does not carry its identical-ordering verdict also
  scans its rows there;
- ``split_round``: ``round_tree`` on each tree of ``graph.trees`` of the
  first run's graph, on that run's reduced instance and fractional
  allocation, all read from its ``PipelineResult``;
- ``rest``: a second ``run_pipeline`` on the first copy, timed directly,
  with ``round_tree`` handing back the roundings ``split_round`` made: the
  per-tree emit choice, integralize, lift, subsidies and the certificate.

Each rung also records ``kept_mb``, per tree: the memory, in 10^6 bytes,
that ``tracemalloc`` finds still allocated after ``_fractional_stage`` runs
on a fresh copy whose integer rows, and nothing else, are already built,
and a full collection; that is what an instance keeps for its later runs,
the rank orders included, whichever step sorts them.

Beside the ladder, ``chains`` times ``split_tree`` alone on paths of
``CHAINS`` edges cut into two-edge atom-paths, item j on edges 2j and
2j + 1, so every peel leaves one piece holding every later atom-path: a
fresh tree per run, the two trees alternating.

Every timed call starts after a full ``gc.collect()``.  Each stage gets
the median over ``RUNS`` runs and the distance between their quartiles, in
seconds, and the change's section counts the runs in which its time was
below the parent's time of the same round (``wins``): the host drifts
between rounds more than within one, so a change that is slower by more
than the quartile distance but wins about half the runs is not resolved
either.  The speed probe of ``perfbench/speed.py`` (loaded by path,
read-only) runs between rungs, and its median is recorded, so that files
written on different hosts or days can be compared.  Each tree's tier-1 suite is run once and
its wall time recorded.  The JSON document goes to standard output.
"""
from __future__ import annotations

import argparse
import gc
import importlib
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
PACKAGE = "subsidy_fairdiv"
MODULES = ("model", "ido", "fbta", "graph", "split", "rounding", "oracle")
SIZES = ((10, 20), (30, 60), (120, 240), (300, 600), (1200, 2400))
KINDS = ("chores", "goods")
CHAINS = (300, 600, 1200, 2400)
RUNS = 7
STAGES = (
    "validate", "reduce", "bid_and_take", "forest", "split", "split_round", "rest", "pipeline",
)


def load_speed():
    """``perfbench/speed.py`` of this tree, loaded by path."""
    spec = importlib.util.spec_from_file_location("ladder_speed", HERE / "perfbench" / "speed.py")
    speed = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(speed)
    return speed


def import_tree(tree: Path) -> dict:
    """A fresh import of the package from ``tree/src``; module name -> module.

    The modules stay usable after another tree's import replaces them in
    ``sys.modules``: each one already holds what it imported.
    """
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    sys.path.insert(0, str(tree / "src"))
    try:
        mods = {name: importlib.import_module(f"{PACKAGE}.{name}") for name in MODULES}
    finally:
        sys.path.remove(str(tree / "src"))
    origin = Path(mods["model"].__file__).resolve()
    if tree / "src" not in origin.parents:
        raise ImportError(f"{PACKAGE} was imported from {origin}, not from {tree / 'src'}")
    return mods


def timed(call, *args):
    """``call(*args)`` and its time; each call starts after a full collection,
    so that no stage pays for the garbage, or the collector counts, of the
    one before it."""
    gc.collect()
    t0 = time.perf_counter()
    out = call(*args)
    return out, time.perf_counter() - t0


def one_run(mods: dict, source) -> dict[str, float]:
    """Every stage's time, in seconds, on fresh copies of ``source``."""
    model, ido, fbta, graph, split, rounding = (
        mods[name] for name in ("model", "ido", "fbta", "graph", "split", "rounding")
    )

    def fresh():
        return model.Instance(source.kind, source.weights, source.costs)

    def forest(alloc, trace):
        return tuple(graph.trees(graph.build_graph(trace))), tuple(fbta.fractional_items(alloc))

    def split_all(trees):
        return [split.split_tree(tree) for tree in trees]

    def split_round(ido_inst, alloc, trees):
        return [rounding.round_tree(ido_inst, alloc, tree) for tree in trees]

    times: dict[str, float] = {}
    first = fresh()
    result, times["pipeline"] = timed(rounding.run_pipeline, first)
    inst = fresh()
    _, times["validate"] = timed(model.require_valid, inst)
    ido_inst, times["reduce"] = timed(ido.reduce_to_ido, inst)
    if isinstance(ido_inst, tuple):  # a parent tree's (reduced instance, rank profile)
        ido_inst = ido_inst[0]
    (alloc, trace), times["bid_and_take"] = timed(fbta.fbta, ido_inst)
    (fresh_trees, _), times["forest"] = timed(forest, alloc, trace)
    _, times["split"] = timed(split_all, fresh_trees)
    # split + round on the first run's forest, so that its results can stand
    # in for ``round_tree`` while the second pipeline run is timed
    trees = tuple(graph.trees(result.graph))
    rounded, times["split_round"] = timed(
        split_round, result.ido_instance, result.fractional, trees
    )
    round_tree = rounding.round_tree
    rounding.round_tree = lambda _inst, _alloc, _tree, done=iter(rounded): next(done)
    try:
        _, times["rest"] = timed(rounding.run_pipeline, first)
    finally:
        rounding.round_tree = round_tree
    return times


def kept_mb(mods: dict, source) -> float:
    """Memory, in 10^6 bytes, that ``_fractional_stage`` keeps on a fresh copy
    of ``source`` whose integer rows are built, after a full collection."""
    inst = mods["model"].Instance(source.kind, source.weights, source.costs)
    inst._rows  # builds the integer rows, and nothing the stage keeps
    gc.collect()
    tracemalloc.start()
    try:
        mods["rounding"]._fractional_stage(inst)
        gc.collect()
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return round(kept / 1e6, 3)


def iqr(times: list[float]) -> float:
    """Distance between the upper and lower quartiles of the times."""
    q1, _, q3 = statistics.quantiles(times, n=4, method="inclusive")
    return q3 - q1


def ladder(trees: dict[str, Path], probe) -> dict:
    """Median stage times per tree and rung, and the probe times taken between rungs.

    Each rung's instance is generated once, by the last tree listed; every
    tree builds its own ``Instance`` from those same ``Fraction`` objects.
    The last tree's ``wins`` count its runs faster than the first tree's.
    """
    mods = {label: import_tree(path) for label, path in trees.items()}
    labels = list(trees)
    result: dict[str, list] = {label: [] for label in labels}
    probes = []
    for n, m in SIZES:
        for kind in KINDS:
            probes.append(probe())
            source = mods[labels[-1]]["oracle"].gen_random_instance(n, m, kind, seed=1)
            samples = {label: {stage: [] for stage in STAGES} for label in labels}
            for r in range(RUNS):
                for label in labels[r % 2:] + labels[: r % 2]:
                    for stage, t in one_run(mods[label], source).items():
                        samples[label][stage].append(t)
            kept = {label: kept_mb(mods[label], source) for label in labels}
            del source
            for label in labels:
                result[label].append({
                    "kind": kind,
                    "n": n,
                    "m": m,
                    "kept_mb": kept[label],
                    "median_s": {
                        stage: round(statistics.median(samples[label][stage]), 6)
                        for stage in STAGES
                    },
                    "iqr_s": {stage: round(iqr(samples[label][stage]), 6) for stage in STAGES},
                })
            first, last = samples[labels[0]], samples[labels[-1]]
            result[labels[-1]][-1]["wins"] = {
                stage: sum(map(float.__lt__, last[stage], first[stage])) for stage in STAGES
            }
    return {"sections": result, "probes": probes}


def chain(graph, size: int):
    """A path of ``size`` edges, agent i -> i + 1, item j on edges 2j and 2j + 1."""
    return graph.make_tree(tuple(graph.Edge(i, i + 1, i // 2) for i in range(size)))


def chains(trees: dict[str, Path]) -> dict[str, list]:
    """Median and interquartile range of ``split_tree`` on each chain, per tree."""
    mods = {label: import_tree(path) for label, path in trees.items()}
    labels = list(trees)
    result: dict[str, list] = {label: [] for label in labels}
    for size in CHAINS:
        samples: dict[str, list[float]] = {label: [] for label in labels}
        for r in range(RUNS):
            for label in labels[r % 2:] + labels[: r % 2]:
                tree = chain(mods[label]["graph"], size)
                _, t = timed(mods[label]["split"].split_tree, tree)
                samples[label].append(t)
        for label in labels:
            result[label].append({
                "edges": size,
                "median_s": round(statistics.median(samples[label]), 6),
                "iqr_s": round(iqr(samples[label]), 6),
            })
    return result


def tier1(tree: Path) -> dict:
    """Wall time and summary line of the tree's tier-1 suite."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    t0 = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "--continue-on-collection-errors"],
        cwd=tree, env=env, capture_output=True, text=True,
    )
    wall = time.perf_counter() - t0
    lines = done.stdout.strip().splitlines()
    return {"wall_s": round(wall, 1), "summary": lines[-1] if lines else ""}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="root of the parent source tree")
    args = parser.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": HERE}
    speed = load_speed()
    found = ladder(trees, speed.probe)
    split_chains = chains(trees)
    doc = {
        "what": "median and interquartile range, in seconds, per stage of run_pipeline, "
                "gen_random_instance(seed=1), fresh Instance per run; the change's runs "
                "faster than the parent's of the same round (wins); memory the fractional "
                "stage keeps, in 10^6 bytes (kept_mb); see tools/ladder.py",
        "environment": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "nproc": os.cpu_count(),
            "runs": RUNS,
            "probe_median_ms": round(1e3 * statistics.median(found["probes"]), 3),
            "probe_reference_ms": 1e3 * speed.REFERENCE_S,
        },
    }
    for label, tree in trees.items():
        doc[label] = {
            "ladder": found["sections"][label],
            "chains": split_chains[label],
            "tier1": tier1(tree),
        }
    sys.stdout.write(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
