"""Per-stage timings of ``run_pipeline`` on a seeded ladder of instance sizes.

    python3 tools/ladder.py --parent DIR > BENCH_label.json

Compares two source trees, the one this file sits in ("change") and the one
at ``DIR`` ("parent"), each imported from its own ``src``.  For every rung
of ``SIZES``, chores and goods, the instance is ``gen_random_instance(n, m,
kind, seed=1)`` of the change tree, and every run times fresh copies of it
in each tree, the two trees alternating which goes first:

- ``pipeline``: one ``run_pipeline`` call, end to end;
- on a second copy, each stage on its own, in pipeline order: ``rows``
  (``Instance._rows``, the integer rows), ``orders`` (``Instance._orders``,
  each row sorted into its rank order), ``validate`` (``require_valid``,
  the checks alone; in ``BENCH_*.json`` files written before ``rows`` and
  ``orders`` were timed, ``validate`` includes both), ``reduce``
  (``reduce_to_ido``, which only permutes), ``bid_and_take`` (``fbta`` on the
  reduced instance, its checks included), ``forest`` (the graph, its trees
  and the fractional items), and ``split`` (``split_tree`` on each tree of
  that forest, fresh from ``forest``, so any index a tree keeps is built
  inside it).  A tree whose reduced instance builds its integer rows only
  when they are read builds them in ``bid_and_take``, not in ``reduce``;
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

Beside the ladder, ``chains`` times ``split_tree`` alone on two families
of trees, a fresh tree per run, the two source trees alternating:

- ``chain``: paths of ``CHAINS`` edges cut into two-edge atom-paths, item j
  on edges 2j and 2j + 1, so every peel leaves one piece holding every
  later atom-path;
- ``broom``: one atom-path of k edges, item 0, with a hub edge into each
  of its k + 1 agents and four leaf edges into each hub, so 6k + 5 edges,
  the most that fit in each of ``CHAINS``; every path agent's region has
  five edges and donates its hub edge (``choose_attachment``).

The ``contested`` section times the same stages on the rungs of
``CONTESTED``: chores drawn with ``CONTESTED_DRAW``, every row within two
grid steps of one shared base row on the 1/997 grid, so the agents' rank
orders nearly agree and many agents contend for each item.

The ``hostile`` section times one document from its text: 4 chores agents
of weight 1/4, each costing ``1/p`` for the first ``PRIMES`` primes ``p``
(:func:`primes_document`), whose row denominators run to about 11,000
bits.  Each run parses the text in its own tree (``parse``) and times the
stages above on the parsed instance.

Every timed call starts after a full ``gc.collect()``.  Each stage gets
the median and the minimum over ``RUNS`` runs (``RUNS_AT`` for the sizes
it names) and the distance between their quartiles, in seconds, and the
change's section counts the runs in which its time was below the parent's
time of the same round (``wins``): the host drifts between rounds more
than within one, so a change that is slower by more than the quartile
distance but wins about half the runs is not resolved either.  The speed
probe of ``perfbench/speed.py`` (loaded by path, read-only) runs
``PROBES`` times before and after each rung, and the change's section
records both medians and how far they moved, as a share of the first
(``probe``).  A rung whose probe moved by more than the first tree's
quartile distance of ``pipeline``, as a share of its median, ran on a host
whose speed changed by more than the rung can resolve: it is marked
``disturbed`` and listed in the environment.  Read a disturbed rung's
differences, and its ``wins``, as unresolved.  The median of every probe
is recorded, so that files written on different hosts or days can be
compared.  Each tree's tier-1 suite is run once and its wall time
recorded.  The JSON document goes to standard output.
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
RUNGS = tuple({"kind": kind, "n": n, "m": m} for n, m in SIZES for kind in KINDS)
CONTESTED = ((30, 900), (300, 600))
CONTESTED_DRAW = {"kind": "chores", "dist": "correlated", "denominator": 997}
CONTESTED_RUNGS = tuple({**CONTESTED_DRAW, "n": n, "m": m} for n, m in CONTESTED)
CHAINS = (300, 600, 1200, 2400)
RUNS = 7
# Runs per size where ``RUNS`` is too few.  At 1200×2400 the parent's
# quartile distance for rows, orders and bid_and_take read 1–8% of its median
# over 7, 11, 15 and 21 runs on a 2-CPU host: it follows the host's drift,
# not the count.  15 runs cut the error of the median by about a third
# (sqrt(7/15)) and give ``wins`` twice the rounds.
RUNS_AT = {(1200, 2400): 15}
PROBES = 5
PRIMES = 1000
HOSTILE_RUNGS = ({"document": "primes", "kind": "chores", "n": 4, "m": PRIMES},)
STAGES = (
    "parse", "rows", "orders", "validate", "reduce", "bid_and_take", "forest", "split",
    "split_round", "rest", "pipeline",
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


def primes_document(count: int) -> str:
    """The instance document of 4 chores agents of weight 1/4, each costing
    ``1/p`` for each of the first ``count`` primes ``p``."""
    primes: list[int] = []
    candidate = 2
    while len(primes) < count:
        if all(candidate % p for p in primes if p * p <= candidate):
            primes.append(candidate)
        candidate += 1
    row = [f"1/{p}" for p in primes]
    return json.dumps({"kind": "chores", "weights": ["1/4"] * 4, "costs": [row] * 4})


def one_run(mods: dict, source, text: str | None = None) -> dict[str, float]:
    """Every stage's time, in seconds, on fresh copies of ``source``; with a
    document ``text``, on fresh copies of its parse, timed as ``parse``."""
    model, ido, fbta, graph, split, rounding = (
        mods[name] for name in ("model", "ido", "fbta", "graph", "split", "rounding")
    )
    times: dict[str, float] = {}
    if text is not None:
        source, times["parse"] = timed(model.parse_instance, text)

    def fresh():
        return model.Instance(source.kind, source.weights, source.costs)

    def forest(alloc, trace):
        return tuple(graph.trees(graph.build_graph(trace))), tuple(fbta.fractional_items(alloc))

    def split_all(trees):
        return [split.split_tree(tree) for tree in trees]

    def split_round(ido_inst, alloc, trees):
        return [rounding.round_tree(ido_inst, alloc, tree) for tree in trees]

    first = fresh()
    result, times["pipeline"] = timed(rounding.run_pipeline, first)
    inst = fresh()
    _, times["rows"] = timed(getattr, inst, "_rows")
    _, times["orders"] = timed(getattr, inst, "_orders")
    _, times["validate"] = timed(model.require_valid, inst)
    ido_inst, times["reduce"] = timed(ido.reduce_to_ido, inst)
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


def summary(times: list[float]) -> dict[str, float]:
    """Median, minimum and interquartile range of the times, in seconds."""
    return {
        "median_s": round(statistics.median(times), 6),
        "min_s": round(min(times), 6),
        "iqr_s": round(iqr(times), 6),
    }


def ladder(mods: dict[str, dict], rungs, probe) -> dict:
    """Stage times per tree and rung, and the probe times taken around rungs.

    Each rung is the keyword arguments of ``gen_random_instance`` beside
    ``seed=1``, or names a document (``HOSTILE_RUNGS``); its instance is
    generated, or its document parsed, once, by the last tree listed, and
    every tree builds its own ``Instance`` from those same ``Fraction``
    objects.  The last tree's ``wins`` count its runs faster than the first
    tree's, and its ``probe`` holds the probes taken before and after the rung.
    """
    labels = list(mods)
    result: dict[str, list] = {label: [] for label in labels}
    probes = []
    for rung in rungs:
        before = [probe() for _ in range(PROBES)]
        last = mods[labels[-1]]
        text = primes_document(rung["m"]) if "document" in rung else None
        if text is None:
            source = last["oracle"].gen_random_instance(**rung, seed=1)
        else:
            source = last["model"].parse_instance(text)
        samples: dict[str, dict[str, list[float]]] = {label: {} for label in labels}
        for r in range(RUNS_AT.get((rung["n"], rung["m"]), RUNS)):
            for label in labels[r % 2:] + labels[: r % 2]:
                for stage, t in one_run(mods[label], source, text).items():
                    samples[label].setdefault(stage, []).append(t)
        kept = {label: kept_mb(mods[label], source) for label in labels}
        del source
        after = [probe() for _ in range(PROBES)]
        probes += before + after
        for label in labels:
            stats = {
                stage: summary(samples[label][stage])
                for stage in STAGES
                if stage in samples[label]
            }
            result[label].append({
                **rung,
                "kept_mb": kept[label],
                **{
                    field: {stage: stats[stage][field] for stage in stats}
                    for field in ("median_s", "min_s", "iqr_s")
                },
            })
        first, change = samples[labels[0]], samples[labels[-1]]
        result[labels[-1]][-1]["wins"] = {
            stage: sum(map(float.__lt__, change[stage], first[stage])) for stage in change
        }
        pipeline = result[labels[0]][-1]
        result[labels[-1]][-1]["probe"] = probe_shift(
            before, after, pipeline["iqr_s"]["pipeline"] / pipeline["median_s"]["pipeline"]
        )
    return {"sections": result, "probes": probes}


def probe_shift(before: list[float], after: list[float], spread: float) -> dict:
    """The medians of the probes before and after a rung, in ms, how far they
    moved as a share of the first, and whether that exceeds ``spread``, the
    rung's quartile distance as a share of its median."""
    first, last = statistics.median(before), statistics.median(after)
    moved = abs(last - first) / first
    return {
        "before_ms": round(1e3 * first, 4),
        "after_ms": round(1e3 * last, 4),
        "moved": round(moved, 4),
        "disturbed": moved > spread,
    }


def chain(graph, size: int):
    """A path of ``size`` edges, agent i -> i + 1, item j on edges 2j and 2j + 1."""
    return graph.make_tree(tuple(graph.Edge(i, i + 1, i // 2) for i in range(size)))


def broom(graph, size: int):
    """The broom of at most ``size`` edges: an atom-path of k = (size - 5) // 6
    edges, agent i -> i + 1 on item 0, and at each path agent a hub edge into
    it and four leaf edges into the hub, each on the item of its tail."""
    k = (size - 5) // 6
    edges = [graph.Edge(i, i + 1, 0) for i in range(k)]
    for agent in range(k + 1):
        hub = k + 1 + 5 * agent
        edges.append(graph.Edge(hub, agent, hub))
        edges += [graph.Edge(leaf, hub, leaf) for leaf in range(hub + 1, hub + 5)]
    return graph.make_tree(tuple(edges))


def chains(mods: dict[str, dict]) -> dict[str, list]:
    """Median, minimum and interquartile range of ``split_tree`` on each chain
    and broom, per tree."""
    labels = list(mods)
    result: dict[str, list] = {label: [] for label in labels}
    for family, make in (("chain", chain), ("broom", broom)):
        for size in CHAINS:
            samples: dict[str, list[float]] = {label: [] for label in labels}
            for r in range(RUNS):
                for label in labels[r % 2:] + labels[: r % 2]:
                    tree = make(mods[label]["graph"], size)
                    _, t = timed(mods[label]["split"].split_tree, tree)
                    samples[label].append(t)
            for label in labels:
                result[label].append(
                    {"family": family, "edges": tree.size, **summary(samples[label])}
                )
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
    mods = {label: import_tree(path) for label, path in trees.items()}
    speed = load_speed()
    sections = {
        "ladder": ladder(mods, RUNGS, speed.probe),
        "contested": ladder(mods, CONTESTED_RUNGS, speed.probe),
        "hostile": ladder(mods, HOSTILE_RUNGS, speed.probe),
    }
    split_chains = chains(mods)
    probes = [t for found in sections.values() for t in found["probes"]]
    doc = {
        "what": "median, minimum and interquartile range, in seconds, per stage of "
                "run_pipeline, gen_random_instance(seed=1), fresh Instance per run; the "
                "contested section draws CONTESTED_DRAW chores, and the hostile section "
                "parses primes_document(PRIMES); the change's runs faster than the "
                "parent's of the same round (wins), and the speed probe around each rung "
                "(probe); memory the fractional stage keeps, in 10^6 bytes (kept_mb); "
                "see tools/ladder.py",
        "environment": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "nproc": os.cpu_count(),
            "runs": RUNS,
            "runs_at": {f"{n}x{m}": runs for (n, m), runs in RUNS_AT.items()},
            "probe_median_ms": round(1e3 * statistics.median(probes), 3),
            "probe_reference_ms": 1e3 * speed.REFERENCE_S,
            "disturbed": [
                f"{name} {rung['kind']} {rung['n']}x{rung['m']}"
                for name, found in sections.items()
                for rung in found["sections"]["change"]
                if rung["probe"]["disturbed"]
            ],
        },
    }
    for label, tree in trees.items():
        doc[label] = {
            **{name: found["sections"][label] for name, found in sections.items()},
            "chains": split_chains[label],
            "tier1": tier1(tree),
        }
    sys.stdout.write(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
