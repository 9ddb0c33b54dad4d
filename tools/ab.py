"""Run the benchmark on two commits in alternating pairs and write one ``BENCH_*.json``.

    python3 tools/ab.py --parent REV --change . --workloads recover verify region --seeds 101-110 \
        --seconds 10 --json BENCH_x.json

The parent side is revision REV of the git repository at ``--change``; the change side is that
repository's committed HEAD, so edits not yet committed are not run.  Each side is checked out into
its own clean ``git worktree`` in a temporary directory, removed at the end.  For every workload and
seed, both sides run ``python3 bench/run.py --workload W --seed S --seconds T --trace 0`` from their
worktree with ``PYTHONDONTWRITEBYTECODE=1``, one after the other: a pair.  The side that runs first
alternates from pair to pair, the parent first on the first seed.

Per workload and gated metric, the file holds every run of each side, their median and quartiles
(linear interpolation), in how many pairs the change read lower, and the change of the medians in per
cent; with the attempted and failed operations of each side, whether every run was correct, which side
ran first in each pair, and the ``environment`` block that ``bench/run.py`` prints.  This is the
``workloads`` layout of the committed ``BENCH_*.json`` files.  Prints one line per workload and metric,
with the parent's quartiles, and exits 1 if a run fails or is not correct.

    python3 tools/ab.py --parent HEAD --change . --workloads region --seeds 101-110 --seconds 10 --json null.json

is the null control: both worktrees are the one commit, so what it prints, the change of the medians, the
pairs "won" and the parent's quartile distance, is the run-to-run spread that a claimed gain has to beat.

    python3 tools/ab.py --summary [--change .]

runs nothing and writes no file: it prints the gated medians, parent -> change, of every ``BENCH_*.json``
committed at the HEAD of ``--change`` that has the ``workloads`` layout, as one trajectory per workload
and metric, the files in the order of the commits that added them, then lists the other files apart.  The
gated metrics are the ``end_to_end`` names of the committed ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SIDES = ("parent", "change")


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _git(repo: str, *args: str) -> str:
    return subprocess.run(["git", "-C", repo, *args], check=True, capture_output=True, text=True).stdout.strip()


def run(tree: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """The JSON result that ``bench/run.py`` prints last, and its ``env`` line as a dict."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    result = subprocess.run(argv, cwd=tree, env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
                            capture_output=True, text=True)
    lines = result.stdout.splitlines()
    if result.returncode != 0 or not lines:
        raise RuntimeError(f"{tree.name} {workload} seed {seed} exited {result.returncode}: {result.stderr.strip()}")
    env = next((line.split()[1:] for line in lines if line.startswith("env ")), [])
    return json.loads(lines[-1]), dict(item.split("=", 1) for item in env)


def quartiles(values: list[float]) -> dict:
    """Every run, and the median and quartiles interpolated linearly between the sorted runs."""
    ranked = sorted(values)

    def at(q: float) -> float:
        lo, frac = divmod((len(ranked) - 1) * q, 1)
        return ranked[int(lo)] + frac * (ranked[min(int(lo) + 1, len(ranked) - 1)] - ranked[int(lo)])
    return {"runs": [round(v, 6) for v in values], "median": round(at(0.5), 6), "q1": round(at(0.25), 6),
            "q3": round(at(0.75), 6)}


def summarize(seeds: list[int], results: dict[str, list[dict]], first: dict[int, str]) -> dict:
    """The ``workloads`` entry of one workload from the results of each side, in seed order."""
    metrics = {}
    for name in results["change"][0]["metrics"]:
        runs = {side: [r["metrics"][name]["value"] for r in results[side]] for side in SIDES}
        lower = sum(c < p for p, c in zip(runs["parent"], runs["change"]))
        parent, change = (statistics.median(runs[side]) for side in SIDES)
        metrics[name] = {**{side: quartiles(runs[side]) for side in SIDES},
                         "change_lower_in_pairs": f"{lower}/{len(seeds)}",
                         "median_change": f"{(change / parent - 1) * 100:+.1f} %"}
    return {
        "seeds": f"{seeds[0]}-{seeds[-1]}",
        "pairs": len(seeds),
        "correct": all(r["correct"] for side in SIDES for r in results[side]),
        "failed": {side: sum(r["failed"] for r in results[side]) for side in SIDES},
        "attempted": {side: sum(r["attempted"] for r in results[side]) for side in SIDES},
        "metrics": metrics,
        "first_in_pair": {str(seed): first[seed] for seed in seeds},
    }


def summary(repo: str) -> None:
    """Print the trajectory of the gated medians over the committed ``BENCH_*.json`` files."""
    gated = [m["name"] for m in json.loads(_git(repo, "show", "HEAD:BENCHMARK.json"))["end_to_end"]]
    committed, added = set(_git(repo, "ls-tree", "--name-only", "HEAD").split()), {}
    for line in _git(repo, "log", "--diff-filter=A", "--reverse", "--format=commit %h", "--name-only", "HEAD", "--",
                     "BENCH_*.json").splitlines():
        if line.startswith("commit "):
            commit = line.split()[1]
        elif line in committed:
            added.setdefault(line, commit)
    documents = {name: json.loads(_git(repo, "show", f"HEAD:{name}")) for name in added}
    layout = [name for name, document in documents.items() if isinstance(document.get("workloads"), dict)
              and all(isinstance(entry.get("metrics"), dict) for entry in document["workloads"].values())]
    for workload in dict.fromkeys(workload for name in layout for workload in documents[name]["workloads"]):
        for metric in gated:
            print(f"{workload} {metric}")
            for name in layout:
                entry = documents[name]["workloads"].get(workload, {}).get("metrics", {}).get(metric)
                if entry:
                    parent, change = entry["parent"]["median"], entry["change"]["median"]
                    print(f"  {added[name]} {name}: {parent:.6g} -> {change:.6g} ({(change / parent - 1) * 100:+.1f} %,"
                          f" lower in {entry['change_lower_in_pairs']})")
    print("not in the workloads layout: " + (", ".join(name for name in documents if name not in layout) or "none"))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", help="a revision of the --change repository; HEAD for the null control")
    parser.add_argument("--change", default=".", help="a git checkout; its committed HEAD is the change")
    parser.add_argument("--workloads", nargs="+", default=["recover", "verify", "region"])
    parser.add_argument("--seeds", type=_seeds, help="a range A-B, one pair per seed")
    parser.add_argument("--seconds", type=float, default=10.0, help="--seconds of every bench/run.py run")
    parser.add_argument("--json", help="the file to write")
    parser.add_argument("--summary", action="store_true", help="print the committed files' medians and run nothing")
    args = parser.parse_args(argv)
    if args.summary:
        summary(args.change)
        return 0
    if None in (args.parent, args.seeds, args.json):
        parser.error("--parent, --seeds and --json are required unless --summary is given")
    revisions = {"parent": _git(args.change, "rev-parse", "--verify", f"{args.parent}^{{commit}}"),
                 "change": _git(args.change, "rev-parse", "--verify", "HEAD^{commit}")}

    document, environment = {"revisions": revisions, "environment": {}, "workloads": {}}, {}
    with tempfile.TemporaryDirectory(prefix="ab-") as workdir:
        trees = {side: Path(workdir) / side for side in SIDES}
        try:
            for side in SIDES:
                _git(args.change, "worktree", "add", "--detach", str(trees[side]), revisions[side])
            for workload in args.workloads:
                results, first = {side: [] for side in SIDES}, {}
                for pair, seed in enumerate(args.seeds):
                    order = SIDES if pair % 2 == 0 else SIDES[::-1]
                    first[seed] = order[0]
                    for side in order:
                        result, environment = run(trees[side], workload, seed, args.seconds)
                        results[side].append(result)
                document["workloads"][workload] = entry = summarize(args.seeds, results, first)
                for name, metric in entry["metrics"].items():
                    parent = metric["parent"]
                    print(f"{workload} {name}: {parent['median']:.6g} -> {metric['change']['median']:.6g} "
                          f"({metric['median_change']}, lower in {metric['change_lower_in_pairs']}), "
                          f"parent quartiles {parent['q1']:.6g} to {parent['q3']:.6g}")
        finally:
            for tree in trees.values():
                if tree.exists():
                    _git(args.change, "worktree", "remove", "--force", str(tree))
            _git(args.change, "worktree", "prune")
    document["environment"] = {key: int(value) if value.isdigit() else value for key, value in environment.items()}
    Path(args.json).write_text(json.dumps(document, indent=2) + "\n")
    entries = document["workloads"].values()
    return 0 if all(e["correct"] and not any(e["failed"].values()) for e in entries) else 1


if __name__ == "__main__":
    sys.exit(main())
