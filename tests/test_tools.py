"""tools/compare_outputs.py on one seed: a tree against itself on ``verify``
and ``recover``, against a copy whose check lines print another tolerance
format, against a copy whose region CSV prints 16 digits, and against a copy
whose sweeps pick another witness, which only the fixed checks reach; and its
fixed invocations, each run to the exit and the column range it names; and
tools/ab.py on stub commits: alternating pairs, the null control and the
summary of the committed files."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _compare(parent: Path, change: Path, workload: str = "verify") -> subprocess.CompletedProcess:
    argv = [sys.executable, str(ROOT / "tools" / "compare_outputs.py"), "--parent", str(parent),
            "--change", str(change), "--seeds", "1", "--workloads", workload]
    return subprocess.run(argv, capture_output=True, text=True, timeout=120)


def test_compare_outputs_finds_no_difference_between_a_tree_and_itself():
    result = _compare(ROOT, ROOT)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "24 invocations on 1 workloads x 1 seeds and 17 fixed invocations: 0 differences\n"


def test_compare_outputs_finds_no_difference_on_recover():
    # recover runs commutant, cesaro and spectra, whose shift products are gathers on the column maps
    result = _compare(ROOT, ROOT, "recover")
    assert result.returncode == 0, result.stderr
    assert result.stdout == "26 invocations on 1 workloads x 1 seeds and 17 fixed invocations: 0 differences\n"


def test_compare_outputs_lists_each_difference_and_exits_1(tmp_path):
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    cli = tmp_path / "src" / "fockshift" / "cli.py"
    text = cli.read_text()
    assert text.count("tolerance {entry['tolerance']:.1e}") == 1
    cli.write_text(text.replace("tolerance {entry['tolerance']:.1e}", "tolerance {entry['tolerance']:.2e}"))
    result = _compare(ROOT, tmp_path)
    assert result.returncode == 1, result.stderr
    lines = result.stdout.splitlines()
    # the warm-up, the six checks and the four fixed checks each print changed
    # check lines; reports and stderr are unchanged, and cesaro and commutant print no check line
    assert lines[-1] == "24 invocations on 1 workloads x 1 seeds and 17 fixed invocations: 11 differences"
    assert all(": stdout differs, line " in line for line in lines[:-1])
    assert "tolerance 1.0e-10" in lines[0] and "tolerance 1.00e-10" in lines[0]


def test_compare_outputs_lists_each_csv_difference(tmp_path):
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    eigen = tmp_path / "src" / "fockshift" / "eigen.py"
    text = eigen.read_text()
    assert text.count('"%.17g"') == 1
    eigen.write_text(text.replace('"%.17g"', '"%.16g"'))
    result = _compare(ROOT, tmp_path, "region")
    assert result.returncode == 1, result.stderr
    lines = result.stdout.splitlines()
    # the warm-up, the three grids, the fixed n = 3 grid and the fixed one-point grid each write a changed
    # CSV; the fixed corners of the unit cube write integers alone, at 16 digits as at 17; stdout, reports
    # and stderr are unchanged
    assert lines[-1] == "21 invocations on 1 workloads x 1 seeds and 17 fixed invocations: 6 differences"
    assert len(lines) == 7 and all(": csv differs, line " in line for line in lines[:-1])


def test_compare_outputs_always_compares_the_fixed_checks_witnesses(tmp_path):
    # region runs no check, so only the fixed checks see sweeps that take the
    # largest key of the worst defect within a block: constant 1e300 has many
    # NaN defects, scaled (1, 1e-14) 46 rounding maxima and the period-3 system
    # a right-law witness, and each witness changes; unweighted n = 3 has none
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    weights = tmp_path / "src" / "fockshift" / "weights.py"
    text = weights.read_text()
    assert text.count("keys.append(min(") == 1
    weights.write_text(text.replace("keys.append(min(", "keys.append(max("))
    result = _compare(ROOT, tmp_path, "region")
    assert result.returncode == 1, result.stderr
    lines = result.stdout.splitlines()
    assert lines[-1] == "21 invocations on 1 workloads x 1 seeds and 17 fixed invocations: 3 differences"
    assert lines[0].startswith("fixed seed 0, check constant_1e300 depth 4: report differs")


def test_fixed_invocations_reach_what_they_are_there_for(tmp_path):
    # an invocation refused at its config would read the same on both trees and compare nothing
    probe = ("import json, sys; sys.path.insert(0, sys.argv[1]); import compare_outputs; "
             "outputs = compare_outputs.collect(sys.argv[2], [], [], sys.argv[3]); "
             "print(json.dumps({key[3]: [out['code'], out['stdout'], out['csv']] for key, out in outputs.items()}))")
    argv = [sys.executable, "-c", probe, str(ROOT / "tools"), str(ROOT), str(tmp_path / "work")]
    result = subprocess.run(argv, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    outputs = json.loads(result.stdout)
    # the first check fails on purpose, on a NaN defect; the scaled (1, 1e-14) vacuum kernel is the vacuum line
    assert {label: code for label, (code, _, _) in outputs.items()} == {
        "check constant_1e300 depth 4": 1, "check scaled_1e-14 depth 8": 0,
        "cesaro periodic_support_5 depth 7": 0, "commutant periodic depth 3": 0,
        "commutant periodic_e_support depth 2": 0, "spectra unweighted_3 depth 6": 0,
        "spectra eta_e_1 depth 1": 0, "spectra unweighted_2_repeated depth 3": 0,
        "commutant perturbed depth 10": 0, "cesaro perturbed depth 10": 0,
        "commutant constant_1e300 depth 6": 0, "cesaro constant_1e300 depth 6": 0,
        "region corners_9 depth 3": 0, "region unweighted_3 depth 7": 0,
        "region periodic_4_one_point depth 10": 0, "check unweighted_3 depth 2": 0, "check periodic_3 depth 5": 0}
    assert outputs["check periodic_3 depth 5"][1].startswith("check cocycles: PASS (defect 2.507e-16, ")
    assert "check vacuum_kernel: PASS" in outputs["check scaled_1e-14 depth 8"][1]
    assert outputs["cesaro periodic_support_5 depth 7"][1].endswith("over |v| <= 5)\n")
    assert [line.split(": ")[1] for line in outputs["spectra unweighted_3 depth 6"][1].splitlines()] == [
        "not_in_spectrum (PASS)", "not_in_spectrum (PASS)", "in_spectrum (PASS)"]
    assert outputs["spectra eta_e_1 depth 1"][1] == "lambda [0j, 0j]: solutions_exist (PASS)\n"
    # one result per --lambda, by position: the repeated point twice, the point on the sphere inconclusive
    assert [line.split(": ")[1] for line in outputs["spectra unweighted_2_repeated depth 3"][1].splitlines()] == [
        "in_spectrum (PASS)", "in_spectrum (PASS)", "inconclusive (PASS)", "not_in_spectrum (PASS)"]
    for label in ("commutant periodic depth 3", "commutant periodic_e_support depth 2",
                  "commutant constant_1e300 depth 6"):
        assert outputs[label][1].endswith("round-trip: PASS (residual 0.000e+00, recovery 0.000e+00)\n")
    # the perturbed weights are not powers of two: the residual and the Cesaro defect are rounding, not 0
    assert outputs["commutant perturbed depth 10"][1].endswith(
        "round-trip: PASS (residual 4.326e-15, recovery 0.000e+00)\n")
    assert outputs["cesaro perturbed depth 10"][1] == (
        "cesaro order 3: PASS (max column defect 1.302e-16 over |v| <= 7)\n")
    assert outputs["cesaro constant_1e300 depth 6"][1] == (
        "cesaro order 2: PASS (max column defect 0.000e+00 over |v| <= 4)\n")
    # the 512 corners of the unit cube: the origin inside, the 9 corners with rho = 1 in the band, the rest outside
    verdicts = [row.rsplit(",", 1)[1] for row in outputs["region corners_9 depth 3"][2].splitlines()[1:]]
    assert {v: verdicts.count(v) for v in set(verdicts)} == {"inside": 1, "inconclusive": 9, "outside": 502}
    assert outputs["region unweighted_3 depth 7"][2].count("\n") == 1 + 25**3
    # the lone point's row is its row in a wide block, whose mass numpy sums row by row, not pairwise
    assert outputs["region periodic_4_one_point depth 10"][2].splitlines()[1:] == [
        "0.5,0.5,11,1.4610382049220174,0.57216359639364811,inside"]


def test_cold_start_runs_every_verb_once_and_sees_which_load_scipy_sparse():
    argv = [sys.executable, str(ROOT / "tools" / "cold_start.py"), "--change", str(ROOT), "--runs", "1"]
    result = subprocess.run(argv, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    header, *rows = result.stdout.splitlines()
    assert header.startswith("PYTHONDONTWRITEBYTECODE=") and header.endswith("1 runs per verb and tree, medians:")
    # no verb builds a sparse matrix: commutant and cesaro read their defects off the support grids
    assert {row.split()[0]: "scipy.sparse loaded" in row for row in rows} == {
        "check": False, "commutant": False, "region": False, "cesaro": False, "spectra": False}


STUB_RUN = """import argparse, json
parser = argparse.ArgumentParser()
for flag in ("--workload", "--seed", "--seconds", "--trace"):
    parser.add_argument(flag)
args = parser.parse_args()
with open({log!r}, "a") as log:
    log.write(f"{{SIDE}} {{args.workload}} {{args.seed}}\\n")
print("env nproc=2 python=3.0")
wall = WALL + int(args.seed) / 1000
print(json.dumps({{"correct": True, "attempted": 4, "failed": 0, "metrics": {{
    "wall_s": {{"value": wall, "unit": "s"}}, "peak_rss_mb": {{"value": 50.0, "unit": "MiB"}}}}}}))
"""


def _stub_commit(repo: Path, message: str, files: dict[str, str]) -> None:
    for name, text in files.items():
        (repo / name).parent.mkdir(parents=True, exist_ok=True)
        (repo / name).write_text(text)
    subprocess.run(["git", "-C", str(repo), "add", "-A"], check=True)
    subprocess.run(["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@t", "commit", "-qm", message],
                   check=True)


def _stub_run(side: str, wall: float, log: Path) -> dict[str, str]:
    """A bench/run.py that logs each run and reads WALL + seed / 1000 s."""
    return {"bench/run.py": f"SIDE, WALL = {side!r}, {wall}\n" + STUB_RUN.format(log=str(log))}


def test_ab_runs_alternating_pairs_of_two_commits_and_writes_the_bench_layout(tmp_path):
    # two commits of a stub repository, whose bench/run.py logs each run and reads 0.1 s faster on the change
    repo, log = tmp_path / "repo", tmp_path / "runs.log"
    subprocess.run(["git", "init", "-q", str(repo)], check=True)
    _stub_commit(repo, "parent", _stub_run("parent", 0.5, log))
    _stub_commit(repo, "change", _stub_run("change", 0.4, log))
    (repo / "bench" / "run.py").write_text("raise SystemExit(3)\n")  # not committed, so never run
    out = tmp_path / "BENCH_stub.json"
    argv = [sys.executable, str(ROOT / "tools" / "ab.py"), "--parent", "HEAD~1", "--change", str(repo),
            "--workloads", "recover", "verify", "--seeds", "7-9", "--seconds", "1", "--json", str(out)]
    result = subprocess.run(argv, capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert log.read_text().split("\n")[:-1] == [
        f"{side} {workload} {seed}" for workload in ("recover", "verify")
        for seed, order in zip((7, 8, 9), ("pc", "cp", "pc"))
        for side in (("parent", "change") if order == "pc" else ("change", "parent"))]
    document = json.loads(out.read_text())
    assert document["environment"] == {"nproc": 2, "python": "3.0"}
    entry = document["workloads"]["verify"]
    assert {key: entry[key] for key in ("seeds", "pairs", "correct", "failed", "attempted", "first_in_pair")} == {
        "seeds": "7-9", "pairs": 3, "correct": True, "failed": {"parent": 0, "change": 0},
        "attempted": {"parent": 12, "change": 12}, "first_in_pair": {"7": "parent", "8": "change", "9": "parent"}}
    assert entry["metrics"]["wall_s"] == {
        "parent": {"runs": [0.507, 0.508, 0.509], "median": 0.508, "q1": 0.5075, "q3": 0.5085},
        "change": {"runs": [0.407, 0.408, 0.409], "median": 0.408, "q1": 0.4075, "q3": 0.4085},
        "change_lower_in_pairs": "3/3", "median_change": "-19.7 %"}
    assert entry["metrics"]["peak_rss_mb"]["change_lower_in_pairs"] == "0/3"
    assert "verify wall_s: 0.508 -> 0.408 (-19.7 %, lower in 3/3), parent quartiles 0.5075 to 0.5085" in result.stdout
    # the worktrees are gone
    assert subprocess.run(["git", "-C", str(repo), "worktree", "list"], capture_output=True,
                          text=True).stdout.count("\n") == 1


def test_ab_null_control_runs_one_commit_on_both_sides(tmp_path):
    # --parent HEAD: two worktrees of the one commit, so every pair ties and the medians agree
    repo, log = tmp_path / "repo", tmp_path / "runs.log"
    subprocess.run(["git", "init", "-q", str(repo)], check=True)
    _stub_commit(repo, "parent", _stub_run("parent", 0.5, log))
    _stub_commit(repo, "change", _stub_run("change", 0.4, log))
    out = tmp_path / "BENCH_null.json"
    argv = [sys.executable, str(ROOT / "tools" / "ab.py"), "--parent", "HEAD", "--change", str(repo),
            "--workloads", "region", "--seeds", "1-4", "--seconds", "1", "--json", str(out)]
    result = subprocess.run(argv, capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert log.read_text().split("\n")[:-1] == [f"change region {seed}" for seed in (1, 1, 2, 2, 3, 3, 4, 4)]
    document = json.loads(out.read_text())
    assert document["revisions"]["parent"] == document["revisions"]["change"]
    wall = document["workloads"]["region"]["metrics"]["wall_s"]
    assert wall["parent"] == wall["change"] and wall["change_lower_in_pairs"] == "0/4"
    assert result.stdout.splitlines()[0] == (
        "region wall_s: 0.4025 -> 0.4025 (+0.0 %, lower in 0/4), parent quartiles 0.40175 to 0.40325")


def _bench_document(medians: dict[str, tuple[float, float]]) -> str:
    return json.dumps({"workloads": {"region": {"metrics": {
        name: {"parent": {"median": parent}, "change": {"median": change}, "change_lower_in_pairs": "9/10"}
        for name, (parent, change) in medians.items()}}}})


def test_ab_summary_prints_the_committed_trajectory_and_runs_nothing(tmp_path):
    # three commits: a file in the workloads layout, one apart, and a later one in the layout; a
    # file not committed is not read, and the summary runs no benchmark and leaves the tree clean
    repo, log = tmp_path / "repo", tmp_path / "runs.log"
    subprocess.run(["git", "init", "-q", str(repo)], check=True)
    benchmark = json.dumps({"end_to_end": [{"name": "wall_s"}, {"name": "peak_rss_mb"}]})
    _stub_commit(repo, "first", {**_stub_run("parent", 0.5, log), "BENCHMARK.json": benchmark,
                                 "BENCH_b.json": _bench_document({"wall_s": (0.02, 0.01), "peak_rss_mb": (50, 49)})})
    _stub_commit(repo, "second", {"BENCH_cold.json": json.dumps({"final": {}})})
    _stub_commit(repo, "third", {"BENCH_a.json": _bench_document({"wall_s": (0.011, 0.0099), "setup_s": (1, 2)})})
    (repo / "BENCH_uncommitted.json").write_text(_bench_document({"wall_s": (1, 1)}))
    commits = _git_log(repo)
    argv = [sys.executable, str(ROOT / "tools" / "ab.py"), "--summary", "--change", str(repo)]
    result = subprocess.run(argv, capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == [
        "region wall_s",
        f"  {commits[0]} BENCH_b.json: 0.02 -> 0.01 (-50.0 %, lower in 9/10)",
        f"  {commits[2]} BENCH_a.json: 0.011 -> 0.0099 (-10.0 %, lower in 9/10)",
        "region peak_rss_mb",
        f"  {commits[0]} BENCH_b.json: 50 -> 49 (-2.0 %, lower in 9/10)",
        "not in the workloads layout: BENCH_cold.json"]
    assert not log.exists()
    status = subprocess.run(["git", "-C", str(repo), "status", "--porcelain"], capture_output=True, text=True)
    assert status.stdout == "?? BENCH_uncommitted.json\n"


def _git_log(repo: Path) -> list[str]:
    """The short hashes of the repository's commits, oldest first."""
    result = subprocess.run(["git", "-C", str(repo), "log", "--reverse", "--format=%h"], capture_output=True,
                            text=True, check=True)
    return result.stdout.split()
