#!/usr/bin/env python3
"""Paired runs of the benchmark: a parent commit against a change.

    python3 tools/pairs.py --topic NAME --parent REV [--what TEXT]

Run it from the root of a checkout. The change is the working tree: HEAD if
the tree is clean, else a `git stash create` commit of its tracked files.
Both the parent REV and the change are exported with `git archive` into
sibling directories under $TMPDIR, so each side builds and runs from its own
copy on the same filesystem, and the repository's git state is left as it
was. Every run is the unchanged BENCHMARK.json command plus `--workload W
--seed 1 --seconds T --trace 0`, with T its run_seconds, on one side at a
time and on every workload. Pair p of 10 runs both sides on each workload,
the parent first when p is even and the change first when p is odd (ABBA).
Then a second copy of the parent runs 5 such pairs against the first on the
first workload (the A/A set), which gives the spread that noise alone
produces. Last, each side runs once per workload on seeds 101 and 20221, for
the first-pass solution hashes.

It writes BENCH_<topic>.json: the commit and tree hash of each side, every
run's results file with the host's steal share over the run, and per
comparison, workload and metric each side's quartiles, the change/parent
ratio of each pair, their median, the pairs each side won and a two-sided
sign-test p. The exit code is 1 if the solution hash, stored_elems or
diversity differ between the sides on any workload and seed, or if a run
failed; 0 otherwise.
"""
import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 1800  # the first run of a tree also builds it
# Outputs that a performance change must not move.
FIXED = ("stored_elems", "diversity")
SEED = 1
HASH_SEEDS = (101, 20221)
PAIRS = 10
AA_PAIRS = 5
# Derived from each results file's solve_ms: the warm-up of the timed loop.
WARMUP = {"name": "solve_ms_first20_median", "unit": "ms", "better": "lower"}


def git(*args):
    return subprocess.run(["git"] + list(args), cwd=ROOT, check=True, capture_output=True, text=True).stdout.strip()


def export(rev, dest):
    """The tree of commit `rev` as plain files in `dest`."""
    os.makedirs(dest)
    archive = subprocess.Popen(["git", "archive", "--format=tar", rev], cwd=ROOT, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        sys.exit("pairs: git archive %s failed" % rev)


def cpu_times():
    """Total and steal jiffies of the whole host, from /proc/stat."""
    with open("/proc/stat") as fh:
        fields = [int(x) for x in fh.readline().split()[1:]]
    return sum(fields[:8]), fields[7]


def bench(tree, command, workload, seed, seconds, log):
    """One run of the benchmark command in `tree`; returns its record."""
    cmd = command + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    results = os.path.join(tree, ".bench_build", "results", "%s-seed%d-trace0.json" % (workload, seed))
    if os.path.exists(results):
        os.remove(results)
    total0, steal0 = cpu_times()
    start = time.time()
    p = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE, stderr=log, text=True, timeout=RUN_TIMEOUT_S)
    total1, steal1 = cpu_times()
    record = {"exit": p.returncode, "wall_s": round(time.time() - start, 1),
              "steal_share": round((steal1 - steal0) / max(1, total1 - total0), 4)}
    if os.path.exists(results):
        with open(results) as fh:
            record["results"] = json.load(fh)
    return record


def metric(run, name):
    res = run.get("results")
    if res is None:
        return None
    if name == WARMUP["name"]:
        first = res["solve_ms"][:20]
        return statistics.median(first) if first else None
    m = res["result"]["metrics"].get(name)
    return None if m is None else m["value"]


def quartiles(xs):
    if len(xs) < 2:
        return {"q1": xs[0], "median": xs[0], "q3": xs[0]} if xs else None
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return {"q1": q1, "median": med, "q3": q3}


def sign_test(wins, losses):
    """Two-sided exact sign test p, ties dropped."""
    n = wins + losses
    if n == 0:
        return 1.0
    tail = sum(math.comb(n, i) for i in range(min(wins, losses) + 1)) / 2 ** n
    return min(1.0, 2 * tail)


def summarise(runs, a, b, metrics):
    """Per metric: b against a over the pairs both sides completed."""
    out = {}
    pairs = sorted({r["pair"] for r in runs if r["side"] in (a, b)})
    for spec in metrics:
        name, better = spec["name"], spec["better"]
        xs, ys = [], []
        for p in pairs:
            x = next((metric(r, name) for r in runs if r["pair"] == p and r["side"] == a), None)
            y = next((metric(r, name) for r in runs if r["pair"] == p and r["side"] == b), None)
            if x is not None and y is not None:
                xs.append(x)
                ys.append(y)
        if not xs:
            continue
        won = sum(1 for x, y in zip(xs, ys) if (y < x if better == "lower" else y > x))
        lost = sum(1 for x, y in zip(xs, ys) if (y > x if better == "lower" else y < x))
        ratios = [y / x if x else None for x, y in zip(xs, ys)]
        qa, qb = quartiles(xs), quartiles(ys)
        gain = qb["median"] - qa["median"] if better == "higher" else qa["median"] - qb["median"]
        out[name] = {
            "better": better, "pairs": len(xs), a: qa, b: qb,
            "ratios": [None if r is None else round(r, 4) for r in ratios],
            "median_ratio": statistics.median([r for r in ratios if r is not None]) if any(r is not None for r in ratios) else None,
            "won": {b: won, a: lost, "ties": len(xs) - won - lost},
            "sign_test_p": round(sign_test(won, lost), 4),
            # The gain rule: b wins at least 9/10 of the pairs and its median
            # is better than a's by more than a's interquartile range.
            "gain": won >= 0.9 * len(xs) and gain > qa["q3"] - qa["q1"],
        }
    return out


def dump(doc):
    """JSON text of `doc` with its runs one to a line, so that each run's list
    of solve times does not take a line per solve.
    """
    head = json.dumps({k: v for k, v in doc.items() if k != "runs"}, indent=1)
    runs = ",\n".join("  " + json.dumps(r) for r in doc["runs"])
    return head[:-2] + ',\n "runs": [\n' + runs + "\n ]\n}\n"


def machine():
    with open("/proc/meminfo") as fh:
        mem_kb = int(next(line for line in fh if line.startswith("MemTotal")).split()[1])
    with open("/proc/cpuinfo") as fh:
        model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "unknown")
    return "%d vCPU (%s), %.0f GB RAM" % (os.cpu_count(), model, mem_kb / 2 ** 20)


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--topic", required=True, help="names the output file BENCH_<topic>.json")
    p.add_argument("--parent", required=True, help="the commit to compare the working tree against")
    p.add_argument("--what", default="", help="what the change is, for the record")
    a = p.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    command = spec["command"]
    workloads = [w["name"] for w in spec["workloads"]]
    aa_workloads = workloads[:1]
    seconds = spec["run_seconds"]
    metrics = spec["end_to_end"] + [WARMUP]
    head = git("rev-parse", "HEAD")
    revs = {"parent": git("rev-parse", a.parent), "change": git("stash", "create") or head}
    revs["parent_b"] = revs["parent"]
    untracked = git("ls-files", "--others", "--exclude-standard")
    if untracked:
        print("pairs: untracked files are not part of the change:\n" + untracked, file=sys.stderr)

    # Short paths: sbt puts a unix socket under each tree, and socket paths
    # are limited to about 100 bytes.
    scratch = tempfile.mkdtemp(prefix="pr")
    trees = {side: os.path.join(scratch, d) for side, d in (("parent", "a"), ("change", "c"), ("parent_b", "b"))}
    log_path = os.path.join(scratch, "runs.log")
    runs = []
    try:
        for side, tree in trees.items():
            export(revs[side], tree)
        with open(log_path, "w") as log:
            # Build every tree before the first timed run.
            for side, tree in trees.items():
                print("pairs: building %s" % side, file=sys.stderr, flush=True)
                code = subprocess.run(command + ["--workload", workloads[0], "--seed", "1", "--seconds", "1",
                                                 "--trace", "0", "--smoke"], cwd=tree, stdout=log, stderr=log,
                                      timeout=RUN_TIMEOUT_S).returncode
                if code != 0:
                    sys.exit("pairs: the smoke run of %s failed (exit %d, log %s)" % (side, code, log_path))

            def go(kind, pair, side, workload, seed, order):
                print("pairs: %s pair %s %s %s seed %d" % (kind, pair, side, workload, seed), file=sys.stderr, flush=True)
                r = bench(trees[side], command, workload, seed, seconds, log)
                r.update({"kind": kind, "pair": pair, "side": side, "workload": workload, "seed": seed, "order": order})
                runs.append(r)

            for pair in range(PAIRS):
                sides = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
                for w in workloads:
                    for i, side in enumerate(sides):
                        go("ab", pair, side, w, SEED, i)
            for pair in range(AA_PAIRS):
                sides = ("parent", "parent_b") if pair % 2 == 0 else ("parent_b", "parent")
                for w in aa_workloads:
                    for i, side in enumerate(sides):
                        go("aa", pair, side, w, SEED, i)
            for seed in HASH_SEEDS:
                for w in workloads:
                    for i, side in enumerate(("parent", "change")):
                        go("hash", None, side, w, seed, i)
    finally:
        for tree in trees.values():
            shutil.rmtree(tree, ignore_errors=True)

    # Deterministic outputs, per workload and seed, over every run of a side.
    problems = []
    outputs = {}
    for w in workloads:
        for seed in (SEED,) + HASH_SEEDS:
            seen = {}
            for side in ("parent", "change"):
                mine = [r for r in runs if r["workload"] == w and r["seed"] == seed and r["side"] == side and "results" in r]
                seen[side] = {
                    "solution_hash": sorted({r["results"]["solution_hash"] for r in mine}),
                    **{k: sorted({metric(r, k) for r in mine}) for k in FIXED},
                }
            outputs.setdefault(w, {})[str(seed)] = seen
            for k in ("solution_hash",) + FIXED:
                if seen["parent"][k] != seen["change"][k] or len(seen["change"][k]) != 1:
                    problems.append("%s seed %d: %s %s (parent) vs %s (change)" % (w, seed, k, seen["parent"][k], seen["change"][k]))
    failed = [r for r in runs if r["exit"] != 0 or "results" not in r]
    problems += ["%s %s %s seed %d pair %s exited %d" % (r["kind"], r["side"], r["workload"], r["seed"], r["pair"], r["exit"])
                 for r in failed]

    summary = {
        "change_vs_parent": {w: summarise([r for r in runs if r["kind"] == "ab" and r["workload"] == w],
                                          "parent", "change", metrics) for w in workloads},
        "parent_b_vs_parent": {w: summarise([r for r in runs if r["kind"] == "aa" and r["workload"] == w],
                                            "parent", "parent_b", metrics) for w in aa_workloads},
    }
    doc = {
        "what": a.what,
        "command": command + ["--workload", "W", "--seed", "S", "--seconds", str(seconds), "--trace", "0"],
        "machine": machine(),
        "parent": {"commit": revs["parent"], "tree": git("rev-parse", revs["parent"] + "^{tree}")},
        "change": {"commit": revs["change"], "tree": git("rev-parse", revs["change"] + "^{tree}"), "head": head,
                   "uncommitted_changes": revs["change"] != head},
        "order": "ABBA: pair p runs the parent (or, in the A/A set, its first copy) first when p is even",
        "quartiles": "statistics.quantiles(method='inclusive'); ratios are the second side over the first",
        "outputs": outputs,
        "problems": problems,
        "summary": summary,
        "runs": runs,
    }
    out = os.path.join(ROOT, "BENCH_%s.json" % a.topic)
    with open(out, "w") as fh:
        fh.write(dump(doc))
    for line in problems:
        print("pairs: " + line, file=sys.stderr)
    print("pairs: wrote %s (log %s)" % (out, log_path), file=sys.stderr)
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
