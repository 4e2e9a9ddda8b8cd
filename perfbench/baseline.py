#!/usr/bin/env python3
"""Record a baseline of the standing benchmark, from the root of a checkout.

    python3 perfbench/baseline.py [--seeds 1-10] [--seconds 20] [--out DIR]

For every workload in BENCHMARK.json, runs perfbench/run.py end to end
(--trace 0) once per seed and per layer (--trace 1) once, on the first
seed. Writes DIR/<workload>.jsonl (the provenance and result lines of
every run) and DIR/SUMMARY.md: for each end-to-end metric the median, the
quartiles and the spread (Q3 - Q1) / median over the seeds, as
statistics.quantiles(values, n=4) gives them, next to the metric's bound,
and for the times the same for the raw wall medians before scaling to
reference speed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True)
    provenance, result = out.stdout.strip().splitlines()[-2:]
    return json.loads(provenance), json.loads(result)


def spread(vals):
    med = statistics.median(vals)
    q1, _, q3 = statistics.quantiles(vals, n=4)
    return med, q1, q3, (q3 - q1) / med


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--out", default="perfbench/baseline")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    seeds = seed_list(args.seeds)
    os.makedirs(args.out, exist_ok=True)
    lines = ["# Baseline", ""]
    for w in bench["workloads"]:
        name = w["name"]
        rows = []
        with open(os.path.join(args.out, name + ".jsonl"), "w") as log:
            for trace, seed_set in ((0, seeds), (1, seeds[:1])):
                for seed in seed_set:
                    prov, result = run(name, seed, seconds, trace)
                    log.write(json.dumps(prov) + "\n" + json.dumps(result) + "\n")
                    log.flush()
                    if trace == 0:
                        rows.append((prov["provenance"], result))
                    else:
                        layers = result
                    print(name, "seed", seed, "trace", trace,
                          "correct", result["correct"], flush=True)
        prov = rows[0][0]
        lines += [
            f"## {name}", "",
            w["why"], "",
            f"{len(rows)} seeds ({args.seeds}), {seconds} s per run; "
            f"commit {prov['git_commit']}, OCaml {prov['ocaml_version']}, "
            f"nproc {prov['nproc']}, recommended domains "
            f"{prov['recommended_domains']}. Operations attempted "
            f"{sum(r['attempted'] for _, r in rows)}, failed "
            f"{sum(r['failed'] for _, r in rows)}.", "",
            "| metric | unit | median | Q1 | Q3 | spread | bound "
            "| raw median | raw spread |",
            "|---|---|---|---|---|---|---|---|---|",
        ]
        for m in bench["end_to_end"]:
            metric = m["name"]
            med, q1, q3, sp = spread(
                [r["metrics"][metric]["value"] for _, r in rows])
            raw = " | "
            if metric in prov["raw_medians_s"]:
                rmed, _, _, rsp = spread(
                    [p["raw_medians_s"][metric] for p, _ in rows])
                raw = f"{rmed:.6g} | {rsp:.3f}"
            lines.append(
                f"| `{metric}` | {m['unit']} | {med:.6g} | {q1:.6g} | "
                f"{q3:.6g} | {sp:.3f} | {m['bound']} | {raw} |")
        before = spread([p["peak_rss_mb_before_j2"] for p, _ in rows])[0]
        lines += ["", f"Peak RSS before the first j2 operation: median "
                  f"{before:.6g} MB.", "",
                  f"Per layer (seed {seeds[0]}; correct {layers['correct']}, "
                  f"operations attempted {layers['attempted']}, failed "
                  f"{layers['failed']}):", "",
                  "| metric | unit | value |", "|---|---|---|"]
        for m in bench["per_layer"]:
            v = layers["metrics"][m["name"]]
            lines.append(f"| `{m['name']}` | {v['unit']} | {v['value']:.6g} |")
        lines.append("")
    with open(os.path.join(args.out, "SUMMARY.md"), "w") as f:
        f.write("\n".join(lines))


if __name__ == "__main__":
    main()
