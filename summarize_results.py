#!/usr/bin/env python3
"""Summarize results/*.csv into win counts, and BENCH_*.json reports into
a host line (from each report's header) and a one-line digest, for
EXPERIMENTS.md. Exits nonzero when a BENCH_*.json does not parse, has no
header, or lacks a field its digest reads."""
import csv, glob, json, os, sys

def wins(path, lower_better_metrics=("MAE","RMSE","MAPE%","RRSE"), higher=("CORR",)):
    rows = list(csv.DictReader(open(path)))
    models = [c for c in rows[0].keys() if c not in ("Dataset","Metric")]
    count = {m:0 for m in models}
    total = 0
    for r in rows:
        metric = r["Metric"]
        vals = {}
        for m in models:
            try:
                vals[m] = float(r[m].split("±")[0])
            except ValueError:
                pass
        if not vals: continue
        if metric in higher:
            best = max(vals, key=vals.get)
        else:
            best = min(vals, key=vals.get)
        count[best]+=1
        total+=1
    return count, total

for path in sorted(glob.glob("results/table[5-9]_*.csv")) + sorted(glob.glob("results/table1[0-3]_*.csv")):
    try:
        count, total = wins(path)
        ranked = sorted(count.items(), key=lambda kv:-kv[1])
        summary = ", ".join(f"{k}:{v}" for k,v in ranked if v>0)
        print(f"{os.path.basename(path)}: best-of-{total} rows -> {summary}")
    except Exception as e:
        print(f"{path}: skipped ({e})")

def bench_digest(name, r):
    if name == "BENCH_serving.json":
        levels = ", ".join(
            f"c={row['concurrency']}: {row['throughput_ratio']:.2f}x "
            f"(batched p99 {row['batched']['p99_us']:.0f}us)"
            for row in r.get("levels", [])
        )
        return f"batched/unbatched throughput {levels}; best {r.get('best_ratio', 0):.2f}x"
    if name == "BENCH_serving_overload.json":
        by = {(row["multiplier"], row["mode"]): row for row in r.get("rows", [])}
        parts = []
        for m in sorted({k[0] for k in by}):
            b, s = by.get((m, "block")), by.get((m, "shed"))
            if b and s:
                parts.append(
                    f"{m:g}x: block p99 {b['p99_ms']:.0f}ms vs shed p99 {s['p99_ms']:.1f}ms "
                    f"(shed {s['shed']}, expired {s['deadline_expired']})"
                )
        return (f"capacity {r.get('capacity_rps', 0):.0f} rps; " + "; ".join(parts)
                + f"; 1x-load p99 baseline {r.get('baseline_p99_ms', 0):.1f}ms")
    if name == "BENCH_search_fidelity.json":
        runs = r.get("runs", [])
        agree = sum(1 for row in runs if row.get("winner_identical"))
        taus = [row.get("proxy_vs_full_kendall_tau", 0.0) for row in runs]
        mean_tau = sum(taus) / len(taus) if taus else 0.0
        return (f"label epochs {r.get('mean_label_epoch_ratio', 0):.1f}x "
                f"cheaper, winner quality ratio {r.get('mean_quality_ratio', 0):.3f}, "
                f"identical winner {agree}/{len(runs)}, proxy-vs-full tau {mean_tau:.2f}")
    if name == "BENCH_search_parallel.json":
        rows = r.get("tournament", [])
        gated = [row for row in rows if row.get("gate_applied")]
        sp = ", ".join(f"t={row['threads']}: {row['speedup_vs_serial']:.2f}x" for row in rows)
        scope = (f"{len(gated)} gated rows" if gated
                 else "no scaling claim (quick mode or threads exceed cores)")
        return f"{scope}; tournament {sp}"
    if name == "BENCH_pretrain_scale.json":
        tps = ", ".join(f"w={row['workers']}: {row['tasks_per_sec']:.0f}/s"
                        for row in r.get("worker_runs", []))
        return (f"{r.get('bank_tasks', 0)} tasks / "
                f"{r.get('n_shards', 0)} shards; label {tps} "
                f"(bit-identical={r.get('workers_bit_identical')}); streamed rss "
                f"{r.get('streamed_rss_growth', 0):.2f}x vs in-memory "
                f"{r.get('inmemory_rss_growth', 0):.2f}x while bank grew "
                f"{r.get('bank_growth', 0):.1f}x; rank cold "
                f"{r.get('rank_cold_secs', 0)*1000:.0f}ms, embed cache "
                f"{r.get('embed_cache', {}).get('hit_rate', 0):.1%}")
    if name == "BENCH_search_trace.json":
        return (f"tracing overhead {r.get('overhead_pct', 0):+.2f}%, "
                f"embed cache {r.get('embed_cache_hit_rate', 0):.1%}, "
                f"task cache {r.get('task_cache_hit_rate', 0):.1%} "
                f"({r.get('task_cache_hits', 0)} hits)")
    # generic: surface the report's scalar gates
    scalars = {k: v for k, v in r.items() if isinstance(v, (int, float, bool))}
    return ", ".join(f"{k}={v}" for k, v in list(scalars.items())[:6]) or "no scalar fields"

def host_line(h):
    return (f"rev {h['rev']}, {h['cores']} cores (capacity {h['parallel_capacity']:.2f}), "
            f"{h['isa']}, {h['mode']} mode")

failed = False
for path in sorted(glob.glob("BENCH_*.json")):
    name = os.path.basename(path)
    try:
        with open(path) as f:
            report = json.load(f)
        print(f"{name}: {host_line(report['header'])}")
        print(f"  {bench_digest(name, report)}")
    except Exception as e:
        print(f"{name}: unreadable report ({e!r})", file=sys.stderr)
        failed = True
sys.exit(1 if failed else 0)
