#!/usr/bin/env python3
"""Regression gate comparing a fresh bench JSON against a committed baseline.

The gates run family-conditionally on what the *baseline* contains, so one
entry point serves every gated bench:

fig2 family (baseline has per-algorithm timing records — BENCH_07):
  * Bor-FAL's find-min share of its own total exceeds the baseline share by
    more than --tolerance (relative, default 15%) plus a small absolute
    slack.  Comparing fractions-of-total rather than raw seconds makes the
    gate robust to CI machines of different speeds; the absolute slack keeps
    sub-millisecond smoke timings from tripping it on noise.
  * A Bor-FAL record reports zero pruned arcs — live-arc pruning silently
    stopped working.
  * The champion pipeline's total exceeds the best paper variant's total on
    the same graph by more than --champion-tolerance (default 10%) plus an
    absolute slack: the default engine no longer beats the paper's variants.
  * A forest-identity check record is missing or not identical.

query family (baseline has query_rebuild / query_op records — BENCH_08):
  * pathmax p99 exceeds the baseline p99 by more than --query-tolerance
    (relative, default 50%) plus an absolute slack of a few hundred
    microseconds — smoke-scale per-op times are microseconds, where only a
    complexity-class regression (log n -> n) moves the needle past this.
  * The index rebuild / apply_batch ratio exceeds
    max(--max-rebuild-ratio, baseline * (1 + --query-tolerance)) for any
    batch size: the index no longer rides along with the solve it follows.
  * A query_pathmax identity record is missing or reports mismatches.

serve_scale family (baseline has serve_scale records — BENCH_09):
  * TCP throughput falls below UDS/(1 + --transport-tolerance) at the same
    shard count *within the current run* — same-machine comparison, so CI
    speed cancels out.  The binary framing exists to beat (or at worst
    match) the line protocol; losing by more means framing overhead crept
    in.
  * read p99 exceeds the baseline p99 by more than --serve-tolerance
    (relative, default 75%) plus a millisecond of absolute slack.
  * Sharding efficiency drops below --min-shard-efficiency: rps at S shards
    must reach at least that fraction of rps(1 shard) * expected, where
    expected = min(S, max(1, hw/2)) and hw is the current run's
    hardware_concurrency.  On a single-core CI box expected stays 1 and the
    gate degenerates to "more shards must not wreck throughput", which is
    exactly what is checkable there.
  * Any serve_scale record reports request errors.

scale family (baseline has scale_storage / scale_solve records — BENCH_10):
  * Compressed-CSR structure bytes/edge exceed --max-bytes-per-edge
    (default 5.0) on a degree-10 graph — absolute property of the current
    run; the format promises ~4 B/edge there.
  * Compressed-path solve exceeds uncompressed * (1 + --scale-tolerance)
    (default 25%) plus an absolute slack, compared within the current run so
    CI speed cancels out.
  * A compressed_identity check record is missing or not identical.

Independently of the gate families, the baseline's recorded MachineProfile
is checked against the current host: a baseline recorded on ONE hardware
thread gets a loud warning (its "scaling" numbers are oversubscription
artifacts, as BENCH_05/BENCH_09 were), and any profile field that differs
between baseline host and current host is printed so cross-machine noise in
the relative gates is explainable.

Usage: bench_compare.py BASELINE.json CURRENT.json [--tolerance 0.15]
Exit: 0 clean, 1 regression, 2 bad input.
"""

import argparse
import json
import sys

# Absolute slack, in fraction-of-total points, added on top of the relative
# tolerance: smoke-scale find-min times are ~1ms, where scheduler noise
# easily moves the share by a point or two without any code change.
ABS_SLACK = 0.02

# Absolute slack, in seconds, for the champion-vs-best-variant gate: smoke
# totals are a few ms, where a single scheduler hiccup outweighs any real
# algorithmic difference.
CHAMPION_ABS_SLACK_S = 0.01

# Absolute slack, in microseconds, for the per-op query latency gates.
QUERY_ABS_SLACK_US = 200.0

# Absolute slack, in milliseconds, for the serve_scale read-p99 gate:
# socket round-trips on a loaded CI box jitter by whole milliseconds.
SERVE_ABS_SLACK_MS = 1.0

# Absolute slack, in seconds, for the scale-family solve-ratio gates:
# smoke-scale solves are tens of milliseconds, where a scheduler hiccup
# moves the compressed/uncompressed ratio past any relative tolerance.
SCALE_ABS_SLACK_S = 0.01


def load(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"bench_compare: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)


def timing_rows(doc):
    """(alg, density, n) -> record, for the per-algorithm timing records."""
    rows = {}
    for r in doc.get("records", []):
        if "alg" in r and "total" in r and "find_min" in r:
            rows[(r["alg"], r["density"], r["n"])] = r
    return rows


def identity_rows(doc, check):
    return [r for r in doc.get("records", []) if r.get("check") == check]


def rebuild_rows(doc):
    return {r["batch"]: r for r in doc.get("records", [])
            if r.get("tag") == "query_rebuild"}


def op_rows(doc):
    return {r["op"]: r for r in doc.get("records", [])
            if r.get("tag") == "query_op"}


def scale_rows(doc):
    return {(r["transport"], r["shards"]): r for r in doc.get("records", [])
            if r.get("tag") == "serve_scale"}


def storage_rows(doc):
    return {r["m"]: r for r in doc.get("records", [])
            if r.get("tag") == "scale_storage"}


def compressed_solve_rows(doc):
    return {(r["m"], r["threads"]): r for r in doc.get("records", [])
            if r.get("tag") == "scale_solve"}


def machine_of(doc):
    return doc.get("meta", {}).get("machine", {})


def report_machine(base_doc, cur_doc):
    """Satellite check, independent of the gate families: surface what host
    the committed baseline was recorded on and how this host differs."""
    base_meta = base_doc.get("meta", {})
    bm = machine_of(base_doc)
    cm = machine_of(cur_doc)
    base_hw = bm.get("hardware_threads", base_meta.get("hardware_concurrency"))
    if base_hw == 1:
        print("  WARNING: baseline was recorded on ONE hardware thread — its "
              "multi-thread timings are oversubscription artifacts, and the "
              "relative scaling gates only check that more threads do not "
              "wreck throughput")
    if not bm and not cm:
        return
    if not bm:
        print("  note: baseline has no MachineProfile (recorded before "
              "BENCH_10); current host shown for the record:")
        for k in sorted(cm):
            print(f"    {k}: {cm[k]}")
        return
    diffs = [(k, bm.get(k), cm.get(k))
             for k in sorted(set(bm) | set(cm)) if bm.get(k) != cm.get(k)]
    if diffs:
        print("  machine profile differs from baseline host "
              "(relative gates absorb this, absolute ones may not):")
        for k, b, c in diffs:
            print(f"    {k}: baseline {b} -> current {c}")
    else:
        print("  machine profile matches the baseline host")


def gate_scale(base_doc, cur_doc, args, failures):
    base_sto = storage_rows(base_doc)
    cur_sto = storage_rows(cur_doc)
    for m in sorted(base_sto):
        if m not in cur_sto:
            failures.append(f"scale_storage m={m}: missing from current run")
    # Footprint gate: absolute property of the current run — the compressed
    # format promises ~4 structure bytes/edge at degree 10, gate at 5.
    for m, c in sorted(cur_sto.items()):
        if c.get("density") != 10:
            continue
        bpe = c["structure_bytes_per_edge"]
        verdict = "OK" if bpe <= args.max_bytes_per_edge else "REGRESSED"
        print(f"  storage m={m}: {bpe:.2f} structure B/edge "
              f"(limit {args.max_bytes_per_edge:.1f}), "
              f"decode {c['decode_gbps']:.2f} GB/s {verdict}")
        if bpe > args.max_bytes_per_edge:
            failures.append(
                f"scale_storage m={m}: {bpe:.2f} structure bytes/edge exceeds "
                f"{args.max_bytes_per_edge:.1f} on a degree-10 graph")

    # Streaming gate: compressed vs uncompressed within the current run.
    base_sol = compressed_solve_rows(base_doc)
    cur_sol = compressed_solve_rows(cur_doc)
    for key in sorted(base_sol):
        if key not in cur_sol:
            failures.append(
                f"scale_solve m={key[0]} p={key[1]}: missing from current run")
    for (m, p), c in sorted(cur_sol.items()):
        limit = c["uncompressed_s"] * (1.0 + args.scale_tolerance) + SCALE_ABS_SLACK_S
        verdict = "OK" if c["compressed_s"] <= limit else "REGRESSED"
        print(f"  solve m={m} p={p}: compressed {c['compressed_s']:.4f}s vs "
              f"uncompressed {c['uncompressed_s']:.4f}s "
              f"(limit {limit:.4f}s) {verdict}")
        if c["compressed_s"] > limit:
            failures.append(
                f"scale_solve m={m} p={p}: compressed solve "
                f"{c['compressed_s']:.4f}s exceeds uncompressed "
                f"{c['uncompressed_s']:.4f}s by more than "
                f"{args.scale_tolerance:.0%}")
        if not c.get("identical", False):
            failures.append(
                f"scale_solve m={m} p={p}: compressed and uncompressed "
                "forests differ")

    idents = identity_rows(cur_doc, "compressed_identity")
    if not idents:
        failures.append("no compressed_identity check records in current run")
    for r in idents:
        if not r.get("identical", False):
            failures.append(
                f"compressed identity failed at m={r.get('m')}")
    if idents and all(r.get("identical", False) for r in idents):
        print(f"  compressed identity: OK ({len(idents)} sizes)")


def gate_serve_scale(base_doc, cur_doc, args, failures):
    base = scale_rows(base_doc)
    cur = scale_rows(cur_doc)

    for key in sorted(base):
        if key not in cur:
            failures.append(
                f"serve_scale {key[0]} shards={key[1]}: missing from current run")
    for (transport, shards), c in sorted(cur.items()):
        if c.get("errors", 0):
            failures.append(
                f"serve_scale {transport} shards={shards}: "
                f"{c['errors']} request errors")

    # Transport gate: tcp vs uds at the same shard count, within this run.
    shard_counts = sorted({s for (t, s) in cur if t == "tcp"})
    for s in shard_counts:
        tcp = cur.get(("tcp", s))
        uds = cur.get(("uds", s))
        if tcp is None or uds is None:
            continue
        floor = uds["rps"] / (1.0 + args.transport_tolerance)
        verdict = "OK" if tcp["rps"] >= floor else "REGRESSED"
        print(f"  transport shards={s}: tcp {tcp['rps']:.0f} rps vs uds "
              f"{uds['rps']:.0f} rps (floor {floor:.0f}) {verdict}")
        if tcp["rps"] < floor:
            failures.append(
                f"serve_scale shards={s}: tcp {tcp['rps']:.0f} rps trails uds "
                f"{uds['rps']:.0f} rps by more than {args.transport_tolerance:.0%}")

    # Latency gate: read p99 vs the committed baseline, per (transport, shards).
    for key, b in sorted(base.items()):
        c = cur.get(key)
        if c is None:
            continue
        limit = b["read_p99_ms"] * (1.0 + args.serve_tolerance) + SERVE_ABS_SLACK_MS
        verdict = "OK" if c["read_p99_ms"] <= limit else "REGRESSED"
        print(f"  {key[0]} shards={key[1]}: read p99 {b['read_p99_ms']:.3f}ms -> "
              f"{c['read_p99_ms']:.3f}ms (limit {limit:.3f}ms) {verdict}")
        if c["read_p99_ms"] > limit:
            failures.append(
                f"serve_scale {key[0]} shards={key[1]}: read p99 "
                f"{c['read_p99_ms']:.3f}ms exceeds baseline "
                f"{b['read_p99_ms']:.3f}ms by more than {args.serve_tolerance:.0%}")

    # Scaling gate: hardware-aware — a laptop-class CI runner cannot show
    # 4-shard speedups, so expectations are capped by the cores the current
    # run actually had.
    hw = cur_doc.get("meta", {}).get("hardware_concurrency", 1) or 1
    for transport in sorted({t for (t, s) in cur}):
        base_rps = cur.get((transport, 1), {}).get("rps")
        if not base_rps:
            continue
        for (t, s), c in sorted(cur.items()):
            if t != transport or s <= 1:
                continue
            expected = min(s, max(1, hw // 2))
            eff = c["rps"] / (base_rps * expected)
            verdict = "OK" if eff >= args.min_shard_efficiency else "REGRESSED"
            print(f"  {transport} shards={s}: scaling efficiency {eff:.2f} "
                  f"(expected x{expected} on hw={hw}, "
                  f"floor {args.min_shard_efficiency:.2f}) {verdict}")
            if eff < args.min_shard_efficiency:
                failures.append(
                    f"serve_scale {transport} shards={s}: scaling efficiency "
                    f"{eff:.2f} below {args.min_shard_efficiency:.2f} "
                    f"(rps {c['rps']:.0f} vs {base_rps:.0f} at 1 shard, "
                    f"hw={hw})")


def gate_fig2(base_doc, cur_doc, args, failures):
    base = timing_rows(base_doc)
    cur = timing_rows(cur_doc)

    for key, b in sorted(base.items()):
        alg, density, n = key
        c = cur.get(key)
        if c is None:
            failures.append(f"{alg} density={density} n={n}: missing from current run")
            continue
        if alg != "Bor-FAL":
            continue
        b_share = b["find_min"] / b["total"] if b["total"] > 0 else 0.0
        c_share = c["find_min"] / c["total"] if c["total"] > 0 else 0.0
        limit = b_share * (1.0 + args.tolerance) + ABS_SLACK
        verdict = "OK" if c_share <= limit else "REGRESSED"
        print(f"  Bor-FAL density={density} n={n}: find-min share "
              f"{b_share:.3f} -> {c_share:.3f} (limit {limit:.3f}) {verdict}")
        if c_share > limit:
            failures.append(
                f"Bor-FAL density={density} n={n}: find-min share {c_share:.3f} "
                f"exceeds baseline {b_share:.3f} by more than {args.tolerance:.0%}")
        if c.get("find_min_pruned_arcs", 0) == 0:
            failures.append(
                f"Bor-FAL density={density} n={n}: 0 pruned arcs "
                "(live-arc pruning is dead)")

    # The champion gate runs on the current document alone: it is an
    # absolute property of this run, not relative to the baseline.
    paper_variants = ("Bor-EL", "Bor-AL", "Bor-ALM", "Bor-FAL")
    by_graph = {}
    for (alg, density, n), c in cur.items():
        by_graph.setdefault((density, n), {})[alg] = c
    for (density, n), algs in sorted(by_graph.items()):
        champ = algs.get("Champion")
        best_variant = min((algs[a]["total"] for a in paper_variants if a in algs),
                           default=None)
        if champ is not None and best_variant is not None:
            limit = best_variant * (1.0 + args.champion_tolerance) + CHAMPION_ABS_SLACK_S
            verdict = "OK" if champ["total"] <= limit else "REGRESSED"
            print(f"  Champion density={density} n={n}: total {champ['total']:.4f}s "
                  f"vs best variant {best_variant:.4f}s (limit {limit:.4f}s) {verdict}")
            if champ["total"] > limit:
                failures.append(
                    f"Champion density={density} n={n}: total {champ['total']:.4f}s "
                    f"loses to the best paper variant ({best_variant:.4f}s) by "
                    f"more than {args.champion_tolerance:.0%}")

    idents = identity_rows(cur_doc, "forest_identity")
    if not idents:
        failures.append("no forest_identity check records in current run")
    for r in idents:
        if not r.get("forests_identical", False):
            failures.append(f"forest identity failed at density {r.get('density')}")
    if idents and all(r.get("forests_identical", False) for r in idents):
        print(f"  forest identity: OK ({len(idents)} densities)")


def gate_query(base_doc, cur_doc, args, failures):
    base_ops = op_rows(base_doc)
    cur_ops = op_rows(cur_doc)
    for op in ("pathmax", "conn"):
        b = base_ops.get(op)
        if b is None:
            continue
        c = cur_ops.get(op)
        if c is None:
            failures.append(f"query op {op}: missing from current run")
            continue
        limit = b["p99_us"] * (1.0 + args.query_tolerance) + QUERY_ABS_SLACK_US
        verdict = "OK" if c["p99_us"] <= limit else "REGRESSED"
        print(f"  {op}: p99 {b['p99_us']:.2f}us -> {c['p99_us']:.2f}us "
              f"(limit {limit:.2f}us) {verdict}")
        if c["p99_us"] > limit:
            failures.append(
                f"query op {op}: p99 {c['p99_us']:.2f}us exceeds baseline "
                f"{b['p99_us']:.2f}us by more than {args.query_tolerance:.0%}")

    base_reb = rebuild_rows(base_doc)
    cur_reb = rebuild_rows(cur_doc)
    for batch, b in sorted(base_reb.items()):
        c = cur_reb.get(batch)
        if c is None:
            failures.append(f"query rebuild batch={batch}: missing from current run")
            continue
        limit = max(args.max_rebuild_ratio,
                    b["ratio"] * (1.0 + args.query_tolerance))
        verdict = "OK" if c["ratio"] <= limit else "REGRESSED"
        print(f"  rebuild batch={batch}: ratio {b['ratio']:.2f} -> "
              f"{c['ratio']:.2f} (limit {limit:.2f}) {verdict}")
        if c["ratio"] > limit:
            failures.append(
                f"query rebuild batch={batch}: rebuild/apply ratio "
                f"{c['ratio']:.2f} exceeds {limit:.2f} — the index no longer "
                "rides along with the solve")

    idents = identity_rows(cur_doc, "query_pathmax")
    if not idents:
        failures.append("no query_pathmax identity records in current run")
    for r in idents:
        if r.get("mismatches", 1) != 0:
            failures.append(
                f"query pathmax identity: {r['mismatches']} mismatches over "
                f"{r.get('pairs')} pairs")
    if idents and all(r.get("mismatches", 1) == 0 for r in idents):
        print(f"  query identity: OK ({sum(r.get('pairs', 0) for r in idents)} pairs)")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("baseline")
    ap.add_argument("current")
    ap.add_argument("--tolerance", type=float, default=0.15,
                    help="allowed relative growth of Bor-FAL's find-min share")
    ap.add_argument("--champion-tolerance", type=float, default=0.10,
                    help="allowed champion slowdown vs the best paper variant")
    ap.add_argument("--query-tolerance", type=float, default=0.50,
                    help="allowed relative growth of query p99 / rebuild ratio")
    ap.add_argument("--max-rebuild-ratio", type=float, default=1.0,
                    help="floor of the rebuild/apply ratio limit")
    ap.add_argument("--transport-tolerance", type=float, default=0.15,
                    help="how far tcp rps may trail uds rps in the same run")
    ap.add_argument("--serve-tolerance", type=float, default=0.75,
                    help="allowed relative growth of serve read p99")
    ap.add_argument("--min-shard-efficiency", type=float, default=0.70,
                    help="floor on rps(S) / (rps(1) * expected speedup)")
    ap.add_argument("--max-bytes-per-edge", type=float, default=5.0,
                    help="cap on compressed-CSR structure bytes/edge at d=10")
    ap.add_argument("--scale-tolerance", type=float, default=0.25,
                    help="how far the compressed solve may trail uncompressed")
    args = ap.parse_args()

    base_doc = load(args.baseline)
    cur_doc = load(args.current)
    failures = []

    report_machine(base_doc, cur_doc)

    ran = []
    if timing_rows(base_doc):
        gate_fig2(base_doc, cur_doc, args, failures)
        ran.append("fig2")
    if rebuild_rows(base_doc) or op_rows(base_doc):
        gate_query(base_doc, cur_doc, args, failures)
        ran.append("query")
    if scale_rows(base_doc):
        gate_serve_scale(base_doc, cur_doc, args, failures)
        ran.append("serve_scale")
    if storage_rows(base_doc) or compressed_solve_rows(base_doc):
        gate_scale(base_doc, cur_doc, args, failures)
        ran.append("scale")
    if not ran:
        print("bench_compare: baseline contains no gated record family",
              file=sys.stderr)
        return 2

    if failures:
        print("\nbench_compare: FAIL", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        return 1
    print(f"bench_compare: OK ({', '.join(ran)})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
