#!/usr/bin/env python3
"""CI gate over BENCH_*.json and METRICS_*.json files emitted by the
bench harness (bench/bench_common.hh).

Three modes:

  compare SERIAL_DIR PARALLEL_DIR
      Assert that every bench present in SERIAL_DIR is present in
      PARALLEL_DIR and that their "tables" payloads are *identical* —
      the determinism contract (DESIGN.md section 9): an N-thread run
      must produce bit-identical metric values to a 1-thread run.
      When both runs replayed a corpus file (manifest config carries
      "corpus_hash", see DESIGN.md section 15), the hashes must match
      — comparing tables produced from two different corpora would
      "pass" vacuously or fail confusingly, so a hash mismatch is its
      own clear error. Also prints the measured speedup (serial wall /
      parallel wall) per bench.

  regress DIR BASELINE_JSON [--tolerance FRAC] [--allow-missing]
          [--fresh-dir DIR2]
      Fail if any bench's wall_seconds exceeds its checked-in serial
      baseline by more than FRAC (default 0.25, i.e. +25%). A bench
      without a baseline entry FAILS the gate with instructions for
      adding one, so new benches cannot silently dodge the gate; pass
      --allow-missing to downgrade that to a SKIP (e.g. while a new
      bench's baseline is still being calibrated).
      With --fresh-dir, DIR must hold corpus-replay runs and DIR2 the
      same benches run fresh; every bench that actually replayed
      (manifest has corpus_hash) must be at least
      baseline["corpus_replay_min_speedup"] times faster than its
      fresh counterpart — the floor that keeps the corpus replay
      path from silently regressing into re-extraction.

  metrics SERIAL_DIR PARALLEL_DIR
      Assert that every METRICS_*.json snapshot in SERIAL_DIR has a
      counterpart in PARALLEL_DIR whose *Deterministic-domain* metrics
      are identical (DESIGN.md section 10). Timing-domain metrics
      (pool task counts, latencies, span trees) and the manifest's
      thread count legitimately differ and are stripped before the
      comparison.

To add a baseline entry: run the bench once with --threads 1 under
RHMD_SMOKE=1 and RHMD_BENCH_JSON_DIR set, read "wall_seconds" from the
emitted BENCH_<name>.json, and add '"<name>": <seconds>' to
bench/baseline.json (see the "comment" key there).

Exit code 0 on success, 1 on any violation, 2 on malformed input.
Stdlib only.
"""

import argparse
import glob
import json
import os
import sys


def load_json(path):
    """Parse one JSON file, exiting with a clear message (no
    traceback) when it is unreadable or malformed."""
    try:
        with open(path) as f:
            return json.load(f)
    except OSError as err:
        sys.exit(f"bench_gate: cannot read {path}: {err.strerror}")
    except json.JSONDecodeError as err:
        sys.exit(f"bench_gate: malformed JSON in {path}: {err}")


def load_dir(path, pattern="BENCH_*.json", key="bench"):
    out = {}
    for name in sorted(glob.glob(os.path.join(path, pattern))):
        doc = load_json(name)
        if key == "bench":
            ident = doc.get("bench")
        else:
            # METRICS_<name>.json carries its identity in the file
            # name; the manifest's "tool" may repeat across snapshots.
            ident = os.path.basename(name)
        if not isinstance(ident, str):
            sys.exit(f"bench_gate: {name} has no \"{key}\" field")
        out[ident] = doc
    if not out:
        sys.exit(f"bench_gate: no {pattern} files in {path}")
    return out


def corpus_hash_of(doc):
    """The corpus content hash a bench run was replayed from, or None
    for a fresh (in-memory extraction) run."""
    manifest = doc.get("manifest")
    if not isinstance(manifest, dict):
        return None
    config = manifest.get("config")
    if not isinstance(config, dict):
        return None
    return config.get("corpus_hash")


def cmd_compare(args):
    serial = load_dir(args.serial_dir)
    parallel = load_dir(args.parallel_dir)
    failed = False
    for bench, sdoc in serial.items():
        pdoc = parallel.get(bench)
        if pdoc is None:
            print(f"FAIL {bench}: missing from {args.parallel_dir}")
            failed = True
            continue
        shash = corpus_hash_of(sdoc)
        phash = corpus_hash_of(pdoc)
        if shash is not None and phash is not None and shash != phash:
            print(f"FAIL {bench}: runs replayed different corpora "
                  f"(corpus_hash {shash} vs {phash}); regenerate the "
                  "cached corpus or point both runs at the same file "
                  "before comparing tables")
            failed = True
            continue
        if sdoc["tables"] != pdoc["tables"]:
            print(f"FAIL {bench}: tables differ between "
                  f"{sdoc['threads']}-thread and "
                  f"{pdoc['threads']}-thread runs")
            print("  serial:   ", json.dumps(sdoc["tables"]))
            print("  parallel: ", json.dumps(pdoc["tables"]))
            failed = True
            continue
        swall = sdoc["wall_seconds"]
        pwall = pdoc["wall_seconds"]
        speedup = swall / pwall if pwall > 0 else float("inf")
        print(f"OK   {bench}: tables identical at {sdoc['threads']} vs "
              f"{pdoc['threads']} threads; wall {swall:.2f}s -> "
              f"{pwall:.2f}s (speedup {speedup:.2f}x)")
    return 1 if failed else 0


def cmd_regress(args):
    docs = load_dir(args.dir)
    baseline = load_json(args.baseline)
    if not isinstance(baseline, dict):
        sys.exit(f"bench_gate: {args.baseline} must hold one "
                 "{\"<bench>\": seconds} object")
    failed = False
    for bench, doc in docs.items():
        base = baseline.get(bench)
        if not isinstance(base, (int, float)) or isinstance(base, bool):
            if args.allow_missing:
                print(f"SKIP {bench}: no baseline entry "
                      f"(--allow-missing)")
                continue
            print(f"FAIL {bench}: no baseline entry in "
                  f"{args.baseline}. Run the bench with --threads 1 "
                  f"(smoke mode) and add '\"{bench}\": "
                  f"<wall_seconds>' to it, or pass --allow-missing.")
            failed = True
            continue
        wall = doc["wall_seconds"]
        limit = base * (1.0 + args.tolerance)
        if wall > limit:
            print(f"FAIL {bench}: wall {wall:.2f}s exceeds baseline "
                  f"{base:.2f}s + {args.tolerance:.0%} ({limit:.2f}s)")
            failed = True
        else:
            print(f"OK   {bench}: wall {wall:.2f}s within baseline "
                  f"{base:.2f}s + {args.tolerance:.0%}")
    if args.fresh_dir:
        failed |= check_replay_speedup(docs, baseline, args)
    return 1 if failed else 0


def check_replay_speedup(replay_docs, baseline, args):
    """regress --fresh-dir: replayed benches must beat their fresh
    counterparts by the checked-in corpus_replay_min_speedup floor."""
    floor = baseline.get("corpus_replay_min_speedup")
    if not isinstance(floor, (int, float)) or isinstance(floor, bool):
        sys.exit(f"bench_gate: {args.baseline} has no "
                 "\"corpus_replay_min_speedup\" entry (required with "
                 "--fresh-dir)")
    fresh = load_dir(args.fresh_dir)
    failed = False
    checked = 0
    for bench, rdoc in replay_docs.items():
        if corpus_hash_of(rdoc) is None:
            print(f"FAIL {bench}: run in {args.dir} did not replay a "
                  "corpus (manifest has no corpus_hash) — the replay "
                  "leg fell back to fresh extraction")
            failed = True
            continue
        fdoc = fresh.get(bench)
        if fdoc is None:
            print(f"FAIL {bench}: missing from {args.fresh_dir}")
            failed = True
            continue
        rwall = rdoc["wall_seconds"]
        fwall = fdoc["wall_seconds"]
        speedup = fwall / rwall if rwall > 0 else float("inf")
        checked += 1
        if speedup < floor:
            print(f"FAIL {bench}: corpus replay speedup {speedup:.2f}x "
                  f"below the {floor:.2f}x floor (fresh {fwall:.2f}s, "
                  f"replay {rwall:.2f}s)")
            failed = True
        else:
            print(f"OK   {bench}: corpus replay speedup {speedup:.2f}x "
                  f">= {floor:.2f}x floor")
    if checked == 0 and not failed:
        sys.exit("bench_gate: --fresh-dir produced no replay/fresh "
                 "pairs to check")
    return failed


def deterministic_view(doc, path):
    """The determinism-relevant subset of one METRICS_*.json snapshot:
    Deterministic-domain metrics plus the manifest minus its thread
    count (spans and Timing metrics are wall-clock shaped)."""
    metrics = doc.get("metrics")
    manifest = doc.get("manifest")
    if not isinstance(metrics, list) or not isinstance(manifest, dict):
        sys.exit(f"bench_gate: {path} is not a metrics snapshot "
                 "(needs \"metrics\" and \"manifest\")")
    view = {k: v for k, v in manifest.items() if k != "threads"}
    return {
        "manifest": view,
        "metrics": [m for m in metrics
                    if m.get("domain") == "deterministic"],
    }


def cmd_metrics(args):
    serial = load_dir(args.serial_dir, "METRICS_*.json", key="file")
    parallel = load_dir(args.parallel_dir, "METRICS_*.json", key="file")
    failed = False
    for name, sdoc in serial.items():
        pdoc = parallel.get(name)
        if pdoc is None:
            print(f"FAIL {name}: missing from {args.parallel_dir}")
            failed = True
            continue
        sview = deterministic_view(sdoc, name)
        pview = deterministic_view(pdoc, name)
        if sview != pview:
            print(f"FAIL {name}: deterministic metrics differ between "
                  "thread counts")
            smet = {m["name"]: m for m in sview["metrics"]}
            pmet = {m["name"]: m for m in pview["metrics"]}
            for metric in sorted(set(smet) | set(pmet)):
                if smet.get(metric) != pmet.get(metric):
                    print(f"  {metric}:")
                    print("    serial:   ", json.dumps(smet.get(metric)))
                    print("    parallel: ", json.dumps(pmet.get(metric)))
            if sview["manifest"] != pview["manifest"]:
                print("  manifest:")
                print("    serial:   ", json.dumps(sview["manifest"]))
                print("    parallel: ", json.dumps(pview["manifest"]))
            failed = True
            continue
        n = len(sview["metrics"])
        print(f"OK   {name}: {n} deterministic metrics identical")
    return 1 if failed else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    sub = parser.add_subparsers(dest="mode", required=True)
    compare = sub.add_parser("compare")
    compare.add_argument("serial_dir")
    compare.add_argument("parallel_dir")
    compare.set_defaults(func=cmd_compare)
    regress = sub.add_parser("regress")
    regress.add_argument("dir")
    regress.add_argument("baseline")
    regress.add_argument("--tolerance", type=float, default=0.25)
    regress.add_argument("--allow-missing", action="store_true")
    regress.add_argument("--fresh-dir", default=None)
    regress.set_defaults(func=cmd_regress)
    metrics = sub.add_parser("metrics")
    metrics.add_argument("serial_dir")
    metrics.add_argument("parallel_dir")
    metrics.set_defaults(func=cmd_metrics)
    args = parser.parse_args()
    sys.exit(args.func(args))


if __name__ == "__main__":
    main()
