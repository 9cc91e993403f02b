#!/usr/bin/env python3
"""Acceptance gates over the bench smoke output (BENCH_<name>.json).

Usage, after the benches wrote their JSON into DIR (default: the current
directory), e.g. with FAUST_BENCH_SMOKE=1:

    python3 tools/ci_gates.py DIR

Every gate compares one field of one bench row against a bound: a number,
or a factor times another row's field. Rows are matched by benchmark name
without its "/min_time:..." suffix. Each gate prints its measured value and
bound; the exit status is 1 if any gate fails or its row or field is
missing. The byte, restart, retransmit and hit-rate counters are
iteration-independent (seeded streams), so smoke mode pins the same bounds
as full runs; the latency bounds are wide SLOs that only a deadlock, a
from-scratch replay or a stalled tail blows through.
"""
import json
import operator
import os
import sys

OPS = {
    "==": operator.eq,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}

# (bench, row, field, op, bound). Row "*" applies the gate to every row of
# the bench; a bound (row, field, factor) means factor * that row's field.
GATES = [
    # D6 (PERF.md "Bytes per op"): with wire deltas on, SUBMIT bytes for a
    # single-key put do not scale with the keyspace.
    ("wire_delta", "BM_WirePut/16384/1", "submit_bytes_per_op", "<=",
     ("BM_WirePut/256/1", "submit_bytes_per_op", 4)),
    # D12 (PERF.md "Zero-copy verified partitions"): a reader whose base is
    # 16 records old gets splices, not the ~33 KB register: every read
    # reply stays under a tenth of the value.
    ("wire_delta", "BM_WireAgedBase/3072/16", "spliced_share", "==", 1.0),
    ("wire_delta", "BM_WireAgedBase/3072/16", "reply_bytes_per_msg", "<=",
     ("BM_WireAgedBase/3072/16", "value_bytes", 0.1)),
    # D7 (PERF.md "Crash recovery & tail latency"): the seeded kill/restart
    # scenario answers every op with no fail_i, keeps p99 under the SLO,
    # and recovery from WAL + verified snapshot is far cheaper than the
    # downtime it follows.
    ("scenario", "BM_ScenarioCrashFree", "complete", "==", 1.0),
    ("scenario", "BM_ScenarioKillRestart", "complete", "==", 1.0),
    ("scenario", "BM_ScenarioKillRestart", "restarts", "==", 2),
    ("scenario", "BM_ScenarioKillRestart", "p99_us", "<=", 500_000),
    ("scenario", "BM_ScenarioKillRestart", "recovery_ms", "<=", 2_000),
    # D8 (PERF.md "Edge cache"): on the 95/5 Zipf(0.99) storm the cache
    # tier serves >= 80% of the registers snapshots resolve, and the cached
    # read path is cheaper at the median than reading through the shards.
    ("cache", "BM_CacheOff", "complete", "==", 1.0),
    ("cache", "BM_CacheOn", "complete", "==", 1.0),
    ("cache", "BM_CacheOff", "cache_hit_rate", "==", 0.0),
    ("cache", "BM_CacheOn", "cache_hit_rate", ">=", 0.80),
    ("cache", "BM_CacheOn", "p50_us", "<", ("BM_CacheOff", "p50_us", 1)),
    # D9 (PERF.md "Real sockets"): the multi-process TCP storm with one
    # SIGKILL + recovery completes, redials, keeps p99 under the D7 SLO,
    # and put bytes stay flat in K on the wire too.
    ("sock", "BM_SockStormTcp", "complete", "==", 1.0),
    ("sock", "BM_SockStormTcp", "restarts", "==", 1),
    ("sock", "BM_SockStormTcp", "reconnects", ">=", 1),
    ("sock", "BM_SockStormTcp", "p99_us", "<=", 500_000),
    ("sock", "BM_SockSubmitBytesSmallK", "complete", "==", 1.0),
    ("sock", "BM_SockSubmitBytesLargeK", "complete", "==", 1.0),
    ("sock", "BM_SockSubmitBytesLargeK", "submit_bytes_per_put", "<=",
     ("BM_SockSubmitBytesSmallK", "submit_bytes_per_put", 4)),
    # D10 (PERF.md "Tail latency under chaos"): every chaos run completes
    # with zero false fail_i, loss is recovered by client re-sends, the
    # partition storm keeps p99 under the SLO, and degraded reads serve
    # stale cache state during the cut and writes resume after the heal.
    ("chaos", "*", "complete", "==", 1.0),
    ("chaos", "BM_ChaosLossSweep/0", "retransmits", "==", 0),
    ("chaos", "BM_ChaosLossSweep/10", "dropped", ">", 0),
    ("chaos", "BM_ChaosLossSweep/10", "retransmits", ">", 0),
    ("chaos", "BM_ChaosLossSweep/50", "dropped", ">", 0),
    ("chaos", "BM_ChaosLossSweep/50", "retransmits", ">", 0),
    ("chaos", "BM_ChaosLossSweep/200", "dropped", ">", 0),
    ("chaos", "BM_ChaosLossSweep/200", "retransmits", ">", 0),
    ("chaos", "BM_ChaosPartitionStorm", "p99_us", "<=", 500_000),
    ("chaos", "BM_ChaosDegradedReads", "degraded_reads", ">=", 1),
    ("chaos", "BM_ChaosDegradedReads", "recovery_ms", "<=", 5_000),
]


def load_rows(directory, bench):
    with open(os.path.join(directory, f"BENCH_{bench}.json")) as f:
        benchmarks = json.load(f)["benchmarks"]
    return {b["name"].rsplit("/min_time", 1)[0]: b for b in benchmarks}


def main(argv):
    directory = argv[1] if len(argv) > 1 else "."
    benches = {}
    checks = failed = 0
    for bench, row, field, op, bound in GATES:
        try:
            if bench not in benches:
                benches[bench] = load_rows(directory, bench)
            rows = benches[bench]
            names = sorted(rows) if row == "*" else [row]
            if isinstance(bound, tuple):
                ref_row, ref_field, factor = bound
                limit = factor * rows[ref_row][ref_field]
                shown = f"{factor} x {ref_row}.{ref_field} = {limit:g}"
            else:
                limit, shown = bound, f"{bound:g}"
            for name in names:
                value = rows[name][field]
                ok = OPS[op](value, limit)
                checks += 1
                failed += not ok
                print(f"{'PASS' if ok else 'FAIL'}  {bench}: {name}.{field} = {value:g} "
                      f"{op} {shown}")
        except (OSError, KeyError, ValueError) as e:
            checks += 1
            failed += 1
            print(f"FAIL  {bench}: {row}.{field}: missing ({e!r})")
    print(f"{checks} checks ({len(GATES)} gates), {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
