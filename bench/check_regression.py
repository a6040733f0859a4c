#!/usr/bin/env python3
"""Diff a bench regression report (BENCH_10.json) against the checked-in
baseline (bench/baseline.json) and fail CI on regressions.

Two classes of metric, two rules:

  * deterministic (stall counts, simulated speedups, simulated peaks,
    single-worker cache churn counters, warm-restart miss counts, the
    worker-pool microbench counters, the root-front lease-attempt count):
    stall counts must not exceed the baseline — a single new stall under
    the lookahead or reservation policy is a hard failure; simulated
    speedups are simulator time, reproducible bit for bit, and get a 2%
    tolerance only to absorb future benign tie-break changes; the churn
    scenario's hit/miss/eviction counters come from a seeded trace on one
    worker and must match the baseline exactly, with resident entries
    never above the cap; a warm restart must report exactly zero symbolic
    misses; the worker-pool counters are self-checking against the
    report's own pool_size/rounds — a 4-worker pool serving 64 lease
    rounds must report exactly 4 threads_spawned (the zero-births-on-the-
    hot-path contract), 64 granted and 0 denied; lease attempts per
    root-front run are structural (panel and tile counts), so they match
    the baseline exactly, and elastic crewing must grant at least one of
    them;

  * noisy (wall-clock service throughput, the root-front and dense-kernel
    timings): the cached/cold solves-per-sec ratio wobbles with load on
    shared CI runners, so the baseline-relative check is a warning only; the hard
    gate is the absolute floor of 1.0 — if the symbolic cache makes solves
    *slower* than a cold analyze, that is a real regression on any
    machine. The repeat-values scenario skips the entire numeric
    factorization on a hit, so its cached/refactorize ratio carries a
    higher absolute floor of 1.5; the warm-restart throughput ratio only
    warns (its hard contract is the miss count). The root-front
    elastic/held ratio only warns (its hard contract is the grant count).
    The dense-kernel floor compares two paths timed in the same process,
    so machine load hits both: the dispatched SIMD path must run a
    1024-row root front at >= 2x the portable path's GF/s, a hard gate
    skipped only when the portable path is the one dispatched (no SIMD
    path on the host). The tracing-overhead ratio is wall-clock too, but
    min-of-5 interleaved measurement makes it stable enough to carry the
    observability contract as a hard ceiling: a traced factorize costing
    more than 5% over an untraced one fails on any machine, and a traced
    run that retained zero events fails outright (tracing silently off is
    not "low overhead", it is broken instrumentation).

Usage: check_regression.py <report.json> <baseline.json>
Exits 0 when clean, 1 on any regression (each printed as 'FAIL: ...').
"""
import json
import sys

SPEEDUP_TOLERANCE = 0.98   # deterministic, slack for tie-break changes only
NOISY_TOLERANCE = 0.80     # wall-clock metrics: >20% drop warns (no fail)
SERVICE_RATIO_FLOOR = 1.0  # cached slower than cold fails on any machine
REPEAT_RATIO_FLOOR = 1.5   # factor-cache hits skip factorize entirely
SCALING_RATIO_WARN = 1.0    # root front below parity: warn (single core)
DENSE_SIMD_RATIO_FLOOR = 2.0  # SIMD vs portable GF/s, same process
TRACING_OVERHEAD_CEILING = 1.05  # traced/untraced factorize, min-of-5

def fail(messages, text):
    messages.append("FAIL: " + text)

def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    with open(sys.argv[1]) as f:
        report = json.load(f)
    with open(sys.argv[2]) as f:
        baseline = json.load(f)

    failures = []
    if report.get("schema") != baseline.get("schema"):
        fail(failures, "schema mismatch: %r vs baseline %r"
             % (report.get("schema"), baseline.get("schema")))

    base_instances = {i["name"]: i for i in baseline.get("instances", [])}
    seen = set()
    for instance in report.get("instances", []):
        name = instance["name"]
        seen.add(name)
        base = base_instances.get(name)
        if base is None:
            # New instances are informational, not regressions.
            print("note: %s not in baseline, skipping" % name)
            continue
        for policy, metrics in instance["policies"].items():
            base_metrics = base["policies"].get(policy)
            if base_metrics is None:
                print("note: %s/%s not in baseline, skipping" % (name, policy))
                continue
            if metrics["stalls"] > base_metrics["stalls"]:
                fail(failures, "%s under %s: %d stalls (baseline %d)"
                     % (name, policy, metrics["stalls"],
                        base_metrics["stalls"]))
            floor = SPEEDUP_TOLERANCE * base_metrics["speedup"]
            if metrics["speedup"] < floor:
                fail(failures, "%s under %s: speedup %.4f below %.4f "
                     "(98%% of baseline %.4f)"
                     % (name, policy, metrics["speedup"], floor,
                        base_metrics["speedup"]))
    missing = set(base_instances) - seen
    if missing:
        fail(failures, "instances missing from report: %s"
             % ", ".join(sorted(missing)))

    totals = report.get("totals", {})
    base_totals = baseline.get("totals", {})
    for key in ("lookahead_stalls", "reservation_stalls"):
        if totals.get(key, 0) > base_totals.get(key, 0):
            fail(failures, "totals.%s = %d (baseline %d)"
                 % (key, totals.get(key, 0), base_totals.get(key, 0)))

    ratio = report.get("service", {}).get("cached_over_cold", 0.0)
    base_ratio = baseline.get("service", {}).get("cached_over_cold", 0.0)
    if base_ratio > 0:
        if ratio < SERVICE_RATIO_FLOOR:
            fail(failures, "service cached/cold ratio %.4f below %.2f: "
                 "the symbolic cache made solves slower than cold analyze"
                 % (ratio, SERVICE_RATIO_FLOOR))
        elif ratio < NOISY_TOLERANCE * base_ratio:
            print("warning: service cached/cold ratio %.4f below %.4f "
                  "(80%% of baseline %.4f) — wall-clock noise on a shared "
                  "runner, or a real slowdown worth a look; not failing"
                  % (ratio, NOISY_TOLERANCE * base_ratio, base_ratio))

    round2 = report.get("service_round2", {})
    base_round2 = baseline.get("service_round2", {})

    # Churn: seeded trace, one worker — the counters are exact.
    churn = round2.get("churn", {})
    base_churn = base_round2.get("churn", {})
    if churn.get("entries", 0) > churn.get("cap", 0):
        fail(failures, "churn: %d resident symbolic entries above the "
             "eviction cap of %d"
             % (churn.get("entries", 0), churn.get("cap", 0)))
    for key in ("hits", "misses", "evictions", "entries"):
        if base_churn and churn.get(key) != base_churn.get(key):
            fail(failures, "churn: %s = %s (baseline %s, deterministic "
                 "single-worker counter)"
                 % (key, churn.get(key), base_churn.get(key)))

    # Warm restart: the persistence contract is zero symbolic misses on a
    # replayed trace; the throughput ratio is wall-clock and only warns.
    warm = round2.get("warm_restart", {})
    base_warm = base_round2.get("warm_restart", {})
    if warm.get("warm_misses", -1) != 0:
        fail(failures, "warm restart: %s symbolic misses after loading the "
             "state dir (must be exactly 0)" % warm.get("warm_misses"))
    warm_ratio = warm.get("warm_over_cold", 0.0)
    base_warm_ratio = base_warm.get("warm_over_cold", 0.0)
    if base_warm_ratio > 0 and warm_ratio < NOISY_TOLERANCE * base_warm_ratio:
        print("warning: warm/cold restart ratio %.4f below %.4f (80%% of "
              "baseline %.4f) — wall-clock noise, or the loader got slow; "
              "not failing" % (warm_ratio, NOISY_TOLERANCE * base_warm_ratio,
                               base_warm_ratio))

    # Repeat values: a hit skips the whole factorization, so the ratio must
    # clear 1.5 on any machine, and the cache must actually be hitting.
    repeat = round2.get("repeat_values", {})
    base_repeat = base_round2.get("repeat_values", {})
    if repeat.get("factor_hits", 0) <= 0:
        fail(failures, "repeat values: zero numeric-factor cache hits on a "
             "trace that repeats every (pattern, values) pair")
    repeat_ratio = repeat.get("cached_over_refactor", 0.0)
    if repeat_ratio < REPEAT_RATIO_FLOOR:
        fail(failures, "repeat values: cached/refactorize ratio %.4f below "
             "%.2f — the factor cache is not paying for itself"
             % (repeat_ratio, REPEAT_RATIO_FLOOR))
    base_repeat_ratio = base_repeat.get("cached_over_refactor", 0.0)
    if (base_repeat_ratio > 0
            and repeat_ratio < NOISY_TOLERANCE * base_repeat_ratio):
        print("warning: repeat-values cached/refactorize ratio %.4f below "
              "%.4f (80%% of baseline %.4f) — wall-clock noise on a shared "
              "runner, or a real slowdown worth a look; not failing"
              % (repeat_ratio, NOISY_TOLERANCE * base_repeat_ratio,
                 base_repeat_ratio))

    # Worker-pool microbench: every counter is self-checking against the
    # report's own pool_size/rounds — no baseline needed, no machine
    # dependence. threads_spawned == pool_size IS the zero-births-on-the-
    # hot-path contract the tentpole promises.
    pool = report.get("worker_pool", {})
    pool_size = pool.get("pool_size", 0)
    rounds = pool.get("rounds", 0)
    expected = {
        "threads_spawned": pool_size,
        "leases_granted": rounds,
        "leases_denied": 0,
        "workers_leased": rounds * max(pool_size - 1, 0),
    }
    for key, want in expected.items():
        if pool.get(key) != want:
            fail(failures, "worker_pool: %s = %s (expected exactly %d for a "
                 "%d-worker pool over %d rounds)"
                 % (key, pool.get(key), want, pool_size, rounds))

    scaling = report.get("scaling", {})
    base_scaling = baseline.get("scaling", {})

    # Root front: the attempt count is structural (panel/tile geometry) and
    # matches the baseline exactly; elastic crewing must actually grant —
    # zero grants means idle tree workers never reached the root front's
    # trailing updates. The elastic/held ratio is wall-clock: warn only.
    root = scaling.get("root_front", {})
    base_root = base_scaling.get("root_front", {})
    if base_root and root.get("lease_attempts") != base_root.get(
            "lease_attempts"):
        fail(failures, "root_front: lease_attempts = %s (baseline %s, "
             "structural counter)" % (root.get("lease_attempts"),
                                      base_root.get("lease_attempts")))
    if root and root.get("leases_granted", 0) < 1:
        fail(failures, "root_front: zero leases granted under elastic "
             "crewing — returned workers never reached the root front")
    root_ratio = root.get("ratio", 0.0)
    if root and root_ratio < SCALING_RATIO_WARN:
        print("warning: root_front held/elastic ratio %.4f below parity — "
              "elastic crewing not paying on this runner (expected on a "
              "single core); not failing" % root_ratio)

    # Dense kernel: the SIMD path must earn its keep against the portable
    # path on the same front, in the same process.
    dense = report.get("dense_kernel", {})
    if not dense:
        fail(failures, "dense_kernel: scenario missing from report")
    elif dense.get("isa") != "portable":
        if dense.get("ratio", 0.0) < DENSE_SIMD_RATIO_FLOOR:
            fail(failures, "dense_kernel: %s path %.2f GF/s is %.2fx the "
                 "portable path's %.2f GF/s on the %d-row front, below %.1fx"
                 % (dense.get("isa"), dense.get("gflops", 0.0),
                    dense.get("ratio", 0.0),
                    dense.get("portable_gflops", 0.0), dense.get("m", 0),
                    DENSE_SIMD_RATIO_FLOOR))

    # Tracing overhead: the observability subsystem's admission ticket —
    # instrumentation stays on the hot paths only while a traced run costs
    # at most 5% over an untraced one (min-of-5 interleaved, so the ratio
    # is stable despite being wall-clock). Zero retained events means the
    # instrumented build recorded nothing, which would make the ratio a
    # vacuous pass.
    tracing = report.get("tracing", {})
    overhead = tracing.get("overhead_ratio", 0.0)
    if not tracing:
        fail(failures, "tracing: scenario missing from report")
    else:
        if overhead > TRACING_OVERHEAD_CEILING:
            fail(failures, "tracing: traced/untraced factorize ratio %.4f "
                 "above %.2f — tracing is no longer cheap enough to leave "
                 "instrumented" % (overhead, TRACING_OVERHEAD_CEILING))
        if tracing.get("events_retained", 0) <= 0:
            fail(failures, "tracing: traced factorize retained zero events "
                 "— the instrumentation did not record")

    for line in failures:
        print(line)
    if failures:
        sys.exit(1)
    print("bench regression check clean: %d instances, "
          "lookahead/reservation stalls %d/%d, cached/cold %.2f "
          "(baseline %.2f), warm misses %s, repeat-values ratio %.2f, "
          "pool births %s, root-front grants %s/%s, dense %s x%.2f, "
          "tracing overhead %.3fx (%s events)"
          % (len(seen), totals.get("lookahead_stalls", 0),
             totals.get("reservation_stalls", 0), ratio, base_ratio,
             warm.get("warm_misses"), repeat_ratio,
             pool.get("threads_spawned"), root.get("leases_granted"),
             root.get("lease_attempts"), dense.get("isa"),
             dense.get("ratio", 0.0), overhead,
             tracing.get("events_retained")))

if __name__ == "__main__":
    main()
