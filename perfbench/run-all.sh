#!/bin/sh
# Runs every workload once with tracing off and once traced, from the
# repository root: perfbench/run-all.sh [seed] [seconds]
set -e
seed=${1:-1}
seconds=${2:-25}
for workload in atlas serve_mem_open serve_tcp_closed replay_audit; do
    for trace in 0 1; do
        cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
            --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace"
    done
done
