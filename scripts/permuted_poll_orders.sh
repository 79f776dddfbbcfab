#!/bin/sh
# Permuted poll orders: replay the pin tables and the world-level
# fingerprint tables with every scheduler pass's machine order shuffled
# by SIM_PERMUTE_SEED, for seeds 1..=32, in release. No order may move a
# virtual instant; a seed that moves a committed row has found an order
# dependence: fix it and add the seed as a row, never loosen the row.
#
# Run from the repository root: sh scripts/permuted_poll_orders.sh
set -u
for seed in $(seq 1 32); do
  export SIM_PERMUTE_SEED="$seed"
  {
    cargo test -q --release --offline \
      -p clmpi -p himeno -p minimpi -p simtime -p nanopowder \
      --test pinned --test scheduler_diff --test rma --test datatype --test wake \
      --test recovery --test collectives --test variants --test scheduler --test wake_keys \
      --test distributed --test barrier --test drivers --test launchers \
      --test engine --test faults --test halo_chunks --test edge_planes --test transfers &&
    # clmpi's engine unit tests
    cargo test -q --release --offline -p clmpi --lib &&
    # himeno's shared initial planes: which rank fills a plane first is a
    # poll order
    cargo test -q --release --offline -p himeno --lib &&
    # minimpi's blocking epochs
    cargo test -q --release --offline -p minimpi --lib rma &&
    # minimpi's barrier and collectives
    cargo test -q --release --offline -p minimpi --lib launch &&
    # minicl's queue executor tasks and buffer model
    cargo test -q --release --offline -p minicl --lib &&
    # the clock's keyed registry
    cargo test -q --release --offline -p simtime --lib
  } || {
    echo "SIM_PERMUTE_SEED=$seed moved a committed row"
    exit 1
  }
done
