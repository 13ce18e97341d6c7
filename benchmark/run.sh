#!/usr/bin/env bash
# The repo benchmark. Builds socflow-cli, the end-to-end runner and the
# per-layer probe in release mode, then hands over to the runner.
#
#   benchmark/run.sh                      every workload, every metric
#   benchmark/run.sh --workload tune_60   one workload
#   benchmark/run.sh --selfcheck          two sets, compared to the bounds
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                         one run for the acceptance driver
#
# See benchmark/README.md.
set -euo pipefail

# everything below is relative to the repo root, and so is a relative
# CARGO_TARGET_DIR handed in from outside
cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"
bin="$CARGO_TARGET_DIR/release"

# the program under test: the root workspace, untouched (--locked)
cargo build --release --offline --locked --quiet --manifest-path Cargo.toml -p socflow-cli
# the runner needs only std and the serde_json stand-in; it must build
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml

# the probe links the library crates and may stop building against a
# later commit: then the end-to-end numbers are still reported and the
# per-layer probe rows are null, with the compiler's first error as reason
probe=(--probe "$bin/socflow-probe")
if ! log=$(cargo build --release --offline --quiet \
        --manifest-path benchmark/probe/Cargo.toml 2>&1); then
    reason=$(grep -m1 '^error' <<<"$log" || true)
    probe=(--probe-error "probe build failed: ${reason:-see cargo output}")
fi

exec "$bin/socflow-benchmark" --cli "$bin/socflow-cli" "${probe[@]}" "$@"
