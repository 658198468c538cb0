#!/usr/bin/env bash
# Builds the benchmark harness offline and runs it.
#
#   bash benchmarks/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#   bash benchmarks/run.sh --check            # correctness oracles only, <= 10 s
#   bash benchmarks/run.sh --vet 30           # golden gate of every NUTS cell at chain seeds 1..30
#   bash benchmarks/run.sh --aa 3 --runs 10   # A/A sets, see README.md
#   bash benchmarks/run.sh --test             # the harness's own unit tests
#
# Everything it writes stays inside the checkout: the cargo target
# directory ($CARGO_TARGET_DIR, default benchmarks/.build/target), the
# generated cargo config, and the harness's scratch files, all under
# benchmarks/.build/ or $CARGO_TARGET_DIR.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/.." && pwd)"
build="$here/.build"
if [ ! -f "$root/Cargo.toml" ]; then
  echo "run.sh: $root/Cargo.toml not found; the benchmark builds the repository's crates and cannot run without them" >&2
  exit 1
fi
mkdir -p "$build"

# The run pins inner threads and the fast path through RunConfig; the
# environment must not be able to override either.
unset BAYES_INNER_THREADS BAYES_FASTPATH BAYES_BLESS
export CARGO_NET_OFFLINE=true
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$build/target}"
case "$CARGO_TARGET_DIR" in /*) ;; *) CARGO_TARGET_DIR="$PWD/$CARGO_TARGET_DIR" ;; esac

# Cargo config generated from the root manifest: every
# [patch.crates-io] entry whose path exists (the missing
# vendor/criterion is skipped), with the path made absolute, and every
# [profile.release*] table verbatim.
config="$build/cargo-config.toml"
awk -v root="$root" '
  /^\[/ { section = $0 }
  section == "[patch.crates-io]" {
    if ($0 ~ /^\[/) { patch = patch $0 "\n"; next }
    if (match($0, /path *= *"[^"]*"/)) {
      rel = substr($0, RSTART, RLENGTH); sub(/^path *= *"/, "", rel); sub(/"$/, "", rel)
      if (system("test -e \"" root "/" rel "/Cargo.toml\"") == 0) {
        line = $0; sub(/path *= *"[^"]*"/, "path = \"" root "/" rel "\"", line)
        patch = patch line "\n"
      }
    }
    next
  }
  section ~ /^\[profile\.release/ { profile = profile $0 "\n" }
  END { printf "%s\n%s", patch, profile }
' "$root/Cargo.toml" > "$config.tmp"
mv "$config.tmp" "$config"

manifest="$here/harness/Cargo.toml"
cargo_flags=(--release --offline --quiet --manifest-path "$manifest" --config "$config")

if [ "${1:-}" = "--test" ]; then
  exec cargo test "${cargo_flags[@]}"
fi

cargo build "${cargo_flags[@]}" >&2
exec "$CARGO_TARGET_DIR/release/perfbench" --repo-root "$root" --scratch "$build" "$@"
