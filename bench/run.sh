#!/bin/sh
# Build and run the ledger benchmark from anywhere; arguments go to
# `ledger` (none = the whole benchmark; see bench/README.md).
exec cargo run --release --offline --quiet --manifest-path "$(dirname "$0")/Cargo.toml" -- "$@"
