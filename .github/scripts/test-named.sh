#!/bin/sh
# Run `cargo test ARGS`, but fail when ARGS select no test: a name filter
# that matches nothing makes `cargo test` run zero tests and pass.
# Usage: .github/scripts/test-named.sh --release -p CRATE --lib TEST_NAME
set -eu
count=$(cargo test "$@" -- --list | grep -c ': test$' || true)
if [ "$count" -eq 0 ]; then
    echo "error: 'cargo test $*' selects no test" >&2
    exit 1
fi
cargo test "$@"
