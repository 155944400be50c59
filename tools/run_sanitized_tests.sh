#!/bin/sh
# Build the full tree with a sanitizer and run the test suite under it.
#
#   SAN=undefined tools/run_sanitized_tests.sh   (default)
#   SAN=address   tools/run_sanitized_tests.sh
#   SAN=thread    tools/run_sanitized_tests.sh
#
# thread is special-cased: TSan only pays off on code that actually runs
# threads, and the full suite under it is painfully slow — so it builds the
# tree with -fsanitize=thread but runs only the `tsan`-labelled suites (the
# exec pool, the campaign determinism and backend equivalence suites, the
# matmul replay suite, whose reference re-runs go to eight workers, the
# threaded obs and serve suites, and lints on several pool workers at once)
# with enough workers to exercise the parallel trial loops.
#
# Uses a separate build directory (build-$SAN) so the normal build stays
# untouched.
set -eu

SAN="${SAN:-undefined}"
case "$SAN" in
  address|undefined|thread) ;;
  *) echo "error: SAN must be 'address', 'undefined' or 'thread'," \
          "got '$SAN'" >&2
     exit 2 ;;
esac

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="$ROOT/build-$SAN"

cmake -B "$BUILD" -S "$ROOT" -DFLOPSIM_SANITIZE="$SAN"
cmake --build "$BUILD" -j "$(nproc)"
if [ "$SAN" = thread ]; then
  FLOPSIM_THREADS=4 ctest --test-dir "$BUILD" --output-on-failure \
    -L tsan -j "$(nproc)"
else
  ctest --test-dir "$BUILD" --output-on-failure -j "$(nproc)"
  # The datapath lint gate under the same sanitizer: the probe executes
  # every piece eval, so UBSan/ASan sweep the whole unit zoo here too.
  "$BUILD/tools/flopsim-lint" --fast
fi
