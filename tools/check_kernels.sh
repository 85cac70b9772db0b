#!/bin/sh
# Check the SIMD kernel layer at every dispatch level the host can run:
# build the tree, then run the differential kernel suite plus the
# kernel/pair-mining smokes once each. Each of them loops over
# kernels::supported_levels() in-process, pinning every level in turn, so
# one run proves the scalar reference and the vector variant
# byte-identical end to end.
#
#   $ tools/check_kernels.sh            # uses ./build (configures if absent)
#   $ BUILD_DIR=build-asan tools/check_kernels.sh
set -e
cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build}"

cmake -B "$BUILD_DIR" -S . >/dev/null
cmake --build "$BUILD_DIR" --target test_kernels kernel_sweep simchar_pairs -j >/dev/null

"$BUILD_DIR"/tests/test_kernels --gtest_brief=1
"$BUILD_DIR"/bench/kernel_sweep --smoke
"$BUILD_DIR"/bench/simchar_pairs --smoke >/dev/null
echo "simchar pair-mining smoke: PASS"

echo "all kernel levels identical: PASS"
