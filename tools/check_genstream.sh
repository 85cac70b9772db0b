#!/bin/sh
# End-to-end check of the streaming zone generator and the slice-parallel
# detection pipeline: build the tree, run the generator-equivalence suite
# (ZoneTextStream byte-identical to the materialize-then-serialize path at
# every chunk size and population range) and the slice-equivalence suite
# (verdict fingerprints identical at 1/2/8 slices), then drive the CLI the
# way a user would — build-db, a 1e6-domain synthetic scale-run at 1 and 4
# shards (1 and 32 slices) whose domains, IDNs and fingerprints must agree,
# and a bounded-RSS assertion on both runs (peak resident set within a
# fixed slack of the pre-run baseline: the pipeline never materializes the
# zone).
#
#   $ tools/check_genstream.sh             # uses ./build (configures if absent)
#   $ BUILD_DIR=build-asan tools/check_genstream.sh
set -e
cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build}"
# Peak-RSS slack over the pre-run baseline for the 1e6-domain streamed
# runs, KiB. The working set is engine + generator head + one chunk and
# one batch per slice + verdict vectors — a constant; materializing 1e6
# domains would cost ~100 MiB+.
RSS_SLACK_KIB="${RSS_SLACK_KIB:-262144}"

cmake -B "$BUILD_DIR" -S . >/dev/null
cmake --build "$BUILD_DIR" --target test_zone_gen test_scale shamfinder_cli -j >/dev/null

echo "=== generator-equivalence suite (streamed == materialized) ==="
"$BUILD_DIR"/tests/test_zone_gen --gtest_brief=1

echo "=== slice-equivalence suite (fingerprints at 1/2/8 slices) ==="
"$BUILD_DIR"/tests/test_scale --gtest_brief=1 \
  --gtest_filter='DetectSharded.*:DetectGenerated.*:StreamGenerated.*:Fleet.*:Slices.*'

echo "=== CLI: build-db -> synthetic 1e6-domain scale-run, 1 vs 4 shards ==="
TMP=$(mktemp -d /tmp/sham_check_genstream.XXXXXX)
trap 'rm -rf "$TMP"' EXIT
REFS=google,amazon,facebook,wikipedia,paypal

"$BUILD_DIR"/examples/shamfinder_cli build-db "$TMP/db.artifact" --refs "$REFS"

for shards in 1 4; do
  "$BUILD_DIR"/examples/shamfinder_cli scale-run --db-file "$TMP/db.artifact" \
    --domains 1000000 --seed 7 --shards "$shards" \
    > "$TMP/report_$shards.json"
  grep -q '"ok": true' "$TMP/report_$shards.json" || {
    echo "fleet report not ok at $shards shard(s):"
    cat "$TMP/report_$shards.json"; exit 1
  }
done

for key in domains idns verdict_fingerprint; do
  one=$(grep -o "\"$key\": [0-9]*" "$TMP/report_1.json")
  four=$(grep -o "\"$key\": [0-9]*" "$TMP/report_4.json")
  [ -n "$one" ] || { echo "no $key in the 1-shard report"; exit 1; }
  if [ "$one" != "$four" ]; then
    echo "shard count changed $key: $one vs $four"
    exit 1
  fi
done
matches=$(grep -o '"total_matches": [0-9]*' "$TMP/report_1.json" | grep -o '[0-9]*')
[ "$matches" -gt 0 ] || { echo "synthetic fleet found no homographs"; exit 1; }
echo "    1e6 domains, $matches matches; domains, IDNs and fingerprints identical at 1 and 4 shards"

echo "=== bounded-RSS assertion on the streamed runs ==="
for shards in 1 4; do
  report="$TMP/report_$shards.json"
  rss_before=$(grep -o '"rss_before_kib": [0-9]*' "$report" | grep -o '[0-9]*')
  rss_peak=$(grep -o '"rss_peak_kib": [0-9]*' "$report" | grep -o '[0-9]*' | sort -n | tail -1)
  delta=$((rss_peak - rss_before))
  if [ "$delta" -gt "$RSS_SLACK_KIB" ]; then
    echo "streamed 1e6-domain run at $shards shard(s) grew RSS by ${delta} KiB (> ${RSS_SLACK_KIB})"
    exit 1
  fi
  echo "    $shards shard(s): peak RSS ${rss_peak} KiB, +${delta} KiB over baseline (slack ${RSS_SLACK_KIB})"
done

echo "generated streaming pipeline end-to-end: PASS"
