#!/bin/sh
# End-to-end check of the paper-scale streaming pipeline: build the tree,
# run the streaming/equivalence test suites and the scale_run smoke
# (streamed-vs-materialised identity, fleet fingerprints, generation-diff
# vs rebuild), then drive the CLI the way a user would — build-db, craft
# two relabelled registry zones, and a scale-run fleet over the shared
# artifact whose per-TLD verdict fingerprints must agree. Last, the whole
# tier-1 suite runs 20 times under ctest -j8 and must pass every time.
#
#   $ tools/check_scale.sh                 # uses ./build (configures if absent)
#   $ BUILD_DIR=build-asan tools/check_scale.sh
set -e
cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build}"

cmake -B "$BUILD_DIR" -S . >/dev/null
cmake --build "$BUILD_DIR" --target test_scale test_dns scale_run shamfinder_cli -j >/dev/null

echo "=== streaming pipeline test suite ==="
"$BUILD_DIR"/tests/test_scale --gtest_brief=1

echo "=== zone parser + chunk-boundary property suite ==="
"$BUILD_DIR"/tests/test_dns --gtest_brief=1 \
  --gtest_filter='ZoneFile.*:ZoneStream.*:Seeds/ZoneChunkProperty.*'

echo "=== scale_run smoke (identity + fleet + diff feed) ==="
"$BUILD_DIR"/bench/scale_run --smoke

echo "=== CLI: build-db -> scale-run fleet over two relabelled zones ==="
TMP=$(mktemp -d /tmp/sham_check_scale.XXXXXX)
trap 'rm -rf "$TMP"' EXIT
REFS=google,amazon,facebook,wikipedia,paypal

"$BUILD_DIR"/examples/shamfinder_cli build-db "$TMP/db.artifact" --refs "$REFS"

# Same second-level labels under two TLDs: verdicts are keyed by the ACE
# label (TLD-independent), so both workers must report one fingerprint.
"$BUILD_DIR"/examples/shamfinder_cli candidates google 25 \
  | awk 'NR > 1 { print $NF }' > "$TMP/slds"
[ -s "$TMP/slds" ] || { echo "no homograph candidates generated"; exit 1; }

for tld in com net; do
  {
    printf '$ORIGIN %s.\n$TTL 300\n' "$tld"
    while read -r sld; do
      printf '%s IN NS ns1.hoster.net.\n' "$sld"
      printf '%s IN A 203.0.113.7\n' "$sld"
    done < "$TMP/slds"
    printf 'plain IN A 203.0.113.8\n'
  } > "$TMP/$tld.zone"
done

"$BUILD_DIR"/examples/shamfinder_cli scale-run --db-file "$TMP/db.artifact" \
  --zone "com:$TMP/com.zone" --zone "net:$TMP/net.zone" --passes 2 \
  > "$TMP/report.json"

grep -q '"ok": true' "$TMP/report.json" || {
  echo "fleet report not ok:"; cat "$TMP/report.json"; exit 1
}
matches=$(grep -o '"total_matches": [0-9]*' "$TMP/report.json" | grep -o '[0-9]*')
[ "$matches" -gt 0 ] || { echo "fleet found no homographs"; exit 1; }
fingerprints=$(grep -o '"verdict_fingerprint": [0-9]*' "$TMP/report.json" | sort -u | wc -l)
if [ "$fingerprints" -ne 1 ]; then
  echo "per-TLD verdict fingerprints diverged:"; cat "$TMP/report.json"; exit 1
fi
echo "    2 workers, $matches matches, fingerprints identical"

echo "=== scale-run rejects an artifact without references ==="
"$BUILD_DIR"/examples/shamfinder_cli build-db "$TMP/norefs.artifact" >/dev/null 2>&1
if "$BUILD_DIR"/examples/shamfinder_cli scale-run --db-file "$TMP/norefs.artifact" \
    --zone "com:$TMP/com.zone" >/dev/null 2>&1; then
  echo "reference-free artifact was accepted"
  exit 1
fi
echo "    rejected (non-zero exit)"

echo "=== tier-1 suite: ctest -j8, repeated until failure (20 runs) ==="
# The *_smoke ctests rerun whole test binaries alongside their discovered
# copies; every process must keep to its own scratch files.
cmake --build "$BUILD_DIR" -j >/dev/null
if ! (cd "$BUILD_DIR" && ctest -j8 --repeat until-fail:20 --output-on-failure \
        > "$TMP/ctest.log" 2>&1); then
  tail -60 "$TMP/ctest.log"; exit 1
fi
grep 'tests passed' "$TMP/ctest.log"

echo "scale pipeline end-to-end: PASS"
