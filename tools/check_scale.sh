#!/bin/sh
# End-to-end check of the paper-scale streaming pipeline: build the tree,
# run the streaming/equivalence test suites and the scale_run smoke
# (streamed-vs-materialised identity, fleet fingerprints, generation-diff
# vs rebuild), then drive the CLI the way a user would — build-db, craft
# two relabelled registry zones, and a scale-run fleet over the shared
# artifact whose per-TLD verdict fingerprints must agree, a zone with
# mid-file directives and continuation lines scanned on 1, 2, 3 and 4
# threads (1, 16, 24 and 32 slices) with identical counts and fingerprint,
# a zone with a 48 MiB comment line among 4,000 NS records scanned on 1 and
# 4 threads within 10 s each (every slice after the line walks back over it
# to the last owner) with identical counts and fingerprint, a directory and
# a FIFO without a writer given as zones rejected naming the path (the FIFO
# within 10 s, not blocked in open), and --shards 0 and 100000 rejected as
# usage errors. Last, the whole tier-1 suite runs 20 times under ctest -j8
# and must pass every time.
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

echo "=== zone parser + chunk-boundary and tokenizer/name oracle suites ==="
"$BUILD_DIR"/tests/test_dns --gtest_brief=1 \
  --gtest_filter='ZoneFile.*:ZoneStream.*:Seeds/ZoneChunkProperty.*:TokenizerProperty.*:WindowMaskProperty.*:NormalizeProperty.*'

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

echo "=== CLI: 1-4 threads over a zone with mid-file \$ORIGIN and continuations ==="
# Slices start mid-file: each must inherit the $ORIGIN/$TTL in effect and
# the owner a leading continuation line belongs to, so every count and
# the fingerprint must match the single-slice run. N > 1 threads share 8N
# slices, so at 3 threads 24 slices share 3 threads.
{
  printf '$ORIGIN com.\n$TTL 300\n'
  i=0
  while read -r sld; do
    i=$((i + 1))
    printf '%s IN NS ns1.hoster.net.\n' "$sld"
    printf '    IN A 203.0.113.7\n'
    printf '\tIN NS ns2.hoster.net. ; continuation\n'
    if [ $((i % 7)) -eq 0 ]; then printf '  $ORIGIN net.\nmirror%d IN A 203.0.113.9\n$ORIGIN com.\n' "$i"; fi
  done < "$TMP/slds"
  awk 'BEGIN { for (i = 0; i < 3000; i++) {
    printf "host%d IN NS ns1.hoster.net.\n  IN A 192.0.2.%d\n", i, i % 256
    if (i % 500 == 0) printf "$TTL %d\n$ORIGIN net.\nnet%d IN A 192.0.2.1\n$ORIGIN com.\n", 60 + i, i
  } }'
} > "$TMP/sliced.zone"
for shards in 1 2 3 4; do
  "$BUILD_DIR"/examples/shamfinder_cli scale-run --db-file "$TMP/db.artifact" \
    --zone "com:$TMP/sliced.zone" --shards "$shards" > "$TMP/sliced_$shards.json"
  grep -q '"ok": true' "$TMP/sliced_$shards.json" || {
    echo "sliced run not ok at $shards shard(s):"; cat "$TMP/sliced_$shards.json"; exit 1
  }
done
for shards in 2 3 4; do
  for key in records domains idns verdict_fingerprint; do
    one=$(grep -o "\"$key\": [0-9]*" "$TMP/sliced_1.json")
    many=$(grep -o "\"$key\": [0-9]*" "$TMP/sliced_$shards.json")
    if [ -z "$one" ] || [ "$one" != "$many" ]; then
      echo "1 vs $shards shards differ on $key: '$one' vs '$many'"; exit 1
    fi
  done
done
idns=$(grep -o '"idns": [0-9]*' "$TMP/sliced_1.json" | grep -o '[0-9]*')
[ "$idns" -gt 0 ] || { echo "sliced zone decoded no IDNs"; exit 1; }
echo "    records, domains, $idns IDNs and fingerprint identical at 1, 2, 3 and 4 shards"

echo "=== CLI: 1 and 4 threads over a zone with a 48 MiB line ==="
# The comment line is longer than one mapping, and every cut of the 4-thread
# run falls inside it, so the slice after it walks back over all 48 MiB to
# find the last owner. That walk is linear: each run must end within 10 s
# and agree with the other on every count and the fingerprint.
{
  printf '$ORIGIN com.\n$TTL 300\n'
  awk 'BEGIN { for (i = 0; i < 2000; i++) printf "long%d IN NS ns1.hoster.net.\n", i }'
  printf '; '
  head -c 50331648 /dev/zero | tr '\0' x
  printf '\n'
  while read -r sld; do printf '%s IN NS ns1.hoster.net.\n' "$sld"; done < "$TMP/slds"
  awk 'BEGIN { for (i = 2000; i < 4000; i++) printf "long%d IN NS ns1.hoster.net.\n", i }'
} > "$TMP/longline.zone"
for shards in 1 4; do
  status=0
  timeout 10 "$BUILD_DIR"/examples/shamfinder_cli scale-run --db-file "$TMP/db.artifact" \
    --zone "com:$TMP/longline.zone" --shards "$shards" > "$TMP/longline_$shards.json" ||
    status=$?
  [ "$status" -eq 0 ] || { echo "long-line run at $shards shard(s) exited $status"; exit 1; }
  grep -q '"ok": true' "$TMP/longline_$shards.json" || {
    echo "long-line run not ok at $shards shard(s):"; cat "$TMP/longline_$shards.json"; exit 1
  }
done
for key in records domains idns verdict_fingerprint; do
  one=$(grep -o "\"$key\": [0-9]*" "$TMP/longline_1.json")
  many=$(grep -o "\"$key\": [0-9]*" "$TMP/longline_4.json")
  if [ -z "$one" ] || [ "$one" != "$many" ]; then
    echo "long-line zone: 1 vs 4 shards differ on $key: '$one' vs '$many'"; exit 1
  fi
done
rm -f "$TMP/longline.zone"
echo "    counts and fingerprint identical at 1 and 4 shards, each within 10 s"

echo "=== scale-run rejects --shards outside 1-256 as a usage error ==="
# Both values are refused before the artifact is loaded or a thread starts.
for shards in 0 100000; do
  status=0
  "$BUILD_DIR"/examples/shamfinder_cli scale-run --db-file "$TMP/db.artifact" \
    --zone "com:$TMP/sliced.zone" --shards "$shards" >/dev/null 2>"$TMP/shards.err" ||
    status=$?
  [ "$status" -eq 2 ] || { echo "--shards $shards exited $status, not 2"; exit 1; }
  grep -q -- '--shards' "$TMP/shards.err" || {
    echo "--shards $shards: no diagnostic naming the flag:"; cat "$TMP/shards.err"; exit 1
  }
done
echo "    --shards 0 and --shards 100000 exit 2 naming --shards"

echo "=== scale-run fails on a zone path that is a directory ==="
mkdir "$TMP/zonedir"
for shards in 1 4; do
  if "$BUILD_DIR"/examples/shamfinder_cli scale-run --db-file "$TMP/db.artifact" \
      --zone "com:$TMP/zonedir" --shards "$shards" >/dev/null 2>"$TMP/dir.err"; then
    echo "a directory was scanned as a zone at $shards shard(s)"; exit 1
  fi
  grep -q 'directory' "$TMP/dir.err" || { echo "no diagnostic:"; cat "$TMP/dir.err"; exit 1; }
done
echo "    rejected with a diagnostic at 1 and 4 slices"

echo "=== scale-run fails on a FIFO zone without waiting for a writer ==="
mkfifo "$TMP/zone.fifo"
status=0
timeout 10 "$BUILD_DIR"/examples/shamfinder_cli scale-run --db-file "$TMP/db.artifact" \
  --zone "com:$TMP/zone.fifo" >/dev/null 2>"$TMP/fifo.err" || status=$?
if [ "$status" -eq 0 ] || [ "$status" -eq 124 ]; then
  echo "FIFO zone: exit $status (124: still waiting after 10 s)"; exit 1
fi
grep -q "$TMP/zone.fifo" "$TMP/fifo.err" || { echo "no diagnostic naming the FIFO:"; cat "$TMP/fifo.err"; exit 1; }
echo "    exit $status, naming the path"

echo "=== scale-run rejects an artifact without references ==="
"$BUILD_DIR"/examples/shamfinder_cli build-db "$TMP/norefs.artifact" >/dev/null 2>&1
if "$BUILD_DIR"/examples/shamfinder_cli scale-run --db-file "$TMP/norefs.artifact" \
    --zone "com:$TMP/com.zone" >/dev/null 2>&1; then
  echo "reference-free artifact was accepted"
  exit 1
fi
echo "    rejected (non-zero exit)"

echo "=== tier-1 suite: ctest -j8, repeated until failure (20 runs) ==="
# Test processes run side by side; every process must keep to its own
# temporary files.
cmake --build "$BUILD_DIR" -j >/dev/null
if ! (cd "$BUILD_DIR" && ctest -j8 --repeat until-fail:20 --output-on-failure \
        > "$TMP/ctest.log" 2>&1); then
  tail -60 "$TMP/ctest.log"; exit 1
fi
grep 'tests passed' "$TMP/ctest.log"

echo "scale pipeline end-to-end: PASS"
