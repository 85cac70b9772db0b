#!/bin/sh
# End-to-end check of the memory-mapped DB artifact: build the tree, run
# the artifact test suite and the db_load smoke (round-trip byte-identity
# plus corruption fuzzing), then drive the CLI the way a user would —
# usage errors that must exit 2 without writing anything (bad numbers,
# unknown or valueless flags, stray positional arguments and --help on
# every command among them, caught before any database is built), build-db
# (whose artifact carries no glyph-panel section), check --db-file vs the
# font-built path, and a corrupt-artifact rejection probe.
#
#   $ tools/check_db.sh                 # uses ./build (configures if absent)
#   $ BUILD_DIR=build-asan tools/check_db.sh
set -e
cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build}"
case "$BUILD_DIR" in
  /*) ;;
  *) BUILD_DIR="$(pwd)/$BUILD_DIR" ;;
esac
CLI="$BUILD_DIR"/examples/shamfinder_cli

cmake -B "$BUILD_DIR" -S . >/dev/null
cmake --build "$BUILD_DIR" --target test_db db_load shamfinder_cli -j >/dev/null

echo "=== artifact test suite ==="
"$BUILD_DIR"/tests/test_db --gtest_brief=1

echo "=== db_load smoke (round trip + corruption fuzz) ==="
"$BUILD_DIR"/bench/db_load --smoke

ARTIFACT=$(mktemp -u /tmp/sham_check_db.XXXXXX.artifact)
WORK=$(mktemp -d /tmp/sham_check_db.XXXXXX)
STDERR=$(mktemp /tmp/sham_check_db.XXXXXX.stderr)
trap 'rm -f "$ARTIFACT" "$ARTIFACT.corrupt" "$STDERR"; rm -rf "$WORK"' EXIT

echo "=== CLI: usage errors exit 2 and write nothing ==="
# Runs "$@" inside the empty $WORK directory and requires exit status 2
# with $WORK still empty afterwards: a mistyped flag must never become an
# output file name.
expect_usage_error() {
  status=0
  (cd "$WORK" && "$@") >/dev/null 2>&1 || status=$?
  if [ "$status" -ne 2 ]; then
    echo "expected exit 2, got $status: $*"
    exit 1
  fi
  if [ -n "$(ls -A "$WORK")" ]; then
    echo "wrote files on a usage error: $*"
    ls -A "$WORK"
    exit 1
  fi
  echo "    exit 2, nothing written: ${*#"$CLI" }"
}
expect_usage_error "$CLI" build-db --help
expect_usage_error "$CLI" build-db -h
expect_usage_error "$CLI" build-db out.artifact --help
expect_usage_error "$CLI" build-db -out.artifact --refs google
expect_usage_error "$CLI" build-db out.artifact --no-panel
expect_usage_error "$CLI" check xn--ggle-0nda.com --refs google --strategy parallel
expect_usage_error "$CLI" scale-run --db-file x --domains 10 --strategy indexed

echo "=== CLI: bad numbers and --help fail before any work, naming the flag ==="
# Like expect_usage_error, and stderr must contain $1 and must not show a
# database build: the arguments are checked before anything is built.
expect_usage_naming() {
  expected="$1"
  shift
  status=0
  (cd "$WORK" && "$@") >/dev/null 2>"$STDERR" || status=$?
  if [ "$status" -ne 2 ] || [ -n "$(ls -A "$WORK")" ]; then
    echo "expected exit 2 and no output files, got $status: $*"
    exit 1
  fi
  if ! grep -q -- "$expected" "$STDERR" || grep -q '^\[db\]' "$STDERR"; then
    echo "stderr does not name '$expected' before any work: $*"
    cat "$STDERR"
    exit 1
  fi
  echo "    exit 2, names '$expected': ${*#"$CLI" }"
}
expect_usage_naming "--domains" "$CLI" scale-run --db-file x --domains abc
expect_usage_naming "--shards" "$CLI" scale-run --db-file x --domains 10 --shards -1
expect_usage_naming "--batch" "$CLI" scale-run --db-file x --domains 10 --batch 99999999999999999999999
expect_usage_naming "--seed" "$CLI" scale-run --db-file x --domains 10 --seed 12x
expect_usage_naming "--threads" "$CLI" check xn--ggle-0nda.com --refs google \
  --threads 99999999999999999999999
expect_usage_naming "--repeat" "$CLI" check xn--ggle-0nda.com --refs google --repeat 2x
expect_usage_naming "--slots" "$CLI" serve --refs google --slots many
expect_usage_naming "max" "$CLI" candidates google lots
expect_usage_naming "usage:" "$CLI" check --help
expect_usage_naming "usage:" "$CLI" check xn--ggle-0nda.com --refs google -h
expect_usage_naming "usage:" "$CLI" scale-run --help
expect_usage_naming "usage:" "$CLI" scale-run --db-file x --domains 10 -h
expect_usage_naming "slices per zone" "$CLI" scale-run --help
for command in inspect candidates revert policy serve replay; do
  expect_usage_naming "usage:" "$CLI" "$command" --help
done
expect_usage_naming "unknown argument --thread" "$CLI" check xn--ggle-0nda.com \
  --refs google --thread 4
expect_usage_naming "--threads needs a value" "$CLI" check xn--ggle-0nda.com \
  --refs google --threads
expect_usage_naming "domain '--refs'" "$CLI" check --refs google xn--ggle-0nda.com
expect_usage_naming "unexpected argument 'extra'" "$CLI" candidates google 3 extra
expect_usage_naming "unexpected argument 'extra'" "$CLI" revert xn--ggle-0nda.com extra
expect_usage_naming "unexpected argument 'extra'" "$CLI" policy xn--ggle-0nda.com extra
expect_usage_naming "unexpected argument 'b'" "$CLI" inspect a b
expect_usage_naming "'-x' starts with '-'" "$CLI" candidates -x
expect_usage_naming "'--foo' starts with '-'" "$CLI" revert --foo
expect_usage_naming "'--strict' starts with '-'" "$CLI" policy --strict xn--ggle-0nda.com
expect_usage_naming "'abc' is neither U+XXXX nor one character" "$CLI" inspect abc
expect_usage_naming "'-x' is neither U+XXXX nor one character" "$CLI" inspect -x
expect_usage_naming "'U+110000' is neither U+XXXX nor one character" "$CLI" inspect U+110000

echo "=== CLI: inspect takes '-' as a character ==="
for arg in - U+002D; do
  if ! "$CLI" inspect "$arg" 2>/dev/null | grep -q '^U+002D'; then
    echo "inspect $arg did not describe U+002D"
    exit 1
  fi
  echo "    inspect $arg: describes U+002D"
done

echo "=== CLI: build-db -> check --db-file vs font-built check ==="
"$CLI" build-db "$ARTIFACT" \
  --refs google,amazon,facebook,wikipedia,paypal
# The retired glyph-panel section must not come back.
if grep -q GPAN "$ARTIFACT"; then
  echo "build-db wrote a GPAN section"
  exit 1
fi

# The two paths must agree verdict-for-verdict (stdout carries the
# warnings; stderr the build/load chatter). `check` exits 1 on a detected
# homograph, 0 on clean — both are expected outcomes here.
for domain in xn--ggle-55da.com xn--amazn-uce.com wikipedia.com; do
  built=$("$CLI" check "$domain" \
    --refs google,amazon,facebook,wikipedia,paypal 2>/dev/null) || true
  mapped=$("$CLI" check "$domain" \
    --db-file "$ARTIFACT" 2>/dev/null) || true
  if [ "$built" != "$mapped" ]; then
    echo "MISMATCH for $domain:"
    echo "--- font-built ---"; echo "$built"
    echo "--- db-file ---"; echo "$mapped"
    exit 1
  fi
  echo "    $domain: identical verdict"
done

echo "=== corrupt artifact rejected with a diagnostic ==="
cp "$ARTIFACT" "$ARTIFACT.corrupt"
# Flip one byte in the middle of the file (payload region).
size=$(wc -c < "$ARTIFACT.corrupt")
printf '\377' | dd of="$ARTIFACT.corrupt" bs=1 seek=$((size / 2)) conv=notrunc 2>/dev/null
if "$CLI" check wikipedia.com \
    --db-file "$ARTIFACT.corrupt" 2>/dev/null; then
  echo "corrupt artifact was accepted"
  exit 1
fi
echo "    rejected (non-zero exit)"

echo "db artifact end-to-end: PASS"
