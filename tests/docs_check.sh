#!/usr/bin/env bash
# docs_check: keeps the documentation honest.
#
#   1. Extracts every fenced ```sh block from README.md and docs/*.md and
#      runs it line-by-line against the built tree. A line passes when it
#      exits 0 or 2 (2 is the CLI's "differences found" status). Blocks
#      preceded by an HTML comment `<!-- docs-check: skip -->` are not run
#      (use it for illustrative output or heavy commands like full builds).
#      Occurrences of `build/` in a command resolve to the actual build
#      directory, so docs can show the conventional layout.
#   2. Cross-checks docs/cli.md against `campion --help`,
#      `campion_trace_diff --help`, and `campion_serve --help`: every flag
#      a binary advertises must be documented, and every flag the manual
#      documents must exist in one of them.
#   3. Cross-checks docs/daemon.md against the daemon: every campion_serve
#      flag must appear in the API reference, and every documented
#      endpoint path must be one the daemon actually serves (and vice
#      versa for the canonical endpoint list below).
#   4. Cross-checks docs/trace_format.md against a live daemon: starts
#      campion_serve on an ephemeral port, runs one /diff and one /batch of
#      examples/configs, scrapes /metrics in both formats, and fails on any
#      metric family the vocabulary does not name.
#
# Usage: docs_check.sh <source_dir> <build_dir> <campion_binary> \
#                      <trace_diff_binary> <campion_serve_binary>

set -u

SRC_DIR=$1
BUILD_DIR=$2
CAMPION=$3
TRACE_DIFF=$4
CAMPION_SERVE=$5

failures=0

# Fenced blocks run in a scratch directory that mirrors the repo layout
# for read-only inputs (examples/, docs/) so relative paths in the docs
# work while any files the commands write stay out of the source tree.
WORKDIR=$(mktemp -d)
SERVE_PID=""
trap '[ -n "$SERVE_PID" ] && kill "$SERVE_PID" 2>/dev/null; rm -rf "$WORKDIR"' EXIT
ln -s "$SRC_DIR/examples" "$WORKDIR/examples"
ln -s "$SRC_DIR/docs" "$WORKDIR/docs"

run_line() {
  local file=$1 lineno=$2 cmd=$3
  # Map the documented `build/...` paths onto the real build directory.
  # Normalize "./build/" first so one substitution covers both spellings
  # (the replacement text of ${var//} is not rescanned, so a BUILD_DIR
  # that itself ends in "build" cannot recurse).
  cmd=${cmd//.\/build\//build\/}
  cmd=${cmd//build\//$BUILD_DIR/}
  ( cd "$WORKDIR" && eval "$cmd" ) >/dev/null 2>&1
  local status=$?
  if [ $status -ne 0 ] && [ $status -ne 2 ]; then
    echo "FAIL $file:$lineno: exit $status: $cmd"
    failures=$((failures + 1))
  else
    echo "ok   $file:$lineno: $cmd"
  fi
}

check_file() {
  local file=$1
  local in_block=0 skip_next=0 lineno=0 pending="" block_skipped=0
  while IFS= read -r line || [ -n "$line" ]; do
    lineno=$((lineno + 1))
    if [ $in_block -eq 0 ]; then
      case $line in
        *'<!-- docs-check: skip -->'*) skip_next=1 ;;
        '```sh'*)
          in_block=1
          block_skipped=$skip_next
          skip_next=0
          ;;
        '```'*) skip_next=0 ;;  # Non-sh fence: the marker, if any, is spent.
      esac
      continue
    fi
    if [ "$line" = '```' ]; then
      in_block=0
      pending=""
      continue
    fi
    [ "$block_skipped" -eq 1 ] && continue
    case $line in
      ''|'#'*) continue ;;  # Blank lines and comments.
    esac
    # Stitch backslash continuations into one command.
    case $line in
      *\\)
        pending="$pending${line%\\} "
        continue
        ;;
    esac
    run_line "${file#"$SRC_DIR"/}" "$lineno" "$pending$line"
    pending=""
  done < "$file"
}

echo "== running fenced sh blocks =="
check_file "$SRC_DIR/README.md"
for doc in "$SRC_DIR"/docs/*.md; do
  check_file "$doc"
done

echo "== cross-checking docs/cli.md against --help =="
help_text=$("$CAMPION" --help; "$TRACE_DIFF" --help; "$CAMPION_SERVE" --help)
help_flags=$(printf '%s\n' "$help_text" | grep -oE -- '--[a-z][a-z0-9_-]*' | sort -u)
doc_flags=$(grep -oE -- '--[a-z][a-z0-9_-]*' "$SRC_DIR/docs/cli.md" | sort -u)
for flag in $help_flags; do
  if ! printf '%s\n' "$doc_flags" | grep -qx -- "$flag"; then
    echo "FAIL docs/cli.md does not document $flag"
    failures=$((failures + 1))
  fi
done
for flag in $doc_flags; do
  case $flag in
    # Flags of the bench binaries, not of campion; cli.md may mention them
    # in its see-also section.
    --bench_out|--benchmark_min_time|--benchmark_filter) continue ;;
  esac
  if ! printf '%s\n' "$help_flags" | grep -qx -- "$flag"; then
    echo "FAIL docs/cli.md documents unknown flag $flag"
    failures=$((failures + 1))
  fi
done

echo "== cross-checking docs/daemon.md against campion_serve =="
DAEMON_MD=$SRC_DIR/docs/daemon.md
if [ ! -f "$DAEMON_MD" ]; then
  echo "FAIL docs/daemon.md is missing"
  failures=$((failures + 1))
else
  serve_flags=$("$CAMPION_SERVE" --help | grep -oE -- '--[a-z][a-z0-9_-]*' | sort -u)
  for flag in $serve_flags; do
    if ! grep -qF -- "$flag" "$DAEMON_MD"; then
      echo "FAIL docs/daemon.md does not document $flag"
      failures=$((failures + 1))
    fi
  done
  # The daemon's endpoint table, kept in sync with DiffService::Handle.
  for endpoint in /healthz /metrics /diff /batch /sessions /debug/requests /debug/cache /debug/result_cache /debug/sessions; do
    if ! grep -qF -- "$endpoint" "$DAEMON_MD"; then
      echo "FAIL docs/daemon.md does not document endpoint $endpoint"
      failures=$((failures + 1))
    fi
  done
  # Conversely, refuse paths documented as endpoints but never implemented:
  # any `/word` rendered in backticks must be a known prefix.
  while IFS= read -r documented; do
    case $documented in
      /healthz|/metrics|/diff|/batch|/sessions|/sessions/*|/debug/requests|/debug/requests/*|/debug/cache|/debug/result_cache|/debug/sessions) ;;
      *)
        echo "FAIL docs/daemon.md documents unknown endpoint $documented"
        failures=$((failures + 1))
        ;;
    esac
  done < <(grep -oE '`(GET|PUT|POST|DELETE) /[^`]*`' "$DAEMON_MD" \
             | sed -E 's/`[A-Z]+ ([^`?]*).*/\1/' | sort -u)
fi

echo "== cross-checking /metrics against docs/trace_format.md =="
TRACE_MD=$SRC_DIR/docs/trace_format.md
# Every name the vocabulary spells out: backticked dotted names with
# {a,b} alternations expanded, plus each `prefix.` table row's prefix
# joined with every backticked name in its Names column.
documented=$(
  set -f  # `.*` families stay literal.
  grep -oE '`[a-z_]+\.[a-z0-9_.{},*]*`' "$TRACE_MD" | tr -d '`' |
    while IFS= read -r name; do eval "printf '%s\n' $name"; done
  awk -F'|' '$2 ~ /^ `[a-z_]+\.`/ {
    split($2, prefix, "`")
    n = split($3, names, "`")
    for (i = 2; i <= n; i += 2) print prefix[2] names[i]
  }' "$TRACE_MD"
)
"$CAMPION_SERVE" --port=0 --http_threads=2 > "$WORKDIR/serve.log" 2>&1 &
SERVE_PID=$!
port=""
for _ in $(seq 1 50); do
  port=$(sed -nE 's|.*listening on http://[0-9.]+:([0-9]+)/.*|\1|p' "$WORKDIR/serve.log")
  [ -n "$port" ] && break
  sleep 0.1
done
cfg=$SRC_DIR/examples/configs
pair() {  # name config1 config2
  jq -n --arg name "$1" --rawfile c1 "$cfg/$2" --rawfile c2 "$cfg/$3" \
    '{name: $name, config1: $c1, config2: $c2}'
}
if [ -z "$port" ]; then
  echo "FAIL campion_serve did not start: $(cat "$WORKDIR/serve.log")"
  failures=$((failures + 1))
elif ! pair fig1 fig1_cisco.cfg fig1_juniper.cfg |
       curl -sf -X POST "localhost:$port/diff" --data-binary @- -o /dev/null ||
     ! { pair core university_core_cisco.cfg university_core_juniper.conf
         pair border university_border_cisco.cfg university_border_juniper.conf
         pair dualstack dualstack_edge_cisco.cfg dualstack_edge_juniper.conf
       } | jq -s '{pairs: .}' |
       curl -sf -X POST "localhost:$port/batch" --data-binary @- -o /dev/null; then
  echo "FAIL POST /diff or /batch of examples/configs did not answer 200"
  failures=$((failures + 1))
else
  # Text samples by name, the quantile blocks as their `.*` family; the
  # Prometheus histogram families by name.
  families=$(
    curl -sf "localhost:$port/metrics" | cut -d' ' -f1 |
      sed -E 's/^(server\.(latency|phase)\.[a-z_]+)\.(count|mean_ns|p50_ns|p95_ns|p99_ns)$/\1.*/' |
      sort -u
    curl -sf "localhost:$port/metrics?format=prometheus" |
      awk '$1 == "#" && $4 == "histogram" {print $3}'
  )
  for family in $families; do
    if ! printf '%s\n' "$documented" | grep -qxF -- "$family" &&
       ! grep -qF -e "\`$family\`" -e "\`$family{" "$TRACE_MD"; then
      echo "FAIL docs/trace_format.md does not name metric family $family"
      failures=$((failures + 1))
    fi
  done
  echo "ok   $(printf '%s\n' $families | wc -l) metric families named"
fi
kill "$SERVE_PID" 2>/dev/null
wait "$SERVE_PID" 2>/dev/null
SERVE_PID=""

if [ $failures -ne 0 ]; then
  echo "docs_check: $failures failure(s)"
  exit 1
fi
echo "docs_check: all documentation commands and flags verified"
