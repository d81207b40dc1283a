#!/usr/bin/env bash
# Diff the output of the qposc console script on PATH against every pinned
# table: the README examples and the reference curves.  Each line of a
# directory's examples.txt is "<name> <argv...>", pinned in <name>.csv.
# Exits non-zero, with the diff, at the first table that differs, and with
# one line if the console script is not installed.
#
#   bash tests/check_pinned_cli.sh
set -eo pipefail
if ! command -v qposc >/dev/null; then
  echo "check_pinned_cli.sh: no qposc console script on PATH; install the package first" >&2
  exit 1
fi
cd "$(dirname "$0")"
for dir in readme_cli reference_curves; do
  while read -r name argv; do
    qposc $argv | diff - "$dir/$name.csv"
  done < "$dir/examples.txt"
done
