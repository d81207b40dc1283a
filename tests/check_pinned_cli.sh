#!/usr/bin/env bash
# Diff the output of the qposc console script on PATH against every pinned
# table: the README examples and the reference curves.  Each line of a
# directory's examples.txt is "<name> <argv...>", pinned in <name>.csv.
# Exits non-zero, with the diff, at the first table that differs.
#
#   bash tests/check_pinned_cli.sh
set -eo pipefail
cd "$(dirname "$0")"
for dir in readme_cli reference_curves; do
  while read -r name argv; do
    qposc $argv | diff - "$dir/$name.csv"
  done < "$dir/examples.txt"
done
