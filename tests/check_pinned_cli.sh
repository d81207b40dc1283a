#!/usr/bin/env bash
# Diff the output of the qposc CLI against every pinned table: the README
# examples and the reference curves.  Each line of a directory's
# examples.txt is "<name> <argv...>", pinned in <name>.csv.  The CLI is the
# command given as the arguments, by default the qposc console script on
# PATH.  Exits non-zero, with the diff, at the first table that differs, and
# with one line if the command is not found.
#
#   bash tests/check_pinned_cli.sh
#   PYTHONPATH=src bash tests/check_pinned_cli.sh python -m qposc.cli
set -eo pipefail
cli=("${@:-qposc}")
if ! command -v "${cli[0]}" >/dev/null; then
  echo "check_pinned_cli.sh: ${cli[0]} not found; install the package for the qposc console script" >&2
  exit 1
fi
here="$(dirname "$0")"
for dir in readme_cli reference_curves; do
  while read -r name argv; do
    "${cli[@]}" $argv | diff - "$here/$dir/$name.csv"
  done < "$here/$dir/examples.txt"
done
