#!/usr/bin/env bash
# Fails when the serving front end links code that only reproduces the
# paper: any symbol of the sofa::numeric, sofa::elastic, sofa::subseq,
# sofa::scan or sofa::flat namespaces in the given binary. Those
# modules serve paper_cli and the benches; the static library only
# contributes the objects a binary references, so one stray call from
# sofa_cli would pull a module back in. sofa::sax stays linked: .idx
# files name their scheme, and the index loader decodes both.
#
# Usage: check_serving_symbols.sh <sofa_cli-binary>
# Registered as the `serving_symbols` ctest (label: unit).

set -eu

if [ "$#" -ne 1 ]; then
  echo "usage: $0 <sofa_cli-binary>" >&2
  exit 2
fi

symbols="$(nm -C "$1")"
# A binary without symbols would pass vacuously; the server's own
# namespace must be there.
if ! printf '%s\n' "$symbols" | grep -q 'sofa::net::'; then
  echo "no sofa::net:: symbols in $1 (stripped binary?)" >&2
  exit 1
fi
status=0
for module in numeric elastic subseq scan flat; do
  count="$(printf '%s\n' "$symbols" | grep -c "sofa::$module::" || true)"
  echo "sofa::$module:: $count"
  if [ "$count" -ne 0 ]; then
    printf '%s\n' "$symbols" | grep "sofa::$module::" | head -n 5 >&2
    status=1
  fi
done
exit "$status"
