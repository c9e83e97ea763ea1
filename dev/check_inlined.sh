#!/bin/sh
# Check that the hot helpers marked [@inline] stay inlined.
#
# Run from the root of the repository after `dune build` (the default
# `opt` profile; the -opaque `--profile dev` build inlines nothing
# across modules and is not what this checks).  It disassembles the
# optimised objects of lib/core and lib/hw and fails when a call
# relocation still names one of the helpers below: a dropped
# [@inline], or a helper that grew into something ocamlopt will not
# inline (a local closure, a recursion, an optional argument with a
# default).  It also fails when a listed helper is no longer defined,
# so a renamed helper cannot pass unchecked.  DESIGN.md, "What
# inlines", says how the list was chosen.
set -eu

helpers='
Hw__Cost.span_of
Hw__Cost.prim_index
Hw__Cost.charge_traced
Obs__Metrics.charge
Core__Types.charge
Core__Types.charge_span
Core__Types.note_frag
Hw__Engine.sleep
Hw__Engine.advance_in_place
Hw__Engine.unobserved
Hw__Engine.now
Hw__Engine.current_fibre
Hw__Engine.ambient
Hw__Engine.note_ambient
Hw__Engine.note_access
Hw__Engine.heap_push
Hw__Engine.heap_pop
Hw__Engine.enter
Hw__Engine.push
Hw__Engine.schedule
Hw__Engine.more
Hw__Mmu.find
Hw__Mmu.translate
Hw__Phys_mem.alloc_index
Hw__Phys_mem.alloc_opt
Hw__Phys_mem.free
Hw__Phys_mem.bzero
Hw__Phys_mem.bcopy
Hw__Prot.make
Hw__Prot.remove_write
Hw__Prot.intersect
Core__Pmap.enter
Core__Pmap.mapped_page
Core__Pmap.page_at_index
Core__Frag_map.insert
Core__Frag_map.replace
Core__Frag_map.remove
Core__Global_map.set
Core__Global_map.remove
Core__Value.miss
Core__Value.pulled
Core__Parents.covering
Core__Parents.covers
Core__Parents.history
Core__Parents.history_off
Core__Install.has_swapped
Core__Pager.can_evict
Core__Fault.find_region
Core__Fault.fail_if_dead
Core__Fault.hist_index
Core__Reclaim.push
Core__Reclaim.remove
Core__Reclaim.oldest
Core__Reclaim.newer
'

build=_build/default/lib
callers="$build/core/.core.objs/native/*.o $build/hw/.hw.objs/native/*.o"
defined="$callers $build/obs/.obs.objs/native/*.o"
for f in $callers; do
  if [ ! -e "$f" ]; then
    echo "check_inlined: $f not found: run \`dune build\` first" >&2
    exit 2
  fi
done

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# Function symbols are caml<Module>.<name>_<stamp>; drop the stamp.
# shellcheck disable=SC2086
objdump -dr $callers |
  awk '$2 ~ /^R_X86_64_(PLT32|PC32)$/ { s = $3; sub(/[-+]0x[0-9a-f]+$/, "", s); print s }' |
  sed -n 's/^caml\(.*\)_[0-9][0-9]*$/\1/p' | sort | uniq -c >"$tmp/calls"
# shellcheck disable=SC2086
objdump -t $defined | awk '{ print $NF }' |
  sed -n 's/^caml\(.*\)_[0-9][0-9]*$/\1/p' | sort -u >"$tmp/defined"

status=0
for h in $helpers; do
  if ! grep -qxF "$h" "$tmp/defined"; then
    echo "check_inlined: $h is not defined (renamed or removed?)" >&2
    status=1
  fi
  n=$(awk -v h="$h" '$2 == h { print $1 }' "$tmp/calls")
  if [ -n "$n" ]; then
    echo "check_inlined: $n call(s) to $h remain in lib/core and lib/hw" >&2
    status=1
  fi
done
[ "$status" -eq 0 ] && echo "check_inlined: $(echo $helpers | wc -w) helpers inlined at every call site"
exit "$status"
