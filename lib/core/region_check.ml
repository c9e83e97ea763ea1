(* Shared regionCreate argument validation (Table 2).

   Every GMI implementation — the PVM (Region.create), the eager
   minimal manager and the software simulator — must reject the same
   malformed requests with the same errors.  The checks were once
   copy-pasted per implementation; they live here so the messages and
   the order of the checks stay uniform. *)

let require_live ~what alive =
  if not alive then invalid_arg ("regionCreate: " ^ what ^ " destroyed")

let overlap ~addr ~size a s = addr < a + s && a < addr + size

let validate ~page_size ~ctx_alive ~cache_alive ~addr ~size ~offset ~overlaps =
  require_live ~what:"context" ctx_alive;
  require_live ~what:"cache" cache_alive;
  if size <= 0 then invalid_arg "regionCreate: size <= 0";
  if addr mod page_size <> 0 || size mod page_size <> 0
     || offset mod page_size <> 0
  then invalid_arg "regionCreate: unaligned address, size or offset";
  if overlaps then invalid_arg "regionCreate: regions overlap"
