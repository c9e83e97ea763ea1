type snapshot = {
  name : string;
  acquires : int;
  waits : int;
  wait_ns : int;
  hold_ns : int;
  max_wait_ns : int;
  max_hold_ns : int;
}

let enable_timing ~clock:_ = ()
let disable_timing () = ()
