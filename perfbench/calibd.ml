(* The calibration kernel's process (see calib.ml): one pass on a fresh
   working set, then exit. *)

let () = Perfbench.Calib.pass ()
