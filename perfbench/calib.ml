(* A fixed calibration kernel that measures how fast the machine runs
   right now.

   On a shared host the same opm_sim invocation takes from 1.0x to 2.0x
   its uncontended time, and the slowdown holds for minutes, so a whole
   run can land in a slow period: over ten runs of identical code the
   median wall time spread by 17-45 % of itself, whatever quantile of a
   run was reported. The harness therefore runs this kernel next to
   every timed operation and reports the operation's time in units of
   the kernel's, scaled to seconds of a reference machine.

   The kernel does two kinds of the work the programs do: dense
   floating-point arithmetic (operational matrices, dense LU) and
   allocation-heavy, branchy symbolic work on short-lived values (it
   prints a netlist-like text, splits and parses it into a map and a
   hash table, sorts, and prints and parses floats: parsing, stamping,
   CSV and JSON output, the GC). It runs as a fresh process
   ([calibd.exe]), timed from spawn to reap like an opm_sim
   invocation. Both choices were measured on 14 windows of 30 s of
   interleaved opm_sim runs: a fresh process tracks the programs far
   better than a long-lived one (served requests slowed 1.6x while a
   long-lived kernel slowed 1.2x), and a part that streams or chases
   through a 32 MB array tracked worst (the workloads' time divided by
   it spread 0.06-0.07 across windows; by dense plus symbolic work,
   0.02-0.035; raw, 0.08-0.12).

   The kernel belongs to the benchmark, not to the program under test,
   so a change to the program cannot move it. It never runs in the
   harness: a child's peak RSS as wait4 reports it includes the peak
   RSS of the process that spawned it. *)

let dense_n = 96
let dense_reps = 6
let lines = 8_000

(* uncontended seconds of one pass, spawn to reap, on the reference
   machine (a 2-vCPU Xeon VM at 2.1 GHz); normalised times are seconds
   of that machine *)
let nominal_s = 0.070

module Smap = Map.Make (String)

(* one pass; returns a checksum so that none of the work can be
   skipped *)
let work () =
  let n = dense_n in
  let a = Array.init (n * n) (fun i -> float_of_int ((i * 7919) mod 1009) /. 1009.0) in
  let b = Array.init (n * n) (fun i -> float_of_int ((i * 104729) mod 997) /. 997.0) in
  let c = Array.make (n * n) 0.0 in
  for _ = 1 to dense_reps do
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        let acc = ref 0.0 in
        for k = 0 to n - 1 do
          acc := !acc +. (Array.unsafe_get a ((i * n) + k) *. Array.unsafe_get b ((k * n) + j))
        done;
        Array.unsafe_set c ((i * n) + j) !acc
      done
    done
  done;
  let buf = Buffer.create (1 lsl 18) in
  for i = 0 to lines - 1 do
    Printf.bprintf buf "R%d n%d_%d n%d_%d %.6g\n" i (i mod 97) (i / 97)
      ((i + 1) mod 97) (i / 97) (float_of_int i *. 1.37)
  done;
  let elements =
    List.fold_left
      (fun m line ->
        match String.split_on_char ' ' line with
        | [ name; p; q; v ] -> Smap.add name (p, q, float_of_string v) m
        | _ -> m)
      Smap.empty
      (String.split_on_char '\n' (Buffer.contents buf))
  in
  let nodes = Hashtbl.create 1024 in
  Smap.iter
    (fun _ (p, q, v) ->
      Hashtbl.replace nodes p v;
      Hashtbl.replace nodes q (v +. 1.0))
    elements;
  let sorted = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) nodes []) in
  let printed =
    List.fold_left
      (fun acc (_, v) -> acc +. float_of_string (Printf.sprintf "%.17g" v))
      0.0 sorted
  in
  c.(n + 1) +. printed

(* [calibd.exe]: one pass *)
let pass () = ignore (Sys.opaque_identity (work ()))

(* [x] seconds measured while a pass took [cal] seconds, as seconds of
   the reference machine *)
let normalise ~cal x = x /. cal *. nominal_s
