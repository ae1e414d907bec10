(* Shared pieces of the workload runners. *)

type outcome = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float * string) list;  (** name, value, unit *)
}

(* A wrong answer, with its accuracy in dB when it could be measured
   ([nan] otherwise) so that a failing run still reports it. *)
exception Wrong of { msg : string; accuracy : float }

let wrong ?(accuracy = nan) fmt =
  Printf.ksprintf (fun msg -> raise (Wrong { msg; accuracy })) fmt

let work_dir = "_perfbench"
let opm_sim = "_build/default/bin/opm_sim.exe"
let opm_serve = "_build/default/bin/opm_serve.exe"
let calibd = "_build/default/perfbench/calibd.exe"
let work file = Filename.concat work_dir file

(* seconds, spawn to reap, of one pass of the calibration kernel
   (calib.ml), on the CPU the harness is pinned to *)
let calibrate () =
  let r =
    Perfbench.Proc.run ~prog:calibd ~args:[] ~stdout_file:(work "calibd.out")
      ~stderr_file:(work "calibd.err")
  in
  if r.exit_code <> 0 then failwith (Printf.sprintf "calibd exited %d" r.exit_code);
  r.wall_s

let note fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s)) fmt

(* Relative error as accuracy in dB (higher is better), floored at the
   9 significant digits opm_sim prints: agreement beyond them cannot be
   observed through its output. *)
let accuracy_db rel =
  if Float.is_nan rel then nan else -20.0 *. Float.log10 (Float.max rel 1e-9)

(* stacked 2-norm relative error over equally shaped channel arrays *)
let rel_error ~reference got =
  let num = ref 0.0 and den = ref 0.0 in
  Array.iteri
    (fun c ch ->
      Array.iteri
        (fun k r ->
          let d = got.(c).(k) -. r in
          num := !num +. (d *. d);
          den := !den +. (r *. r))
        ch)
    reference;
  sqrt (!num /. !den)

(* opm_sim's transient CSV: header row, then t and one column per
   probe. Raises [Wrong] on anything else. *)
let parse_csv ~rows ~cols text =
  match String.split_on_char '\n' (String.trim text) with
  | [] -> wrong "empty output"
  | _header :: lines ->
      if List.length lines <> rows then
        wrong "%d rows, expected %d" (List.length lines) rows;
      let data =
        Array.of_list
          (List.map
             (fun l ->
               let fs = Array.of_list (String.split_on_char ',' l) in
               if Array.length fs <> cols + 1 then wrong "bad row: %s" l;
               Array.map
                 (fun f ->
                   match float_of_string_opt f with
                   | Some v -> v
                   | None -> wrong "bad number: %s" f)
                 fs)
             lines)
      in
      Array.iter
        (Array.iter (fun v ->
             if not (Float.is_finite v) then wrong "non-finite value"))
        data;
      let times = Array.map (fun r -> r.(0)) data in
      (times, Array.init cols (fun c -> Array.map (fun r -> r.(c + 1)) data))
