(* perfbench — the repository benchmark.

     bash perfbench/run.sh --workload grid-tran --seed 1 --seconds 20 --trace 0

   builds opm_sim, opm_serve and this harness, then runs one workload:
   --trace 0 measures the programs end to end and prints the
   end-to-end metrics; --trace 1 replays the same pipeline in-process
   and prints the per-layer metrics. The last stdout line is one JSON
   object {correct, attempted, failed, metrics}; the line before it is
   the run's provenance. See perfbench/README.md. *)

module Json = Opm_obs.Json
open Common

let workloads = [ "grid-tran"; "grid-dc"; "frac-long"; "serve-mix" ]

(* sizes: see README.md for why each workload is shaped as it is *)
let grid_tran_n = 40
let grid_dc_n = 24
let frac_steps = 2048
let watchdog_s = 170.0

let git_rev () =
  let read p = String.trim (Perfbench.Proc.read_file p) in
  match read ".git/HEAD" with
  | head ->
      if String.length head > 5 && String.sub head 0 5 = "ref: " then
        let r = String.sub head 5 (String.length head - 5) in
        (try read (Filename.concat ".git" r) with Sys_error _ -> r)
      else head
  | exception Sys_error _ -> "unknown"

let provenance ~workload ~seed ~seconds ~trace =
  Json.Obj
    [
      ( "provenance",
        Json.Obj
          [
            ("git_rev", Json.String (git_rev ()));
            ("nproc", Json.Int (Domain.recommended_domain_count ()));
            ( "opm_domains",
              match Sys.getenv_opt "OPM_DOMAINS" with
              | Some d -> Json.String d
              | None -> Json.Null );
            ("ocaml", Json.String Sys.ocaml_version);
            ("workload", Json.String workload);
            ("seed", Json.Int seed);
            ("seconds", Json.Int seconds);
            ("trace", Json.Bool trace);
          ] );
    ]

let result_json (o : outcome) =
  Json.Obj
    [
      ("correct", Json.Bool o.correct);
      ("attempted", Json.Int o.attempted);
      ("failed", Json.Int o.failed);
      ( "metrics",
        Json.Obj
          (List.map
             (fun (name, v, unit) ->
               (name, Json.Obj [ ("value", Json.Float v); ("unit", Json.String unit) ]))
             o.metrics) );
    ]

(* End to end, the harness and every program it starts run on one CPU:
   the one the calibration kernel measures. Left to the scheduler, an
   opm_sim invocation landed on either of the two CPUs, one of them
   1.3-1.5x slower at the time, so wall times alternated between two
   levels that the kernel, on the other CPU, did not see; and the serve
   daemon sat on the CPU the client did not, its CPU time per request
   moving 7-12 ms between runs (6.1 ms, run after run, once pinned).
   The programs then see one CPU (Domain.recommended_domain_count
   follows the affinity mask), so their domain pools run serially and
   the end-to-end metrics are single-CPU costs. The traced pass is not
   pinned: it explains the programs' default configuration, pool
   included. *)
let run ~workload ~seed ~seconds ~trace =
  if not trace then begin
    let cpu = Perfbench.Proc.pin_here () in
    note "%s: harness and programs pinned to CPU %d" workload cpu
  end;
  let secs = float_of_int seconds in
  let cli spec = if trace then Cli.traced spec ~seconds:secs else Cli.measure spec ~seconds:secs in
  match workload with
  | "grid-tran" -> cli (Cli.grid_tran ~seed ~nx:grid_tran_n ~ny:grid_tran_n)
  | "grid-dc" -> cli (Cli.grid_dc ~seed ~nx:grid_dc_n ~ny:grid_dc_n)
  | "frac-long" -> cli (Cli.frac_long ~seed ~steps:frac_steps)
  | "serve-mix" ->
      if trace then Serve_mix.traced ~seed ~seconds:secs
      else Serve_mix.measure ~seed ~seconds:secs
  | w -> failwith ("unknown workload " ^ w)

let usage () =
  prerr_endline
    ("usage: main.exe --workload (" ^ String.concat "|" workloads
   ^ ") --seed N --seconds S --trace 0|1");
  exit 2

let () =
  let workload = ref "" and seed = ref None and seconds = ref 10 and trace = ref None in
  let rec parse = function
    | "--workload" :: w :: rest -> workload := w; parse rest
    | "--seed" :: s :: rest -> seed := int_of_string_opt s; parse rest
    | "--seconds" :: s :: rest ->
        (match int_of_string_opt s with Some s when s > 0 -> seconds := s | _ -> usage ());
        parse rest
    | "--trace" :: ("0" | "1" as t) :: rest -> trace := Some (t = "1"); parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  match (List.mem !workload workloads, !seed, !trace) with
  | true, Some seed, Some trace ->
      List.iter
        (fun exe ->
          if not (Sys.file_exists exe) then begin
            note "%s is missing; build with perfbench/run.sh" exe;
            exit 2
          end)
        [ opm_sim; opm_serve; calibd ];
      if not (Sys.file_exists work_dir) then Sys.mkdir work_dir 0o755;
      (* every child is stopped and reaped however the harness exits; a
         hung program ends the run well inside its 180 s limit *)
      at_exit Perfbench.Proc.kill_all;
      List.iter
        (fun sg -> Sys.set_signal sg (Sys.Signal_handle (fun _ -> exit 1)))
        [ Sys.sigint; Sys.sigterm ];
      ignore
        (Thread.create
           (fun () ->
             Unix.sleepf watchdog_s;
             note "%s: still running after %.0f s; stopping" !workload watchdog_s;
             exit 1)
           ());
      let o =
        try run ~workload:!workload ~seed ~seconds:!seconds ~trace
        with e ->
          note "%s failed: %s" !workload (Printexc.to_string e);
          exit 1
      in
      (* the printed set must be exactly the declared vocabulary, every
         value a number *)
      let declared =
        List.map (fun (n, u, _) -> (n, u))
          (if trace then Perfbench.Names.per_layer else Perfbench.Names.end_to_end)
      in
      if List.map (fun (n, _, u) -> (n, u)) o.metrics <> declared then begin
        note "%s: metric set differs from perfbench/names.ml" !workload;
        exit 1
      end;
      List.iter
        (fun (n, v, _) ->
          if not (Float.is_finite v) then begin
            note "%s: metric %s is not a number" !workload n;
            exit 1
          end)
        o.metrics;
      print_endline
        (Json.to_string (provenance ~workload:!workload ~seed ~seconds:!seconds ~trace));
      print_endline (Json.to_string (result_json o))
  | _ -> usage ()
