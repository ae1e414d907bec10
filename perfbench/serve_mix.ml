(* The serve-mix workload: a spawned opm_serve daemon driven closed-loop
   over one keep-alive connection, and the traced in-process replay of its
   request path (Protocol → Mna → fingerprint → Model_cache →
   Compiled_model → ok_body). *)

open Opm_core
module Gen = Perfbench.Gen
module Httpc = Perfbench.Httpc
module Proc = Perfbench.Proc
module Stats = Perfbench.Stats
module Json = Opm_obs.Json
module Protocol = Opm_serve.Protocol
module Model_cache = Opm_serve.Model_cache
module Waveform = Opm_signal.Waveform
open Common
module Layers = Perfbench.Layers
module Calib = Perfbench.Calib

let setups = 9
let cal_every = 0.5

(* ---- the daemon -------------------------------------------------- *)

type daemon = { pid : int; port : int }

let with_deadline ~what ~timeout_s f =
  let t0 = Unix.gettimeofday () in
  let rec go () =
    match f () with
    | Some v -> v
    | None ->
        if Unix.gettimeofday () -. t0 > timeout_s then
          failwith (what ^ ": timed out");
        Unix.sleepf 0.001;
        go ()
  in
  go ()

(* stdout and stderr go to files: a daemon whose stdout pipe closes
   first dies on the shutdown message with Sys_error "Broken pipe" *)
let spawn k =
  let log = work (Printf.sprintf "serve.%d.log" k) in
  let out = Unix.openfile log [ O_WRONLY; O_CREAT; O_TRUNC; O_CLOEXEC ] 0o644 in
  let err =
    Unix.openfile (work (Printf.sprintf "serve.%d.err" k))
      [ O_WRONLY; O_CREAT; O_TRUNC; O_CLOEXEC ] 0o644
  in
  let pid =
    Fun.protect
      ~finally:(fun () ->
        Unix.close out;
        Unix.close err)
      (fun () ->
        let pid =
          Unix.create_process opm_serve
            [| opm_serve; "--port"; "0" |]
            Unix.stdin out err
        in
        Proc.track pid;
        pid)
  in
  let port =
    with_deadline ~what:"opm_serve start" ~timeout_s:30.0 (fun () ->
        match Proc.read_file log with
        | s -> (
            try Scanf.sscanf s "opm_serve: listening on %_s@:%d" Option.some
            with Scanf.Scan_failure _ | End_of_file | Failure _ -> None))
  in
  { pid; port }

let wait_health d =
  with_deadline ~what:"GET /health" ~timeout_s:30.0 (fun () ->
      match Httpc.connect ~port:d.port with
      | c ->
          Fun.protect
            ~finally:(fun () -> Httpc.close c)
            (fun () ->
              match Httpc.request c ~meth:"GET" ~path:"/health" () with
              | { Httpc.status = 200; _ } -> Some ()
              | _ -> None
              | exception (Unix.Unix_error _ | Httpc.Malformed _) -> None)
      | exception Unix.Unix_error _ -> None)

(* SIGTERM, reap, and demand a clean exit 0 *)
let stop d =
  Unix.kill d.pid Sys.sigterm;
  let code = Proc.reap d.pid in
  if code <> 0 then note "serve-mix: opm_serve exited %d on SIGTERM" code;
  code = 0

(* ---- requests and their references -------------------------------- *)

type cls = Hot_bpf | Hot_spectral | Cold | Malformed

let class_of = function
  | Gen.Hot { basis = Gen.Bpf; _ } -> Hot_bpf
  | Gen.Hot { basis = Gen.Spectral; _ } -> Hot_spectral
  | Gen.Cold _ -> Cold
  | Gen.Malformed _ -> Malformed

(* the daemon's own request path, in-process: parse, stamp, compile,
   solve — the bit-identity reference for every served answer *)
let reference_outputs body =
  let p = Protocol.parse_request body in
  let a = p.Protocol.analysis in
  let sys, srcs =
    Opm_circuit.Mna.stamp ?outputs:(Protocol.probe_outputs a) p.Protocol.netlist
  in
  let grid = Opm_basis.Grid.uniform ~t_end:a.Protocol.t_end ~m:a.Protocol.steps in
  let model = Compiled_model.compile ~basis:a.Protocol.basis ~grid sys in
  (Compiled_model.solve model srcs).Sim_result.outputs

let bits_equal want got =
  Array.length want = List.length got
  && List.for_all2
       (fun w g ->
         match Json.to_float_opt g with
         | Some g -> Int64.bits_of_float g = Int64.bits_of_float w
         | None -> false)
       (Array.to_list want) got

let matches_bits (w : Waveform.t) body =
  match Json.of_string body with
  | exception Json.Parse_error _ -> false
  | doc -> (
      (match Json.member "times" doc with
      | Some (Json.List ts) -> bits_equal w.Waveform.times ts
      | _ -> false)
      &&
      match Json.member "outputs" doc with
      | Some (Json.List chs) ->
          List.length chs = Array.length w.Waveform.channels
          && List.for_all2
               (fun want ch ->
                 match ch with Json.List g -> bits_equal want g | _ -> false)
               (Array.to_list w.Waveform.channels)
               chs
      | _ -> false)

let structured_4xx status body =
  status >= 400 && status < 500
  &&
  match Json.of_string body with
  | doc -> (
      match Json.member "error" doc with Some (Json.Obj _) -> true | _ -> false)
  | exception Json.Parse_error _ -> false

type refs = { hot : (Gen.basis * int, Waveform.t) Hashtbl.t; seed : int }

let refs ~seed = { hot = Hashtbl.create 32; seed }

let check refs req status body =
  let hot_ref basis amp =
    match Hashtbl.find_opt refs.hot (basis, amp) with
    | Some w -> w
    | None ->
        let w = reference_outputs (Gen.body ~seed:refs.seed req) in
        Hashtbl.replace refs.hot (basis, amp) w;
        w
  in
  match req with
  | Gen.Hot { basis; amp } -> status = 200 && matches_bits (hot_ref basis amp) body
  | Gen.Cold _ ->
      status = 200 && matches_bits (reference_outputs (Gen.body ~seed:refs.seed req)) body
  | Gen.Malformed _ -> structured_4xx status body

(* ---- closed-loop client ------------------------------------------ *)

type sample = {
  req : Gen.request;
  latency_s : float;
  cpu_s : float;  (** the daemon's CPU time while it served the request *)
  block : int;  (** calibration block, see {!drive} *)
  reply : (int * string, string) result;
}

let hot_bodies ~seed =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun basis ->
      Array.iteri
        (fun amp _ ->
          let req = Gen.Hot { basis; amp } in
          Hashtbl.replace tbl (basis, amp) (Gen.body ~seed req))
        Gen.amplitudes)
    [ Gen.Bpf; Gen.Spectral ];
  fun req ->
    match req with
    | Gen.Hot { basis; amp } -> Hashtbl.find tbl (basis, amp)
    | _ -> Gen.body ~seed req

let post c body = Httpc.request c ~meth:"POST" ~path:"/solve" ~body ()

(* set-up: spawn, /health answers 200, and the two hot plants compiled *)
let set_up ~seed k =
  let cal0 = calibrate () in
  let t0 = Unix.gettimeofday () in
  let d = spawn k in
  wait_health d;
  let c = Httpc.connect ~port:d.port in
  let warm =
    List.map
      (fun basis ->
        let req = Gen.Hot { basis; amp = 0 } in
        let r = post c (Gen.body ~seed req) in
        (req, r))
      [ Gen.Bpf; Gen.Spectral ]
  in
  Httpc.close c;
  let t = Unix.gettimeofday () -. t0 in
  (* normalised by the mean of a calibration pass either side *)
  let cal = 0.5 *. (cal0 +. calibrate ()) in
  (d, Calib.normalise ~cal t, warm)

(* One closed-loop connection: with two, the daemon's threads serialise
   on the OCaml runtime lock and latency measured lock hand-off timing.
   A pass of the calibration kernel runs every [cal_every] seconds and
   once more at the end; [cals] holds their times, and the requests of
   block [b] ran between passes [b] and [b + 1]. *)
let drive d ~seed ~seconds =
  let body_of = hot_bodies ~seed in
  let sched = Gen.schedule ~seed ~conn:0 ~length:100_000 in
  let c = Httpc.connect ~port:d.port in
  let t0 = Unix.gettimeofday () in
  let deadline = t0 +. seconds in
  let cals = ref [ calibrate () ] and block = ref 0 in
  let next_cal = ref (Unix.gettimeofday () +. cal_every) in
  let rec go i acc =
    if Unix.gettimeofday () >= deadline then acc
    else begin
      if Unix.gettimeofday () >= !next_cal then begin
        cals := calibrate () :: !cals;
        incr block;
        next_cal := Unix.gettimeofday () +. cal_every
      end;
      let req = sched.(i) in
      let body = body_of req in
      let cpu0 = Proc.process_cpu_s d.pid in
      let t1 = Unix.gettimeofday () in
      let reply =
        match post c body with
        | { Httpc.status; body } -> Ok (status, body)
        | exception e -> Error (Printexc.to_string e)
      in
      let latency_s = Unix.gettimeofday () -. t1 in
      let cpu_s = Proc.process_cpu_s d.pid -. cpu0 in
      let s = { req; latency_s; cpu_s; block = !block; reply } in
      if Result.is_ok reply then go (i + 1) (s :: acc) else s :: acc
    end
  in
  let samples = List.rev (go 0 []) in
  let elapsed = Unix.gettimeofday () -. t0 in
  Httpc.close c;
  cals := calibrate () :: !cals;
  (samples, Array.of_list (List.rev !cals), elapsed)

(* the calibration time of a request: the mean of the passes either
   side of its block *)
let cal_of cals s = 0.5 *. (cals.(s.block) +. cals.(s.block + 1))

let verdicts refs samples =
  List.map
    (fun s ->
      let ok =
        match s.reply with
        | Ok (status, body) -> check refs s.req status body
        | Error msg ->
            note "serve-mix: request failed: %s" msg;
            false
      in
      if not ok then note "serve-mix: wrong or failed response";
      ok)
    samples

let warm_checks refs warm =
  List.map (fun (req, { Httpc.status; body }) -> check refs req status body) warm

(* accuracy of the served BPF answer against a trapezoidal reference at
   h/20 (responses are checked bit-identical to [refs], so the
   reference's accuracy is the served one's) *)
let accuracy refs =
  let req = Gen.Hot { basis = Gen.Bpf; amp = 0 } in
  let body = Gen.body ~seed:refs.seed req in
  let w = reference_outputs body in
  let p = Protocol.parse_request body in
  let sys, srcs =
    Opm_circuit.Mna.stamp_linear
      ?outputs:(Protocol.probe_outputs p.Protocol.analysis)
      p.Protocol.netlist
  in
  let h = Gen.serve_t_end /. float_of_int Gen.serve_steps in
  let trap =
    Opm_transient.Stepper.solve ~scheme:Opm_transient.Stepper.Trapezoidal
      ~h:(h /. 20.0) ~t_end:Gen.serve_t_end sys srcs
  in
  -.Opm_signal.Error.average_relative_error_db ~reference:trap w

let measure ~seed ~seconds =
  let refs = refs ~seed in
  let rec setups_from k acc =
    let d, s, warm = set_up ~seed k in
    if k + 1 < setups then begin
      let clean = stop d in
      setups_from (k + 1) ((s, warm, clean) :: acc)
    end
    else (d, List.rev ((s, warm, true) :: acc))
  in
  let d, setup = setups_from 0 [] in
  let samples, cals, elapsed = drive d ~seed ~seconds in
  let hwm = Proc.proc_hwm_mb d.pid in
  let clean_stop = stop d in
  (* correctness, outside timing *)
  let warm_ok =
    List.concat_map (fun (_, warm, clean) -> clean :: warm_checks refs warm) setup
  in
  let ok = (clean_stop :: warm_ok) @ verdicts refs samples in
  let failed = List.length (List.filter not ok) in
  let n = List.length samples in
  let of_class cls f =
    Array.of_list (List.filter_map (fun s -> if class_of s.req = cls then Some (f s) else None) samples)
  in
  let all = Array.of_list (List.map (fun s -> s.latency_s) samples) in
  note "serve-mix: %d requests, %.1f/s, tail p%.1f = %.2f ms; calibration p50 %.1f ms" n
    (float_of_int n /. elapsed) (Stats.tail_percentile n) (1e3 *. Stats.tail all)
    (1e3 *. Stats.median cals);
  List.iter
    (fun (cls, label) ->
      let l = of_class cls (fun s -> s.latency_s) in
      if Array.length l > 0 then
        note "serve-mix: %-9s %5d requests, p50 %.2f ms, max %.2f ms" label
          (Array.length l) (1e3 *. Stats.median l)
          (1e3 *. Array.fold_left Float.max 0.0 l))
    [ (Hot_bpf, "hot-bpf"); (Hot_spectral, "spectral"); (Cold, "cold"); (Malformed, "malformed") ];
  (* the timing metrics are those of the hot BPF class, the workload's
     main traffic: a quantile of the whole mix would sit on the boundary
     between classes and move with the schedule's class shares *)
  let hot f = of_class Hot_bpf (fun s -> Calib.normalise ~cal:(cal_of cals s) (f s)) in
  {
    correct = failed = 0;
    attempted = List.length ok;
    failed;
    metrics =
      [
        ("setup_s", Stats.median (Array.of_list (List.map (fun (s, _, _) -> s) setup)), "s");
        ("wall_ms", 1e3 *. Stats.median (hot (fun s -> s.latency_s)), "ms");
        ("cpu_s", Stats.median (hot (fun s -> s.cpu_s)), "s");
        ("peak_rss_mb", hwm, "MB");
        ("accuracy_db", accuracy refs, "dB");
      ];
  }

(* ---- traced pass ------------------------------------------------- *)

(* One request through the daemon's handler path, timed per layer. *)
let replay_request cache body =
  let p, parse_s = Layers.timed (fun () -> Protocol.parse_request body) in
  let a = p.Protocol.analysis in
  let (sys, srcs), stamp_s =
    Layers.timed (fun () ->
        Opm_circuit.Mna.stamp ?outputs:(Protocol.probe_outputs a) p.Protocol.netlist)
  in
  let key, fp_s =
    Layers.timed (fun () ->
        Protocol.fingerprint ~sys ~t_end:a.Protocol.t_end ~steps:a.Protocol.steps
          ~window:a.Protocol.window ~memory_len:a.Protocol.memory_len
          ~basis:a.Protocol.basis)
  in
  let compile_s = ref 0.0 and solve_s = ref 0.0 and encode_s = ref 0.0 in
  let factorisations = ref 0 in
  let encoded =
    Model_cache.with_model cache ~key
      ~compile:(fun () ->
        let grid = Opm_basis.Grid.uniform ~t_end:a.Protocol.t_end ~m:a.Protocol.steps in
        let m, s = Layers.timed (fun () -> Compiled_model.compile ~basis:a.Protocol.basis ~grid sys) in
        compile_s := s;
        m)
      (fun ~cached model ->
        let r, s = Layers.timed (fun () -> Compiled_model.solve model srcs) in
        solve_s := s;
        factorisations := Compiled_model.factorisations model;
        let b, s =
          Layers.timed (fun () ->
              Protocol.ok_body ~plant:key ~cached
                ~factorisations:(Compiled_model.factorisations model)
                ~factor_reuse:(Compiled_model.factor_reuse model)
                ~queries:(Compiled_model.queries model)
                ~outputs:r.Sim_result.outputs)
        in
        encode_s := s;
        b)
  in
  let terms = List.length sys.Multi_term.terms in
  let opmat_bytes = float_of_int (a.Protocol.steps * a.Protocol.steps * 8 * terms) in
  [
    ("serve.parse_s", parse_s);
    ("circuit.stamp_s", stamp_s);
    ("serve.fingerprint_s", fp_s);
    ("core.compile_s", !compile_s);
    ("core.solve_s", !solve_s);
    ("core.factorisations", float_of_int !factorisations);
    ("serve.encode_s", !encode_s);
    ("serve.encode_bytes", float_of_int (String.length encoded));
  ]
  @ Layers.from_obs ~sparse:false ~opmat_bytes

(* layers a cold request (compile) or a spectral request determines *)
let from_cold =
  [ "core.compile_s"; "basis.opmat_s"; "basis.opmat_bytes"; "numkit.lu_factor_s";
    "core.factorisations"; "sparse.factor_s"; "sparse.fill_ratio";
    "sparse.symbolic_reuse" ]

let server_side =
  [ "serve.parse_s"; "circuit.stamp_s"; "serve.fingerprint_s"; "core.solve_s"; "serve.encode_s" ]

let traced ~seed ~seconds =
  (* end to end under the same load, for the client-side latency *)
  let d, _, warm = set_up ~seed 0 in
  let samples, _, _ = drive d ~seed ~seconds:(seconds /. 2.0) in
  let cache_stats =
    let c = Httpc.connect ~port:d.port in
    let r = Httpc.request c ~meth:"GET" ~path:"/metrics" () in
    Httpc.close c;
    Option.bind (Json.member "cache" (Json.of_string r.Httpc.body)) (fun c ->
        let get k = Option.value ~default:0 (Option.bind (Json.member k c) Json.to_int_opt) in
        Some (get "hits", get "misses", get "evictions"))
  in
  let clean_stop = stop d in
  let refs = refs ~seed in
  let ok = (clean_stop :: warm_checks refs warm) @ verdicts refs samples in
  let failed = List.length (List.filter not ok) in
  let client_p50 =
    Stats.median
      (Array.of_list
         (List.filter_map
            (fun s -> if class_of s.req = Hot_bpf then Some s.latency_s else None)
            samples))
  in
  (* in-process replay of connection 0's schedule: untraced, then traced *)
  let body_of = hot_bodies ~seed in
  let sched = Gen.schedule ~seed ~conn:0 ~length:100_000 in
  let replay_budget = seconds /. 4.0 in
  (* a malformed request ends in the parser's rejection *)
  let replay cache req =
    match req with
    | Gen.Malformed _ ->
        (try ignore (Protocol.parse_request (body_of req))
         with Protocol.Reject _ -> ());
        None
    | _ -> Some (replay_request cache (body_of req))
  in
  let t0 = Unix.gettimeofday () in
  let cache = Model_cache.create () in
  let rec plain i =
    if i >= 50 && Unix.gettimeofday () -. t0 >= replay_budget then i
    else begin
      ignore (replay cache sched.(i));
      plain (i + 1)
    end
  in
  let count = plain 0 in
  let plain_s = Unix.gettimeofday () -. t0 in
  let cache = Model_cache.create () in
  let per_class = Hashtbl.create 4 in
  let t1 = Unix.gettimeofday () in
  Layers.set_traced true;
  for i = 0 to count - 1 do
    Layers.reset ();
    Option.iter
      (fun rep ->
        let cls = class_of sched.(i) in
        Hashtbl.replace per_class cls
          (rep :: Option.value ~default:[] (Hashtbl.find_opt per_class cls)))
      (replay cache sched.(i))
  done;
  Layers.set_traced false;
  let traced_s = Unix.gettimeofday () -. t1 in
  let med cls name =
    let vs =
      List.filter_map (List.assoc_opt name)
        (Option.value ~default:[] (Hashtbl.find_opt per_class cls))
    in
    if vs = [] then 0.0 else Stats.median (Array.of_list vs)
  in
  let hot_netlist = Gen.rc_ladder ~seed ~amplitude:Gen.amplitudes.(0) () in
  let _, parse_s =
    Layers.timed (fun () -> Opm_circuit.Parser.parse_string hot_netlist)
  in
  let hits, misses, evictions = Option.value ~default:(0, 0, 0) cache_stats in
  let rep =
    List.map (fun (name, _, _) ->
        let cls = if List.mem name from_cold then Cold else Hot_bpf in
        (name, med cls name))
      Perfbench.Names.per_layer
    |> List.map (fun (name, v) ->
           match name with
           | "serve.spectral_solve_s" -> (name, med Hot_spectral "core.solve_s")
           | "serve.wait_s" ->
               (name, client_p50 -. List.fold_left (fun acc l -> acc +. med Hot_bpf l) 0.0 server_side)
           | "serve.cache_hit_ratio" ->
               (name, float_of_int hits /. float_of_int (max 1 (hits + misses)))
           | "serve.evictions" -> (name, float_of_int evictions)
           | "circuit.parse_s" -> (name, parse_s)
           | "circuit.lines" ->
               (name, float_of_int (List.length (String.split_on_char '\n' (String.trim hot_netlist))))
           | "obs.replay_s" -> (name, plain_s /. float_of_int count)
           | "obs.trace_overhead" -> (name, traced_s /. plain_s)
           | _ -> (name, v))
  in
  {
    correct = failed = 0;
    attempted = List.length ok;
    failed;
    metrics = Layers.summarise [ rep ];
  }
