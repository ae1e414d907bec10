(* Crash-safety suite: budget/deadline enforcement, checkpoint
   envelope integrity, Guard retry combinators, the seeded fault
   matrix, and the kill/resume differential on the Table-I windowed
   kernel.

   The two solver-level properties mirror the `bench resilience`
   gates at test granularity: (1) every injected fault yields either a
   structured [Opm_error.Error] / [Window.Interrupted] or a correct
   recovery — never a silently wrong answer and never NaN/Inf in a
   returned result; (2) a run killed at any window boundary by an
   injected checkpoint-write ENOSPC and resumed from the surviving
   checkpoint is bit-identical to the uninterrupted run.

   Seeded from OPM_PROP_SEED (default 20260806), same protocol as
   test_props.ml. *)

open Opm_numkit
open Opm_basis
open Opm_core
open Opm_robust

let base_seed =
  match Sys.getenv_opt "OPM_PROP_SEED" with
  | Some s -> ( try int_of_string (String.trim s) with _ -> 20260806)
  | None -> 20260806

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ---------- the Table-I windowed kernel (shared by the solver-level
   tests); m = 256 keeps the FFT history path engaged so the fft-block
   fault site is live ---------- *)

let m = 256
let w = 64
let nwin = (m + w - 1) / w

let solve ?budget ?checkpoint ?resume_from () =
  let sys = Opm_circuit.Tline.model () in
  let srcs = Opm_circuit.Tline.inputs () in
  let grid = Grid.uniform ~t_end:Opm_circuit.Tline.t_end ~m in
  Opm.simulate_fractional ?budget ?checkpoint ~checkpoint_every:1 ?resume_from
    ~window:w ~grid ~alpha:Opm_circuit.Tline.alpha sys srcs

let bits_equal a b =
  let ra, ca = Mat.dims a and rb, cb = Mat.dims b in
  ra = rb && ca = cb
  &&
  try
    for i = 0 to ra - 1 do
      for j = 0 to ca - 1 do
        if
          not
            (Int64.equal
               (Int64.bits_of_float (Mat.get a i j))
               (Int64.bits_of_float (Mat.get b i j)))
        then raise Exit
      done
    done;
    true
  with Exit -> false

let all_finite x =
  let r, c = Mat.dims x in
  try
    for i = 0 to r - 1 do
      for j = 0 to c - 1 do
        if not (Float.is_finite (Mat.get x i j)) then raise Exit
      done
    done;
    true
  with Exit -> false

let with_tmp f =
  let path = Filename.temp_file "opm_test_resilience" ".ckpt" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

(* ---------- Budget ---------- *)

let test_budget_create_validation () =
  let raises f =
    match f () with
    | (_ : Budget.t) -> false
    | exception Invalid_argument _ -> true
  in
  check_bool "deadline_s <= 0" true
    (raises (fun () -> Budget.create ~deadline_s:0.0 ()));
  check_bool "max_factors <= 0" true
    (raises (fun () -> Budget.create ~max_factors:0 ()));
  check_bool "max_heap_mb <= 0" true
    (raises (fun () -> Budget.create ~max_heap_mb:(-1.0) ()));
  (* no limits: never trips *)
  let b = Budget.create () in
  for _ = 1 to 100 do
    Budget.check_deadline b ~site:"test";
    Budget.charge_factor b ~site:"test"
  done;
  check_int "checks counted" 100 (Budget.checks b);
  check_int "factors counted" 100 (Budget.factors b)

let test_budget_deadline_trips () =
  let b = Budget.create ~deadline_s:0.001 () in
  Unix.sleepf 0.005;
  (* first check always consults the clock, so the stride never delays
     the very first detection opportunity *)
  match Budget.check_deadline b ~site:"unit" with
  | () -> Alcotest.fail "expected Deadline_exceeded"
  | exception Opm_error.Error (Opm_error.Deadline_exceeded { site; _ }) ->
      Alcotest.(check string) "site" "unit" site

let test_budget_deadline_stride () =
  (* between clock reads the check is a pure counter increment: checks
     2..32 must not trip even though the deadline has passed *)
  let b = Budget.create ~deadline_s:0.001 () in
  (try Budget.check_deadline b ~site:"warm" with Opm_error.Error _ -> ());
  Unix.sleepf 0.005;
  for _ = 2 to 32 do
    Budget.check_deadline b ~site:"quiet"
  done;
  (* the 33rd check (1 mod 32) reads the clock again *)
  (match Budget.check_deadline b ~site:"trip" with
  | () -> Alcotest.fail "expected the stride boundary to trip"
  | exception Opm_error.Error (Opm_error.Deadline_exceeded _) -> ());
  (* check_deadline_now ignores the stride *)
  let b2 = Budget.create ~deadline_s:0.001 () in
  (try Budget.check_deadline_now b2 ~site:"x" with Opm_error.Error _ -> ());
  Unix.sleepf 0.005;
  match Budget.check_deadline_now b2 ~site:"now" with
  | () -> Alcotest.fail "check_deadline_now must always read the clock"
  | exception Opm_error.Error (Opm_error.Deadline_exceeded _) -> ()

let test_budget_factor_cap () =
  let b = Budget.create ~max_factors:2 () in
  Budget.charge_factor b ~site:"f";
  Budget.charge_factor b ~site:"f";
  match Budget.charge_factor b ~site:"f" with
  | () -> Alcotest.fail "expected Budget_exhausted"
  | exception
      Opm_error.Error (Opm_error.Budget_exhausted { what; used; limit; _ }) ->
      Alcotest.(check string) "what" "factorisations" what;
      check_int "used" 3 used;
      check_int "limit" 2 limit

let test_budget_heap_cap () =
  let b = Budget.create ~max_heap_mb:1.0 () in
  Budget.charge_bytes b ~site:"h" 500_000;
  check_int "charged" 500_000 (Budget.heap_bytes b);
  (match Budget.charge_bytes b ~site:"h" 800_000 with
  | () -> Alcotest.fail "expected Budget_exhausted"
  | exception Opm_error.Error (Opm_error.Budget_exhausted { what; _ }) ->
      Alcotest.(check string) "what" "heap_bytes" what);
  Budget.release_bytes b 10_000_000;
  check_int "release clamps at zero" 0 (Budget.heap_bytes b);
  check_bool "peak survives release" true (Budget.peak_heap_bytes b > 0)

(* ---------- Checkpoint envelope ---------- *)

let test_checkpoint_float_codec () =
  let special =
    [| 0.0; -0.0; 1.5; -1.0e-300; Float.nan; Float.infinity;
       Float.neg_infinity; Float.min_float; Float.max_float |]
  in
  let back = Checkpoint.decode_floats (Checkpoint.encode_floats special) in
  check_int "length" (Array.length special) (Array.length back);
  Array.iteri
    (fun i v ->
      check_bool
        (Printf.sprintf "element %d bit-exact" i)
        true
        (Int64.equal (Int64.bits_of_float v) (Int64.bits_of_float back.(i))))
    special

let test_checkpoint_roundtrip () =
  with_tmp @@ fun path ->
  let payload =
    Opm_obs.Json.Obj
      [
        ("window", Opm_obs.Json.Int 3);
        ("state", Checkpoint.encode_floats [| 1.0; Float.nan; -0.0 |]);
      ]
  in
  Checkpoint.save ~path payload;
  let back = Checkpoint.load ~path in
  check_bool "payload round-trips" true (back = payload);
  check_bool "no tmp file left behind" false (Sys.file_exists (path ^ ".tmp"))

let test_checkpoint_corruption () =
  with_tmp @@ fun path ->
  let expect_checkpoint_error what f =
    match f () with
    | (_ : Opm_obs.Json.t) ->
        Alcotest.failf "%s: expected Checkpoint_error" what
    | exception Opm_error.Error (Opm_error.Checkpoint_error _) -> ()
  in
  expect_checkpoint_error "missing file" (fun () ->
      Checkpoint.load ~path:(path ^ ".does-not-exist"));
  Checkpoint.save ~path (Opm_obs.Json.Obj [ ("k", Opm_obs.Json.Int 7) ]);
  (* flip one digit of the stored integer: the envelope checksum no
     longer matches the payload text *)
  let ic = open_in_bin path in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let corrupt =
    String.map (fun c -> if c = '7' then '8' else c) text
  in
  let oc = open_out_bin path in
  output_string oc corrupt;
  close_out oc;
  expect_checkpoint_error "checksum mismatch" (fun () ->
      Checkpoint.load ~path);
  (* wrong schema tag *)
  let oc = open_out_bin path in
  output_string oc {|{"schema":"other-v9","version":1,"checksum":"0","payload":{}}|};
  close_out oc;
  expect_checkpoint_error "wrong schema" (fun () -> Checkpoint.load ~path);
  (* unparsable *)
  let oc = open_out_bin path in
  output_string oc "{not json";
  close_out oc;
  expect_checkpoint_error "parse failure" (fun () -> Checkpoint.load ~path)

(* ---------- Guard combinators ---------- *)

let test_guard_retry () =
  (* succeeds on the third call; the failing calls sleep a seeded
     backoff so the schedule is replayable *)
  let calls = ref 0 in
  let v =
    Guard.retry ~attempts:5 ~backoff_s:1e-4 ~seed:base_seed (fun k ->
        incr calls;
        if k < 2 then failwith "transient" else k)
  in
  check_int "returned attempt" 2 v;
  check_int "calls" 3 !calls;
  (* exhaustion re-raises the last exception *)
  let calls = ref 0 in
  (match
     Guard.retry ~attempts:3 ~backoff_s:1e-4 ~seed:base_seed (fun _ ->
         incr calls;
         failwith "always")
   with
  | (_ : int) -> Alcotest.fail "expected exhaustion"
  | exception Failure m -> Alcotest.(check string) "last exn" "always" m);
  check_int "bounded attempts" 3 !calls;
  (* retry_on filters: a non-matching exception propagates on call 1 *)
  let calls = ref 0 in
  (match
     Guard.retry ~attempts:5 ~backoff_s:1e-4 ~seed:base_seed
       ~retry_on:(function Failure _ -> true | _ -> false)
       (fun _ ->
         incr calls;
         raise Exit)
   with
  | (_ : int) -> Alcotest.fail "expected Exit"
  | exception Exit -> ());
  check_int "not retried" 1 !calls

let test_guard_with_deadline () =
  match
    Guard.with_deadline ~seconds:0.002 ~site:"unit" (fun check ->
        let t0 = Unix.gettimeofday () in
        while Unix.gettimeofday () -. t0 < 0.1 do
          check ()
        done)
  with
  | () -> Alcotest.fail "expected Deadline_exceeded"
  | exception Opm_error.Error (Opm_error.Deadline_exceeded { site; _ }) ->
      Alcotest.(check string) "site" "unit" site

(* ---------- Health artifact bound ---------- *)

let test_health_event_cap () =
  let h = Health.create () in
  let total = Health.event_cap + 88 in
  for c = 1 to total do
    Health.record_event h (Health.Dense_fallback { column = c })
  done;
  check_int "stored is capped" Health.event_cap
    (List.length (Health.events h));
  check_int "all events counted" total (Health.fallback_count h);
  check_int "dropped = overflow" 88 (Health.dropped_events h)

(* ---------- solver-level: budget interrupts carry a resumable
   partial ---------- *)

let test_solve_deadline_interrupts () =
  let budget = Budget.create ~deadline_s:1e-6 () in
  Unix.sleepf 0.002;
  match solve ~budget () with
  | (_ : Sim_result.t) -> Alcotest.fail "expected Window.Interrupted"
  | exception Window.Interrupted { error; completed_windows; _ } -> (
      check_bool "no window completed" true (completed_windows = 0);
      match error with
      | Opm_error.Deadline_exceeded _ -> ()
      | e -> Alcotest.failf "wrong error: %s" (Opm_error.to_string e))

(* ---------- solver-level: the fault matrix (satellite: every
   injected fault is a structured error or a clean recovery) ---------- *)

let test_fault_matrix () =
  Fault.disarm ();
  let reference = (solve ()).Sim_result.x in
  List.iter
    (fun site ->
      List.iter
        (fun kind ->
          let nth = match site with Fault.Factor -> 1 | _ -> 2 in
          let label =
            Printf.sprintf "%s/%s" (Fault.site_to_string site)
              (Fault.kind_to_string kind)
          in
          with_tmp @@ fun ck ->
          Fault.arm { Fault.seed = base_seed; site; kind; nth };
          Fun.protect ~finally:Fault.disarm @@ fun () ->
          match solve ~checkpoint:ck () with
          | r ->
              (* completion is only acceptable when the result is clean:
                 finite everywhere and (if the fault actually fired)
                 equal to the reference within recovery tolerance *)
              check_bool (label ^ ": finite") true (all_finite r.Sim_result.x);
              if Fault.injected_total () > 0 then begin
                let scale = Float.max (Mat.norm_inf reference) 1e-300 in
                let rel =
                  Mat.max_abs_diff r.Sim_result.x reference /. scale
                in
                if not (rel <= 1e-6) then
                  Alcotest.failf "%s: silently wrong answer (rel %.3g)" label
                    rel
              end
          | exception Opm_error.Error _ -> ()
          | exception Window.Interrupted { partial; _ } ->
              check_bool (label ^ ": partial finite") true (all_finite partial)
          | exception e ->
              Alcotest.failf "%s: unstructured exception %s" label
                (Printexc.to_string e))
        Fault.all_kinds)
    Fault.all_sites

(* ---------- solver-level: the fft-block site on a stamped R–CPE
   ladder. Mna.stamp emits an empty α = 1 term ahead of the CPE term;
   the site must poison a live term's history, so an armed fault ends
   in a structured error (Nan_poison, Singular, Enospc) or a verified
   recovery (Latency: bit-identical answer), never in an answer the
   fault silently failed to touch. ---------- *)

let cpe_ladder () =
  let b = Buffer.create 256 in
  Buffer.add_string b "V1 in 0 sin(0 1 2000 0)\n";
  for k = 1 to 4 do
    let from = if k = 1 then "in" else Printf.sprintf "n%d" (k - 1) in
    Printf.bprintf b "R%d %s n%d %g\nP%d n%d 0 q=%g alpha=0.5\n" k from k
      (1000.0 +. float_of_int k)
      k k
      (1e-6 *. (1.0 +. (0.1 *. float_of_int k)))
  done;
  Opm_circuit.Mna.stamp (Opm_circuit.Parser.parse_string (Buffer.contents b))

(* the site lives on the FFT history path: keep it on whatever the
   environment says *)
let with_fft_history f =
  let was = Engine.fft_rhs_enabled () in
  Engine.set_fft_rhs_enabled true;
  Fun.protect ~finally:(fun () -> Engine.set_fft_rhs_enabled was) f

let expect_fft_block_fault ~label ~reference run =
  List.iter
    (fun kind ->
      let label = Printf.sprintf "%s, %s" label (Fault.kind_to_string kind) in
      Fault.arm
        { Fault.seed = base_seed; site = Fault.Fft_block; kind; nth = 2 };
      Fun.protect ~finally:Fault.disarm @@ fun () ->
      let outcome =
        match run () with
        | x -> Ok x
        | exception Opm_error.Error e -> Error e
      in
      check_bool (label ^ ": site fired") true (Fault.injected_total () > 0);
      match (kind, outcome) with
      | Fault.Latency, Ok x ->
          check_bool (label ^ ": recovered bit for bit") true
            (bits_equal x reference)
      | Fault.Latency, Error e ->
          Alcotest.failf "%s: latency must not fail (%s)" label
            (Opm_error.to_string e)
      | _, Ok _ -> Alcotest.failf "%s: the fault left the answer unchanged" label
      | _, Error _ -> ())
    Fault.all_kinds

let test_fft_block_stamped_ladder () =
  Fault.disarm ();
  with_fft_history @@ fun () ->
  let mt, srcs = cpe_ladder () in
  let grid = Grid.uniform ~t_end:1e-3 ~m in
  List.iter
    (fun (label, window, backend) ->
      let run () =
        (Opm.simulate_multi_term ~backend ?window ~grid mt srcs).Sim_result.x
      in
      expect_fft_block_fault ~label ~reference:(run ()) run)
    [
      ("one-shot dense", None, `Dense);
      ("one-shot sparse", None, `Sparse);
      ("windowed dense", Some w, `Dense);
      ("windowed sparse", Some w, `Sparse);
    ]

(* the same site one layer down: the engine handed the stamped terms
   as they are, empty α = 1 term first *)
let test_fft_block_skips_empty_term () =
  Fault.disarm ();
  with_fft_history @@ fun () ->
  let mt, srcs = cpe_ladder () in
  let grid = Grid.uniform ~t_end:1e-3 ~m in
  let bu = Compiled_model.bu_matrix ~grid mt srcs in
  let terms =
    List.map
      (fun { Multi_term.coeff; alpha } ->
        (coeff, Engine.Toeplitz (Block_pulse.fractional_differential_row grid alpha)))
      mt.Multi_term.terms
  in
  let a = mt.Multi_term.a in
  let run_sparse () = Engine.solve_sparse ~fft_history:true ~terms ~a ~bu () in
  let terms_d =
    List.map (fun (e, d) -> (Opm_sparse.Csr.to_dense e, d)) terms
  in
  let a_d = Opm_sparse.Csr.to_dense a in
  let run_dense () =
    Engine.solve_dense ~fft_history:true ~terms:terms_d ~a:a_d ~bu ()
  in
  expect_fft_block_fault ~label:"engine sparse" ~reference:(run_sparse ())
    run_sparse;
  expect_fft_block_fault ~label:"engine dense" ~reference:(run_dense ())
    run_dense

(* ---------- solver-level: kill/resume differential (satellite: kill
   at every window boundary, resume, demand bit-identity) ---------- *)

let test_kill_resume_differential () =
  Fault.disarm ();
  let reference = (solve ()).Sim_result.x in
  for k = 1 to nwin do
    with_tmp @@ fun ck ->
    Sys.remove ck;
    (* the k-th checkpoint write dies with an injected ENOSPC, killing
       the run at that window boundary *)
    Fault.arm
      { Fault.seed = base_seed; site = Fault.Checkpoint_write;
        kind = Fault.Enospc; nth = k };
    (match solve ~checkpoint:ck () with
    | (_ : Sim_result.t) ->
        Fault.disarm ();
        Alcotest.failf "boundary %d: expected Window.Interrupted" k
    | exception Window.Interrupted { checkpoint; _ } -> (
        Fault.disarm ();
        match checkpoint with
        | None ->
            (* died on the very first write: nothing to resume from,
               which is the documented cold-restart case *)
            check_int "only the first boundary lacks a checkpoint" 1 k
        | Some path ->
            let resumed = solve ~resume_from:path () in
            if not (bits_equal resumed.Sim_result.x reference) then
              Alcotest.failf
                "boundary %d: resumed run is not bit-identical" k)
    | exception e ->
        Fault.disarm ();
        raise e)
  done

let () =
  Alcotest.run "resilience"
    [
      ( "budget",
        [
          Alcotest.test_case "create validation" `Quick
            test_budget_create_validation;
          Alcotest.test_case "deadline trips" `Quick
            test_budget_deadline_trips;
          Alcotest.test_case "deadline stride" `Quick
            test_budget_deadline_stride;
          Alcotest.test_case "factor cap" `Quick test_budget_factor_cap;
          Alcotest.test_case "heap cap" `Quick test_budget_heap_cap;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "float codec bit-exact" `Quick
            test_checkpoint_float_codec;
          Alcotest.test_case "roundtrip" `Quick test_checkpoint_roundtrip;
          Alcotest.test_case "corruption detected" `Quick
            test_checkpoint_corruption;
        ] );
      ( "guard",
        [
          Alcotest.test_case "retry" `Quick test_guard_retry;
          Alcotest.test_case "with_deadline" `Quick test_guard_with_deadline;
        ] );
      ( "health",
        [ Alcotest.test_case "event cap" `Quick test_health_event_cap ] );
      ( "solver",
        [
          Alcotest.test_case "deadline interrupts with partial" `Quick
            test_solve_deadline_interrupts;
          Alcotest.test_case "fault matrix" `Slow test_fault_matrix;
          Alcotest.test_case "kill/resume bit-identity" `Slow
            test_kill_resume_differential;
          Alcotest.test_case "fft-block on a stamped R–CPE ladder" `Slow
            test_fft_block_stamped_ladder;
          Alcotest.test_case "fft-block skips an empty term" `Quick
            test_fft_block_skips_empty_term;
        ] );
    ]
