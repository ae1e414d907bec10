(* Tests of the benchmark's own pieces: input generation, order
   statistics, the HTTP response parser and the metric vocabulary. *)

open Perfbench

let failures = ref 0

let check name cond =
  if not cond then begin
    incr failures;
    Printf.printf "FAIL %s\n%!" name
  end

let raises f = match f () with _ -> false | exception _ -> true

let test_generation () =
  let grid seed = Gen.power_grid ~seed ~nx:6 ~ny:5 ~nz:2 () in
  check "grid: same seed, same bytes" (grid 7 = grid 7);
  check "grid: seeds differ" (fst (grid 7) <> fst (grid 8));
  let fixed seed = fst (Gen.power_grid ~design_seed:1 ~seed ~nx:6 ~ny:5 ~nz:2 ()) in
  check "fixed design: same seed, same bytes" (fixed 7 = fixed 7);
  check "fixed design: seeds differ" (fixed 7 <> fixed 8);
  (* with one design, only the current sources' lines differ *)
  let lines s = List.filter (fun l -> l <> "" && l.[0] <> 'I') (String.split_on_char '\n' s) in
  check "fixed design: same elements" (lines (fixed 7) = lines (fixed 8));
  check "frac ladder: same seed, same bytes" (Gen.frac_ladder ~seed:3 = Gen.frac_ladder ~seed:3);
  check "frac ladder: seeds differ" (Gen.frac_ladder ~seed:3 <> Gen.frac_ladder ~seed:4);
  let body seed req = Gen.body ~seed req in
  let reqs =
    [ Gen.Hot { basis = Gen.Bpf; amp = 3 }; Gen.Hot { basis = Gen.Spectral; amp = 0 };
      Gen.Cold { r1 = 512.0 }; Gen.Malformed 1 ]
  in
  List.iter (fun r -> check "body: same seed, same bytes" (body 5 r = body 5 r)) reqs;
  check "body: seeds differ" (body 5 (List.hd reqs) <> body 6 (List.hd reqs));
  let sched seed conn = Gen.schedule ~seed ~conn ~length:2000 in
  check "schedule: same seed, same requests" (sched 9 0 = sched 9 0);
  check "schedule: seeds differ" (sched 9 0 <> sched 10 0);
  check "schedule: connections differ" (sched 9 0 <> sched 9 1);
  (* the mix is 60/20/10/10 and no cold plant repeats *)
  let s = Array.append (sched 9 0) (sched 9 1) in
  let count p = Array.fold_left (fun n r -> if p r then n + 1 else n) 0 s in
  let share p = float_of_int (count p) /. float_of_int (Array.length s) in
  let near x y = Float.abs (x -. y) < 0.03 in
  check "mix: hot bpf"
    (near 0.6 (share (function Gen.Hot { basis = Gen.Bpf; _ } -> true | _ -> false)));
  check "mix: hot spectral"
    (near 0.2 (share (function Gen.Hot { basis = Gen.Spectral; _ } -> true | _ -> false)));
  check "mix: cold" (near 0.1 (share (function Gen.Cold _ -> true | _ -> false)));
  check "mix: malformed" (near 0.1 (share (function Gen.Malformed _ -> true | _ -> false)));
  let colds = List.filter_map (function Gen.Cold { r1 } -> Some r1 | _ -> None) (Array.to_list s) in
  check "cold plants are distinct"
    (List.length (List.sort_uniq compare colds) = List.length colds)

let test_stats () =
  check "median odd" (Stats.median [| 3.0; 1.0; 2.0 |] = 2.0);
  check "median even" (Stats.median [| 4.0; 1.0; 3.0; 2.0 |] = 2.5);
  check "median empty raises" (raises (fun () -> Stats.median [||]));
  let xs = [| 5.0; 1.0; 4.0; 2.0; 3.0 |] in
  check "quantile 0 is the min" (Stats.quantile 0.0 xs = 1.0);
  check "quantile 1 is the max" (Stats.quantile 1.0 xs = 5.0);
  check "quantile 0.5 is the median" (Stats.quantile 0.5 xs = Stats.median xs);
  check "quantile interpolates" (Float.abs (Stats.quantile 0.1 xs -. 1.4) < 1e-12);
  check "quantile of one sample" (Stats.quantile 0.1 [| 7.0 |] = 7.0);
  check "quantile empty raises" (raises (fun () -> Stats.quantile 0.1 [||]));
  check "quantile outside [0, 1] raises" (raises (fun () -> Stats.quantile 1.5 xs));
  let seq n = Array.init n (fun i -> float_of_int (n - i)) in
  (* up to 20 samples: the maximum, never a value below the median *)
  check "tail of 5 is the max" (Stats.tail (seq 5) = 5.0);
  check "tail of 20 is the max" (Stats.tail (seq 20) = 20.0);
  (* 21..999 samples: exactly ten samples beyond the reported one *)
  check "tail of 21 has ten beyond" (Stats.tail (seq 21) = 11.0);
  check "tail of 25 has ten beyond" (Stats.tail (seq 25) = 15.0);
  check "tail of 500 has ten beyond" (Stats.tail (seq 500) = 490.0);
  (* from 1000 samples on: the 99th percentile *)
  check "tail of 1000 is p99" (Stats.tail (seq 1000) = 990.0);
  check "tail of 2000 is p99" (Stats.tail (seq 2000) = 1980.0);
  check "tail percentile of 2000" (Stats.tail_percentile 2000 = 99.0)

let test_http () =
  let ok = "HTTP/1.1 200 OK\r\ncontent-type: application/json\r\nContent-Length: 7\r\n\r\n{\"a\":1}" in
  (match Httpc.parse_response ok with
  | Some (r, used) ->
      check "http: status" (r.Httpc.status = 200);
      check "http: body" (r.Httpc.body = "{\"a\":1}");
      check "http: consumed" (used = String.length ok)
  | None -> check "http: complete response parses" false);
  for cut = 0 to String.length ok - 1 do
    check "http: partial response waits" (Httpc.parse_response (String.sub ok 0 cut) = None)
  done;
  let two = ok ^ "HTTP/1.1 400 Bad Request\r\nCONTENT-LENGTH: 2\r\n\r\n{}" in
  (match Httpc.parse_response two with
  | Some (_, used) -> (
      match Httpc.parse_response (String.sub two used (String.length two - used)) with
      | Some (r, _) -> check "http: pipelined second response" (r.Httpc.status = 400 && r.Httpc.body = "{}")
      | None -> check "http: pipelined second response parses" false)
  | None -> check "http: first of two parses" false);
  check "http: bad status line"
    (raises (fun () -> Httpc.parse_response "garbage\r\nContent-Length: 0\r\n\r\n"));
  check "http: missing length"
    (raises (fun () -> Httpc.parse_response "HTTP/1.1 200 OK\r\n\r\n"))

let test_names () =
  let all = Names.end_to_end @ Names.per_layer in
  List.iter
    (fun (name, unit, better) ->
      check ("name " ^ name) (Names.valid_name name);
      check ("unit of " ^ name) (Names.valid_unit unit);
      check ("better of " ^ name) (better = "lower" || better = "higher"))
    all;
  let names = List.map (fun (n, _, _) -> n) all in
  check "names are unique" (List.length (List.sort_uniq compare names) = List.length names);
  check "setup_s is an end-to-end metric"
    (List.mem ("setup_s", "s", "lower") Names.end_to_end);
  check "bad names are rejected"
    (not (List.exists Names.valid_name [ ""; "_x"; "a b"; "a/b"; String.make 65 'a' ]))

(* BENCHMARK.json declares exactly the harness's vocabulary *)
let test_benchmark_json () =
  let module Json = Opm_obs.Json in
  let doc = Json.of_file "../BENCHMARK.json" in
  let metrics key =
    match Json.member key doc with
    | Some (Json.List l) ->
        List.map
          (fun m ->
            let s k = Option.bind (Json.member k m) Json.to_string_opt in
            (s "name", s "unit", s "better"))
          l
    | _ -> []
  in
  let expect l = List.map (fun (n, u, b) -> (Some n, Some u, Some b)) l in
  check "BENCHMARK.json end_to_end" (metrics "end_to_end" = expect Names.end_to_end);
  check "BENCHMARK.json per_layer" (metrics "per_layer" = expect Names.per_layer)

let () =
  test_generation ();
  test_stats ();
  test_http ();
  test_names ();
  test_benchmark_json ();
  if !failures > 0 then begin
    Printf.printf "%d failure(s)\n" !failures;
    exit 1
  end
