(* Schema validator for the BENCH_*.json documents emitted by
   [main.exe -- <table> --json] (schema "opm-bench-v1").

   Checks, for each file named on the command line:
   - the document parses and carries the expected [schema] tag;
   - [table] is a string and [metrics] is an object (the snapshot);
   - [rows] is a non-empty list where every row has a string [method],
     positive integer [n] and [m], and finite numeric [wall_s] (>= 0)
     and [error_db] — NaN/Inf serialise as [null] and therefore fail
     the numeric check, which is how a poisoned benchmark run is caught
     in CI;
   - the query-throughput table ("compiled-qps", BENCH_compiled.json)
     replaces [error_db] with [queries_per_s], which must be finite
     and strictly positive;
   - the HTTP serving table ("serve", BENCH_serve.json) instead
     requires a closed method vocabulary {serve-hot, serve-cold,
     serve-malformed, serve-total}, strictly positive
     [requests_per_s], finite non-negative [p99_ms], and
     [wrong_answers = 0] on every row;
   - table-specific contracts: in the "rhs-conv" table every "rhs-fft"
     row must satisfy [error_db <= -200.0] (the 1e-10 relative
     agreement contract between the FFT and naive history paths);
   - every "table2" row carries [pencils] and [symbolic_reuse] with
     reuse >= pencils - 1, and finite, strictly positive [analyze_s]
     and [refactor_s] for its pencil with analyze_s / refactor_s <= 6;
   - the "resilience" table (BENCH_resilience.json) additionally
     requires a string [outcome] per row drawn from the closed set of
     acceptable results — {recovered, structured-error, no-fire,
     holds, informational} — so a run that recorded a wrong answer, a
     non-finite result, an unstructured exception or a violated
     overhead gate fails validation even if the bench binary was
     killed before it could exit non-zero.

   Exit status 0 iff every file validates. *)

module Json = Opm_obs.Json

exception Invalid of string

let fail fmt = Printf.ksprintf (fun s -> raise (Invalid s)) fmt

let validate file =
  let doc =
    try Json.of_file file with
    | Json.Parse_error { pos; message } ->
        fail "parse error at offset %d: %s" pos message
    | Sys_error m -> fail "%s" m
  in
  (match Json.member "schema" doc with
  | Some (Json.String s) when s = "opm-bench-v1" -> ()
  | Some (Json.String s) -> fail "schema %S, expected \"opm-bench-v1\"" s
  | Some _ -> fail "schema field is not a string"
  | None -> fail "missing schema field");
  let table =
    match Option.map Json.to_string_opt (Json.member "table" doc) with
    | Some (Some t) -> t
    | _ -> fail "missing or non-string table field"
  in
  (match Json.member "metrics" doc with
  | Some (Json.Obj _) -> ()
  | _ -> fail "missing metrics snapshot");
  let rows =
    match Option.map Json.to_list_opt (Json.member "rows" doc) with
    | Some (Some l) -> l
    | _ -> fail "missing or non-list rows field"
  in
  if rows = [] then fail "empty rows";
  List.iteri
    (fun i row ->
      let get name =
        match Json.member name row with
        | Some v -> v
        | None -> fail "row %d: missing field %S" i name
      in
      let method_ =
        match get "method" with
        | Json.String s -> s
        | _ -> fail "row %d: method is not a string" i
      in
      let pos_int name =
        match Json.to_int_opt (get name) with
        | Some v when v > 0 -> ()
        | Some v -> fail "row %d: %s = %d is not positive" i name v
        | None -> fail "row %d: %s is not an integer" i name
      in
      pos_int "n";
      pos_int "m";
      let finite name =
        match Json.to_float_opt (get name) with
        | Some v when Float.is_finite v -> v
        | Some _ -> fail "row %d: %s is not finite" i name
        | None ->
            fail "row %d: %s is not a number (NaN/Inf serialise as null)" i
              name
      in
      if finite "wall_s" < 0.0 then fail "row %d: negative wall_s" i;
      if table = "compiled-qps" then begin
        (* query-throughput rows carry a rate instead of an accuracy
           cell *)
        if finite "queries_per_s" <= 0.0 then
          fail "row %d: queries_per_s is not strictly positive" i
      end
      else if table = "serve" then begin
        (* HTTP serving rows: closed method vocabulary, sustained
           request rate strictly positive, p99 finite, and zero
           wrong-answer outcomes — a daemon that answered even one hot
           request with bits different from the in-process reference
           fails validation even if the bench process was killed
           before its own exit-code gate *)
        (match method_ with
        | "serve-hot" | "serve-cold" | "serve-malformed" | "serve-total" ->
            ()
        | s -> fail "row %d: serve method %S is not in the closed set" i s);
        if finite "requests_per_s" <= 0.0 then
          fail "row %d: requests_per_s is not strictly positive" i;
        if finite "p99_ms" < 0.0 then fail "row %d: negative p99_ms" i;
        match Json.to_int_opt (get "wrong_answers") with
        | Some 0 -> ()
        | Some k -> fail "row %d (%s): %d wrong answer(s)" i method_ k
        | None -> fail "row %d: wrong_answers is not an integer" i
      end
      else begin
        let error_db = finite "error_db" in
        (* accuracy contract: FFT history path within 1e-10 relative of
           the naive scan (1e-10 ↔ −200 dB) *)
        if table = "rhs-conv" && method_ = "rhs-fft" && error_db > -200.0 then
          fail "row %d: rhs-fft error_db %.1f exceeds the -200 dB contract" i
            error_db
      end;
      (* symbolic-reuse contract: every table2 row records how many
         pencils it factored and how many of those were numeric-only
         refactorisations; one sparsity structure must pay its symbolic
         analysis exactly once, i.e. reuse >= pencils - 1 *)
      if table = "table2" then begin
        let count name =
          match Json.to_int_opt (get name) with
          | Some v when v >= 0 -> v
          | Some v -> fail "row %d: %s = %d is negative" i name v
          | None -> fail "row %d: %s is not an integer" i name
        in
        let pencils = count "pencils" in
        let reuse = count "symbolic_reuse" in
        if reuse < pencils - 1 then
          fail
            "row %d (%s): symbolic_reuse %d < pencils %d - 1 (a sparsity \
             structure must pay its symbolic analysis exactly once)"
            i method_ reuse pencils;
        (* factor-split contract: the symbolic analysis may cost at most
           6 numeric refactorisations of the same pencil (one DFS edge per
           flop; the polymorphic DFS read 8-10x) *)
        let positive name =
          let v = finite name in
          if v <= 0.0 then
            fail "row %d (%s): %s is not positive" i method_ name;
          v
        in
        let ratio = positive "analyze_s" /. positive "refactor_s" in
        if ratio > 6.0 then
          fail
            "row %d (%s): analyze_s / refactor_s = %.2f exceeds 6 (symbolic \
             analysis should cost about one numeric factor)"
            i method_ ratio
      end;
      (* basis-selection contracts: every row names its basis; the
         crossover row carries the headline claim (spectral reaches the
         big-m BPF error with >= 10x less wall) as data, so a regressed
         build fails validation, not just the bench's own exit gate;
         the compiled row asserts factor-once *)
      if table = "basis" then begin
        (match get "basis" with
        | Json.String ("bpf" | "spectral") -> ()
        | Json.String s ->
            fail "row %d: basis %S is not \"bpf\" or \"spectral\"" i s
        | _ -> fail "row %d: basis is not a string" i);
        if method_ = "crossover" then begin
          let speedup = finite "speedup" in
          if speedup < 10.0 then
            fail
              "row %d: crossover speedup %.2fx is below the 10x contract" i
              speedup;
          if finite "error_db" > finite "bpf_error_db" then
            fail
              "row %d: crossover spectral error %.1f dB is worse than BPF's \
               %.1f dB"
              i (finite "error_db") (finite "bpf_error_db")
        end;
        if method_ = "spectral-compiled" then
          match Json.to_int_opt (get "factorisations") with
          | Some 1 -> ()
          | Some k ->
              fail
                "row %d: compiled spectral model performed %d factorisations \
                 (the factor-once contract requires exactly 1)"
                i k
          | None -> fail "row %d: factorisations is not an integer" i
      end;
      if table = "resilience" then
        match get "outcome" with
        | Json.String
            ( "recovered" | "structured-error" | "no-fire" | "holds"
            | "informational" ) ->
            ()
        | Json.String s ->
            fail "row %d (%s): outcome %S is not an acceptable result" i
              method_ s
        | _ -> fail "row %d: outcome is not a string" i)
    rows;
  List.length rows

let () =
  let files =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as files) -> files
    | _ ->
        prerr_endline "usage: validate FILE.json [FILE.json ...]";
        exit 2
  in
  let ok =
    List.fold_left
      (fun ok file ->
        match validate file with
        | n ->
            Printf.printf "validate: %s OK (%d rows)\n" file n;
            ok
        | exception Invalid msg ->
            Printf.eprintf "validate: %s: %s\n" file msg;
            false)
      true files
  in
  exit (if ok then 0 else 1)
