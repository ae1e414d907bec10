let enabled_flag = Atomic.make false

let enabled () = Atomic.get enabled_flag

let set_enabled b = Atomic.set enabled_flag b

(* lock-free update of a float cell *)
let rec update_float cell f =
  let old = Atomic.get cell in
  if not (Atomic.compare_and_set cell old (f old)) then update_float cell f

type counter = { c_name : string; count : int Atomic.t }

type gauge = {
  g_name : string;
  last : float Atomic.t;
  g_min : float Atomic.t;
  g_max : float Atomic.t;
}

(* 5 buckets per decade over [1e-9, 1e3) plus one clamp bucket at each
   end: bucket 0 catches values below 1e-9 (including 0), bucket 61
   values of 1e3 and above *)
let buckets_per_decade = 5

let decade_lo = -9

let decade_hi = 3

let bucket_count = ((decade_hi - decade_lo) * buckets_per_decade) + 2

let bucket_lower_bound i =
  if i <= 0 then 0.0
  else
    10.0
    ** (float_of_int decade_lo
       +. (float_of_int (i - 1) /. float_of_int buckets_per_decade))

(* hot-path bucket lookup: binary search over the precomputed bounds
   (6 cache-hot comparisons) instead of a libm log10 per observation;
   by construction it agrees exactly with [bucket_lower_bound] at the
   boundaries *)
let bounds = Array.init bucket_count bucket_lower_bound

let bucket_of v =
  if not (v > 1e-9) (* catches <= 1e-9, NaN *) then 0
  else begin
    (* largest i with bounds.(i) <= v *)
    let lo = ref 1 and hi = ref (bucket_count - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi + 1) / 2 in
      if bounds.(mid) <= v then lo := mid else hi := mid - 1
    done;
    !lo
  end

(* no separate count cell: the total is the sum of the bucket counts,
   recovered at read time — one fewer atomic RMW per observation *)
type histogram = {
  h_name : string;
  h_sum : float Atomic.t;
  h_min : float Atomic.t;
  h_max : float Atomic.t;
  h_buckets : int Atomic.t array;
}

type instrument = C of counter | G of gauge | H of histogram

(* The registry mutex guards only instrument creation and snapshotting —
   recording never takes it. *)
let registry : (string, instrument) Hashtbl.t = Hashtbl.create 64

let registry_mutex = Mutex.create ()

let find_or_create name make =
  Mutex.lock registry_mutex;
  let i =
    match Hashtbl.find_opt registry name with
    | Some i -> i
    | None ->
        let i = make () in
        Hashtbl.add registry name i;
        i
  in
  Mutex.unlock registry_mutex;
  i

let counter name =
  match
    find_or_create name (fun () -> C { c_name = name; count = Atomic.make 0 })
  with
  | C c -> c
  | G _ | H _ -> invalid_arg ("Metrics.counter: " ^ name ^ " is not a counter")

let incr ?(by = 1) c =
  if Atomic.get enabled_flag then ignore (Atomic.fetch_and_add c.count by)

let counter_value c = Atomic.get c.count

let gauge name =
  match
    find_or_create name (fun () ->
        G
          {
            g_name = name;
            last = Atomic.make Float.nan;
            g_min = Atomic.make Float.infinity;
            g_max = Atomic.make Float.neg_infinity;
          })
  with
  | G g -> g
  | C _ | H _ -> invalid_arg ("Metrics.gauge: " ^ name ^ " is not a gauge")

let set_gauge g v =
  if Atomic.get enabled_flag then begin
    Atomic.set g.last v;
    update_float g.g_min (fun old -> Float.min old v);
    update_float g.g_max (fun old -> Float.max old v)
  end

let gauge_last g = Atomic.get g.last

let histogram name =
  match
    find_or_create name (fun () ->
        H
          {
            h_name = name;
            h_sum = Atomic.make 0.0;
            h_min = Atomic.make Float.infinity;
            h_max = Atomic.make Float.neg_infinity;
            h_buckets = Array.init bucket_count (fun _ -> Atomic.make 0);
          })
  with
  | H h -> h
  | C _ | G _ ->
      invalid_arg ("Metrics.histogram: " ^ name ^ " is not a histogram")

let observe h v =
  if Atomic.get enabled_flag then begin
    update_float h.h_sum (fun old -> old +. v);
    (* fast path: min/max rarely move once warm, so check with a plain
       load before paying for a CAS loop *)
    if not (v >= Atomic.get h.h_min) then
      update_float h.h_min (fun old -> Float.min old v);
    if not (v <= Atomic.get h.h_max) then
      update_float h.h_max (fun old -> Float.max old v);
    ignore (Atomic.fetch_and_add h.h_buckets.(bucket_of v) 1)
  end

let time h f =
  if not (Atomic.get enabled_flag) then f ()
  else begin
    let t0 = Unix.gettimeofday () in
    let r = f () in
    observe h (Unix.gettimeofday () -. t0);
    r
  end

(* chained per-iteration timing: one clock read per lap instead of the
   two [time] needs, for instruments sitting inside hot loops *)
let lap_start () = if Atomic.get enabled_flag then Unix.gettimeofday () else 0.0

let lap h t_prev =
  if not (Atomic.get enabled_flag) then t_prev
  else begin
    let t = Unix.gettimeofday () in
    observe h (t -. t_prev);
    t
  end

(* sampled lap: one clock read per [k]-iteration batch, observing the
   batch mean — for loops whose bodies are so short that a clock read
   per iteration would itself break the overhead budget *)
let lap_mean h k t_prev =
  if not (Atomic.get enabled_flag) then t_prev
  else begin
    let t = Unix.gettimeofday () in
    observe h ((t -. t_prev) /. float_of_int k);
    t
  end

let histogram_count h =
  Array.fold_left (fun acc b -> acc + Atomic.get b) 0 h.h_buckets

let histogram_sum h = Atomic.get h.h_sum

let reset () =
  Mutex.lock registry_mutex;
  Hashtbl.iter
    (fun _ i ->
      match i with
      | C c -> Atomic.set c.count 0
      | G g ->
          Atomic.set g.last Float.nan;
          Atomic.set g.g_min Float.infinity;
          Atomic.set g.g_max Float.neg_infinity
      | H h ->
          Atomic.set h.h_sum 0.0;
          Atomic.set h.h_min Float.infinity;
          Atomic.set h.h_max Float.neg_infinity;
          Array.iter (fun b -> Atomic.set b 0) h.h_buckets)
    registry;
  Mutex.unlock registry_mutex

(* ------------------------------------------------------------------ *)
(* export                                                              *)

let sorted_instruments () =
  Mutex.lock registry_mutex;
  let all = Hashtbl.fold (fun name i acc -> (name, i) :: acc) registry [] in
  Mutex.unlock registry_mutex;
  List.sort (fun (a, _) (b, _) -> compare a b) all

(* bucket-resolution quantile: the upper bound of the bucket where the
   cumulative count crosses q *)
let quantile_est counts total q =
  if total = 0 then Float.nan
  else begin
    let target = Float.of_int total *. q in
    let acc = ref 0 in
    let result = ref (bucket_lower_bound (bucket_count - 1)) in
    (try
       Array.iteri
         (fun i c ->
           acc := !acc + c;
           if float_of_int !acc >= target then begin
             result := bucket_lower_bound (i + 1);
             raise Exit
           end)
         counts
     with Exit -> ());
    !result
  end

let hist_json h =
  let counts = Array.map Atomic.get h.h_buckets in
  let total = Array.fold_left ( + ) 0 counts in
  let buckets =
    Array.to_list counts
    |> List.mapi (fun i c ->
           if c = 0 then None
           else Some (Json.List [ Json.Float (bucket_lower_bound i); Json.Int c ]))
    |> List.filter_map Fun.id
  in
  Json.Obj
    [
      ("count", Json.Int total);
      ("sum", Json.Float (if total = 0 then 0.0 else Atomic.get h.h_sum));
      ("min", if total = 0 then Json.Null else Json.Float (Atomic.get h.h_min));
      ("max", if total = 0 then Json.Null else Json.Float (Atomic.get h.h_max));
      ( "mean",
        if total = 0 then Json.Null
        else Json.Float (Atomic.get h.h_sum /. float_of_int total) );
      ("p50", Json.Float (quantile_est counts total 0.5));
      ("p90", Json.Float (quantile_est counts total 0.9));
      ("p99", Json.Float (quantile_est counts total 0.99));
      ("buckets", Json.List buckets);
    ]

let snapshot () =
  let all = sorted_instruments () in
  let pick f = List.filter_map f all in
  Json.Obj
    [
      ( "counters",
        Json.Obj
          (pick (function
            | name, C c -> Some (name, Json.Int (Atomic.get c.count))
            | _ -> None)) );
      ( "gauges",
        Json.Obj
          (pick (function
            | name, G g ->
                Some
                  ( name,
                    Json.Obj
                      [
                        ("last", Json.Float (Atomic.get g.last));
                        ("min", Json.Float (Atomic.get g.g_min));
                        ("max", Json.Float (Atomic.get g.g_max));
                      ] )
            | _ -> None)) );
      ( "histograms",
        Json.Obj
          (pick (function
            | name, H h -> Some (name, hist_json h)
            | _ -> None)) );
    ]

let to_text () =
  let buf = Buffer.create 512 in
  List.iter
    (fun (name, i) ->
      match i with
      | C c -> Buffer.add_string buf (Printf.sprintf "%-40s %d\n" name (Atomic.get c.count))
      | G g ->
          (* any set value, NaN included, moves min off +inf or max off -inf *)
          if Atomic.get g.g_min = Float.infinity
             && Atomic.get g.g_max = Float.neg_infinity
          then Buffer.add_string buf (Printf.sprintf "%-40s (unset)\n" name)
          else
            Buffer.add_string buf
              (Printf.sprintf "%-40s last %.6g  min %.6g  max %.6g\n" name
                 (Atomic.get g.last) (Atomic.get g.g_min) (Atomic.get g.g_max))
      | H h ->
          let n = histogram_count h in
          if n = 0 then Buffer.add_string buf (Printf.sprintf "%-40s (empty)\n" name)
          else
            Buffer.add_string buf
              (Printf.sprintf "%-40s n %d  sum %.6g  mean %.6g  min %.6g  max %.6g\n"
                 name n (Atomic.get h.h_sum)
                 (Atomic.get h.h_sum /. float_of_int n)
                 (Atomic.get h.h_min) (Atomic.get h.h_max)))
    (sorted_instruments ());
  Buffer.contents buf
