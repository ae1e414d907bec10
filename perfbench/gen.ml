(* Seeded input generation. Everything a program under test sees — the
   netlist files and the HTTP request bodies — is produced here from
   the run's seed, so one seed always gives byte-identical inputs. *)

open Opm_circuit
module Source = Opm_signal.Source

(* ±10 % element-value jitter *)
let jitter st v = v *. (1.0 +. (0.2 *. Random.State.float st 1.0) -. 0.1)

let jitter_element st = function
  | Netlist.Resistor r -> Netlist.Resistor (jitter st r)
  | Netlist.Capacitor c -> Netlist.Capacitor (jitter st c)
  | Netlist.Inductor l -> Netlist.Inductor (jitter st l)
  | Netlist.Cpe { q; alpha } -> Netlist.Cpe { q = jitter st q; alpha }
  | e -> e

let map_elements f net =
  Netlist.of_list
    (List.map
       (fun (i : Netlist.instance) -> { i with Netlist.element = f i.Netlist.element })
       (Netlist.instances net))

let jittered st net = map_elements (jitter_element st) net

(* ±10 % on a pulsed load current's two levels *)
let jitter_load st = function
  | Netlist.Current_source (Source.Pulse p) ->
      let low = jitter st p.low in
      let high = jitter st p.high in
      Netlist.Current_source (Source.Pulse { p with low; high })
  | e -> e

(* ---- power grid (Table II structure) ---------------------------- *)

(* The library's Table II lattice has no path to ground other than the
   decaps, so its DC pencil is singular and its loads are zero at t = 0.
   Supply pads (a 4×4 array of pad resistors on the top layer) and a
   standby load current fix both, for the transient and the DC
   workloads alike. *)
let grid_spec ~nx ~ny ~nz =
  {
    Power_grid.default_spec with
    nx;
    ny;
    nz;
    load_count = 16;
    load =
      Source.Pulse
        {
          low = 0.2e-3;
          high = 1e-3;
          delay = 20e-12;
          width = 50e-12;
          period = 100e-12;
        };
  }

let pads = 4
let pad_r = 50e-3

let grid_probes (spec : Power_grid.spec) =
  [
    Power_grid.node_name ~x:0 ~y:0 ~z:0;
    Power_grid.node_name ~x:(spec.nx / 2) ~y:(spec.ny / 2) ~z:0;
  ]

(* Element values (the grid's R, L, C and supply pads) are drawn from
   [design_seed], the load currents from [seed]. Pivoting, and with it
   the fill and cost of a DC factorisation, depends on the element
   values: with them drawn per seed the 30x30x2 DC pencil filled 14.6x
   to 17.4x over eight seeds. A DC workload that must cost the same for
   every seed keeps one design and varies only the loads. *)
let power_grid ?design_seed ~seed ~nx ~ny ~nz () =
  let spec = grid_spec ~nx ~ny ~nz in
  let design = Option.value design_seed ~default:seed in
  let st = Random.State.make [| design; nx; ny; nz |] in
  let loads = Random.State.make [| seed; nx; ny; nz; 0x10ad |] in
  let net = map_elements (jitter_load loads) (jittered st (Power_grid.generate spec)) in
  let top = nz - 1 in
  for a = 0 to pads - 1 do
    for b = 0 to pads - 1 do
      let x = ((2 * a) + 1) * nx / (2 * pads)
      and y = ((2 * b) + 1) * ny / (2 * pads) in
      Netlist.add net
        (Netlist.r
           (Printf.sprintf "Rpad%d_%d" a b)
           (Power_grid.node_name ~x ~y ~z:top)
           "0" (jitter st pad_r))
    done
  done;
  (Netlist.to_string net, grid_probes spec)

(* ---- fractional R–CPE ladder ------------------------------------ *)

let frac_sections = 16
let frac_probes = [ "n1"; Printf.sprintf "n%d" frac_sections ]

let frac_ladder ~seed =
  let st = Random.State.make [| seed; 0xf4ac |] in
  let net = Netlist.create () in
  Netlist.add net
    (Netlist.v "V1" "in" "0"
       (Source.Sine
          { amplitude = 1.0; freq_hz = 2e3; phase = 0.0; offset = 0.0 }));
  for k = 1 to frac_sections do
    let prev = if k = 1 then "in" else Printf.sprintf "n%d" (k - 1) in
    let here = Printf.sprintf "n%d" k in
    Netlist.add net (Netlist.r (Printf.sprintf "R%d" k) prev here (jitter st 1e3));
    Netlist.add net
      (Netlist.cpe (Printf.sprintf "P%d" k) here "0" ~q:(jitter st 1e-6)
         ~alpha:0.5)
  done;
  (Netlist.to_string net, frac_probes)

(* ---- serve mix --------------------------------------------------- *)

let serve_sections = 20
let serve_steps = 1024
let serve_spectral_nodes = 32
let serve_t_end = 1e-4
let serve_probes = [ "n1"; Printf.sprintf "n%d" serve_sections ]
let amplitudes = Array.init 16 (fun i -> 0.5 +. (0.25 *. float_of_int i))

(* one RC ladder; the hot plant's element values are drawn once per
   seed, a cold plant replaces R1 with [r1] *)
let rc_ladder ~seed ?r1 ~amplitude () =
  let st = Random.State.make [| seed; 0x5e7e |] in
  let net = Netlist.create () in
  Netlist.add net
    (Netlist.v "V1" "in" "0"
       (Source.Pulse
          {
            low = 0.0;
            high = amplitude;
            delay = 5e-6;
            width = 40e-6;
            period = 0.0;
          }));
  for k = 1 to serve_sections do
    let prev = if k = 1 then "in" else Printf.sprintf "n%d" (k - 1) in
    let here = Printf.sprintf "n%d" k in
    let r = jitter st 1e3 and c = jitter st 1e-9 in
    let r = match r1 with Some r1 when k = 1 -> r1 | _ -> r in
    Netlist.add net (Netlist.r (Printf.sprintf "R%d" k) prev here r);
    Netlist.add net (Netlist.c (Printf.sprintf "C%d" k) here "0" c)
  done;
  Netlist.to_string net

type basis = Bpf | Spectral

type request =
  | Hot of { basis : basis; amp : int }  (** index into {!amplitudes} *)
  | Cold of { r1 : float }
  | Malformed of int  (** index into {!malformed_bodies} *)

let malformed_bodies =
  [|
    "not json at all";
    "{\"netlist\":\"R1 a 0 1k\",\"analysis\":{\"t_end\":-1,\"steps\":8}}";
    "{\"netlist\":\"X1 bogus\",\"analysis\":{\"t_end\":1,\"steps\":8}}";
    "{\"analysis\":{\"t_end\":1,\"steps\":8}}";
    "{\"netlist\":\"R1 a 0 1k\",\"analysis\":{\"t_end\":1,\"steps\":8,\"typo\":1}}";
  |]

let solve_body ~basis netlist =
  let steps, basis_field =
    match basis with
    | Bpf -> (serve_steps, "")
    | Spectral -> (serve_spectral_nodes, ",\"basis\":\"spectral\"")
  in
  Printf.sprintf
    "{\"netlist\":%s,\"analysis\":{\"t_end\":%.17g,\"steps\":%d,\"probes\":%s%s}}"
    (Opm_obs.Json.to_string (Opm_obs.Json.String netlist))
    serve_t_end steps
    (Opm_obs.Json.to_string
       (Opm_obs.Json.List
          (List.map (fun p -> Opm_obs.Json.String p) serve_probes)))
    basis_field

let body ~seed = function
  | Hot { basis; amp } ->
      solve_body ~basis (rc_ladder ~seed ~amplitude:amplitudes.(amp) ())
  | Cold { r1 } -> solve_body ~basis:Bpf (rc_ladder ~seed ~r1 ~amplitude:1.0 ())
  | Malformed k -> malformed_bodies.(k)

(* Closed-loop schedule of one connection: 60 % hot BPF, 20 % hot
   spectral, 10 % cold (a fresh R1 per request, so every one misses the
   plant cache), 10 % malformed. Long enough that no run exhausts it. *)
let schedule ~seed ~conn ~length =
  let st = Random.State.make [| seed; 0x5c4e; conn |] in
  Array.init length (fun i ->
      let u = Random.State.int st 10 in
      if u < 6 then Hot { basis = Bpf; amp = Random.State.int st 16 }
      else if u < 8 then Hot { basis = Spectral; amp = Random.State.int st 16 }
      else if u < 9 then
        (* distinct per (connection, slot): never a repeated plant *)
        Cold { r1 = 500.0 +. float_of_int ((i * 8) + conn) }
      else Malformed (Random.State.int st (Array.length malformed_bodies)))
