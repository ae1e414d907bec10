(* Running the programs under test and measuring them from outside. *)

external wait4 : int -> int * float * int = "perfbench_wait4"

(* Children not yet reaped, so that an early exit can still stop and
   reap every process the harness started. *)
let live : (int, unit) Hashtbl.t = Hashtbl.create 4
let live_mu = Mutex.create ()

let track pid =
  Mutex.protect live_mu (fun () -> Hashtbl.replace live pid ())

let untrack pid = Mutex.protect live_mu (fun () -> Hashtbl.remove live pid)

let wait4 pid =
  let r = wait4 pid in
  untrack pid;
  r

(* SIGKILL and reap every child still running *)
let kill_all () =
  let pids = Mutex.protect live_mu (fun () -> Hashtbl.fold (fun p () l -> p :: l) live []) in
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (wait4 pid) with Failure _ -> ())
    pids

type run = {
  exit_code : int;  (** [-signal] when killed by a signal *)
  wall_s : float;  (** spawn to reap *)
  cpu_s : float;  (** user + system of the child *)
  maxrss_mb : float;  (** peak resident set of the child *)
}

(* Spawn [prog args], stdout to [stdout_file], stderr to
   [stderr_file], and reap it with its rusage. *)
let run ~prog ~args ~stdout_file ~stderr_file =
  let out =
    Unix.openfile stdout_file [ O_WRONLY; O_CREAT; O_TRUNC; O_CLOEXEC ] 0o644
  in
  let err =
    Unix.openfile stderr_file [ O_WRONLY; O_CREAT; O_TRUNC; O_CLOEXEC ] 0o644
  in
  let t0 = Unix.gettimeofday () in
  let pid =
    Fun.protect
      ~finally:(fun () ->
        Unix.close out;
        Unix.close err)
      (fun () ->
        let pid =
          Unix.create_process prog (Array.of_list (prog :: args)) Unix.stdin out
            err
        in
        track pid;
        pid)
  in
  let exit_code, cpu_s, maxrss_kib = wait4 pid in
  let wall_s = Unix.gettimeofday () -. t0 in
  { exit_code; wall_s; cpu_s; maxrss_mb = float_of_int maxrss_kib /. 1024.0 }

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s = Out_channel.with_open_bin path (fun oc -> output_string oc s)

(* user + system CPU seconds of a live process, all threads, at
   nanosecond resolution *)
external process_cpu_s : int -> float = "perfbench_process_cpu"

(* pin the calling thread, and every process it spawns from now on, to
   the CPU it runs on; returns that CPU *)
external pin_here : unit -> int = "perfbench_pin_here"

(* peak resident set (VmHWM) of a live process, in MiB *)
let proc_hwm_mb pid =
  let s = read_file (Printf.sprintf "/proc/%d/status" pid) in
  let line =
    List.find
      (fun l -> String.length l > 6 && String.sub l 0 6 = "VmHWM:")
      (String.split_on_char '\n' s)
  in
  Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)

(* reap a child we signalled; its exit code ([-signal] if killed) *)
let reap pid =
  let code, _, _ = wait4 pid in
  code
