(** Sampled multi-channel waveforms — the result type of every simulator
    in this library.

    A waveform holds a strictly increasing time grid and one row per
    channel (output or state variable), sampled on that grid. OPM's BPF
    solution is piecewise constant; time-steppers produce point samples;
    both are represented the same way so the error metrics can compare
    them. *)

type t = {
  times : float array;  (** sample instants, strictly increasing *)
  channels : float array array;  (** [channels.(c).(k)] at [times.(k)] *)
  labels : string array;  (** one label per channel *)
}

val make : ?labels:string array -> float array -> float array array -> t
(** Validates that every channel has the same length as [times] and that
    times strictly increase. Default labels are ["y0", "y1", …]. *)

val channel_count : t -> int

val sample_count : t -> int

val channel : t -> int -> float array

val channel_named : t -> string -> float array
(** Raises [Not_found] for an unknown label. *)

val of_function : ?labels:string array -> float array -> (float -> float array) -> t
(** Sample a vector function of time on the grid. *)

val sample_at : t -> float -> float array
(** Linear interpolation between samples; constant extrapolation
    outside. *)

val resample : t -> float array -> t
(** Interpolate every channel onto a new grid. *)

val bpf_grid : t_end:float -> m:int -> float array
(** Midpoints of the [m] BPF intervals of [[0, t_end)] — the natural
    grid on which to compare a BPF expansion with a reference. *)

val to_csv : t -> string

val print_csv : ?oc:out_channel -> t -> unit
