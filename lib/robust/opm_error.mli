(** Structured errors for the solve path.

    Every guarded failure mode of the simulator is a constructor here,
    so drivers ([bin/opm_sim], tests, services embedding the library)
    can react to *what* failed — which column of the coefficient
    equation, at which escalation stage, with what pivot magnitude —
    instead of pattern-matching on a [Failure] string. The engine only
    raises {!Error} after its fallback cascade (iterative refinement →
    strict pivoting → sparse→dense) is exhausted. *)

type t =
  | Singular_pencil of {
      column : int;  (** time column of the coefficient equation *)
      step : int;  (** elimination step / matrix column that ran out of
                       pivots (a state index for the MNA pencil) *)
      pivot : float;  (** magnitude of the best rejected pivot *)
      name : string option;  (** state name for [step], when known *)
    }
      (** No acceptable pivot while factorising [d_ii·E − A], even with
          strict partial pivoting and a dense fallback. *)
  | Non_finite of {
      stage : string;  (** e.g. ["solve"], ["adaptive"], ["output"] *)
      column : int option;  (** offending time column, when known *)
      nans : int;
      infs : int;
    }
      (** A result vector contained NaN/Inf after every fallback. *)
  | Ill_conditioned of {
      cond : float;  (** 1-norm condition estimate *)
      limit : float;  (** threshold that was exceeded *)
      column : int option;
    }
      (** A matrix singular to working precision where no answer is
          acceptable: DC analysis raises it when the estimate for the
          row-equilibrated [A] reaches [1/ε]. The transient engine itself only warns. *)
  | Parse_error of { line : int; message : string }
      (** Netlist syntax error (mirror of [Circuit.Parser.Parse_error]
          for uniform rendering). *)
  | Resource_limit of { what : string; limit : int }
      (** A bounded retry loop hit its cap, e.g. adaptive local grid
          refinement. *)
  | Deadline_exceeded of {
      site : string;  (** cooperative check-point that noticed, e.g.
                          ["engine.column"] or ["window.boundary"] *)
      elapsed_s : float;
      deadline_s : float;
    }
      (** A {!Budget} wall-clock deadline passed. The windowed driver
          re-raises this wrapped in [Window.Interrupted] carrying the
          usable solution prefix and the last checkpoint path. *)
  | Budget_exhausted of {
      what : string;  (** ["factorisations"] or ["heap_bytes"] *)
      used : int;
      limit : int;
      site : string;
    }  (** A countable {!Budget} resource ran out. *)
  | Io_error of { path : string; message : string }
      (** A filesystem operation (checkpoint write, report export)
          failed — includes simulated ENOSPC from fault injection. *)
  | Checkpoint_error of { path : string; message : string }
      (** A checkpoint file failed to load: missing, unparsable, wrong
          schema/version, checksum mismatch, or fingerprint conflict
          with the run being resumed. *)
  | Fault_injected of { site : string; kind : string }
      (** An armed {!Fault} plan fired a kind the site has no natural
          mechanical simulation for; always a structured failure, never
          a silent wrong answer. *)

exception Error of t

val raise_ : t -> 'a
(** [raise_ e] raises [Error e]. *)

val to_string : t -> string
(** One-line human-readable rendering. *)
