(** The experiment registry: one entry per table/figure/theorem the
    repository reproduces, keyed by the DESIGN.md experiment id. *)

type entry = {
  id : string;  (** e.g. "EXP-FIG2-LB" *)
  paper_artifact : string;  (** e.g. "Theorem 3.11 / Figure 2" *)
  description : string;
  run : ?quick:bool -> unit -> Ufp_prelude.Table.t list;
}

val all : entry list
(** Every experiment, in DESIGN.md order. *)

val find : string -> entry option
(** Lookup by id, case-insensitive. *)

val run_and_print : ?quick:bool -> ?oc:out_channel -> entry -> unit
(** Run an experiment and print its tables with a header line. *)

val save_csv : dir:string -> entry -> Ufp_prelude.Table.t list -> string list
(** [save_csv ~dir entry tables] writes one CSV per table of [entry]'s
    run into [dir] (created if missing), named [<id>-<k>.csv]. Returns
    the file paths. *)
