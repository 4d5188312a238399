(** Algorithm ComputeHSAD (Fig 4): ancestors and descendants with
    incremental count propagation along the stack; linear I/O
    (Theorem 5.1). *)

val ancestors :
  ?window:int -> Entry.t Ext_list.t -> Entry.t Ext_list.t -> Entry.t Ext_list.t
(** [(a L1 L2)]: L1 entries with a proper ancestor in L2. *)

val descendants :
  ?window:int -> Entry.t Ext_list.t -> Entry.t Ext_list.t -> Entry.t Ext_list.t
(** [(d L1 L2)]: L1 entries with a proper descendant in L2. *)

val compute :
  ?window:int ->
  [ `A | `D ] ->
  Entry.t Ext_list.t ->
  Entry.t Ext_list.t ->
  Entry.t Ext_list.t
