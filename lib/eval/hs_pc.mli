(** Algorithm ComputeHSPC (Fig 2): the parents and children operators by
    one stack sweep of the merged sorted inputs; linear I/O
    (Theorem 5.1). *)

val parents :
  ?window:int -> Entry.t Ext_list.t -> Entry.t Ext_list.t -> Entry.t Ext_list.t
(** [(p L1 L2)]: L1 entries with at least one parent in L2. *)

val children :
  ?window:int -> Entry.t Ext_list.t -> Entry.t Ext_list.t -> Entry.t Ext_list.t
(** [(c L1 L2)]: L1 entries with at least one child in L2. *)

val compute :
  ?window:int ->
  [ `P | `C ] ->
  Entry.t Ext_list.t ->
  Entry.t Ext_list.t ->
  Entry.t Ext_list.t
