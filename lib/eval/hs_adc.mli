(** Algorithm ComputeHSADc (Fig 5): path-constrained ancestors and
    descendants — witnesses with no third-operand entry strictly
    between; linear I/O in all three inputs (Theorem 5.1). *)

val ancestors_c :
  ?window:int ->
  Entry.t Ext_list.t ->
  Entry.t Ext_list.t ->
  Entry.t Ext_list.t ->
  Entry.t Ext_list.t
(** [(ac L1 L2 L3)]. *)

val descendants_c :
  ?window:int ->
  Entry.t Ext_list.t ->
  Entry.t Ext_list.t ->
  Entry.t Ext_list.t ->
  Entry.t Ext_list.t
(** [(dc L1 L2 L3)]. *)

val compute :
  ?window:int ->
  [ `Ac | `Dc ] ->
  Entry.t Ext_list.t ->
  Entry.t Ext_list.t ->
  Entry.t Ext_list.t ->
  Entry.t Ext_list.t
